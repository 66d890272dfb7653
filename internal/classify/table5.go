package classify

import (
	"sort"

	"goingwild/internal/domains"
)

// Stat is one Table-5 cell: the average share of a label among a
// category's suspicious resolvers, plus the highest share any single
// domain of the category reached.
type Stat struct {
	Avg       float64
	Max       float64
	MaxDomain string
}

// Table5 accumulates the label×category matrix.
type Table5 struct {
	// perDomain[category][domain][label] = share of that domain's
	// suspicious (payload-bearing) resolvers.
	perDomain map[domains.Category]map[string]map[Label]float64
	// Cells is the finalized matrix.
	Cells map[domains.Category]map[Label]Stat
}

// NewTable5 builds an empty accumulator.
func NewTable5() *Table5 {
	return &Table5{
		perDomain: map[domains.Category]map[string]map[Label]float64{},
		Cells:     map[domains.Category]map[Label]Stat{},
	}
}

// AddDomain records one scanned domain's label counts. denom is the
// number of suspicious resolvers with HTTP payload for the domain.
func (t *Table5) AddDomain(cat domains.Category, name string, counts map[Label]int, denom int) {
	if denom == 0 {
		return
	}
	if t.perDomain[cat] == nil {
		t.perDomain[cat] = map[string]map[Label]float64{}
	}
	shares := map[Label]float64{}
	for _, l := range TableLabels {
		shares[l] = float64(counts[l]) / float64(denom)
	}
	t.perDomain[cat][name] = shares
}

// Finalize computes per-category averages and maxima.
func (t *Table5) Finalize() {
	for cat, byDomain := range t.perDomain {
		// Visit domains in name order so MaxDomain is stable when two
		// domains tie on share.
		names := make([]string, 0, len(byDomain))
		for name := range byDomain {
			names = append(names, name)
		}
		sort.Strings(names)
		cell := map[Label]Stat{}
		for _, l := range TableLabels {
			var sum float64
			st := Stat{}
			for _, name := range names {
				v := byDomain[name][l]
				sum += v
				if v > st.Max {
					st.Max = v
					st.MaxDomain = name
				}
			}
			st.Avg = sum / float64(len(byDomain))
			cell[l] = st
		}
		t.Cells[cat] = cell
	}
}

// Share returns a finalized cell.
func (t *Table5) Share(cat domains.Category, l Label) Stat {
	if cell, ok := t.Cells[cat]; ok {
		return cell[l]
	}
	return Stat{}
}
