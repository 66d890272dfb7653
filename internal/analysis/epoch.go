package analysis

import (
	"fmt"
	"sort"
	"strings"

	"goingwild/internal/churn"
	"goingwild/internal/dnswire"
	"goingwild/internal/scanner"
)

// RenderEpochDelta renders one epoch of the weekly series as a live
// churn update: the delta composition (adds, removes, rcode or source
// flips) followed by the week's running Figure-1 line and the top
// country movements. It is the per-epoch view the report binaries print
// to stderr under -progress; the final tables go to stdout.
func RenderEpochDelta(obs *churn.WeekObservation, d churn.EpochDelta, scale Scale) string {
	var adds, updates, removes int
	for _, dl := range d.Deltas {
		switch dl.Op {
		case scanner.DeltaAdd:
			adds++
		case scanner.DeltaUpdate:
			updates++
		case scanner.DeltaRemove:
			removes++
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "epoch %2d  +%d -%d ~%d  responders %.0f  (NOERROR %.0f, REFUSED %.0f)\n",
		d.Week, adds, removes, updates,
		scale.Extrapolate(obs.Total),
		scale.Extrapolate(obs.ByRCode[dnswire.RCodeNoError]),
		scale.Extrapolate(obs.ByRCode[dnswire.RCodeRefused]))
	for _, row := range topCountries(obs, 5) {
		fmt.Fprintf(&sb, "          %-8s %8.0f\n", row.key, scale.Extrapolate(row.n))
	}
	return sb.String()
}

type countryCount struct {
	key string
	n   int
}

// topCountries lists the week's largest resolver populations, ties
// broken by country code so the live table is as deterministic as the
// series behind it.
func topCountries(obs *churn.WeekObservation, topN int) []countryCount {
	rows := make([]countryCount, 0, len(obs.ByCountry))
	for c, n := range obs.ByCountry {
		rows = append(rows, countryCount{key: c, n: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].key < rows[j].key
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}
