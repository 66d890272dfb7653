// Package ampli surveys the amplification-DDoS potential of the open
// resolver population — the threat framing of the paper's introduction
// and of the authors' companion study (Kührer et al., USENIX Security
// 2014): the scanner's ANY scan asks every resolver, and the bandwidth
// amplification factor (response bytes over request bytes) is computed
// here from what came back.
package ampli

import (
	"context"
	"sort"

	"goingwild/internal/scanner"
)

// Measurement is one resolver's amplification result.
type Measurement struct {
	Addr         uint32
	RequestSize  int
	ResponseSize int
}

// BAF returns the bandwidth amplification factor.
func (m Measurement) BAF() float64 {
	if m.RequestSize == 0 {
		return 0
	}
	return float64(m.ResponseSize) / float64(m.RequestSize)
}

// Survey aggregates a population's amplification measurements, in the
// BAF_all / BAF_50 / BAF_10 shape amplifier studies report.
type Survey struct {
	Measurements []Measurement
	// Responded counts resolvers that answered the ANY probe.
	Responded int
	// Refused counts resolvers rejecting ANY queries.
	Refused int
}

// bafs returns the sorted (ascending) amplification factors.
func (s *Survey) bafs() []float64 {
	out := make([]float64, 0, len(s.Measurements))
	for _, m := range s.Measurements {
		out = append(out, m.BAF())
	}
	sort.Float64s(out)
	return out
}

// BAFAll returns the mean amplification factor over all responders.
func (s *Survey) BAFAll() float64 {
	b := s.bafs()
	if len(b) == 0 {
		return 0
	}
	var sum float64
	for _, v := range b {
		sum += v
	}
	return sum / float64(len(b))
}

// BAFTop returns the mean amplification of the worst `fraction` of
// responders (BAF_50 = fraction 0.5, BAF_10 = fraction 0.1).
func (s *Survey) BAFTop(fraction float64) float64 {
	b := s.bafs()
	if len(b) == 0 {
		return 0
	}
	n := int(float64(len(b)) * fraction)
	if n < 1 {
		n = 1
	}
	top := b[len(b)-n:]
	var sum float64
	for _, v := range top {
		sum += v
	}
	return sum / float64(len(top))
}

// CountAbove counts responders whose BAF exceeds the threshold (the
// abuse-worthy amplifiers an attacker would harvest).
func (s *Survey) CountAbove(threshold float64) int {
	n := 0
	for _, m := range s.Measurements {
		if m.BAF() > threshold {
			n++
		}
	}
	return n
}

// Run scans the resolvers with one ANY query for name each and turns the
// response sizes into the survey. A cancelled scan yields the survey of
// the answers gathered before the abort, with ctx.Err().
func Run(ctx context.Context, sc *scanner.Scanner, resolvers []uint32, name string) (*Survey, error) {
	res, err := sc.ScanANYContext(ctx, resolvers, name)
	if res == nil {
		return nil, err
	}
	survey := &Survey{}
	for u, a := range res.Answers {
		if a.Refused {
			survey.Refused++
			survey.Responded++
		}
		if a.Size > 0 {
			survey.Responded++
			survey.Measurements = append(survey.Measurements, Measurement{Addr: u, RequestSize: res.RequestSize, ResponseSize: a.Size})
		}
	}
	sort.Slice(survey.Measurements, func(i, j int) bool {
		return survey.Measurements[i].Addr < survey.Measurements[j].Addr
	})
	return survey, err
}
