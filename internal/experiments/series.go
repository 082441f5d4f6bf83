package experiments

import (
	"math"
	"sort"
	"time"
)

// series accumulates (time, value) samples into fixed-width bins relative
// to an origin, averaging samples within a bin. The paper's timeline plots
// use 10-second bins from -180 s to +570 s around the rebalance start.
type series struct {
	origin   time.Duration
	binWidth time.Duration
	sums     map[int]float64
	counts   map[int]int
}

// newSeries creates a series with the given origin and bin width.
func newSeries(origin, binWidth time.Duration) *series {
	return &series{
		origin:   origin,
		binWidth: binWidth,
		sums:     make(map[int]float64),
		counts:   make(map[int]int),
	}
}

// add records a sample at absolute time at.
func (s *series) add(at time.Duration, v float64) {
	bin := int(math.Floor(float64(at-s.origin) / float64(s.binWidth)))
	s.sums[bin] += v
	s.counts[bin]++
}

// Bin holds one aggregated point.
type Bin struct {
	Start time.Duration // relative to origin
	Mean  float64
	Count int
	Sum   float64
}

// bins returns aggregated bins in time order.
func (s *series) bins() []Bin {
	idx := make([]int, 0, len(s.sums))
	for b := range s.sums {
		idx = append(idx, b)
	}
	sort.Ints(idx)
	out := make([]Bin, 0, len(idx))
	for _, b := range idx {
		n := s.counts[b]
		out = append(out, Bin{
			Start: time.Duration(b) * s.binWidth,
			Mean:  s.sums[b] / float64(n),
			Count: n,
			Sum:   s.sums[b],
		})
	}
	return out
}

// ratePerSecond returns bins whose value is Sum scaled to events/second
// (for throughput series where add is called with weight 1 per event).
func (s *series) ratePerSecond() []Bin {
	bins := s.bins()
	for i := range bins {
		bins[i].Mean = bins[i].Sum / s.binWidth.Seconds()
	}
	return bins
}
