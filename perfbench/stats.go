package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// method, or 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed by the compare mode match the
// acceptance arithmetic. It needs at least two values; with fewer it
// returns the single value (or 0) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durHist is a log-linear histogram of nanosecond durations with 32
// sub-buckets per power of two (values below 64 are exact), so any
// quantile it reports is within about 1.6% of the true sample. Recording
// is two shifts and an increment: cheap enough to sit inside the timing
// decorators without allocating.
type durHist struct {
	counts [64 + 58*32]uint64
	n      uint64
	sum    uint64
}

func histIndex(v uint64) int {
	if v < 64 {
		return int(v)
	}
	shift := bits.Len64(v) - 6
	return 64 + (shift-1)*32 + int(v>>uint(shift)) - 32
}

func histValue(i int) float64 {
	if i < 64 {
		return float64(i)
	}
	shift := (i-64)/32 + 1
	mant := uint64((i-64)%32 + 32)
	lo := mant << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift))/2
}

func (h *durHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

// quantile returns the q-quantile (nearest rank) of the recorded values.
func (h *durHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}

func (h *durHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
