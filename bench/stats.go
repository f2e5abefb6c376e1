package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice. Empty input is 0.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), because
// that is the arithmetic the acceptance rule for this benchmark is stated
// in. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is read against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// tailEligible reports whether the q-quantile of n samples has at least
// ten samples beyond it — the rule for printing a tail percentile at all.
func tailEligible(n int, q float64) bool {
	return math.Floor(float64(n)*(1-q)+1e-9) >= 10 // 100 × (1 − 0.9) is 9.999… in floating point
}

// opSample is one completed operation of the measured phase.
type opSample struct {
	start   float64 // seconds since the phase began
	seconds float64 // op wall time
	bytes   int64   // verified payload bytes
}

// sixthMedianGoodput splits the phase into six equal slices by op start
// time, computes verified bytes ÷ summed op time in each non-empty slice
// and returns the median slice in MB/s (1 MB = 1e6 bytes). A GC pause stays
// inside the slice it hit; one noisy slice cannot move the result.
func sixthMedianGoodput(ops []opSample, phaseSeconds float64) float64 {
	if len(ops) == 0 || phaseSeconds <= 0 {
		return 0
	}
	var bytes [6]float64
	var secs [6]float64
	for _, op := range ops {
		i := int(op.start / phaseSeconds * 6)
		if i > 5 { // an op that started as the phase ended
			i = 5
		}
		bytes[i] += float64(op.bytes)
		secs[i] += op.seconds
	}
	var rates []float64
	for i := range bytes {
		if secs[i] > 0 {
			rates = append(rates, bytes[i]/secs[i]/1e6)
		}
	}
	return median(rates)
}

// unionSeconds returns the total length covered by the given [start, end)
// intervals, counting overlapped stretches once.
func unionSeconds(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]float64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	total := 0.0
	curS, curE := s[0][0], s[0][1]
	for _, x := range s[1:] {
		if x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	return total + (curE - curS)
}
