package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of xs by the nearest-rank rule
// on a sorted copy: the smallest value with at least p of the samples at or
// below it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// summary is a timing or count metric computed once per segment and
// reported as the median over segments, with the extremes alongside.
type summary struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// overSegments summarizes one value per segment.
func overSegments(unit string, perSegment []float64) summary {
	s := summary{Value: median(perSegment), Unit: unit, Samples: len(perSegment)}
	if len(perSegment) > 0 {
		s.Min, s.Max = perSegment[0], perSegment[0]
		for _, v := range perSegment[1:] {
			s.Min = math.Min(s.Min, v)
			s.Max = math.Max(s.Max, v)
		}
	}
	return s
}

// quietest takes measurements of inputs that repeat with period n (xs[k]
// measures input k%n) and returns each input's smallest measurement over
// its repetitions: what the input costs when nothing outside the program
// slows it. +Inf marks a measurement that is missing.
func quietest(xs []float64, n int) []float64 {
	best := make([]float64, min(n, len(xs)))
	copy(best, xs)
	for k := n; k < len(xs); k++ {
		best[k%n] = math.Min(best[k%n], xs[k])
	}
	return best
}

// quiet is a timing metric whose value says what the system does while the
// host leaves it alone (see window.endToEnd); min and max are the extremes
// of perPart, the same metric computed for each part of the window (replay
// cycle, block of jobs) on its own.
func quiet(unit string, value float64, perPart []float64) summary {
	s := overSegments(unit, perPart)
	s.Value = value
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// single is a metric measured once per run.
func single(unit string, v float64) summary {
	return summary{Value: v, Unit: unit, Min: v, Max: v, Samples: 1}
}

// planSegments sizes the measured window: segments of a whole number of
// replay periods each, so every segment sees identical inputs. It takes
// the most segments, 10 down to 5, for which rounding down to whole periods
// wastes under a fifth of the budget; a budget under five periods still
// gets five one-period segments.
func planSegments(budget int) (segments, framesPerSegment int) {
	for s := 10; s > 5; s-- {
		if f := budget / s / period * period; f > 0 && 5*s*f >= 4*budget {
			return s, f
		}
	}
	return 5, max(budget/5/period, 1) * period
}
