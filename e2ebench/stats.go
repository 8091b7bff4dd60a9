package main

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes one metric's samples within a run: the reported
// value, the quartiles of the samples it came from, and how many there
// were.
type Summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Pct names the percentile a tail value sits at ("p98.3"); empty for
	// every other metric.
	Pct string `json:"pct,omitempty"`
}

// quartiles returns the first quartile, the median and the third quartile
// of xs with the "exclusive" method of Python's statistics.quantiles
// (n=4), so figures match what a reader computes from the same samples.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	return quantileExclusive(s, 0.25), median(s), quantileExclusive(s, 0.75)
}

// quantileExclusive is the p-quantile of sorted s (len >= 2) exactly as
// Python's statistics.quantiles computes it with method="exclusive":
// position p*(n+1), interpolated between the two neighbouring samples and
// extrapolated past the ends rather than clamped.
func quantileExclusive(s []float64, p float64) float64 {
	pos := p * float64(len(s)+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > len(s)-1 {
		j = len(s) - 1
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it — the sample with exactly tailBeyond larger ones —
// and that percentile's name. With too few samples for any such
// percentile it falls back to the maximum, named "max".
func tail(xs []float64) (float64, string) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, "max"
	}
	if n <= tailBeyond {
		return s[n-1], "max"
	}
	pct := 100 * float64(n-tailBeyond) / float64(n)
	return s[n-tailBeyond-1], fmt.Sprintf("p%.4g", pct)
}

// summarize reports xs by its median.
func summarize(xs []float64, unit string) Summary {
	q1, med, q3 := quartiles(xs)
	return Summary{Value: med, Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// summarizeTail reports xs by its tail percentile.
func summarizeTail(xs []float64, unit string) Summary {
	s := summarize(xs, unit)
	s.Value, s.Pct = tail(xs)
	return s
}

// single reports a metric that is one figure for the whole run.
func single(v float64, unit string) Summary {
	return Summary{Value: v, Unit: unit, Median: v, Q1: v, Q3: v, N: 1}
}

// spread is the interquartile range as a share of the median, the
// steadiness figure the benchmark's bounds are checked against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// inf is the latency a failed request records: it misses every limit.
var inf = math.Inf(1)
