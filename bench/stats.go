package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind it (0 for a
// number that is not a statistic of samples, such as a ratio of two totals).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// samples collects durations of one operation kind.
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median sorts a copy; use sorted().quantile when taking several quantiles.
func (s samples) median() time.Duration { return s.sorted().quantile(0.5) }

// tailLevel is the highest percentile that still has at least ten samples
// beyond it: one of the conventional levels when the sample supports it,
// otherwise the order statistic with exactly ten samples above it. With 20
// samples or fewer there is no supported tail and the median stands in.
func tailLevel(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	if n > 20 {
		return float64(n-10) / float64(n)
	}
	return 0.5
}

// summary is the per-operation-kind digest printed beside the metrics.
type summary struct {
	N      int     `json:"n"`
	P50Ms  float64 `json:"p50_ms"`
	Tail   string  `json:"tail"`
	TailMs float64 `json:"tail_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func summarize(s samples) summary {
	if len(s) == 0 {
		return summary{}
	}
	so := s.sorted()
	q := tailLevel(len(so))
	return summary{
		N:      len(so),
		P50Ms:  ms(so.quantile(0.5)),
		Tail:   fmt.Sprintf("p%.4g", q*100),
		TailMs: ms(so.quantile(q)),
		MaxMs:  ms(so[len(so)-1]),
	}
}

// medianOf is the median of a handful of scalar measurements (set-up times,
// heap sizes, probe repetitions).
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianDur times f reps times and returns the median duration. f's error
// aborts the measurement.
func medianDur(reps int, f func() error) (time.Duration, error) {
	var s samples
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		s.add(time.Since(t))
	}
	return s.median(), nil
}
