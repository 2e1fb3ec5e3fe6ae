package main

import (
	"math"
	"sort"
)

// summary is how every repeated measurement is reported: median, quartiles
// and the sample count. No run here leaves ten samples beyond a high
// percentile, so none is reported.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and the quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so spreads
// computed here and by an outside harness agree.
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := summary{N: len(v)}
	switch len(v) {
	case 0:
		return s
	case 1:
		s.Median, s.Q1, s.Q3 = v[0], v[0], v[0]
		return s
	}
	quart := func(i int) float64 {
		const n = 4
		m := len(v) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(v)-1 {
			j = len(v) - 1
		}
		delta := float64(i*m - j*n)
		return (v[j-1]*(n-delta) + v[j]*delta) / n
	}
	s.Q1, s.Median, s.Q3 = quart(1), quart(2), quart(3)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
