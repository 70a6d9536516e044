package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles is the ladder the tail rule picks from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tail applies the reporting rule for a timing: the highest percentile of
// the ladder that still has at least ten samples beyond it. It returns the
// percentile, its value and the number of samples beyond it; with fewer
// than 20 samples no percentile qualifies and pct is 0.
func tail(xs []float64) (pct, value float64, beyond int) {
	for _, p := range tailPercentiles {
		b := int(math.Floor(float64(len(xs))*(100-p)/100 + 1e-6))
		if b < 10 {
			break
		}
		pct, beyond = p, b
	}
	if pct == 0 {
		return 0, 0, 0
	}
	return pct, quantile(xs, pct/100), beyond
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the spread of
// repeated runs is judged by. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of repeated runs as a share of
// their median (0 for one run or a zero median).
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// worseBy returns how much worse newV is than oldV as a share of oldV, for
// a metric where lower (or, with higherBetter, higher) is better. A
// negative result is an improvement.
func worseBy(oldV, newV float64, higherBetter bool) float64 {
	if oldV == 0 {
		if newV == oldV {
			return 0
		}
		return math.Inf(1)
	}
	d := (newV - oldV) / math.Abs(oldV)
	if higherBetter {
		return -d
	}
	return d
}

// span is one traced interval. Times are microseconds since the traced
// run started; Parent 0 marks a root. Spans of one closed-loop call share
// Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Worker string  `json:"worker,omitempty"`
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by the union of its children, which may nest or
// overlap one another (two fabric workers computing at once).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, curS, curE, open := 0.0, 0.0, 0.0, false
		for _, k := range kids {
			ks, ke := math.Max(k.Start, s.Start), math.Min(k.End, s.End)
			switch {
			case ke <= ks:
			case !open:
				curS, curE, open = ks, ke, true
			case ks > curE:
				covered += curE - curS
				curS, curE = ks, ke
			default:
				curE = math.Max(curE, ke)
			}
		}
		if open {
			covered += curE - curS
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}
