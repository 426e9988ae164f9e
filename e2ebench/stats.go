package main

import (
	"math"
	"sort"
)

// dist is a latency distribution in which a failed or refused request is
// a sample beyond every limit: it sorts as +Inf, so it can only push
// percentiles up, never be silently dropped.
type dist struct {
	vals   []float64
	failed int
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v) }
func (d *dist) fail()         { d.failed++ }
func (d *dist) n() int        { return len(d.vals) + d.failed }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) and
// how many samples lie beyond it. An empty distribution reads 0.
func (d *dist) percentile(p float64) (value float64, beyond int) {
	n := d.n()
	if n == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), d.vals...)
	sort.Float64s(sorted)
	for i := 0; i < d.failed; i++ {
		sorted = append(sorted, math.Inf(1))
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

func (d *dist) median() float64 {
	v, _ := d.percentile(50)
	return v
}

func (d *dist) sum() float64 {
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s
}

func (d *dist) max() float64 {
	if d.failed > 0 {
		return math.Inf(1)
	}
	m := 0.0
	for _, v := range d.vals {
		m = math.Max(m, v)
	}
	return m
}

// tailPercentiles are the candidates of the tail rule, highest first.
var tailPercentiles = []float64{99, 90, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail is a tail latency together with the evidence behind it.
type tail struct {
	Pct    float64 `json:"pct"`
	Value  float64 `json:"value"`
	Beyond int     `json:"beyond"`
	N      int     `json:"n"`
}

// tail applies the tail rule: the highest of p99/p90 with at least
// minBeyond samples beyond it, falling back to the median for tiny
// samples, so a reported tail is never the single slowest request.
func (d *dist) tail() tail {
	last := tailPercentiles[len(tailPercentiles)-1]
	for _, p := range tailPercentiles {
		v, beyond := d.percentile(p)
		if beyond >= minBeyond || p == last {
			return tail{Pct: p, Value: v, Beyond: beyond, N: d.n()}
		}
	}
	return tail{}
}

// tally counts requests of every kind; a failed or refused request counts
// in both fields.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// failedShare is failed/attempted, 0 when nothing was attempted.
func (t tally) failedShare() float64 {
	return ratio(float64(t.failed), float64(t.attempted))
}

// median of a plain sample (no failures), 0 when empty.
func median(xs []float64) float64 {
	d := dist{vals: xs}
	return d.median()
}

// ratio is num/den, 0 when den is 0 (a layer the workload never exercises).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
