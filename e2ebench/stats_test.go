package main

import (
	"math"
	"testing"
)

func seq(n int) *dist {
	d := &dist{}
	for i := 1; i <= n; i++ {
		d.add(float64(i))
	}
	return d
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		name   string
		d      *dist
		pct    float64
		value  float64
		beyond int
	}{
		{"p99 has exactly ten beyond", seq(1000), 99, 990, 10},
		{"p99 has nine beyond, so p90", seq(999), 90, 900, 99},
		{"too few for p90, so the median", seq(50), 50, 25, 25},
	}
	for _, c := range cases {
		got := c.d.tail()
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.N != c.d.n() {
			t.Errorf("%s: tail() = %+v, want p%v = %v with %d beyond of %d", c.name, got, c.pct, c.value, c.beyond, c.d.n())
		}
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	d := seq(989)
	for i := 0; i < 11; i++ {
		d.fail()
	}
	tl := d.tail()
	if tl.Pct != 99 || !math.IsInf(tl.Value, 1) || tl.N != 1000 {
		t.Fatalf("with 11 of 1000 requests refused, tail() = %+v, want p99 = +Inf over 1000", tl)
	}
	if m := d.median(); m != 500 {
		t.Fatalf("median = %v, want 500: refused requests rank above every served one", m)
	}
	if !math.IsInf(d.max(), 1) {
		t.Fatalf("max = %v, want +Inf", d.max())
	}
}

func TestFailedShare(t *testing.T) {
	var tl tally
	if tl.failedShare() != 0 {
		t.Fatalf("empty tally share = %v, want 0", tl.failedShare())
	}
	for i := 0; i < 7; i++ {
		tl.record(true)
	}
	tl.record(false) // refused: 503 + Retry-After
	tl.record(false) // transport error
	if tl.attempted != 9 || tl.failed != 2 {
		t.Fatalf("tally = %+v, want 9 attempted, 2 failed", tl)
	}
	if got, want := tl.failedShare(), 2.0/9; got != want {
		t.Fatalf("failedShare = %v, want %v", got, want)
	}
}

func TestRecorderCountsEveryAttemptButTimesOnlyMeasured(t *testing.T) {
	r := &recorder{}
	r.observe(kindSQL, 1000, true, false) // warmup
	r.observe(kindSQL, 2000, true, true)
	r.observe(kindVote, 0, false, true)
	if r.tally.attempted != 3 || r.tally.failed != 1 {
		t.Fatalf("tally = %+v, want 3 attempted, 1 failed", r.tally)
	}
	if n := r.lat[kindSQL].n(); n != 1 {
		t.Fatalf("measured sql samples = %d, want 1", n)
	}
	if v := r.lat[kindVote].median(); !math.IsInf(v, 1) {
		t.Fatalf("a failed vote's latency = %v, want +Inf", v)
	}
}
