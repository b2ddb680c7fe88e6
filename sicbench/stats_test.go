package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so newDist must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},    // rank 990, 10 beyond
		{999, 0.99, 990, false},    // rank 990, 9 beyond
		{100, 0.90, 90, true},      // rank 90, 10 beyond
		{99, 0.90, 90, false},      // rank 90, 9 beyond
		{10000, 0.999, 9990, true}, // rank 9990, 10 beyond
		{0, 0.99, 0, false},
	} {
		v, ok := newDist(seq(tc.n)).tail(tc.q)
		if ok != tc.ok || (tc.n > 0 && v != tc.want) {
			t.Errorf("n=%d q=%g: got (%g, %v), want (%g, %v)", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
}

func TestDistStringStatesCountAndOnlySupportedTails(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, omit []string
	}{
		{7, []string{"p50=4", "(n=7)"}, []string{"p90", "p99"}},
		{100, []string{"p50=50.5", "p90=90", "(n=100)"}, []string{"p99"}},
		{1000, []string{"p90=900", "p99=990", "(n=1000)"}, []string{"p99.9"}},
	} {
		s := newDist(seq(tc.n)).String()
		for _, w := range tc.want {
			if !strings.Contains(s, w) {
				t.Errorf("n=%d: %q lacks %q", tc.n, s, w)
			}
		}
		for _, o := range tc.omit {
			if strings.Contains(s, o+"=") {
				t.Errorf("n=%d: %q reports unsupported %s", tc.n, s, o)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := newDist([]float64{3, 1, 2}).median(); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := newDist([]float64{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 10e6, Parent: -1},
		{Name: "driver.a", Start: 1e6, End: 4e6, Parent: 0},
		{Name: "driver.b", Start: 5e6, End: 9e6, Parent: 0},
	}
	if got := selfTimes(spans, "pass"); len(got) != 1 || got[0] != 3 {
		t.Errorf("pass self time = %v ms, want [3]", got)
	}
	if got := durations(spans, "driver.b"); len(got) != 1 || got[0] != 4 {
		t.Errorf("driver.b duration = %v ms, want [4]", got)
	}
}
