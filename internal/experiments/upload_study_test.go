package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sched"
)

// TestSuiteMemoSameResults pins the sharing: Fig13, ExtTriples and
// AblationGreedy return identical Results (Text, Files, Metrics) when each
// computes the upload study alone and when they share one suite memo, in
// suite order, in reverse, or all at once (which exercises the memo's
// locks under -race).
func TestSuiteMemoSameResults(t *testing.T) {
	p := QuickParams()
	drivers := []Runner{
		{"fig13", "", Fig13},
		{"ext-triples", "", ExtTriples},
		{"ablation-greedy", "", AblationGreedy},
	}
	alone := map[string]Result{}
	for _, d := range drivers {
		r, err := d.Run(context.Background(), p)
		if err != nil {
			t.Fatalf("%s alone: %v", d.ID, err)
		}
		alone[d.ID] = r
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		ctx := WithSuiteMemo(context.Background())
		for _, i := range order {
			d := drivers[i]
			r, err := d.Run(ctx, p)
			if err != nil {
				t.Fatalf("%s shared: %v", d.ID, err)
			}
			if !reflect.DeepEqual(r, alone[d.ID]) {
				t.Errorf("%s: shared study (order %v) changed the Result", d.ID, order)
			}
		}
	}
	ctx := WithSuiteMemo(context.Background())
	got := make([]Result, len(drivers))
	errs := make([]error, len(drivers))
	var wg sync.WaitGroup
	for i, d := range drivers {
		wg.Add(1)
		go func(i int, d Runner) {
			defer wg.Done()
			got[i], errs[i] = d.Run(ctx, p)
		}(i, d)
	}
	wg.Wait()
	for i, d := range drivers {
		if errs[i] != nil {
			t.Fatalf("%s concurrent: %v", d.ID, errs[i])
		}
		if !reflect.DeepEqual(got[i], alone[d.ID]) {
			t.Errorf("%s: concurrent shared study changed the Result", d.ID)
		}
	}
}

// TestUploadStudyLazy: a variant is solved on first use only, and a
// cancelled solve keeps nothing for the next caller.
func TestUploadStudyLazy(t *testing.T) {
	st, err := newUploadStudy(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.totals(dead, variantPowerControl); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
	}
	got, err := st.totals(context.Background(), variantPairing)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(st.snaps) || len(got) == 0 {
		t.Fatalf("%d totals for %d snapshots", len(got), len(st.snaps))
	}
	for v := range uploadVariants {
		if solved := st.solved[v] != nil; solved != (v == variantPairing) {
			t.Errorf("variant %d (%s): solved = %v after asking for variant %d only",
				v, uploadVariants[v].name, solved, variantPairing)
		}
	}
}

// BenchmarkFig13InstanceMix is the stage bench for cold matching on small
// graphs: it replays Fig. 13's paper-scale instance mix (every usable
// snapshot of the DefaultParams trace, 2 to 21 clients) through sched.New
// under each of the figure's three variants, as one Fig13 pass solves
// them. ns/solve is the mean cold solve.
func BenchmarkFig13InstanceMix(b *testing.B) {
	p := DefaultParams()
	st, err := newUploadStudy(p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	solves := 0
	for i := 0; i < b.N; i++ {
		for v := range uploadVariants {
			opts := variantOptions(p, v)
			for _, s := range st.snaps {
				if _, err := sched.New(ctx, s.clients, opts); err != nil {
					b.Fatal(err)
				}
				solves++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(solves), "ns/solve")
}
