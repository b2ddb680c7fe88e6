package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// referenceMetrics is results/metrics.json as committed: what
// sicfig -all -ablations writes at the default parameters and seed 1. The
// copy lives here because a checkout without ignored paths has no
// results/; TestReferenceMatchesResults keeps the two identical.
//
//go:embed reference/metrics.json
var referenceMetrics []byte

// suite is the set of drivers one regeneration pass runs: the paper's
// figures, then the ablations and extensions.
func suite() []experiments.Runner {
	return append(experiments.All(), experiments.Ablations()...)
}

// startupArg makes the binary exit as soon as it has started: runtime and
// package initialisation, nothing else.
const startupArg = "-startup-only"

// startupReps is how many cold starts setup_s takes the median of.
const startupReps = 21

// coldStart times one start of this binary, which links the same figure
// packages sicfig does. A regeneration pass has no set-up of its own (it
// is cold by design), so the figures set-up is the program's start-up;
// work a change moves into package initialisation shows here.
func coldStart() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := exec.Command(self, startupArg).Run(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// traceDrivers wraps every driver so the pass records a span around it.
func traceDrivers(tr *tracer, rs []experiments.Runner, parent int, op int64) []experiments.Runner {
	out := make([]experiments.Runner, len(rs))
	for i, r := range rs {
		run, name := r.Run, "driver."+r.ID
		r.Run = func(ctx context.Context, p experiments.Params) (experiments.Result, error) {
			id := tr.begin(name, parent, op)
			defer tr.end(id)
			return run(ctx, p)
		}
		out[i] = r
	}
	return out
}

// passOutput renders a pass's metrics the way sicfig writes metrics.json,
// or says why the pass failed.
func passOutput(rep *runner.Report, err error, want int) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	for _, f := range rep.Figures {
		if f.Status != runner.StatusOK {
			return nil, fmt.Errorf("%s: %s %s", f.ID, f.Status, f.Err)
		}
	}
	if len(rep.Figures) != want {
		return nil, fmt.Errorf("%d of %d figures ran", len(rep.Figures), want)
	}
	blob, err := json.MarshalIndent(rep.Metrics, "", "  ")
	return append(blob, '\n'), err
}

// runFigures is the figures workload: a closed loop of regeneration
// passes at paper scale (experiments.DefaultParams with the workload
// seed), each into a fresh scratch directory. Every pass's metrics must
// match results/metrics.json byte for byte at seed 1, and the run's first
// pass at any other seed.
func runFigures(cfg config) (*report, error) {
	rep := newReport()
	var setups []float64 // ms
	for i := 0; i < startupReps; i++ {
		d, err := coldStart()
		if err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		setups = append(setups, float64(d)/1e6)
	}
	rep.e2e["setup_s"] = newDist(setups).median() / 1e3

	rs := suite()
	params := experiments.DefaultParams()
	params.Seed = cfg.seed
	var want []byte
	wantFrom := "the run's first pass"
	if cfg.seed == 1 {
		want, wantFrom = referenceMetrics, "results/metrics.json"
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var all, traced, untraced, allocMB, gcs, peakMB []float64
	start := time.Now()
	for pass := int64(0); pass == 0 || time.Since(start) < cfg.duration(); pass++ {
		// Traced runs trace every other pass, starting with the first, so
		// the passes between give the tracing overhead.
		tracing := tr != nil && pass%2 == 0
		runners, root := rs, -1
		if tracing {
			root = tr.begin("pass", -1, pass)
			runners = traceDrivers(tr, rs, root, pass)
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("pass-%d", pass))
		// Every pass starts from a collected heap, as a fresh sicfig does,
		// and has its own peak resident memory.
		runtime.GC()
		resetPeakRSS()
		p0 := sampleProc()
		t0 := time.Now()
		out, err := runner.Run(context.Background(), runners, runner.Options{Params: params, OutDir: dir, KeepGoing: true})
		ms := float64(time.Since(t0)) / 1e6
		cost := sampleProc().sub(p0)
		peak := peakRSSMB()
		tr.end(root)
		os.RemoveAll(dir)

		rep.attempted++
		blob, err := passOutput(out, err, len(rs))
		switch {
		case err != nil:
			rep.failed++
			rep.problem("pass %d failed: %v", pass, err)
			continue
		case want == nil:
			want = blob
		case !bytes.Equal(blob, want):
			rep.failed++
			rep.problem("pass %d: metrics differ from %s", pass, wantFrom)
			continue
		}
		all = append(all, ms)
		if tracing {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
		peakMB = append(peakMB, peak)
		allocMB = append(allocMB, float64(cost.totalAlloc)/(1<<20))
		gcs = append(gcs, float64(cost.numGC))
	}

	d := newDist(all)
	total := 0.0
	for _, ms := range all {
		total += ms
	}
	rep.e2e["latency_p50_ms"] = d.median()
	rep.e2e["throughput_per_s"] = ratio(float64(len(all)), total/1e3)
	// The run's peak is the largest of the passes' peaks, and that moved by
	// a quarter between runs with GC timing; the median pass is steady.
	rep.e2e["peak_rss_mb"] = newDist(peakMB).median()
	rep.note("passes: %s ms; metrics checked against %s", d, wantFrom)
	rep.note("peak resident memory per pass: %s MB", newDist(peakMB))
	rep.note("set-up: cold start %s ms", newDist(setups))
	rep.layers["process.alloc_mb_per_suite"] = newDist(allocMB).median()
	rep.layers["process.gc_per_suite"] = newDist(gcs).median()
	if tr == nil {
		return rep, nil
	}

	spans := tr.snapshot()
	sum := 0.0
	for _, r := range rs {
		ms := newDist(durations(spans, "driver."+r.ID)).median()
		rep.layers["driver."+r.ID+"_ms"] = ms
		sum += ms
	}
	overhead := newDist(selfTimes(spans, "pass")).median()
	rep.layers["runner.overhead_ms"] = overhead
	rep.ledger("pass", sum+overhead, newDist(traced).median(),
		fmt.Sprintf("%d drivers %.4g ms + runner %.4g ms (n=%d traced passes)", len(rs), sum, overhead, len(traced)))
	rep.traceOverhead("pass", newDist(traced).median(), newDist(untraced).median(), len(traced), len(untraced))
	return rep, tr.write(cfg.tracePath())
}
