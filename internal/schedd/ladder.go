package schedd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sched"
)

// Level identifies the rung of the degradation ladder that produced a
// schedule. Lower is better; every response records its level so operators
// can see quality degrade before latency does.
type Level int

const (
	// LevelBlossom: optimal minimum-weight perfect matching (sched.New).
	LevelBlossom Level = iota
	// LevelGreedy: best-pair-first greedy pairing (sched.Greedy).
	LevelGreedy
	// LevelSerial: everyone transmits alone; O(n), cannot stall.
	LevelSerial
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelBlossom:
		return "blossom"
	case LevelGreedy:
		return "greedy"
	case LevelSerial:
		return "serial"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Budgets carries the per-rung time budgets. The serial rung has none: it
// is the floor that makes the ladder total.
type Budgets struct {
	Blossom time.Duration
	Greedy  time.Duration
}

// ladderResult is a schedule plus its provenance.
type ladderResult struct {
	schedule sched.Schedule
	level    Level
}

// ladderHooks bundles runLadder's injection points. Every field is
// optional; the zero value runs the ladder untimed and unobserved.
type ladderHooks struct {
	// slow is a test hook invoked before each rung runs, with the ctx the
	// rung's solver will get; tests use it to simulate pathological solver
	// latency.
	slow func(context.Context, Level)
	// now is the clock used to time rung attempts; timing is skipped when
	// now or observe is nil. The server passes its injected clock here so
	// fake-clock tests see exact rung latencies.
	now func() time.Time
	// observe receives the wall time of every rung attempt — failed ones
	// included, since a blossom rung that burns its whole budget and loses
	// is exactly what the latency histogram is for.
	observe func(Level, time.Duration)
}

// timed runs one rung attempt, run(ctx), under the hooks' clock.
func (h ladderHooks) timed(ctx context.Context, l Level, run func(context.Context) (sched.Schedule, error)) (sched.Schedule, error) {
	if h.slow != nil {
		h.slow(ctx, l)
	}
	if h.now == nil || h.observe == nil {
		return run(ctx)
	}
	t0 := h.now()
	s, err := run(ctx)
	h.observe(l, h.now().Sub(t0))
	return s, err
}

// runLadder answers one scheduling query within ctx by walking the
// degradation ladder: each rung runs under min(its own budget, ctx's
// remaining deadline); on timeout, cancellation or any solver error the
// next rung is tried. The serial rung runs under ctx alone — if even that
// is cancelled the query deadline as a whole has passed and the error is
// returned.
//
// When pl is non-nil the blossom and greedy rungs run through it, reusing
// its memoized cost table and warm-starting the matcher across queries for
// the same AP; a nil pl falls back to the one-shot entry points. Notably, a
// blossom rung that burns its budget leaves the cost table behind, so the
// greedy rung that follows skips the O(n²) cost rebuild.
func runLadder(ctx context.Context, clients []sched.Client, opts sched.Options, b Budgets, h ladderHooks, pl *sched.Planner) (ladderResult, error) {
	type rung struct {
		level  Level
		budget time.Duration
		run    func(context.Context) (sched.Schedule, error)
	}
	rungs := []rung{
		{LevelBlossom, b.Blossom, func(c context.Context) (sched.Schedule, error) {
			if pl != nil {
				return pl.Plan(c, clients)
			}
			return sched.New(c, clients, opts)
		}},
		{LevelGreedy, b.Greedy, func(c context.Context) (sched.Schedule, error) {
			if pl != nil {
				return pl.PlanGreedy(c, clients)
			}
			return sched.Greedy(c, clients, opts)
		}},
	}
	for _, r := range rungs {
		if ctx.Err() != nil {
			break // overall deadline already gone; fall through to serial
		}
		rctx := ctx
		var cancel context.CancelFunc
		if r.budget > 0 {
			rctx, cancel = context.WithTimeout(ctx, r.budget)
		}
		s, err := h.timed(rctx, r.level, r.run)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return ladderResult{schedule: s, level: r.level}, nil
		}
	}
	s, err := h.timed(ctx, LevelSerial, func(context.Context) (sched.Schedule, error) { return sched.Serial(clients, opts) })
	if err != nil {
		return ladderResult{}, err
	}
	return ladderResult{schedule: s, level: LevelSerial}, nil
}
