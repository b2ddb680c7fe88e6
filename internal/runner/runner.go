// Package runner supervises a suite of experiment drivers. It exists so
// the multi-minute figure/Monte-Carlo pipeline survives partial failure:
// every figure runs under a per-figure deadline, panics in a driver are
// recovered (with stack) and recorded instead of killing the process,
// transient failures retry with capped exponential backoff, and each
// completed figure's output files are written atomically and then logged,
// with their SHA-256 digests, in an append-only checkpoint log, so an
// interrupted suite resumes without recomputing finished work.
// The suite always ends with a per-figure status report; whether anything
// actually failed is the caller's exit-code decision, made from Report.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// Status classifies how a figure ended.
type Status string

const (
	// StatusOK — the driver completed and its outputs are persisted.
	StatusOK Status = "ok"
	// StatusFailed — the driver errored (or panicked) on every attempt.
	StatusFailed Status = "failed"
	// StatusTimedOut — the per-figure deadline or the suite context expired.
	StatusTimedOut Status = "timed-out"
	// StatusCached — a valid checkpoint satisfied the figure under -resume.
	StatusCached Status = "skipped-cached"
	// StatusSkipped — the suite aborted (KeepGoing off) before this figure.
	StatusSkipped Status = "skipped"
)

// PanicError is a recovered driver panic, annotated with the stack at the
// panic site. Panics are deterministic bugs, not transient conditions, so
// the supervisor does not retry them.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// FigureStatus is one row of the end-of-suite report.
type FigureStatus struct {
	ID       string
	Title    string
	Status   Status
	Attempts int
	Duration time.Duration
	// Err is the one-line failure reason (empty on success).
	Err string
	// SpreadUnavailable records that the figure itself completed but the
	// extra-seed spread annotation could not be computed.
	SpreadUnavailable bool
}

// Report is the outcome of a suite run.
type Report struct {
	Figures []FigureStatus
	// Metrics collects the headline numbers of every ok or cached figure,
	// keyed by figure ID — the payload of results/metrics.json.
	Metrics map[string]map[string]float64
}

// Failed counts figures that actually failed or timed out — the figures
// that make the suite's exit code nonzero.
func (r *Report) Failed() int {
	n := 0
	for _, f := range r.Figures {
		if f.Status == StatusFailed || f.Status == StatusTimedOut {
			n++
		}
	}
	return n
}

// Render formats the per-figure status table and a summary line.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-15s %8s %10s  %s\n", "figure", "status", "attempts", "duration", "note")
	counts := map[Status]int{}
	spreadMissing := 0
	for _, f := range r.Figures {
		counts[f.Status]++
		note := f.Err
		if f.SpreadUnavailable {
			spreadMissing++
			if note != "" {
				note += "; "
			}
			note += "seed spread unavailable"
		}
		fmt.Fprintf(&b, "%-20s %-15s %8d %10s  %s\n",
			f.ID, f.Status, f.Attempts, f.Duration.Round(time.Millisecond), note)
	}
	fmt.Fprintf(&b, "suite: %d ok, %d failed, %d timed-out, %d skipped-cached, %d skipped",
		counts[StatusOK], counts[StatusFailed], counts[StatusTimedOut],
		counts[StatusCached], counts[StatusSkipped])
	if spreadMissing > 0 {
		fmt.Fprintf(&b, "; %d seed spread(s) unavailable", spreadMissing)
	}
	b.WriteByte('\n')
	return b.String()
}

// Options configures a suite run.
type Options struct {
	// Params is the workload every figure runs under.
	Params experiments.Params
	// Seeds > 1 additionally annotates each metric with its min/max across
	// that many seeds (the -seeds flag).
	Seeds int
	// OutDir receives the figure CSV/SVG outputs, and the checkpoint log
	// at <OutDir>/checkpoints/log. Defaults to "results".
	OutDir string
	// FigTimeout bounds each driver attempt (0 = no per-figure deadline).
	// Deadlines propagate through the drivers' context checks; a driver
	// that ignores its context is not preempted.
	FigTimeout time.Duration
	// Retries is how many times a transiently failing figure is retried
	// after its first attempt. Context errors and panics never retry.
	Retries int
	// RetryBackoff is the first retry delay, doubled per retry up to
	// 5s. Defaults to 250ms.
	RetryBackoff time.Duration
	// KeepGoing continues past failed figures; when false the first
	// failure marks the rest of the suite skipped.
	KeepGoing bool
	// Resume serves figures from valid checkpoints instead of recomputing.
	Resume bool
	// Log receives progress and failure detail (nil = discard).
	Log io.Writer
	// OnResult, if set, observes every completed figure — freshly computed
	// (cached=false) or served from a checkpoint (cached=true) — in suite
	// order.
	OnResult func(res experiments.Result, cached bool)
	// Registry, when non-nil, receives per-figure wall-time and attempt
	// gauges plus a status-classified completion counter after every
	// figure settles.
	Registry *obs.Registry
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.OutDir == "" {
		opts.OutDir = "results"
	}
	if opts.Seeds < 1 {
		opts.Seeds = 1
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 250 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	return opts
}

// maxBackoff caps the retry delay.
const maxBackoff = 5 * time.Second

// Run executes the suite under ctx and returns the per-figure report. The
// returned error covers infrastructure only (an unusable output directory
// or checkpoint log); figure failures live in the report so one bad
// driver never takes down the rest of the suite. The drivers of one Run
// share inputs through one experiments.WithSuiteMemo, which ends with it.
func Run(ctx context.Context, runners []experiments.Runner, o Options) (rep *Report, err error) {
	ctx = experiments.WithSuiteMemo(ctx)
	opts := o.withDefaults()
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: creating output directory: %w", err)
	}
	store, err := OpenStore(opts.OutDir, opts.Log)
	if err != nil {
		return nil, fmt.Errorf("runner: opening checkpoint log: %w", err)
	}
	defer func() {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("runner: closing checkpoint log: %w", cerr)
		}
	}()
	rep = &Report{Metrics: map[string]map[string]float64{}}
	aborted := false
	for _, r := range runners {
		fs := FigureStatus{ID: r.ID, Title: r.Title}
		if aborted {
			fs.Status = StatusSkipped
			opts.observeFigure(fs)
			rep.Figures = append(rep.Figures, fs)
			continue
		}
		key := ParamsKey(r.ID, opts.Params, opts.Seeds)

		if opts.Resume {
			res, spreadUnavailable, err := store.Load(r.ID, key)
			switch {
			case err == nil:
				fs.Status = StatusCached
				fs.SpreadUnavailable = spreadUnavailable
				rep.Metrics[res.ID] = res.Metrics
				opts.observeFigure(fs)
				rep.Figures = append(rep.Figures, fs)
				if opts.OnResult != nil {
					opts.OnResult(res, true)
				}
				continue
			case errors.Is(err, ErrNoCheckpoint):
				// Nothing saved yet; compute below.
			default:
				fmt.Fprintf(opts.Log, "runner: %s: checkpoint unusable (%v); recomputing\n", r.ID, err)
			}
		}

		start := time.Now()
		res, attempts, err := runWithRetries(ctx, r, opts)
		fs.Attempts = attempts
		fs.Duration = time.Since(start).Round(time.Millisecond)
		if err == nil && opts.Seeds > 1 {
			if serr := spreadMetrics(ctx, r, opts, &res); serr != nil {
				if isCtxErr(serr) {
					// Cancelled mid-spread: treat the figure as interrupted
					// rather than checkpointing a spread-less result that a
					// resumed run would serve forever.
					err = serr
				} else {
					fs.SpreadUnavailable = true
					fmt.Fprintf(opts.Log, "runner: %s: seed spread unavailable: %v\n", r.ID, serr)
				}
			}
		}
		if err != nil {
			if isCtxErr(err) {
				fs.Status = StatusTimedOut
			} else {
				fs.Status = StatusFailed
				if !opts.KeepGoing {
					aborted = true
				}
			}
			fs.Err = firstLine(err.Error())
			fmt.Fprintf(opts.Log, "runner: %s: %v\n", r.ID, err)
			opts.observeFigure(fs)
			rep.Figures = append(rep.Figures, fs)
			continue
		}

		sums, err := writeResultFiles(opts, res)
		if err != nil {
			return nil, err
		}
		if err := store.Save(r.ID, key, res, fs.SpreadUnavailable, sums); err != nil {
			return nil, err
		}
		fs.Status = StatusOK
		rep.Metrics[res.ID] = res.Metrics
		opts.observeFigure(fs)
		rep.Figures = append(rep.Figures, fs)
		if opts.OnResult != nil {
			opts.OnResult(res, false)
		}
	}
	return rep, nil
}

// runWithRetries drives one figure to success, a terminal failure, or
// cancellation. Ordinary errors retry with capped exponential backoff;
// panics (deterministic bugs) and context errors do not. A figure whose
// suite is already cancelled is not started: a driver handed a dead ctx
// may still race to completion, and the figure's status would then depend
// on scheduling rather than on the cancellation.
func runWithRetries(ctx context.Context, r experiments.Runner, opts Options) (experiments.Result, int, error) {
	if err := ctx.Err(); err != nil {
		return experiments.Result{}, 0, err
	}
	backoff := opts.RetryBackoff
	attempts := 0
	for {
		attempts++
		res, err := runOnce(ctx, r, opts.Params, opts.FigTimeout)
		if err == nil {
			return res, attempts, nil
		}
		var pe *PanicError
		if errors.As(err, &pe) || isCtxErr(err) || attempts > opts.Retries {
			return experiments.Result{}, attempts, err
		}
		fmt.Fprintf(opts.Log, "runner: %s: attempt %d failed (%s); retrying in %s\n",
			r.ID, attempts, firstLine(err.Error()), backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return experiments.Result{}, attempts, ctx.Err()
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// runOnce executes a single driver attempt under the per-figure deadline,
// converting a panic anywhere in the driver into a *PanicError.
func runOnce(ctx context.Context, r experiments.Runner, p experiments.Params, timeout time.Duration) (res experiments.Result, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	return r.Run(ctx, p)
}

// spreadMetrics re-runs a figure across extra seeds and annotates each
// metric with its min/max across seeds, so seed sensitivity is visible at
// a glance in metrics.json. A failure leaves the base result untouched.
func spreadMetrics(ctx context.Context, r experiments.Runner, opts Options, res *experiments.Result) error {
	mins := map[string]float64{}
	maxs := map[string]float64{}
	for k, v := range res.Metrics {
		mins[k], maxs[k] = v, v
	}
	for s := 1; s < opts.Seeds; s++ {
		p := opts.Params
		p.Seed = opts.Params.Seed + int64(s)
		other, err := runOnce(ctx, r, p, opts.FigTimeout)
		if err != nil {
			return fmt.Errorf("seed %d: %w", p.Seed, err)
		}
		for k, v := range other.Metrics {
			if v < mins[k] {
				mins[k] = v
			}
			if v > maxs[k] {
				maxs[k] = v
			}
		}
	}
	for k := range mins {
		res.Metrics[k+"_seed_min"] = mins[k]
		res.Metrics[k+"_seed_max"] = maxs[k]
	}
	return nil
}

// writeResultFiles atomically publishes a figure's output files into
// OutDir, in deterministic name order, and returns the SHA-256 of each
// file's bytes for the figure's checkpoint record.
func writeResultFiles(opts Options, res experiments.Result) (map[string]string, error) {
	names := make([]string, 0, len(res.Files))
	for name := range res.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	sums := make(map[string]string, len(names))
	for _, name := range names {
		path := filepath.Join(opts.OutDir, name)
		data := []byte(res.Files[name])
		if err := atomicio.WriteFile(path, data, 0o644); err != nil {
			return nil, fmt.Errorf("runner: writing %s: %w", path, err)
		}
		sums[name] = digest(data)
		fmt.Fprintf(opts.Log, "  wrote %s\n", path)
	}
	return sums, nil
}

// observeFigure publishes one settled figure row to the registry: how long
// the last run took, how many driver attempts it needed, and a counter of
// rows by final status. Gauges (not histograms) because each figure runs
// once per suite — the interesting comparison is across figures, not
// across runs.
func (o Options) observeFigure(fs FigureStatus) {
	if o.Registry == nil {
		return
	}
	l := obs.Labels{"figure": fs.ID}
	o.Registry.Gauge("sicfig_figure_seconds", "wall time of the figure's most recent run", l).Set(fs.Duration.Seconds())
	o.Registry.Gauge("sicfig_figure_attempts", "driver attempts of the figure's most recent run", l).Set(float64(fs.Attempts))
	o.Registry.Counter("sicfig_figures_total", "settled figure rows by final status", obs.Labels{"status": string(fs.Status)}).Inc()
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
