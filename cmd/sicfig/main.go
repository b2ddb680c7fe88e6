// Command sicfig regenerates the paper's evaluation figures under a
// supervised suite runner: every figure runs with panic isolation, a
// per-figure deadline and transient-failure retries, and each completed
// figure's files are logged with their digests in <out>/checkpoints/log
// so an interrupted suite resumes without recomputing finished work.
//
// Usage:
//
//	sicfig -all                     # every figure at paper scale
//	sicfig -fig fig6 -fig fig11     # selected figures
//	sicfig -ablations               # the DESIGN.md ablations
//	sicfig -quick -all              # reduced workload (CI-sized)
//	sicfig -out results             # where CSVs are written (default "results")
//	sicfig -all -timeout 10m        # bound the whole suite
//	sicfig -all -fig-timeout 2m     # bound each figure
//	sicfig -all -resume             # skip figures checkpointed by a previous run
//
// Each figure prints its ASCII rendering and headline metrics to stdout and
// writes machine-readable CSVs into the output directory. The suite always
// ends with a per-figure status report (ok / failed / timed-out /
// skipped-cached / skipped); the exit code is nonzero only when a figure
// actually failed or timed out. Ctrl-C cancels cleanly — rerun with
// -resume to continue where the suite left off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/atomicio"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/runner"
)

type figList []string

func (f *figList) String() string { return strings.Join(*f, ",") }

func (f *figList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		figs        figList
		all         = flag.Bool("all", false, "run every paper figure")
		ablations   = flag.Bool("ablations", false, "run the design-choice ablations")
		quick       = flag.Bool("quick", false, "reduced workload (fewer trials, coarser grids)")
		out         = flag.String("out", "results", "directory for CSV outputs")
		trials      = flag.Int("trials", 0, "override Monte-Carlo trial count")
		seed        = flag.Int64("seed", 1, "random seed")
		seeds       = flag.Int("seeds", 1, "run each figure across this many seeds and report the metric spread")
		list        = flag.Bool("list", false, "list available figures and exit")
		timeout     = flag.Duration("timeout", 0, "deadline for the whole suite (0 = none)")
		figTimeout  = flag.Duration("fig-timeout", 0, "deadline per figure (0 = none)")
		resume      = flag.Bool("resume", false, "serve figures from valid checkpoints instead of recomputing")
		keepGoing   = flag.Bool("keep-going", true, "continue past failed figures (set =false to stop at the first failure)")
		retries     = flag.Int("retries", 1, "retries per transiently failing figure")
		injectPanic = flag.Bool("inject-panic", false, "append an always-panicking figure (testing aid for the supervisor)")
		admin       = flag.String("admin", "", "HTTP admin address for /metrics during long suites (empty = disabled)")
	)
	flag.Var(&figs, "fig", "figure id to run (repeatable), e.g. -fig fig6")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		for _, r := range experiments.Ablations() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return 0
	}

	params := experiments.DefaultParams()
	if *quick {
		params = experiments.QuickParams()
	}
	params.Seed = *seed
	if *trials > 0 {
		params.Trials = *trials
	}

	// One registry spans the whole suite: per-figure gauges from the
	// runner, Monte-Carlo throughput from the sweeps the figures run.
	reg := obs.NewRegistry()
	params.MC = mc.NewMetrics(reg)
	if *admin != "" {
		adminSrv := &http.Server{Addr: *admin, Handler: obs.AdminMux(reg, nil)}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "sicfig: admin endpoint: %v\n", err)
			}
		}()
		defer adminSrv.Close()
		fmt.Fprintf(os.Stderr, "sicfig: admin endpoint on http://%s/metrics\n", *admin)
	}

	var runners []experiments.Runner
	switch {
	case *all && *ablations:
		runners = append(experiments.All(), experiments.Ablations()...)
	case *all:
		runners = experiments.All()
	case *ablations:
		runners = experiments.Ablations()
	case len(figs) > 0:
		for _, id := range figs {
			r, ok := experiments.ByID(id)
			if !ok {
				for _, a := range experiments.Ablations() {
					if a.ID == id {
						r, ok = a, true
						break
					}
				}
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "sicfig: unknown figure %q (try -list)\n", id)
				return 2
			}
			runners = append(runners, r)
		}
	case *injectPanic:
		// Allow a panic-only suite for exercising the supervisor.
	default:
		fmt.Fprintln(os.Stderr, "sicfig: nothing to do; pass -all, -ablations or -fig <id> (see -list)")
		return 2
	}
	if *injectPanic {
		runners = append(runners, experiments.Runner{
			ID:    "panicdemo",
			Title: "injected always-panicking figure (testing aid)",
			Run: func(context.Context, experiments.Params) (experiments.Result, error) {
				panic("injected panic (-inject-panic)")
			},
		})
	}

	// Ctrl-C / SIGTERM cancels the suite; completed figures stay
	// checkpointed for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	rep, err := runner.Run(ctx, runners, runner.Options{
		Params:     params,
		Seeds:      *seeds,
		OutDir:     *out,
		FigTimeout: *figTimeout,
		Retries:    *retries,
		KeepGoing:  *keepGoing,
		Resume:     *resume,
		Log:        os.Stderr,
		Registry:   reg,
		OnResult: func(res experiments.Result, cached bool) {
			if cached {
				fmt.Printf("==== %s — %s ==== (from checkpoint)\n", res.ID, res.Title)
				return
			}
			fmt.Printf("==== %s — %s ====\n%s\n", res.ID, res.Title, res.Text)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sicfig: %v\n", err)
		return 1
	}

	// Machine-readable metrics for EXPERIMENTS.md regeneration and CI
	// diffs, covering every ok or checkpointed figure of this invocation.
	blob, err := json.MarshalIndent(rep.Metrics, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sicfig: %v\n", err)
		return 1
	}
	metricsPath := filepath.Join(*out, "metrics.json")
	if err := atomicio.WriteFile(metricsPath, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sicfig: writing %s: %v\n", metricsPath, err)
		return 1
	}
	fmt.Printf("wrote %s\n\n", metricsPath)

	fmt.Print(rep.Render())
	if rep.Failed() > 0 {
		return 1
	}
	return 0
}
