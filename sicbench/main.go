// Command sicbench is the repository's benchmark. It runs one named
// workload for a fixed time from a seed, checks the program's outputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Workloads:
//
//	figures        a closed loop of paper-scale regeneration passes
//	               (what sicfig -all -ablations does)
//	sched-query    a closed loop of gateway SCHED queries over one
//	               connection, two shards behind the gateway
//	report-ingest  flow-controlled report datagrams into the same tier,
//	               with an open-loop SCHED probe at 20/s
//
// BENCHMARK.json lists figures and sched-query. report-ingest runs by name
// and as a phase of every traced run, which measures the write-path
// layers, but it is not compared between commits: it keeps one core busy
// with loopback UDP sends and receives, and on a shared 2-vCPU host the
// speed of that kernel path drifts so much that ten runs of the same code
// spread by up to a quarter of their median (interquartile range).
//
// With -trace 0 the metrics are the end-to-end ones. -trace 1 runs the
// same workload with a span recorded around every harness call into a
// layer and prints the per-layer metrics, the ledger of layer times
// against the end-to-end time, and the tracing overhead. Spans are written
// to .bench_build/traces/ at exit.
//
// run.sh builds it and runs it under GOMAXPROCS=1, from the repository
// root:
//
//	bash sicbench/run.sh --workload sched-query --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root
	work     string // this run's scratch directory
	// traceName names the span file: the workload, or for a layer phase
	// of a traced run "<workload>.<phase>".
	traceName string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

func (c config) tracePath() string {
	return filepath.Join(c.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", c.traceName, c.seed))
}

// workloads are the command's workloads, in the order traced runs add
// layer phases; listed marks those BENCHMARK.json lists.
var workloads = []struct {
	name   string
	run    func(config) (*report, error)
	listed bool
}{
	{"figures", runFigures, true},
	{"sched-query", runSchedQuery, true},
	{"report-ingest", runReportIngest, false},
}

// workload returns the named workload's run function.
func workload(name string) (func(config) (*report, error), bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.run, true
		}
	}
	return nil, false
}

// phaseSeconds is how long a traced run measures each other workload to
// fill in the layers its own workload leaves idle (figures: one pass).
const phaseSeconds = 3

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, whatever the workload;
// each workload defines them for its own operation (see BENCHMARK.json).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// report is what one workload run measured and checked.
type report struct {
	attempted, failed int64
	problems          []string
	notes             []string
	e2e               map[string]float64
	layers            map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// note adds a line to the run record.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ledger records the sum of layer self-time medians along a blocking path
// against the end-to-end median of the same path in the traced run.
func (r *report) ledger(path string, layersMS, e2eMS float64, detail string) {
	r.layers["ledger.layers_sum_ms"] = layersMS
	r.layers["ledger.e2e_ms"] = e2eMS
	r.layers["ledger.gap_ms"] = e2eMS - layersMS
	r.note("ledger %s: layers %.4g ms vs end-to-end %.4g ms, gap %.4g ms (%.1f%%): %s",
		path, layersMS, e2eMS, e2eMS-layersMS, 100*(e2eMS-layersMS)/e2eMS, detail)
}

// traceOverhead records how much slower traced ops ran than untraced ones
// interleaved with them in the same run.
func (r *report) traceOverhead(what string, tracedMS, untracedMS float64, nTraced, nUntraced int) {
	r.layers["trace.overhead_ms"] = tracedMS - untracedMS
	r.note("tracing overhead on %s: traced %.4g ms (n=%d) - untraced %.4g ms (n=%d) = %.4g ms",
		what, tracedMS, nTraced, untracedMS, nUntraced, tracedMS-untracedMS)
}

// absorb adds a layer phase's results: the layers r measured that this
// run did not, its operations and its failed checks.
func (r *report) absorb(phase string, p *report) {
	var filled []string
	for name, v := range p.layers {
		if _, ok := r.layers[name]; !ok {
			r.layers[name] = v
			filled = append(filled, name)
		}
	}
	sort.Strings(filled)
	r.note("%s phase (%d ops, %d failed) measured %d idle layers: %s",
		phase, p.attempted, p.failed, len(filled), strings.Join(filled, " "))
	r.attempted += p.attempted
	r.failed += p.failed
	for _, pr := range p.problems {
		r.problem("%s phase: %s", phase, pr)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) == 2 && os.Args[1] == startupArg {
		return 0
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: figures, sched-query or report-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 50, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.traceName = cfg.workload
	work, ok := workload(cfg.workload)
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "sicbench: need -workload figures|sched-query|report-ingest, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	cfg.work = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "sicbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	if cfg.trace {
		if err := os.MkdirAll(filepath.Dir(cfg.tracePath()), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "sicbench: %v\n", err)
			return 1
		}
	}

	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s source=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), sourceID(cfg.root))
	hash, mem := hostSpeed()
	fmt.Printf("host: sha256 %.0f MiB/s, memory copy %.0f MiB/s at start\n", hash, mem)
	rep, err := work(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sicbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		// Every per-layer metric is measured in every traced run: a layer
		// this workload leaves idle is measured by a short traced phase of
		// the workload that exercises it, after the main run.
		for _, w := range workloads {
			if w.name == cfg.workload {
				continue
			}
			phase := cfg
			phase.workload, phase.seconds, phase.traceName = w.name, phaseSeconds, cfg.workload+"."+w.name
			r, err := w.run(phase)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sicbench: %s phase: %v\n", w.name, err)
				return 1
			}
			rep.absorb(w.name, r)
		}
		probeLibraries(rep, cfg.seed)
	}
	if _, ok := rep.e2e["peak_rss_mb"]; !ok {
		rep.e2e["peak_rss_mb"] = peakRSSMB()
	}
	rep.e2e["ok_ratio"] = ratio(float64(rep.attempted-rep.failed), float64(rep.attempted))

	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	defs := e2eMetrics
	values := rep.e2e
	if cfg.trace {
		defs, values = layerMetrics(), rep.layers
	}
	out := resultLine{
		Correct:   len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("metric %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sicbench: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	if !out.Correct {
		return 1
	}
	return 0
}

// sourceID identifies the code under test: the git commit when the root
// is a git checkout, else "tree:" and a digest of the Go sources.
func sourceID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(sha))
		}
	}
	return "tree:" + treeDigest(root)
}
