// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON artifact, so CI can archive benchmark numbers per
// commit without parsing test logs after the fact.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x ./... | benchjson -out BENCH.json
//
// Non-benchmark lines ("ok", "PASS", compile noise) are ignored. Each
// benchmark line becomes one record with its name, iteration count, ns/op
// and — when -benchmem is in effect — B/op and allocs/op. Output is sorted
// by name and written atomically, so a partially-failed bench run never
// leaves a truncated artifact behind.
//
// With -against, benchjson instead compares two previously-written
// artifacts and exits non-zero on regression:
//
//	benchjson -against BENCH_ci.json -baseline BENCH_10.json \
//	    -benches BenchmarkMinCostPerfect64,BenchmarkScheduler64Clients -max-ratio 5 \
//	    -faster BenchmarkSolverWarm64:BenchmarkMinCostPerfect64:3
//
// Each -benches name must appear in both files with the fresh ns/op at most
// max-ratio times the baseline's (a generous bound — CI machines are noisy;
// the point is catching order-of-magnitude regressions, not percent drift).
// Each -faster spec A:B:R asserts that within the fresh file benchmark A is
// at least R times faster than benchmark B — pinning a structural speedup
// (warm-started vs cold matching) rather than an absolute time. Benchmark
// names are matched after stripping the -<GOMAXPROCS> suffix.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/atomicio"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// parseLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkFig6-8   12   98765432 ns/op   1024 B/op   7 allocs/op
//
// ok is false for anything that is not a benchmark result.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	if b.NsPerOp == 0 && !strings.Contains(line, "ns/op") {
		return Benchmark{}, false
	}
	return b, true
}

// normalizeName strips the trailing -<GOMAXPROCS> suffix go test appends,
// so artifacts from machines with different core counts compare.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// loadArtifact reads one benchjson output file into a map keyed by
// normalized benchmark name.
func loadArtifact(path string) (map[string]Benchmark, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var benches []Benchmark
	if err := json.Unmarshal(blob, &benches); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		m[normalizeName(b.Name)] = b
	}
	return m, nil
}

// checkRegressions compares fresh against baseline for each named
// benchmark, and enforces each faster spec within fresh. It returns an
// error message per failed check.
func checkRegressions(fresh, baseline map[string]Benchmark, benches []string, maxRatio float64, faster []string) []string {
	var fails []string
	for _, name := range benches {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		f, okF := fresh[name]
		b, okB := baseline[name]
		switch {
		case !okF:
			fails = append(fails, fmt.Sprintf("%s missing from fresh artifact", name))
		case !okB:
			fails = append(fails, fmt.Sprintf("%s missing from baseline artifact", name))
		case b.NsPerOp <= 0:
			fails = append(fails, fmt.Sprintf("%s baseline ns/op is %v", name, b.NsPerOp))
		case f.NsPerOp > maxRatio*b.NsPerOp:
			fails = append(fails, fmt.Sprintf("%s regressed: %.0f ns/op vs baseline %.0f (limit %.1fx)",
				name, f.NsPerOp, b.NsPerOp, maxRatio))
		}
	}
	for _, spec := range faster {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			fails = append(fails, fmt.Sprintf("bad -faster spec %q (want A:B:ratio)", spec))
			continue
		}
		ratio, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || ratio <= 0 {
			fails = append(fails, fmt.Sprintf("bad -faster ratio in %q", spec))
			continue
		}
		a, okA := fresh[parts[0]]
		b, okB := fresh[parts[1]]
		switch {
		case !okA:
			fails = append(fails, fmt.Sprintf("%s missing from fresh artifact", parts[0]))
		case !okB:
			fails = append(fails, fmt.Sprintf("%s missing from fresh artifact", parts[1]))
		case a.NsPerOp <= 0:
			fails = append(fails, fmt.Sprintf("%s ns/op is %v", parts[0], a.NsPerOp))
		case a.NsPerOp*ratio > b.NsPerOp:
			fails = append(fails, fmt.Sprintf("%s (%.0f ns/op) is not %.1fx faster than %s (%.0f ns/op)",
				parts[0], a.NsPerOp, ratio, parts[1], b.NsPerOp))
		}
	}
	return fails
}

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("out", "", "output path (empty = stdout)")
	against := flag.String("against", "", "check mode: fresh artifact to compare against -baseline")
	baselinePath := flag.String("baseline", "", "check mode: committed baseline artifact")
	benchList := flag.String("benches", "", "check mode: comma-separated benchmarks bounded by -max-ratio")
	maxRatio := flag.Float64("max-ratio", 5, "check mode: max fresh/baseline ns/op ratio per -benches entry")
	var fasterSpecs multiFlag
	flag.Var(&fasterSpecs, "faster", "check mode: A:B:R asserts A is R× faster than B in the fresh artifact (repeatable)")
	flag.Parse()

	if *against != "" {
		fresh, err := loadArtifact(*against)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
		baseline := map[string]Benchmark{}
		if *baselinePath != "" {
			if baseline, err = loadArtifact(*baselinePath); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				return 1
			}
		}
		var benches []string
		if *benchList != "" {
			benches = strings.Split(*benchList, ",")
		}
		fails := checkRegressions(fresh, baseline, benches, *maxRatio, fasterSpecs)
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: %s\n", f)
		}
		if len(fails) > 0 {
			return 1
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d regression checks passed\n", len(benches)+len(fasterSpecs))
		return 0
	}

	var benches []Benchmark
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			benches = append(benches, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		return 1
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	if benches == nil {
		benches = []Benchmark{} // render an empty list, not JSON null
	}

	blob, err := json.MarshalIndent(benches, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
		return 0
	}
	if err := atomicio.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: writing %s: %v\n", *out, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(benches), *out)
	return 0
}
