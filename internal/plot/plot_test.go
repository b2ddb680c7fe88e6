package plot

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
)

func demoGrid() *stats.Grid {
	g := stats.NewGrid(0, 0, 1, 1, 20, 10)
	g.Fill(func(x, y float64) float64 { return x + y })
	return g
}

func TestHeatmapRenders(t *testing.T) {
	out := Heatmap(demoGrid(), "demo", "xx", "yy")
	if !strings.Contains(out, "demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "xx") || !strings.Contains(out, "yy") {
		t.Error("missing axis labels")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 1 title + 10 rows + axis + ticks + labels.
	if len(lines) != 14 {
		t.Errorf("got %d lines, want 14:\n%s", len(lines), out)
	}
	// Top-right cell (x=19, y=9) has the max value → lightest shade '@'.
	topRow := lines[1]
	if !strings.HasSuffix(topRow, "@") {
		t.Errorf("top row should end with the lightest shade: %q", topRow)
	}
	// Bottom-left (x=0, y=0) is the darkest shade ' '.
	bottomRow := lines[10]
	if !strings.Contains(bottomRow, "|") {
		t.Errorf("bottom row lost its axis: %q", bottomRow)
	}
	if c := bottomRow[strings.IndexByte(bottomRow, '|')+1]; c != ' ' {
		t.Errorf("bottom-left cell shade = %q, want darkest (space)", c)
	}
}

func TestHeatmapConstantGrid(t *testing.T) {
	g := stats.NewGrid(0, 0, 1, 1, 5, 5)
	g.Fill(func(x, y float64) float64 { return 3 })
	out := Heatmap(g, "flat", "x", "y")
	if !strings.Contains(out, "flat") {
		t.Error("missing title")
	}
	// Must not panic or divide by zero; all cells share one shade.
	for _, line := range strings.Split(out, "\n") {
		if i := strings.IndexByte(line, '|'); i >= 0 {
			row := line[i+1:]
			for _, c := range row {
				if c != rune(' ') {
					t.Fatalf("constant grid should render darkest shade everywhere, got %q", row)
				}
			}
		}
	}
}

func TestSeriesFromECDF(t *testing.T) {
	e, err := stats.NewECDF([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := SeriesFromECDF("g", e)
	if s.Name != "g" || len(s.X) != 3 || s.Y[2] != 1 {
		t.Errorf("bad series: %+v", s)
	}
}

func TestCDFPlotRenders(t *testing.T) {
	e1, _ := stats.NewECDF([]float64{1, 1.2, 1.5, 2})
	e2, _ := stats.NewECDF([]float64{1, 1.1, 1.15, 1.2})
	out := CDFPlot("gains", 40, 12, SeriesFromECDF("sic", e1), SeriesFromECDF("pc", e2))
	if !strings.Contains(out, "gains") || !strings.Contains(out, "sic") || !strings.Contains(out, "pc") {
		t.Errorf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("missing series glyphs:\n%s", out)
	}
}

func TestCDFPlotDegenerate(t *testing.T) {
	e, _ := stats.NewECDF([]float64{5, 5, 5})
	out := CDFPlot("flat", 5, 2, SeriesFromECDF("s", e)) // tiny dims get clamped
	if out == "" {
		t.Error("empty output")
	}
	// No series at all must still render.
	if CDFPlot("none", 20, 8) == "" {
		t.Error("empty plot with no series")
	}
}

func TestWriteGridCSV(t *testing.T) {
	g := stats.NewGrid(0, 0, 1, 1, 2, 2)
	g.Set(0, 0, 1)
	g.Set(1, 0, 2)
	g.Set(0, 1, 3)
	g.Set(1, 1, 4)
	var buf bytes.Buffer
	if err := WriteGridCSV(&buf, g, "a", "b", "v"); err != nil {
		t.Fatal(err)
	}
	want := "a,b,v\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

// WriteGridCSV renders exactly what its former Fprintf("%g,%g,%g\n") rows
// did, non-finite values and negative zero included.
func TestWriteGridCSVMatchesFprintf(t *testing.T) {
	g := stats.NewGrid(-1.5, math.Copysign(0, -1), 0.1, 1e-7, 4, 3)
	vals := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		0, 1e21, 1e-5, 123456789, 0.1 + 0.2, -2.5e-300, math.MaxFloat64, 1.0 / 3,
	}
	for k, v := range vals {
		g.Set(k%g.NX, k/g.NX, v)
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "%s,%s,%s\n", "x", "y", "v")
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			fmt.Fprintf(&want, "%g,%g,%g\n", g.X(i), g.Y(j), g.At(i, j))
		}
	}
	var got bytes.Buffer
	if err := WriteGridCSV(&got, g, "x", "y", "v"); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("CSV:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	s1 := Series{Name: "u", X: []float64{1, 3}, Y: []float64{0.5, 1}}
	s2 := Series{Name: "v", X: []float64{2}, Y: []float64{1}}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "x", s1, s2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "x,u,v" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	// x=1: u=0.5, v not yet started → 0.
	if lines[1] != "1,0.5,0" {
		t.Errorf("row1 = %q", lines[1])
	}
	// x=2: u holds 0.5 (step), v=1.
	if lines[2] != "2,0.5,1" {
		t.Errorf("row2 = %q", lines[2])
	}
	// x=3: both at 1.
	if lines[3] != "3,1,1" {
		t.Errorf("row3 = %q", lines[3])
	}
}

// stepAt evaluates a series at x with left-continuous step interpolation:
// the y of the largest series-x not exceeding x, else 0. It is the oracle
// for WriteSeriesCSV's per-series cursors.
func stepAt(s Series, x float64) float64 {
	i := sort.SearchFloat64s(s.X, x)
	for i < len(s.X) && s.X[i] == x {
		i++
	}
	if i == 0 {
		return 0
	}
	return s.Y[i-1]
}

// referenceSeriesCSV renders what WriteSeriesCSV must write, cell by cell:
// every series evaluated by stepAt at every x of the union, formatted
// with fmt's %g.
func referenceSeriesCSV(xName string, series ...Series) string {
	var xs []float64
	var b strings.Builder
	b.WriteString(xName)
	for _, s := range series {
		xs = append(xs, s.X...)
		b.WriteString("," + s.Name)
	}
	b.WriteByte('\n')
	sort.Float64s(xs)
	for _, x := range slices.Compact(xs) {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			fmt.Fprintf(&b, ",%g", stepAt(s, x))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWriteSeriesCSVMatchesStepAt compares the writer with the stepAt
// oracle on random CDF-shaped series drawn from a coarse grid, so x values
// shared between series, repeated x values within a series (as a raw
// sorted sample has them) and empty series all occur.
func TestWriteSeriesCSVMatchesStepAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		series := make([]Series, 1+rng.Intn(4))
		for si := range series {
			sample := make([]float64, rng.Intn(25))
			for i := range sample {
				sample[i] = float64(rng.Intn(24)-4) / 3
			}
			name := fmt.Sprintf("s%d", si)
			switch {
			case len(sample) == 0:
				series[si] = Series{Name: name}
			case rng.Intn(2) == 0:
				e, err := stats.NewECDF(sample)
				if err != nil {
					t.Fatal(err)
				}
				series[si] = SeriesFromECDF(name, e)
			default:
				sort.Float64s(sample)
				ys := make([]float64, len(sample))
				for i := range ys {
					ys[i] = float64(i+1) / float64(len(ys))
				}
				series[si] = Series{Name: name, X: sample, Y: ys}
			}
		}
		var got strings.Builder
		if err := WriteSeriesCSV(&got, "x", series...); err != nil {
			t.Fatal(err)
		}
		if want := referenceSeriesCSV("x", series...); got.String() != want {
			t.Fatalf("trial %d: CSV\n%s\nwant\n%s", trial, got.String(), want)
		}
	}
}

func TestStepAt(t *testing.T) {
	s := Series{X: []float64{1, 2, 4}, Y: []float64{0.25, 0.5, 1}}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {3.9, 0.5}, {4, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := stepAt(s, c.x); got != c.want {
			t.Errorf("stepAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}
