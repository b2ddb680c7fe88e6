package plot

import (
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// validateXML parses the document to catch malformed SVG.
func validateXML(t *testing.T, doc string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("invalid XML: %v\n%s", err, doc[:min(len(doc), 400)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestHeatmapSVG(t *testing.T) {
	doc := HeatmapSVG(demoGrid(), "demo <heat>", "x (dB)", "y (dB)")
	validateXML(t, doc)
	if !strings.Contains(doc, "demo &lt;heat&gt;") {
		t.Error("title not escaped")
	}
	if !strings.Contains(doc, "<svg") || !strings.Contains(doc, "</svg>") {
		t.Error("not an SVG document")
	}
	// One rect per cell plus chrome.
	if n := strings.Count(doc, "<rect"); n < 20*10 {
		t.Errorf("only %d rects for a 20x10 grid", n)
	}
}

func TestHeatmapSVGConstantGrid(t *testing.T) {
	g := stats.NewGrid(0, 0, 1, 1, 4, 4)
	g.Fill(func(x, y float64) float64 { return 7 })
	doc := HeatmapSVG(g, "flat", "x", "y")
	validateXML(t, doc)
	if strings.Contains(doc, "NaN") {
		t.Error("constant grid produced NaN colours")
	}
}

func TestCDFPlotSVG(t *testing.T) {
	e1, _ := stats.NewECDF([]float64{1, 1.2, 1.5, 2})
	e2, _ := stats.NewECDF([]float64{1, 1.1, 1.15})
	doc := CDFPlotSVG("gains & losses", SeriesFromECDF("sic", e1), SeriesFromECDF("pc", e2))
	validateXML(t, doc)
	if !strings.Contains(doc, "gains &amp; losses") {
		t.Error("title not escaped")
	}
	if strings.Count(doc, "<path") != 2 {
		t.Errorf("want 2 series paths, got %d", strings.Count(doc, "<path"))
	}
	if !strings.Contains(doc, "sic") || !strings.Contains(doc, "pc") {
		t.Error("legend entries missing")
	}
}

func TestCDFPlotSVGEmpty(t *testing.T) {
	doc := CDFPlotSVG("empty")
	validateXML(t, doc)
}

func TestHeatColorRange(t *testing.T) {
	for _, v := range []float64{-1, 0, 0.35, 0.5, 1, 2} {
		c := appendHeatColor(nil, v)
		if len(c) != 7 || c[0] != '#' {
			t.Errorf("appendHeatColor(%v) = %q", v, c)
		}
	}
	// Lighter at the top of the ramp: parse crude brightness.
	if string(appendHeatColor(nil, 1)) == string(appendHeatColor(nil, 0)) {
		t.Error("ramp endpoints identical")
	}
}

// heatColorRef is the colour ramp as it was rendered through fmt.
func heatColorRef(v float64) string {
	if math.IsNaN(v) {
		return "#ff00ff"
	}
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	r := int(20 + 235*v)
	g := int(24 + 220*v)
	b := int(72 + 130*(1-math.Abs(v-0.35)))
	if b > 255 {
		b = 255
	}
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

func TestHeatColorMatchesSprintf(t *testing.T) {
	check := func(v float64) {
		if got, want := string(appendHeatColor([]byte("x"), v)), "x"+heatColorRef(v); got != want {
			t.Fatalf("appendHeatColor(%v) = %q, want %q", v, got, want)
		}
	}
	for k := -1000; k <= 11000; k++ {
		check(float64(k) * 1e-4)
	}
	check(math.NaN())
}

func TestAppendFixed1MatchesStrconv(t *testing.T) {
	check := func(v float64) {
		got := string(appendFixed1([]byte("x"), v))
		if want := string(strconv.AppendFloat([]byte("x"), v, 'f', 1, 64)); got != want {
			t.Fatalf("appendFixed1(%v [%#x]) = %q, want %q", v, math.Float64bits(v), got, want)
		}
	}
	for _, v := range fixed1Seeds() {
		check(v)
		check(-v)
	}
	// Every x.x5 up to 2,000 (exact in binary only at the quarters) and its
	// neighbours one ulp away, then random values across the magnitudes
	// figures use and far beyond.
	for k := 0; k <= 20000; k++ {
		tie := float64(2*k+1) / 20
		check(tie)
		check(math.Nextafter(tie, 0))
		check(math.Nextafter(tie, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 40000; k++ {
		check(math.Ldexp(rng.Float64(), rng.Intn(120)-60) * float64(1-2*rng.Intn(2)))
		check(math.Float64frombits(rng.Uint64()))
	}
}

// fixed1Seeds are the edge cases of appendFixed1: ties at the rounding
// digit, values just around them, the fallback threshold 2^48, non-finite
// values and subnormals.
func fixed1Seeds() []float64 {
	seeds := []float64{
		0, math.Copysign(0, -1), 0.04, 0.05, 0.15, 0.25, 0.35, 0.45, 0.5,
		0.75, 1.25, 2.5, 9.95, 99.95, 999.95, 0.95, 1e-300,
		math.Nextafter(0.25, 0), math.Nextafter(0.25, 1),
		math.Nextafter(0.05, 0), math.Nextafter(0.05, 1),
		1 << 48, math.Nextafter(1<<48, 0), math.Nextafter(1<<48, math.Inf(1)),
		1 << 52, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
	}
	for k := 0; k < 20; k++ {
		seeds = append(seeds, float64(k)+0.05, float64(k)+0.95, float64(k)/20)
	}
	return seeds
}

func FuzzAppendFixed1(f *testing.F) {
	for _, v := range fixed1Seeds() {
		f.Add(v)
		f.Add(-v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		got := appendFixed1(nil, v)
		if want := strconv.AppendFloat(nil, v, 'f', 1, 64); string(got) != string(want) {
			t.Fatalf("appendFixed1(%v [%#x]) = %q, strconv %q", v, math.Float64bits(v), got, want)
		}
	})
}

// BenchmarkHeatmapSVG renders one paper-scale heatmap (a 121×121 grid).
func BenchmarkHeatmapSVG(b *testing.B) {
	g := stats.NewGrid(-10, -10, 0.5, 0.5, 121, 121)
	g.Fill(func(x, y float64) float64 { return math.Sin(x/7) * math.Cos(y/5) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSVG = HeatmapSVG(g, "bench", "x", "y")
	}
}

// BenchmarkCDFPlotSVG renders three 10,000-point ECDF series.
func BenchmarkCDFPlotSVG(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var series []Series
	for s := 0; s < 3; s++ {
		xs := make([]float64, 10000)
		for i := range xs {
			xs[i] = 1 + rng.ExpFloat64()
		}
		e, err := stats.NewECDF(xs)
		if err != nil {
			b.Fatal(err)
		}
		series = append(series, SeriesFromECDF(fmt.Sprint("s", s), e))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSVG = CDFPlotSVG("bench", series...)
	}
}

var sinkSVG string

func TestGanttSVG(t *testing.T) {
	bars := []GanttBar{
		{Row: "C1", Start: 0, End: 2, Label: "sic", Kind: "sic"},
		{Row: "C2", Start: 0, End: 2, Label: "sic", Kind: "sic"},
		{Row: "C3", Start: 2, End: 10, Label: "solo", Kind: "solo"},
		{Row: "C1", Start: 10, End: 11, Kind: "unknown-kind"},
		{Row: "C2", Start: 5, End: 5, Kind: "serial"}, // zero width: skipped
	}
	doc := GanttSVG("Fig. 10 <timelines>", bars)
	validateXML(t, doc)
	if !strings.Contains(doc, "Fig. 10 &lt;timelines&gt;") {
		t.Error("title not escaped")
	}
	for _, lane := range []string{"C1", "C2", "C3"} {
		if !strings.Contains(doc, ">"+lane+"<") {
			t.Errorf("missing lane label %s", lane)
		}
	}
	// Four visible bars (one skipped for zero width): count bar rects by
	// the stroke they carry.
	if n := strings.Count(doc, `stroke="#333"`); n != 4 {
		t.Errorf("want 4 bars, got %d", n)
	}
}

func TestGanttSVGEmpty(t *testing.T) {
	doc := GanttSVG("empty", nil)
	validateXML(t, doc)
}

func TestXYPlotSVG(t *testing.T) {
	line := Series{Name: "boundary", X: []float64{0, 1, 2}, Y: []float64{5, 4, 0}}
	point := Series{Name: "corner", X: []float64{1.5}, Y: []float64{3}}
	doc := XYPlotSVG("region <r>", "R1", "R2", line, point)
	validateXML(t, doc)
	if !strings.Contains(doc, "region &lt;r&gt;") {
		t.Error("title not escaped")
	}
	if !strings.Contains(doc, "<circle") {
		t.Error("single-point series should render a marker")
	}
	if !strings.Contains(doc, "<path") {
		t.Error("line series should render a path")
	}
	// Degenerate: no series.
	validateXML(t, XYPlotSVG("empty", "x", "y"))
}
