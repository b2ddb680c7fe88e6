// Package plot renders the evaluation's figures without external plotting
// libraries: shaded ASCII heatmaps (the medium of the paper's Figs. 3, 4
// and 8), ASCII CDF line plots (Figs. 6, 11, 13, 14), and CSV exports so
// the same data can be re-plotted with any tool.
package plot

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// shades runs from dark (low) to light (high), mirroring the paper's
// "the lighter the shade, the higher the gain" convention.
var shades = []rune(" .:-=+*#%@")

// Heatmap renders the grid as shaded ASCII art, one character per cell,
// with simple axis annotations. Rows are printed with y increasing upward.
func Heatmap(g *stats.Grid, title, xLabel, yLabel string) string {
	lo, hi := g.MinMax()
	span := hi - lo
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%c=%.3g .. %c=%.3g]\n", title, shades[len(shades)-1], hi, shades[0], lo)
	for j := g.NY - 1; j >= 0; j-- {
		fmt.Fprintf(&b, "%8.1f |", g.Y(j))
		for i := 0; i < g.NX; i++ {
			v := g.At(i, j)
			idx := 0
			if span > 0 {
				idx = int((v - lo) / span * float64(len(shades)-1))
				if idx < 0 {
					idx = 0
				}
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			b.WriteRune(shades[idx])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", g.NX))
	fmt.Fprintf(&b, "%8s  %-8.1f%*s%8.1f\n", "", g.X(0), g.NX-16, "", g.X(g.NX-1))
	fmt.Fprintf(&b, "%8s  x: %s   y: %s\n", "", xLabel, yLabel)
	return b.String()
}

// Series is one named line of a CDF (or any x→y) plot.
type Series struct {
	Name string
	X, Y []float64
}

// SeriesFromECDF converts an ECDF into a plottable series.
func SeriesFromECDF(name string, e stats.ECDF) Series {
	xs, ys := e.Points()
	return Series{Name: name, X: xs, Y: ys}
}

// CDFPlot renders one or more CDF series as an ASCII line plot of the given
// character dimensions. Each series is drawn with its own glyph.
func CDFPlot(title string, width, height int, series ...Series) string {
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}

	// Common x-range across series.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, x := range s.X {
			if x < xmin {
				xmin = x
			}
			if x > xmax {
				xmax = x
			}
		}
	}
	if math.IsInf(xmin, 0) || xmin == xmax {
		xmax = xmin + 1
	}

	canvas := make([][]byte, height)
	for r := range canvas {
		canvas[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		glyph := glyphs[si%len(glyphs)]
		for i := range s.X {
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := int(s.Y[i] * float64(height-1))
			if col < 0 || col >= width || row < 0 || row >= height {
				continue
			}
			canvas[height-1-row][col] = glyph
		}
	}

	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for r, line := range canvas {
		yVal := float64(height-1-r) / float64(height-1)
		fmt.Fprintf(&b, "%5.2f |%s\n", yVal, string(line))
	}
	fmt.Fprintf(&b, "%5s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%5s  %-10.3g%*s%10.3g\n", "", xmin, width-20, "", xmax)
	for si, s := range series {
		fmt.Fprintf(&b, "%5s  %c %s\n", "", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// WriteGridCSV exports a grid as "x,y,value" rows with a header. Rows are
// rendered into one reused buffer, as in WriteSeriesCSV.
func WriteGridCSV(w io.Writer, g *stats.Grid, xName, yName, vName string) error {
	if _, err := io.WriteString(w, xName+","+yName+","+vName+"\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			buf = strconv.AppendFloat(buf[:0], g.X(i), 'g', -1, 64)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, g.Y(j), 'g', -1, 64)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, g.At(i, j), 'g', -1, 64)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSeriesCSV exports aligned series as CSV: the x column followed by one
// column per series. Series are re-sampled onto the union of x values via
// left-continuous step interpolation (correct for CDFs): a series reads
// the y of its largest x not exceeding the row's x, else 0. Each series'
// X must be sorted ascending, as ECDF.Points returns it.
//
// Rows are rendered into one reused buffer with strconv.AppendFloat, whose
// 'g'/-1 form produces exactly the bytes of fmt's %g — this renderer used
// to dominate Fig. 11's allocation profile, and the rewrite is pinned
// byte-identical by the committed results/ CSVs. A series' value changes
// only at its own x values, so each series walks its X with a cursor and
// formats a value once per step, not once per row.
func WriteSeriesCSV(w io.Writer, xName string, series ...Series) error {
	// Union of x values: concatenate, sort, dedupe in place.
	total := 0
	for _, s := range series {
		total += len(s.X)
	}
	xs := make([]float64, 0, total)
	for _, s := range series {
		xs = append(xs, s.X...)
	}
	sort.Float64s(xs)
	if len(xs) > 1 {
		uniq := xs[:1]
		for _, x := range xs[1:] {
			if x != uniq[len(uniq)-1] {
				uniq = append(uniq, x)
			}
		}
		xs = uniq
	}

	header := xName
	for _, s := range series {
		header += "," + s.Name
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	// seen[i] counts series i's X values at or below the current row's x;
	// cells[i] holds its current value, formatted.
	seen := make([]int, len(series))
	cells := make([][]byte, len(series))
	for i := range cells {
		cells[i] = []byte("0")
	}
	buf := make([]byte, 0, 64)
	for _, x := range xs {
		buf = strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
		for i, s := range series {
			k := seen[i]
			for k < len(s.X) && s.X[k] <= x {
				k++
			}
			if k != seen[i] {
				seen[i] = k
				cells[i] = strconv.AppendFloat(cells[i][:0], s.Y[k-1], 'g', -1, 64)
			}
			buf = append(buf, ',')
			buf = append(buf, cells[i]...)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
