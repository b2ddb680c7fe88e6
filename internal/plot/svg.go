package plot

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// This file renders figures as standalone SVG documents — the viewable
// counterpart of the ASCII renderings, still with no dependencies.

// svgEscape guards text nodes.
func svgEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// hexDigits are the lower-case digits of a "#rrggbb" colour.
const hexDigits = "0123456789abcdef"

// appendHeatColor appends the "#rrggbb" colour of a normalised value in
// [0,1] on a dark-to-light ramp matching the paper's "lighter = higher"
// convention. Each channel lies in [20, 255], so two hex digits always
// render it as fmt's %02x would.
func appendHeatColor(buf []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(buf, "#ff00ff"...)
	}
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	// Deep blue → teal → pale yellow.
	r := int(20 + 235*v)
	g := int(24 + 220*v)
	b := int(72 + 130*(1-math.Abs(v-0.35)))
	if b > 255 {
		b = 255
	}
	return append(buf, '#',
		hexDigits[r>>4], hexDigits[r&15],
		hexDigits[g>>4], hexDigits[g&15],
		hexDigits[b>>4], hexDigits[b&15])
}

// HeatmapSVG renders the grid as an SVG heatmap with axes and a value ramp.
func HeatmapSVG(g *stats.Grid, title, xLabel, yLabel string) string {
	const (
		cell   = 6
		margin = 60
		rampW  = 18
		titleH = 28
		labelH = 36
	)
	w := margin + g.NX*cell + 2*rampW + margin
	h := titleH + g.NY*cell + labelH + 20

	lo, hi := g.MinMax()
	span := hi - lo
	norm := func(v float64) float64 {
		if span <= 0 {
			return 0.5
		}
		return (v - lo) / span
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="18" font-size="14">%s</text>`+"\n", margin, svgEscape(title))

	// Each cell is rendered into one reused buffer, byte-equal to
	// Fprintf(`<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`).
	var cellBuf []byte
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			cellBuf = append(cellBuf[:0], `<rect x="`...)
			cellBuf = strconv.AppendInt(cellBuf, int64(margin+i*cell), 10)
			cellBuf = append(cellBuf, `" y="`...)
			cellBuf = strconv.AppendInt(cellBuf, int64(titleH+(g.NY-1-j)*cell), 10)
			cellBuf = append(cellBuf, `" width="`...)
			cellBuf = strconv.AppendInt(cellBuf, cell, 10)
			cellBuf = append(cellBuf, `" height="`...)
			cellBuf = strconv.AppendInt(cellBuf, cell, 10)
			cellBuf = append(cellBuf, `" fill="`...)
			cellBuf = appendHeatColor(cellBuf, norm(g.At(i, j)))
			cellBuf = append(cellBuf, "\"/>\n"...)
			b.Write(cellBuf)
		}
	}

	// Axes labels (corners only — the CSV carries full resolution).
	plotBottom := titleH + g.NY*cell
	fmt.Fprintf(&b, `<text x="%d" y="%d">%.3g</text>`+"\n", margin-4, plotBottom+14, g.X(0))
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%.3g</text>`+"\n", margin+g.NX*cell, plotBottom+14, g.X(g.NX-1))
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n", margin+g.NX*cell/2, plotBottom+30, svgEscape(xLabel))
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%.3g</text>`+"\n", margin-6, plotBottom, g.Y(0))
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%.3g</text>`+"\n", margin-6, titleH+10, g.Y(g.NY-1))
	fmt.Fprintf(&b, `<text x="14" y="%d" transform="rotate(-90 14 %d)" text-anchor="middle">%s</text>`+"\n",
		titleH+g.NY*cell/2, titleH+g.NY*cell/2, svgEscape(yLabel))

	// Value ramp.
	rampX := margin + g.NX*cell + 12
	steps := 32
	stepH := float64(g.NY*cell) / float64(steps)
	for s := 0; s < steps; s++ {
		v := 1 - float64(s)/float64(steps-1)
		y := float64(titleH) + float64(s)*stepH
		fmt.Fprintf(&b, `<rect x="%d" y="%.1f" width="%d" height="%.1f" fill="%s"/>`+"\n",
			rampX, y, rampW, stepH+0.5, appendHeatColor(nil, v))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d">%.3g</text>`+"\n", rampX+rampW+4, titleH+10, hi)
	fmt.Fprintf(&b, `<text x="%d" y="%d">%.3g</text>`+"\n", rampX+rampW+4, plotBottom, lo)

	b.WriteString("</svg>\n")
	return b.String()
}

// seriesColors is a categorical palette for line plots.
var seriesColors = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// CDFPlotSVG renders CDF series as an SVG step plot with a legend.
func CDFPlotSVG(title string, series ...Series) string {
	const (
		plotW  = 480
		plotH  = 280
		margin = 56
		titleH = 26
	)
	legendH := 18*len(series) + 8
	w := plotW + 2*margin
	h := titleH + plotH + 44 + legendH

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
	if math.IsInf(xmin, 0) {
		xmin, xmax = 0, 1
	}
	if xmin == xmax {
		xmax = xmin + 1
	}
	px := func(x float64) float64 { return margin + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 { return float64(titleH) + (1-y)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="17" font-size="14">%s</text>`+"\n", margin, svgEscape(title))

	// Frame and gridlines at quartiles.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#888"/>`+"\n",
		margin, titleH, plotW, plotH)
	for _, q := range []float64{0.25, 0.5, 0.75} {
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			margin, py(q), margin+plotW, py(q))
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%.2f</text>`+"\n", margin-6, py(q)+4, q)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">1.00</text>`+"\n", margin-6, py(1)+4)
	fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">0.00</text>`+"\n", margin-6, py(0)+4)
	fmt.Fprintf(&b, `<text x="%d" y="%d">%.3g</text>`+"\n", margin, titleH+plotH+16, xmin)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%.3g</text>`+"\n", margin+plotW, titleH+plotH+16, xmax)

	var path []byte
	for si, s := range series {
		if len(s.X) == 0 {
			continue
		}
		color := seriesColors[si%len(seriesColors)]
		xsv, ysv := s.X, s.Y
		if !sort.Float64sAreSorted(xsv) {
			// ECDF-sourced series arrive sorted; sort a copy otherwise.
			xsv = append([]float64(nil), s.X...)
			ysv = append([]float64(nil), s.Y...)
			sort.Sort(xyPoints{xsv, ysv})
		}
		// The path is built into a reused byte buffer; appendFixed1 renders
		// exactly fmt's %.1f.
		path = append(path[:0], "M "...)
		prevY := 0.0
		path = appendPathPoint(path, px(xsv[0]), py(prevY))
		for i := range xsv {
			// Step: horizontal to the new x at the old y, then vertical.
			path = append(path, " L "...)
			path = appendPathPoint(path, px(xsv[i]), py(prevY))
			path = append(path, " L "...)
			path = appendPathPoint(path, px(xsv[i]), py(ysv[i]))
			prevY = ysv[i]
		}
		path = append(path, " L "...)
		path = appendPathPoint(path, px(xmax), py(prevY))
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", path, color)

		ly := titleH + plotH + 34 + si*18
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="3"/>`+"\n",
			margin, ly, margin+24, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", margin+30, ly+4, svgEscape(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// appendPathPoint appends "X Y" with one decimal place each, byte-equal to
// fmt.Sprintf("%.1f %.1f", x, y).
func appendPathPoint(buf []byte, x, y float64) []byte {
	buf = appendFixed1(buf, x)
	buf = append(buf, ' ')
	return appendFixed1(buf, y)
}

// appendFixed1 appends x as strconv.AppendFloat(buf, x, 'f', 1, 64) does,
// i.e. as fmt's %.1f, without strconv's multiprecision path, which 'f'
// with an explicit precision always takes.
//
// For |x| < 2^48, t = |x|·10 rounded lies below 2^52, so its ulp is at
// most 1/2, and e = FMA(|x|, 10, −t) is exact: |x|·10 = t + e with |e| at
// most half an ulp of t. The exact value thus rounds to the nearest
// integer u by t's fraction alone, unless that fraction is exactly 1/2:
// then the sign of e decides, and e = 0 is a true tie, broken to even as
// strconv breaks ties in the exact decimal expansion of x. math.FMA is
// exact with or without hardware FMA.
func appendFixed1(buf []byte, x float64) []byte {
	a := math.Abs(x)
	if !(a < 1<<48) { // NaN, ±Inf and large values
		return strconv.AppendFloat(buf, x, 'f', 1, 64)
	}
	t := a * 10
	e := math.FMA(a, 10, -t)
	u := uint64(t)
	// The fraction of t minus one half: exact for t ≥ 0.5, and of the
	// right sign below.
	switch d := t - float64(u) - 0.5; {
	case d > 0, d == 0 && (e > 0 || e == 0 && u&1 == 1):
		u++
	}
	if math.Signbit(x) {
		buf = append(buf, '-')
	}
	buf = strconv.AppendUint(buf, u/10, 10)
	return append(buf, '.', byte('0'+u%10))
}

// xyPoints sorts parallel x/y slices by x.
type xyPoints struct{ x, y []float64 }

func (p xyPoints) Len() int           { return len(p.x) }
func (p xyPoints) Less(i, j int) bool { return p.x[i] < p.x[j] }
func (p xyPoints) Swap(i, j int) {
	p.x[i], p.x[j] = p.x[j], p.x[i]
	p.y[i], p.y[j] = p.y[j], p.y[i]
}
