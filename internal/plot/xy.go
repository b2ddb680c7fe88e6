package plot

import (
	"fmt"
	"math"
	"strings"
)

// XYPlotSVG renders arbitrary x→y series as an SVG line plot with
// auto-scaled axes — used for the capacity-region figure, where the axes
// are rates rather than probabilities.
func XYPlotSVG(title, xLabel, yLabel string, series ...Series) string {
	const (
		plotW  = 420
		plotH  = 320
		margin = 64
		titleH = 26
	)
	legendH := 18*len(series) + 8
	w := plotW + 2*margin
	h := titleH + plotH + 48 + legendH

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if s.X[i] < xmin {
				xmin = s.X[i]
			}
			if s.X[i] > xmax {
				xmax = s.X[i]
			}
			if s.Y[i] < ymin {
				ymin = s.Y[i]
			}
			if s.Y[i] > ymax {
				ymax = s.Y[i]
			}
		}
	}
	if math.IsInf(xmin, 0) {
		xmin, xmax, ymin, ymax = 0, 1, 0, 1
	}
	if xmin == xmax {
		xmax = xmin + 1
	}
	if ymin == ymax {
		ymax = ymin + 1
	}
	px := func(x float64) float64 { return margin + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 { return float64(titleH) + (1-(y-ymin)/(ymax-ymin))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="17" font-size="14">%s</text>`+"\n", margin, svgEscape(title))
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#888"/>`+"\n",
		margin, titleH, plotW, plotH)

	// Axis extremes.
	fmt.Fprintf(&b, `<text x="%d" y="%d">%.3g</text>`+"\n", margin, titleH+plotH+16, xmin)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%.3g</text>`+"\n", margin+plotW, titleH+plotH+16, xmax)
	fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%.3g</text>`+"\n", margin-6, py(ymin)+4, ymin)
	fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%.3g</text>`+"\n", margin-6, py(ymax)+4, ymax)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n", margin+plotW/2, titleH+plotH+32, svgEscape(xLabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" transform="rotate(-90 16 %d)" text-anchor="middle">%s</text>`+"\n",
		titleH+plotH/2, titleH+plotH/2, svgEscape(yLabel))

	var path []byte
	for si, s := range series {
		if len(s.X) == 0 {
			continue
		}
		color := seriesColors[si%len(seriesColors)]
		if len(s.X) == 1 {
			// A single point renders as a marker.
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="%s"/>`+"\n", px(s.X[0]), py(s.Y[0]), color)
		} else {
			path = appendPathPoint(append(path[:0], "M "...), px(s.X[0]), py(s.Y[0]))
			for i := 1; i < len(s.X); i++ {
				path = appendPathPoint(append(path, " L "...), px(s.X[i]), py(s.Y[i]))
			}
			fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", path, color)
		}
		ly := titleH + plotH + 44 + si*18
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="3"/>`+"\n",
			margin, ly, margin+24, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", margin+30, ly+4, svgEscape(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}
