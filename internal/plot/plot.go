// Package plot renders standalone SVG line and bar charts using only the
// standard library — enough to turn every regenerated figure into a file:
// `ecofl bench --svg` draws a scenario report, `ecofl pipeline --svg` the
// pipeline figures.
package plot

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"ecofl/internal/trace"
)

// Chart is one SVG line chart over multiple series sharing an x column.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// Lines are (name, x-values, y-values) triples.
	Lines []Line
	// Width/Height default to 640×400.
	Width, Height int
}

// Line is a named series.
type Line struct {
	Name string
	X, Y []float64
}

// palette is a small colour cycle for series.
var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"}

// AddSeries appends a line from two columns of a trace.Series.
func (c *Chart) AddSeries(name string, s *trace.Series, xCol, yCol string) error {
	x, err := s.Col(xCol)
	if err != nil {
		return err
	}
	y, err := s.Col(yCol)
	if err != nil {
		return err
	}
	c.Lines = append(c.Lines, Line{Name: name, X: x, Y: y})
	return nil
}

// bounds returns the data extent across all lines.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64, ok bool) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, l := range c.Lines {
		for i := range l.X {
			xmin = math.Min(xmin, l.X[i])
			xmax = math.Max(xmax, l.X[i])
			ymin = math.Min(ymin, l.Y[i])
			ymax = math.Max(ymax, l.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		return 0, 0, 0, 0, false
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	return xmin, xmax, ymin, ymax, true
}

// Render writes the chart as a standalone SVG document.
func (c *Chart) Render(w io.Writer) error {
	width, height := c.Width, c.Height
	if width == 0 {
		width = 640
	}
	if height == 0 {
		height = 400
	}
	const marginL, marginR, marginT, marginB = 60, 20, 30, 45
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)

	xmin, xmax, ymin, ymax, ok := c.bounds()
	if !ok {
		return fmt.Errorf("plot: chart %q has no data", c.Title)
	}
	sx := func(x float64) float64 { return float64(marginL) + (x-xmin)/(xmax-xmin)*plotW }
	sy := func(y float64) float64 { return float64(marginT) + plotH - (y-ymin)/(ymax-ymin)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="18" font-size="14" text-anchor="middle">%s</text>`+"\n", width/2, xmlEscape(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT+int(plotH), marginL+int(plotW), marginT+int(plotH))
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT, marginL, marginT+int(plotH))
	// Ticks: 5 per axis.
	for i := 0; i <= 4; i++ {
		fx := xmin + (xmax-xmin)*float64(i)/4
		fy := ymin + (ymax-ymin)*float64(i)/4
		fmt.Fprintf(&b, `<text x="%.0f" y="%d" text-anchor="middle">%s</text>`+"\n",
			sx(fx), marginT+int(plotH)+16, fmtTick(fx))
		fmt.Fprintf(&b, `<text x="%d" y="%.0f" text-anchor="end">%s</text>`+"\n",
			marginL-6, sy(fy)+4, fmtTick(fy))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n",
		marginL+int(plotW)/2, height-8, xmlEscape(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%d" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n",
		marginT+int(plotH)/2, marginT+int(plotH)/2, xmlEscape(c.YLabel))

	// Lines + legend.
	for i, l := range c.Lines {
		color := palette[i%len(palette)]
		var pts []string
		for j := range l.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", sx(l.X[j]), sy(l.Y[j])))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`+"\n",
			color, strings.Join(pts, " "))
		lx, ly := marginL+10, marginT+14*(i+1)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			lx, ly-4, lx+18, ly-4, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", lx+24, ly, xmlEscape(l.Name))
	}
	fmt.Fprintln(&b, "</svg>")
	_, err := io.WriteString(w, b.String())
	return err
}

func fmtTick(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// WriteFile renders the chart to <dir>/<name>.svg.
func WriteFile(dir, name string, c *Chart) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".svg"))
	if err != nil {
		return err
	}
	err = c.Render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// BarChart renders grouped horizontal bars — the Fig. 11-style epoch-time
// panels and Table 2 comparisons.
type BarChart struct {
	Title         string
	XLabel        string
	Bars          []Bar
	Width, Height int
}

// Bar is one labelled value.
type Bar struct {
	Label string
	Value float64
}

// Render writes the bar chart as a standalone SVG document.
func (c *BarChart) Render(w io.Writer) error {
	if len(c.Bars) == 0 {
		return fmt.Errorf("plot: bar chart %q has no data", c.Title)
	}
	width, height := c.Width, c.Height
	if width == 0 {
		width = 640
	}
	if height == 0 {
		height = 60 + 28*len(c.Bars)
	}
	const marginL, marginR, marginT, marginB = 150, 60, 30, 30
	plotW := float64(width - marginL - marginR)
	maxV := 0.0
	for _, b := range c.Bars {
		if b.Value > maxV {
			maxV = b.Value
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&sb, `<text x="%d" y="18" font-size="14" text-anchor="middle">%s</text>`+"\n", width/2, xmlEscape(c.Title))
	barH := 20
	for i, b := range c.Bars {
		y := marginT + i*28
		w := b.Value / maxV * plotW
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="end">%s</text>`+"\n", marginL-8, y+barH-5, xmlEscape(b.Label))
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="%s"/>`+"\n",
			marginL, y, w, barH, palette[i%len(palette)])
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d">%s</text>`+"\n", float64(marginL)+w+4, y+barH-5, fmtTick(b.Value))
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n", marginL+int(plotW)/2, height-8, xmlEscape(c.XLabel))
	fmt.Fprintln(&sb, "</svg>")
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteBarFile renders the bar chart to <dir>/<name>.svg.
func WriteBarFile(dir, name string, c *BarChart) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".svg"))
	if err != nil {
		return err
	}
	err = c.Render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
