package plot

import (
	"bytes"
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecofl/internal/trace"
)

func sampleSeries(t *testing.T) *trace.Series {
	t.Helper()
	s := trace.New("acc", "time_s", "accuracy")
	s.Add(0, 0.1)
	s.Add(100, 0.5)
	s.Add(200, 0.8)
	return s
}

func TestRenderValidSVG(t *testing.T) {
	c := &Chart{Title: "Fig. 7 <cifar>", XLabel: "time_s", YLabel: "accuracy"}
	if err := c.AddSeries("Eco-FL", sampleSeries(t), "time_s", "accuracy"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<polyline") {
		t.Fatal("chart must contain a polyline")
	}
	if !strings.Contains(out, "Fig. 7 &lt;cifar&gt;") {
		t.Fatal("title must be XML-escaped")
	}
	// The document must be well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
	}
}

func TestRenderEmptyChartErrors(t *testing.T) {
	c := &Chart{Title: "empty"}
	var buf bytes.Buffer
	if err := c.Render(&buf); err == nil {
		t.Fatal("empty chart must error")
	}
}

func TestAddSeriesMissingColumn(t *testing.T) {
	c := &Chart{}
	if err := c.AddSeries("x", sampleSeries(t), "nope", "accuracy"); err == nil {
		t.Fatal("missing column must error")
	}
}

func TestCurveChartAndWriteFile(t *testing.T) {
	chart := &Chart{Title: "comparison", XLabel: "t", YLabel: "accuracy", Lines: []Line{
		{Name: "acc", X: []float64{0, 100, 200}, Y: []float64{0.1, 0.5, 0.8}},
		{Name: "acc2", X: []float64{0, 150}, Y: []float64{0.2, 0.9}},
	}}
	if len(chart.Lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(chart.Lines))
	}
	dir := t.TempDir()
	if err := WriteFile(dir, "fig", chart); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatal("file must start with <svg")
	}
}

func TestDegenerateExtentHandled(t *testing.T) {
	s := trace.New("flat", "x", "y")
	s.Add(5, 1)
	s.Add(5, 1) // zero x and y range
	c := &Chart{}
	if err := c.AddSeries("flat", s, "x", "y"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatalf("degenerate extent must not error: %v", err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatal("no NaN coordinates allowed")
	}
}

func TestBarChartRender(t *testing.T) {
	c := &BarChart{Title: "Fig. 11", XLabel: "epoch time (s)", Bars: []Bar{
		{Label: "Nano-H Only", Value: 26.6},
		{Label: "Data Parallelism", Value: 53.4},
		{Label: "Eco-FL Pipeline", Value: 20.7},
	}}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "<rect") != 4 { // background + 3 bars
		t.Fatalf("want 4 rects, got %d", strings.Count(out, "<rect"))
	}
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
	}
	empty := &BarChart{Title: "empty"}
	if err := empty.Render(&buf); err == nil {
		t.Fatal("empty bar chart must error")
	}
	if err := WriteBarFile(t.TempDir(), "bars", c); err != nil {
		t.Fatal(err)
	}
}
