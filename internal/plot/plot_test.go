package plot

import (
	"bytes"
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRenderValidSVG(t *testing.T) {
	c := &Chart{Title: "Fig. 7 <cifar>", XLabel: "time_s", YLabel: "accuracy", Lines: []Line{
		{Name: "Eco-FL", X: []float64{0, 100, 200}, Y: []float64{0.1, 0.5, 0.8}},
	}}
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
	// Zero x and y range.
	c := &Chart{Lines: []Line{{Name: "flat", X: []float64{5, 5}, Y: []float64{1, 1}}}}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatalf("degenerate extent must not error: %v", err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatal("no NaN coordinates allowed")
	}
}
