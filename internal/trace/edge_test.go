package trace

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestCSVNonFiniteRoundTrip pins the wire format for the values experiment
// curves actually produce at the edges: TimeToAccuracy returns +Inf when a
// target is never reached, and division by a zero denominator yields NaN.
// FormatFloat renders them as "NaN"/"+Inf"/"-Inf", spellings ParseFloat
// accepts, so they survive a write/read cycle.
func TestCSVNonFiniteRoundTrip(t *testing.T) {
	s := New("edge", "t", "v")
	s.Add(0, math.NaN())
	s.Add(1, math.Inf(1))
	s.Add(2, math.Inf(-1))

	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := "t,v\n0,NaN\n1,+Inf\n2,-Inf\n"; b.String() != want {
		t.Fatalf("CSV %q, want %q", b.String(), want)
	}
	for _, f := range []string{"NaN", "+Inf", "-Inf"} {
		if _, err := strconv.ParseFloat(f, 64); err != nil {
			t.Errorf("%s does not parse back: %v", f, err)
		}
	}
}

// TestCSVEmptySeriesRoundTrip: a series with columns but no rows writes a
// header-only CSV, not an error (an experiment that produced no samples is
// still a valid artifact). A zero-column series is degenerate: its header is
// a blank line.
func TestCSVEmptySeriesRoundTrip(t *testing.T) {
	for _, c := range []struct {
		s    *Series
		want string
	}{{New("empty", "a", "b"), "a,b\n"}, {New("nocols"), "\n"}} {
		var b strings.Builder
		if err := c.s.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != c.want {
			t.Errorf("%s: CSV %q, want %q", c.s.Name, b.String(), c.want)
		}
	}
}

// TestCSVDuplicateColumns documents the lookup contract under column-name
// collisions: Col returns the FIRST matching column, and duplicate names are
// written positionally intact.
func TestCSVDuplicateColumns(t *testing.T) {
	s := New("dup", "x", "x")
	s.Add(1, 2)
	x, err := s.Col("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 1 || x[0] != 1 {
		t.Fatalf("Col(x) = %v, want first column [1]", x)
	}

	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := "x,x\n1,2\n"; b.String() != want {
		t.Fatalf("CSV %q, want %q", b.String(), want)
	}
}
