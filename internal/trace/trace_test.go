package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestAddAndCol(t *testing.T) {
	s := New("fig", "time", "acc")
	s.Add(1, 0.5)
	s.Add(2, 0.75)
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	acc, err := s.Col("acc")
	if err != nil || acc[1] != 0.75 {
		t.Fatalf("Col = %v, %v", acc, err)
	}
	if _, err := s.Col("nope"); err == nil {
		t.Fatal("missing column must error")
	}
}

func TestAddWrongArityPanics(t *testing.T) {
	s := New("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Add(1)
}

func TestCSVRoundTrip(t *testing.T) {
	s := New("roundtrip", "t", "v")
	s.Add(0, 1.5)
	s.Add(1, -2.25)
	s.Add(2, 1e-9)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Shortest round-trip formatting: each value parses back to itself.
	if want := "t,v\n0,1.5\n1,-2.25\n2,1e-09\n"; buf.String() != want {
		t.Fatalf("CSV %q, want %q", buf.String(), want)
	}
}

func TestWriteDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out", "nested")
	a := New("alpha", "x")
	a.Add(1)
	b := New("beta", "y")
	b.Add(2)
	if err := WriteDir(dir, a, b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha.csv", "beta.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}
