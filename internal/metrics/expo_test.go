package metrics

import (
	"regexp"
	"strings"
	"testing"
)

// unescapeLabelValue reverses escapeLabelValue, as a text-format parser
// reads a label value back.
func unescapeLabelValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) && strings.IndexByte(`\\"n`, v[i+1]) >= 0 {
			i++
			if v[i] == 'n' {
				b.WriteByte('\n')
				continue
			}
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

func TestEscapeLabelValueRoundTrip(t *testing.T) {
	cases := []string{
		"plain",
		`back\slash`,
		`say "hi"`,
		"line1\nline2",
		"tab\there", // tabs pass through raw — the text format allows them
		"unicodé ✓",
		`\\already\"escaped\n`,
		"",
	}
	for _, v := range cases {
		esc := escapeLabelValue(v)
		if strings.ContainsRune(esc, '\n') {
			t.Fatalf("escaped value %q still contains a raw newline", esc)
		}
		if got := unescapeLabelValue(esc); got != v {
			t.Fatalf("round trip of %q: escaped %q, unescaped %q", v, esc, got)
		}
	}
}

// sampleLine matches one exposition sample with a single label, capturing the
// escaped label value (a sequence of non-special chars or backslash escapes).
var sampleLine = regexp.MustCompile(`^ecofl_hostile_total\{v="((?:[^"\\\n]|\\.)*)"\} 1$`)

// TestPrometheusExpositionHostileLabels registers counters whose label values
// contain every character the text format requires escaping (backslash,
// double-quote, newline), writes the exposition, and re-parses it: every line
// must be well-formed (no raw newlines inside the braces) and unescape back
// to the original value.
func TestPrometheusExpositionHostileLabels(t *testing.T) {
	hostile := []string{
		`back\slash`,
		`say "hi"`,
		"multi\nline",
		`trailing\`,
		"mix\\\"\nall",
	}
	r := NewRegistry()
	for _, v := range hostile {
		r.Counter("ecofl_hostile_total", "hostile labels", "v", v).Inc()
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line %q\nfull output:\n%s", line, b.String())
		}
		got[unescapeLabelValue(m[1])] = true
	}
	for _, v := range hostile {
		if !got[v] {
			t.Fatalf("label value %q did not round-trip; parsed set: %v\noutput:\n%s", v, got, b.String())
		}
	}
}
