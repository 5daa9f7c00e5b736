package journal

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteTimeline renders events (already in causal order) one per line for
// humans: timestamp, node, correlation ids, kind, a span's duration, then
// sorted attrs. This is the dump-on-failure format printed by soak tests and
// the scenario runner.
func WriteTimeline(w io.Writer, evs []Event) {
	for _, e := range evs {
		var b strings.Builder
		fmt.Fprintf(&b, "%12.6fs node=%-3d", e.TS, e.Node)
		if e.Round != None {
			fmt.Fprintf(&b, " round=%-3d", e.Round)
		} else {
			b.WriteString("          ")
		}
		if e.Client != None {
			fmt.Fprintf(&b, " client=%-3d", e.Client)
		} else {
			b.WriteString("           ")
		}
		fmt.Fprintf(&b, " %-22s", e.Kind)
		if e.Dur > 0 {
			fmt.Fprintf(&b, " dur=%.6fs", e.Dur)
		}
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, e.Attrs[k])
		}
		fmt.Fprintln(w, b.String())
	}
}

// Timeline renders WriteTimeline to a string.
func Timeline(evs []Event) string {
	var b strings.Builder
	WriteTimeline(&b, evs)
	return b.String()
}

// CountByKind tallies events per kind — the report summary shape.
func CountByKind(evs []Event) map[string]int {
	if len(evs) == 0 {
		return nil
	}
	out := make(map[string]int)
	for _, e := range evs {
		out[e.Kind]++
	}
	return out
}
