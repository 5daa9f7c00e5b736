package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ecofl/internal/fl"
)

// ReportSchema identifies the machine-readable report. Bump the version on
// any breaking change to the JSON shape; the golden-file test in
// report_test.go pins the current layout.
const ReportSchema = "ecofl/scenario-report/v1"

// Report is one executed scenario's measurements.
type Report struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	Topology string `json:"topology"`
	Seed     int64  `json:"seed"`
	// GitSHA and StartedUnix are provenance passed in by the caller (the
	// bench CLI's --git-sha / --now flags) — never read ambiently, so a
	// report generated in a test or a hermetic build is still reproducible.
	GitSHA      string `json:"git_sha,omitempty"`
	StartedUnix int64  `json:"started_unix,omitempty"`
	// ElapsedSeconds is the wall-clock cost of the run.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Metrics is the flat name→value map of the run's measurements. Names are
	// stable identifiers (see runner.go); values are final-state numbers —
	// accuracies, quantiles, byte rates, runtime peaks.
	Metrics map[string]float64 `json:"metrics"`
	// Curve is the accuracy-over-time series, when the topology trains a
	// global model: t is virtual seconds for the fl topology and the 1-based
	// round for the flnet topology (wall-clock would make the curve
	// machine-dependent).
	Curve []fl.Point `json:"accuracy_curve,omitempty"`
	// Warnings records non-fatal anomalies observed during the run (push
	// failures under chaos, missing instrumentation).
	Warnings []string `json:"warnings,omitempty"`
	// JournalEvents is the flight recorder's event-count-by-kind summary,
	// present when the spec enabled journaling. The full timeline is not
	// embedded — it is dumped on failure and queryable live via /events.
	JournalEvents map[string]int `json:"journal_events,omitempty"`
	// Table is a sweep's result, present when the spec carries a sweep block
	// (Metrics is then empty: every measurement belongs to a row).
	Table *Table `json:"table,omitempty"`
}

// Table holds one row per sweep cell, in row-major order of the axes (the
// last axis varies fastest).
type Table struct {
	// Axes are the swept paths and Metrics the reported metric names: the
	// column headings of Rows' two halves.
	Axes    []string   `json:"axes"`
	Metrics []string   `json:"metrics"`
	Rows    []TableRow `json:"rows"`
}

// TableRow is one cell: the value each axis took, as the spec wrote it, the
// cell's reading of each reported metric (0 for one that cell's run does not
// produce, such as churn_departures with churn off), and its accuracy curve.
type TableRow struct {
	Values  []json.RawMessage `json:"values"`
	Metrics []float64         `json:"metrics"`
	Curve   []fl.Point        `json:"accuracy_curve,omitempty"`
}

// Value returns what row i sets at the dotted path, as compact JSON: an
// axis's own value, or a member of a block an axis sets whole
// ("aggregation.strategy" out of an "aggregation" axis). It is "" when no
// axis sets the path.
func (t *Table) Value(i int, path string) string {
	for j, axis := range t.Axes {
		v := t.Rows[i].Values[j]
		if path == axis {
			return string(v)
		}
		rest, ok := strings.CutPrefix(path, axis+".")
		if !ok {
			continue
		}
		for _, key := range strings.Split(rest, ".") {
			var block map[string]json.RawMessage
			if json.Unmarshal(v, &block) != nil || block[key] == nil {
				return ""
			}
			v = block[key]
		}
		return string(v)
	}
	return ""
}

// Row returns the first row that sets each path of where's (path, JSON
// value) pairs to that value (Value), or nil when none does.
func (t *Table) Row(where ...string) *TableRow {
	for i := range t.Rows {
		match := true
		for k := 0; k+1 < len(where); k += 2 {
			match = match && t.Value(i, where[k]) == where[k+1]
		}
		if match {
			return &t.Rows[i]
		}
	}
	return nil
}

// setMetric records one named measurement.
func (r *Report) setMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// warnf appends a formatted warning.
func (r *Report) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// WriteJSON renders the report with stable formatting (indented, sorted
// keys via encoding/json's map ordering), so diffs between captures are
// line-oriented.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
