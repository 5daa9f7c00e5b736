package scenario

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReportSchema identifies the machine-readable report. Bump the version on
// any breaking change to the JSON shape; the golden-file test in
// report_test.go pins the current layout.
const ReportSchema = "ecofl/scenario-report/v1"

// CurvePoint is one accuracy sample. Time is virtual seconds for the fl
// topology and the 1-based round index for the flnet topology (wall-clock
// would make the curve machine-dependent).
type CurvePoint struct {
	Time     float64 `json:"t"`
	Accuracy float64 `json:"accuracy"`
}

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
	// global model.
	Curve []CurvePoint `json:"accuracy_curve,omitempty"`
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

// TableRow is one cell: the value each axis took, as the spec wrote it, and
// the cell's reading of each reported metric (0 for one that cell's run does
// not produce, such as churn_departures with churn off).
type TableRow struct {
	Values  []json.RawMessage `json:"values"`
	Metrics []float64         `json:"metrics"`
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
