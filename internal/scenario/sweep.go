package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// SweepSpec makes one spec a grid of runs, one cell per combination of the
// axes' values. A cell is the spec's own JSON with each axis's value set at
// its path, parsed again: an unknown field, a value of the wrong type and
// every Validate rule stop a cell exactly as they stop a spec written out by
// hand. The spec the axes are set in must be runnable itself.
type SweepSpec struct {
	Axes []SweepAxis `json:"axes"`
	// Report names the metrics each row of the table carries, in column
	// order; at least one cell must produce each (metricsOf).
	Report []string `json:"report"`
}

// SweepAxis is one swept field: a dotted path into the spec
// ("aggregation.dropout_prob") and the values it takes, each in the JSON
// form the field has. A path may name a whole block ("churn", "faults"); the
// value then replaces the block, members it does not name included.
type SweepAxis struct {
	Path   string            `json:"path"`
	Values []json.RawMessage `json:"values"`
}

// maxSweepCells bounds a sweep: cells run one after another in one process,
// and a slip in an axis should not cost an afternoon.
const maxSweepCells = 64

// cell is one point of the grid.
type cell struct {
	label  string            // "[path=value path=value]", for errors and warnings
	values []json.RawMessage // the value of each axis, compacted
	spec   *Spec
}

// cells expands and validates the sweep, in row-major order (the last axis
// varies fastest).
func (s *Spec) cells() ([]cell, error) {
	axes := s.Sweep.Axes
	if len(s.Sweep.Report) == 0 {
		return nil, fmt.Errorf("sweep.report must name at least one metric")
	}
	n, seen := 1, make(map[string]bool)
	for i, ax := range axes {
		switch root, _, _ := strings.Cut(ax.Path, "."); {
		case root == "sweep" || root == "name" || root == "schema":
			return nil, fmt.Errorf("sweep.axes[%d].path %q: %s cannot be swept", i, ax.Path, root)
		case seen[ax.Path]:
			return nil, fmt.Errorf("sweep.axes[%d].path %q is swept twice", i, ax.Path)
		case len(ax.Values) == 0:
			return nil, fmt.Errorf("sweep.axes[%d].values must not be empty (path %q)", i, ax.Path)
		}
		seen[ax.Path] = true
		if n *= len(ax.Values); n > maxSweepCells {
			return nil, fmt.Errorf("sweep has more than %d cells", maxSweepCells)
		}
	}

	base := *s
	base.Sweep = nil
	doc, err := json.Marshal(&base)
	if err != nil {
		return nil, err
	}
	produced := make(map[string]bool)
	cells := make([]cell, n)
	for c := range cells {
		cellDoc, stride := json.RawMessage(doc), n
		var parts []string
		for _, ax := range axes {
			stride /= len(ax.Values)
			var v bytes.Buffer
			// Decoded as a RawMessage, so valid JSON: Compact cannot fail.
			_ = json.Compact(&v, ax.Values[c/stride%len(ax.Values)])
			cells[c].values = append(cells[c].values, v.Bytes())
			parts = append(parts, ax.Path+"="+v.String())
			cellDoc = setPath(cellDoc, strings.Split(ax.Path, "."), v.Bytes())
		}
		cells[c].label = "[" + strings.Join(parts, " ") + "]"
		if cells[c].spec, err = Parse(cellDoc); err != nil {
			return nil, fmt.Errorf("sweep cell %s: %w", cells[c].label, err)
		}
		for _, name := range metricsOf(cells[c].spec) {
			produced[name] = true
		}
	}
	for i, name := range s.Sweep.Report {
		if !produced[name] {
			return nil, fmt.Errorf("sweep.report[%d]: no cell produces a metric %q", i, name)
		}
	}
	return cells, nil
}

// setPath returns the JSON object doc with the member at path set to v. A
// step through a member that is absent or not an object makes one there; it
// is the cell's Parse that says the path names no field of the spec.
func setPath(doc json.RawMessage, path []string, v json.RawMessage) json.RawMessage {
	if len(path) == 0 {
		return v
	}
	var obj map[string]json.RawMessage
	if json.Unmarshal(doc, &obj) != nil || obj == nil {
		obj = map[string]json.RawMessage{}
	}
	obj[path[0]] = setPath(obj[path[0]], path[1:], v)
	out, _ := json.Marshal(obj) // members are valid JSON: Marshal cannot fail
	return out
}

// runSweep runs every cell through Run and collects the table into rep.
// Cells run one after another: the runners read deltas of the process-wide
// metrics registry, which concurrent runs would mix.
func runSweep(spec *Spec, rep *Report, opts RunOptions) (*Report, error) {
	cells, err := spec.cells()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	t0 := time.Now()
	rep.Table = &Table{Metrics: spec.Sweep.Report}
	for _, ax := range spec.Sweep.Axes {
		rep.Table.Axes = append(rep.Table.Axes, ax.Path)
	}
	for _, c := range cells {
		r, err := Run(c.spec, opts)
		if err != nil {
			return nil, fmt.Errorf("sweep cell %s: %w", c.label, err)
		}
		row := TableRow{Values: c.values, Curve: r.Curve}
		for _, name := range rep.Table.Metrics {
			row.Metrics = append(row.Metrics, r.Metrics[name])
		}
		rep.Table.Rows = append(rep.Table.Rows, row)
		for _, w := range r.Warnings {
			rep.warnf("cell %s: %s", c.label, w)
		}
	}
	rep.ElapsedSeconds = time.Since(t0).Seconds()
	return rep, nil
}

// metricsOf lists the metrics a run of spec reports: the names a sweep's
// report may ask for. It mirrors the runners' setMetric calls, conditions
// included; the scenario tests check every run they make against it.
func metricsOf(s *Spec) []string {
	fl, net := s.Topology == TopologyFL, s.Topology == TopologyFLNet
	var names []string
	for _, m := range []struct {
		when  bool
		names string
	}{
		{true, "goroutine_hwm peak_heap_bytes gc_pause_p99_s"},
		{s.Journal.Enabled, "journal_events_total"},
		{fl || net, "final_accuracy best_accuracy rounds round_time_p50_s round_time_p95_s"},
		{fl, "dropouts quorum_discarded quorum_failed_rounds dropped_clients"},
		{fl && s.Agg.Strategy != "fedavg" && s.Agg.Strategy != "fedasync", "avg_group_js avg_group_latency_s"},
		{fl && s.Churn.enabled(), "churn_departures readmissions"},
		{fl && s.Attack.enabled(), "adversary_corruptions norm_clipped"},
		{net, "pushes deduped_pushes client_retries client_reconnects push_failures server_bytes_read server_bytes_written"},
		{net && s.Churn.enabled(), "offline_skips"},
		{net && s.Attack.enabled(), "adversary_corruptions quarantined_pushes"},
		{net && s.Churn.LeaseTTLS > 0, "lease_expired lease_resyncs sessions_final"},
		{s.Topology == TopologyPipeline, "rounds_committed rounds_aborted heals migrations migrated_bytes " +
			"planned_move_bytes detect_latency_s migration_time_s first_loss final_loss bit_identical"},
	} {
		if m.when {
			names = append(names, strings.Fields(m.names)...)
		}
	}
	// Clients 0–2 between them push every codec the fleet uses (a mixed fleet
	// cycles raw, quant, sparse by id). Every client can push raw: a sparse
	// client's first push and its re-syncs are dense, and a quantized or
	// sparse client sends a non-finite update dense.
	if net {
		names = append(names, "push_bytes_total_"+CodecRaw, "bytes_per_push_"+CodecRaw)
	}
	for i := 0; net && i < 3 && i < s.Fleet.Clients; i++ {
		if codec := clientCodec(s, i); codec != CodecRaw {
			names = append(names, "push_bytes_total_"+codec, "bytes_per_push_"+codec)
		}
	}
	return names
}
