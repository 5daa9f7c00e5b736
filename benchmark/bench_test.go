package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestDeclaredMetricsAreEmitted runs every workload, untraced and traced, at
// the self-test scale and holds the output to BENCHMARK.json: each declared
// metric emitted once, finite and well-named, nothing undeclared. A renamed
// public function of a layer breaks this build; a renamed metric breaks this
// test — not the next capture.
func TestDeclaredMetricsAreEmitted(t *testing.T) {
	mf, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), mf.EndToEnd...), mf.PerLayer...) {
		if seen[d.Name] || !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is duplicated or malformed", d.Name)
		}
		seen[d.Name] = true
	}
	p := params{seed: 7, seconds: 12, scale: 0.01}
	for _, decl := range mf.Workloads {
		w := workloadByName(decl.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json declares workload %q, which the benchmark does not have", decl.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runOne(w, p, traced, mf)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			decls := mf.EndToEnd
			if traced {
				decls = mf.PerLayer
			}
			line, err := driverLine(res, decls)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: result line does not parse: %v", w.name, err)
			}
			if len(got.Metrics) != len(decls) || len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(got.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing, not finite or in the wrong unit", w.name, traced, d.Name)
				}
				if !traced && ok && m.Value != nil && *m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mf := &manifest{
		Workloads: []struct{ Name, Why string }{{Name: "w"}},
		EndToEnd: []metricDecl{
			{Name: "lat", Better: "lower", Bound: 0.10},
			{Name: "rate", Better: "higher", Bound: 0.10},
		},
	}
	mk := func(lat, rate float64) set {
		return set{EndToEnd: map[string]*result{"w": {Metrics: map[string]float64{"lat": lat, "rate": rate}}}}
	}
	var out bytes.Buffer
	if compare(&out, mf, []set{mk(1, 100)}, []set{mk(1.05, 95)}) {
		t.Errorf("a change inside the bound was reported as a regression:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, mf, []set{mk(1, 100)}, []set{mk(1.2, 100)}) || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a latency 20%% worse was not reported as a regression:\n%s", out.String())
	}
	out.Reset()
	// Side a's own sets spread wider than the bound: the verdict is withheld.
	if compare(&out, mf, []set{mk(1, 100), mk(1.3, 100)}, []set{mk(1.4, 100)}) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a difference inside side a's own spread was not reported as unresolved:\n%s", out.String())
	}
}
