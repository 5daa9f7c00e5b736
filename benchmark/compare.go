package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// medianAndSpread summarises one metric of one workload across sets: the
// median, and the range across sets as a share of it (0 for a single set).
func medianAndSpread(sets []set, workload, metric string) (med, spread float64, ok bool) {
	var vs []float64
	for _, st := range sets {
		if res := st.EndToEnd[workload]; res != nil && res.Metrics != nil {
			vs = append(vs, res.Metrics[metric])
		}
	}
	if len(vs) == 0 {
		return 0, 0, false
	}
	med = median(vs)
	if med != 0 {
		spread = (quantile(vs, 1) - quantile(vs, 0)) / med
	}
	return med, spread, true
}

// compare prints, per workload and end-to-end metric, both sides' medians,
// the relative difference, the metric's bound and a verdict: ok when b is no
// worse than a by more than the bound; otherwise unresolved when either
// side's own sets spread wider than the bound, else REGRESSED. It reports
// whether anything regressed.
func compare(out io.Writer, mf *manifest, a, b []set) (regressed bool) {
	fmt.Fprintf(out, "%-16s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, w := range mf.Workloads {
		for _, d := range mf.EndToEnd {
			va, sa, okA := medianAndSpread(a, w.Name, d.Name)
			vb, sb, okB := medianAndSpread(b, w.Name, d.Name)
			if !okA || !okB {
				fmt.Fprintf(out, "%-16s %-20s %44s  missing\n", w.Name, d.Name, "")
				continue
			}
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va
			}
			worse := diff
			if d.Better == "higher" {
				worse = -diff
			}
			verdict := "ok"
			switch {
			case worse <= d.Bound:
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			default:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(out, "%-16s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				w.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return regressed
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A/results.json B/results.json")
		return 2
	}
	mf, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var sides [2]suite
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &sides[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
		if sides[i].Scale != 1 {
			fmt.Fprintf(os.Stderr, "benchmark: %s is a scaled self-test (scale %g), not a capture\n", path, sides[i].Scale)
			return 2
		}
	}
	if compare(os.Stdout, mf, sides[0].Sets, sides[1].Sets) {
		return 1
	}
	return 0
}
