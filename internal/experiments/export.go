package experiments

import (
	"strings"

	"ecofl/internal/trace"
)

// slug turns a label into a filesystem-friendly series name.
func slug(parts ...string) string {
	s := strings.Join(parts, "_")
	s = strings.ToLower(s)
	for _, r := range []string{" ", "/", "@", "(", ")"} {
		s = strings.ReplaceAll(s, r, "-")
	}
	for strings.Contains(s, "--") {
		s = strings.ReplaceAll(s, "--", "-")
	}
	return strings.Trim(s, "-")
}

// CurvesToSeries exports training curves: one series per (panel, strategy)
// with time/accuracy columns.
func CurvesToSeries(prefix string, sets []CurveSet) []*trace.Series {
	var out []*trace.Series
	for _, set := range sets {
		for _, r := range set.Runs {
			s := trace.New(slug(prefix, set.Dataset, r.Strategy), "time_s", "accuracy")
			for _, p := range r.Curve {
				s.Add(p.Time, p.Accuracy)
			}
			out = append(out, s)
		}
	}
	return out
}

// Fig5ToSeries exports the Fig. 5 configuration rows.
func Fig5ToSeries(rows []Fig5Row) []*trace.Series {
	s := trace.New("fig5_configs", "config", "mbs", "throughput", "util_s0", "util_s1", "util_s2", "k0", "p0")
	for i, r := range rows {
		s.Add(float64(i), float64(r.MicroBatchSize), r.Throughput,
			r.StageUtil[0], r.StageUtil[1], r.StageUtil[2], float64(r.Ks[0]), float64(r.Ps[0]))
	}
	return []*trace.Series{s}
}

// Fig9ToSeries exports the λ sweep.
func Fig9ToSeries(rows []Fig9Row) []*trace.Series {
	s := trace.New("fig9_lambda", "lambda", "avg_js", "avg_latency_s", "final_acc", "best_acc")
	for _, r := range rows {
		s.Add(r.Lambda, r.AvgJS, r.AvgLatency, r.FinalAcc, r.BestAcc)
	}
	return []*trace.Series{s}
}

// PanelsToSeries exports Figs. 10/11: per-method epoch times plus each
// method's accuracy-versus-time curve.
func PanelsToSeries(panels []Panel) []*trace.Series {
	var out []*trace.Series
	for _, p := range panels {
		bars := trace.New(slug("fig11", p.Setting), "method", "throughput", "epoch_s", "transmission_share")
		for i, m := range p.Methods {
			bars.Add(float64(i), m.Throughput, m.EpochTime, m.TransmissionShare)
			curve := trace.New(slug("fig10", p.Setting, m.Method), "time_s", "accuracy")
			for _, c := range m.Curve {
				curve.Add(c.Time, c.Accuracy)
			}
			out = append(out, curve)
		}
		out = append(out, bars)
	}
	return out
}

// Fig12ToSeries exports the partitioner comparison.
func Fig12ToSeries(rows []Fig12Row) []*trace.Series {
	s := trace.New("fig12_partitioning", "row", "throughput", "util_s0", "util_s1")
	for i, r := range rows {
		s.Add(float64(i), r.Throughput, r.StageUtil[0], r.StageUtil[1])
	}
	return []*trace.Series{s}
}

// Table2ToSeries exports the GPipe comparison (OOM rows carry NaN-free
// zeros with oom=1).
func Table2ToSeries(rows []Table2Row) []*trace.Series {
	s := trace.New("table2_gpipe", "row", "mbs", "m", "oom", "mem_s0_gb", "mem_s1_gb", "util_s0", "util_s1")
	for i, r := range rows {
		if r.OOM {
			s.Add(float64(i), float64(r.MicroBatchSize), float64(r.NumMicro), 1, 0, 0, 0, 0)
			continue
		}
		s.Add(float64(i), float64(r.MicroBatchSize), float64(r.NumMicro), 0,
			r.PeakMemGB[0], r.PeakMemGB[1], r.StageUtil[0], r.StageUtil[1])
	}
	return []*trace.Series{s}
}

// Fig13ToSeries exports both spike timelines.
func Fig13ToSeries(r *Fig13Result) []*trace.Series {
	var out []*trace.Series
	with := trace.New("fig13_with_scheduler", "time_s", "throughput", "util_d0", "util_d1", "util_d2")
	for _, sm := range r.With.Samples {
		with.Add(sm.Time, sm.Throughput, sm.DeviceUtil[0], sm.DeviceUtil[1], sm.DeviceUtil[2])
	}
	without := trace.New("fig13_without_scheduler", "time_s", "throughput", "util_d0", "util_d1", "util_d2")
	for _, sm := range r.Without.Samples {
		without.Add(sm.Time, sm.Throughput, sm.DeviceUtil[0], sm.DeviceUtil[1], sm.DeviceUtil[2])
	}
	out = append(out, with, without)
	return out
}
