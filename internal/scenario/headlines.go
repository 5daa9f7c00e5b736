package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"ecofl/internal/fl"
)

// Headlines are this implementation's counterparts of the paper's three
// abstract claims.
type Headlines struct {
	// AccuracyUpgrade is Eco-FL − FedAT accuracy under Fig. 8's RLG-NIID
	// partition (paper: up to +26.3%).
	AccuracyUpgrade float64
	// TrainingTimeReduction is 1 − slowest single device / pipeline
	// throughput, the largest over Fig. 10's settings (paper: up to 61.5%).
	TrainingTimeReduction float64
	// ThroughputGain is the largest pipeline over data-parallel throughput
	// ratio over Fig. 10's settings (paper: up to 2.6×).
	ThroughputGain float64
}

// ComputeHeadlines derives the three claims from the tables of
// examples/scenarios/fig8.json (its RLG-NIID eco-fl and fedat curves) and
// fig10.json (the samples_per_s of each setting's methods; a setting is a
// pipeline.model).
func ComputeHeadlines(fig8, fig10 *Table) (*Headlines, error) {
	eco := fig8.Row("fleet.partition", `"rlg-niid"`, "aggregation.strategy", `"eco-fl"`)
	fedat := fig8.Row("fleet.partition", `"rlg-niid"`, "aggregation.strategy", `"fedat"`)
	if eco == nil || fedat == nil {
		return nil, fmt.Errorf("headlines: the Fig. 8 table has no rlg-niid eco-fl and fedat rows to compare")
	}
	h := &Headlines{}
	// The gap in best accuracy, and the gap at matched mid-training times:
	// the largest anywhere on the curves is the paper's "up to" number.
	h.AccuracyUpgrade = best(eco.Curve) - best(fedat.Curve)
	for _, p := range eco.Curve {
		if f := interpAt(fedat.Curve, p.Time); !math.IsNaN(f) && p.Accuracy-f > h.AccuracyUpgrade {
			h.AccuracyUpgrade = p.Accuracy - f
		}
	}

	col := slices.Index(fig10.Metrics, "samples_per_s")
	if col < 0 {
		return nil, fmt.Errorf("headlines: the Fig. 10 table reports no samples_per_s")
	}
	type setting struct{ pipe, dp, slowSingle float64 }
	var order []string
	settings := map[string]*setting{}
	for i, row := range fig10.Rows {
		name := fig10.Value(i, "pipeline.model")
		s := settings[name]
		if s == nil {
			s = &setting{}
			settings[name] = s
			order = append(order, name)
		}
		switch v := row.Metrics[col]; strings.Trim(fig10.Value(i, "pipeline.method"), `"`) {
		case Method1F1B:
			s.pipe = v
		case MethodDataParallel:
			s.dp = v
		case MethodSingle:
			if s.slowSingle == 0 || v < s.slowSingle {
				s.slowSingle = v
			}
		}
	}
	for _, name := range order {
		s := settings[name]
		if s.pipe == 0 || s.dp == 0 || s.slowSingle == 0 {
			return nil, fmt.Errorf("headlines: Fig. 10 setting %s lacks a 1f1b, data-parallel or single row", name)
		}
		h.ThroughputGain = max(h.ThroughputGain, s.pipe/s.dp)
		h.TrainingTimeReduction = max(h.TrainingTimeReduction, 1-s.slowSingle/s.pipe)
	}
	return h, nil
}

// best is a curve's highest accuracy, as fl.RunResult.BestAccuracy has it.
func best(curve []fl.Point) float64 {
	var b float64
	for _, p := range curve {
		b = max(b, p.Accuracy)
	}
	return b
}

// interpAt linearly interpolates a curve at time t (NaN outside its range).
func interpAt(curve []fl.Point, t float64) float64 {
	if len(curve) == 0 || t < curve[0].Time || t > curve[len(curve)-1].Time {
		return math.NaN()
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Time >= t {
			a, b := curve[i-1], curve[i]
			if b.Time == a.Time {
				return b.Accuracy
			}
			f := (t - a.Time) / (b.Time - a.Time)
			return a.Accuracy + f*(b.Accuracy-a.Accuracy)
		}
	}
	return curve[len(curve)-1].Accuracy
}
