package experiments

import (
	"fmt"
	"io"
	"math"

	"ecofl/internal/fl"
)

// Headlines computes this implementation's counterparts of the paper's
// three abstract claims: accuracy upgrade vs FedAT (Fig. 8 RLG-NIID),
// local-training-time reduction, and throughput improvement (Figs. 10/11).
type Headlines struct {
	// AccuracyUpgrade is Eco-FL − FedAT best accuracy under RLG-NIID
	// (paper: up to +26.3%).
	AccuracyUpgrade float64
	// TrainingTimeReduction is 1 − pipelineEpoch/slowestSingleEpoch on the
	// 3-stage EfficientNet-B4 setting (paper: up to 61.5%).
	TrainingTimeReduction float64
	// ThroughputGain is the best pipeline-over-DP throughput ratio across
	// the four Fig. 10 settings (paper: up to 2.6×).
	ThroughputGain float64
}

// ComputeHeadlines derives the three headline numbers: the accuracy upgrade
// from Fig. 8's RLG-NIID Eco-FL and FedAT curves (a report of
// examples/scenarios/fig8.json carries them), the other two from a short
// Fig. 10 run.
func ComputeHeadlines(eco, fedat []fl.Point) (*Headlines, error) {
	h := &Headlines{}
	// The gap in best accuracy, and the gap at matched mid-training times:
	// the largest anywhere on the curves is the paper's "up to" number.
	h.AccuracyUpgrade = best(eco) - best(fedat)
	for _, p := range eco {
		if f := interpAt(fedat, p.Time); !math.IsNaN(f) && p.Accuracy-f > h.AccuracyUpgrade {
			h.AccuracyUpgrade = p.Accuracy - f
		}
	}

	panels, err := Fig10(2000, 2)
	if err != nil {
		return nil, err
	}
	for _, p := range panels {
		var pipe, dp, slowSingle float64
		for _, m := range p.Methods {
			switch m.Method {
			case "Eco-FL Pipeline":
				pipe = m.Throughput
			case "Data Parallelism":
				dp = m.Throughput
			default:
				if slowSingle == 0 || m.Throughput < slowSingle {
					slowSingle = m.Throughput
				}
			}
		}
		if g := pipe / dp; g > h.ThroughputGain {
			h.ThroughputGain = g
		}
		if r := 1 - slowSingle/pipe; r > h.TrainingTimeReduction {
			h.TrainingTimeReduction = r
		}
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

// PrintHeadlines renders the three claims next to the paper's numbers.
func PrintHeadlines(w io.Writer, h *Headlines) {
	fmt.Fprintf(w, "%-28s %10s %12s\n", "headline", "paper", "this repo")
	fmt.Fprintf(w, "%-28s %10s %11.1f%%\n", "accuracy upgrade vs FedAT", "26.3%", h.AccuracyUpgrade*100)
	fmt.Fprintf(w, "%-28s %10s %11.1f%%\n", "training time reduction", "61.5%", h.TrainingTimeReduction*100)
	fmt.Fprintf(w, "%-28s %10s %11.1fx\n", "throughput improvement", "2.6x", h.ThroughputGain)
}
