// Command ecofl regenerates the tables and figures of the Eco-FL paper
// (ICPP '22) from this repository's implementation: the pipeline figures
// through their runners, the FL figures (7, 8, 9) and every other study from
// a scenario spec.
//
// Usage:
//
//	ecofl pipeline --experiment {fig5|fig10|fig11|fig12|fig13|table2}
//	ecofl pipeline --show-schedule     # Fig. 3-style 1F1B-Sync Gantt chart
//	ecofl bench --scenario examples/scenarios/fig7.json [--svg DIR]   # a spec, or a sweep of one
//	ecofl headlines --scenario examples/scenarios/fig8.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ecofl/internal/adaptive"
	"ecofl/internal/device"
	"ecofl/internal/experiments"
	"ecofl/internal/metrics"
	"ecofl/internal/model"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
	"ecofl/internal/plot"
	"ecofl/internal/scenario"
	"ecofl/internal/tensor"
	"ecofl/internal/trace"
)

// writeCSV exports series to dir when dir is non-empty.
func writeCSV(dir string, series []*trace.Series) error {
	if dir == "" {
		return nil
	}
	if err := trace.WriteDir(dir, series...); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d CSV series to %s\n", len(series), dir)
	return nil
}

// configureParallelism applies the ECOFL_PROCS override to the compute
// substrate. Unset means tensor's default (GOMAXPROCS); 1 forces the fully
// serial path. Results are bit-identical at every setting (the kernels
// guarantee serial equivalence), so the knob only controls CPU usage —
// experiments stay reproducible across machines.
func configureParallelism() {
	s := os.Getenv("ECOFL_PROCS")
	if s == "" {
		return
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		fmt.Fprintf(os.Stderr, "ecofl: ignoring invalid ECOFL_PROCS=%q (want a positive integer)\n", s)
		return
	}
	tensor.SetParallelism(n)
}

// extractGlobalFlag strips one global flag (valid before or after the
// subcommand, as --name=value or --name value) from args and returns the
// remaining arguments plus the flag's value ("" when absent). A global
// pre-scan keeps these flags working uniformly across every subcommand's
// FlagSet.
func extractGlobalFlag(args []string, name string) ([]string, string) {
	var rest []string
	var value string
	for i := 0; i < len(args); i++ {
		a := args[i]
		trimmed := strings.TrimLeft(a, "-")
		switch {
		case strings.HasPrefix(trimmed, name+"=") && strings.HasPrefix(a, "-"):
			value = strings.TrimPrefix(trimmed, name+"=")
		case trimmed == name && strings.HasPrefix(a, "-") && i+1 < len(args):
			value = args[i+1]
			i++
		default:
			rest = append(rest, a)
		}
	}
	return rest, value
}

// dumpMetricsJSON writes the Default registry snapshot as JSON to path
// ("-" means stdout).
func dumpMetricsJSON(path string) error {
	if path == "-" {
		return metrics.Default.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := metrics.Default.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", path)
	}
	return werr
}

func main() {
	configureParallelism()
	args, metricsJSON := extractGlobalFlag(os.Args[1:], "metrics-json")
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "pipeline":
		err = cmdPipeline(args[1:])
	case "partition":
		err = cmdPartition(args[1:])
	case "headlines":
		err = cmdHeadlines(args[1:])
	case "devices":
		err = cmdDevices()
	case "migrate":
		err = cmdMigrate(args[1:])
	case "bench":
		err = cmdBench(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if metricsJSON != "" {
		if merr := dumpMetricsJSON(metricsJSON); err == nil {
			err = merr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecofl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ecofl <command> [flags]

commands:
  pipeline   --experiment {fig5|fig10|fig11|fig12|fig13|table2} | --show-schedule
  partition  --model {effnet-bN|mobilenet-wX} --devices A,B,C [--mbs N] [--m M]
  headlines  [--scenario examples/scenarios/fig8.json]
  devices    (print the Table 1 device presets)
  migrate    --model M --devices A,B,C --spike-device N --load F
  bench      --scenario <spec.json> [--out report.json] [--svg DIR]   (one run, or a sweep's
             table: examples/scenarios/fig{7,8,9}[-full].json are the FL figures)

global flags (any command):
  --metrics-json <path>   dump an end-of-run metrics snapshot as JSON (- for stdout)`)
}

func cmdPipeline(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	exp := fs.String("experiment", "", "fig5, fig10, fig11, fig12, fig13 or table2")
	show := fs.Bool("show-schedule", false, "print a Fig. 3-style 1F1B-Sync schedule")
	csvDir := fs.String("csv", "", "directory for CSV export (optional)")
	svgDir := fs.String("svg", "", "directory for SVG charts (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *show {
		return showSchedule()
	}
	switch *exp {
	case "fig5":
		rows, err := experiments.Fig5()
		if err != nil {
			return err
		}
		experiments.PrintFig5(os.Stdout, rows)
		return writeCSV(*csvDir, experiments.Fig5ToSeries(rows))
	case "fig10", "fig11":
		panels, err := experiments.Fig10(2000, 20)
		if err != nil {
			return err
		}
		experiments.PrintPanels(os.Stdout, panels)
		if *svgDir != "" {
			for _, panel := range panels {
				bars := &plot.BarChart{Title: "Fig. 11 — " + panel.Setting, XLabel: "epoch time (s)"}
				for _, meth := range panel.Methods {
					bars.Bars = append(bars.Bars, plot.Bar{Label: meth.Method, Value: meth.EpochTime})
				}
				name := strings.ToLower(strings.NewReplacer(" ", "-", "@", "at").Replace("fig11_" + panel.Setting))
				if err := plot.WriteBarFile(*svgDir, name, bars); err != nil {
					return err
				}
			}
			fmt.Fprintf(os.Stderr, "wrote %d SVG charts to %s\n", len(panels), *svgDir)
		}
		return writeCSV(*csvDir, experiments.PanelsToSeries(panels))
	case "fig12":
		rows, err := experiments.Fig12()
		if err != nil {
			return err
		}
		experiments.PrintFig12(os.Stdout, rows)
		return writeCSV(*csvDir, experiments.Fig12ToSeries(rows))
	case "fig13":
		r, err := experiments.Fig13()
		if err != nil {
			return err
		}
		experiments.PrintFig13(os.Stdout, r)
		if *csvDir != "" || *svgDir != "" {
			series := experiments.Fig13ToSeries(r)
			if *svgDir != "" {
				chart := &plot.Chart{Title: "Fig. 13 — throughput under load spike", XLabel: "time_s", YLabel: "throughput"}
				for _, sr := range series {
					if err := chart.AddSeries(sr.Name, sr, "time_s", "throughput"); err != nil {
						return err
					}
				}
				if err := plot.WriteFile(*svgDir, "fig13_throughput", chart); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote 1 SVG chart to %s\n", *svgDir)
			}
			return writeCSV(*csvDir, series)
		}
		return nil
	case "table2":
		rows, err := experiments.Table2()
		if err != nil {
			return err
		}
		experiments.PrintTable2(os.Stdout, rows)
		return writeCSV(*csvDir, experiments.Table2ToSeries(rows))
	default:
		return fmt.Errorf("unknown pipeline experiment %q (fig5, fig10, fig11, fig12, fig13, table2; Figs. 7-9 and other studies are specs: ecofl bench --scenario)", *exp)
	}
}

// showSchedule prints the Fig. 3 illustration: a 3-stage 1F1B-Sync
// sync-round as an ASCII Gantt chart (digits = forward, letters = backward).
func showSchedule() error {
	spec := model.EfficientNet(1)
	devs := []*device.Device{device.TX2Q(), device.NanoH(), device.NanoH()}
	plan, err := partition.DynamicProgramming(spec, devs)
	if err != nil {
		return err
	}
	cfg := &pipeline.Config{Spec: spec, Stages: plan.Stages, MicroBatchSize: 8, NumMicroBatches: 8}
	res, err := pipeline.Schedule(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("1F1B-Sync sync-round on %s: M=%d, round=%.2fs, throughput=%.1f samples/s, K=%v\n",
		spec.Name, cfg.NumMicroBatches, res.RoundTime, res.Throughput, res.Ks)
	fmt.Print(res.RenderGantt(110))
	return nil
}

// cmdPartition is a planning utility: partition a named model over a
// device list and print the plan plus its predicted 1F1B-Sync schedule.
func cmdPartition(args []string) error {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	modelName := fs.String("model", "effnet-b4", "effnet-bN or mobilenet-wX")
	devNames := fs.String("devices", "TX2-Q,Nano-H,Nano-H", "comma-separated Table 1 device names, pipeline order")
	mbs := fs.Int("mbs", 8, "micro-batch size")
	m := fs.Int("m", 8, "micro-batches per sync-round")
	search := fs.Bool("search", false, "also search device order and micro-batch size (§4.3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	var devs []*device.Device
	for _, name := range strings.Split(*devNames, ",") {
		d, err := device.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		devs = append(devs, d)
	}
	if *search {
		o, err := partition.Orchestrate(spec, devs, partition.Options{NumMicroBatches: *m})
		if err != nil {
			return err
		}
		fmt.Printf("best orchestration (mbs=%d, DDB-free=%v):\n", o.MicroBatchSize, o.SatisfiesP)
		printPlanResult(spec, o.Config.Stages, o.Result)
		return nil
	}
	plan, err := partition.DynamicProgrammingBatch(spec, devs, *mbs)
	if err != nil {
		return err
	}
	cfg := &pipeline.Config{Spec: spec, Stages: plan.Stages, MicroBatchSize: *mbs, NumMicroBatches: *m}
	res, err := pipeline.Schedule(cfg)
	if err != nil {
		return err
	}
	printPlanResult(spec, plan.Stages, res)
	return nil
}

func printPlanResult(spec *model.Spec, stages []pipeline.Stage, res *pipeline.Result) {
	fmt.Printf("model: %s\n", spec)
	for s, st := range stages {
		fmt.Printf("  stage %d on %-7s layers [%2d,%2d)  %6.2f GFLOPs  %5.1f MB params\n",
			s, st.Device.Name, st.From, st.To,
			spec.SegmentFwdFLOPs(st.From, st.To)/1e9, spec.SegmentParamBytes(st.From, st.To)/1e6)
	}
	fmt.Printf("throughput %.2f samples/s, round %.2fs, K=%v P=%v\n", res.Throughput, res.RoundTime, res.Ks, res.Ps)
	fmt.Print(res.RenderGantt(100))
}

// specByName parses "effnet-b4" / "mobilenet-w2.5" style model names.
func specByName(name string) (*model.Spec, error) {
	switch {
	case strings.HasPrefix(name, "effnet-b"):
		var b int
		if _, err := fmt.Sscanf(name, "effnet-b%d", &b); err != nil {
			return nil, fmt.Errorf("bad model %q", name)
		}
		return model.EfficientNet(b), nil
	case strings.HasPrefix(name, "mobilenet-w"):
		var w float64
		if _, err := fmt.Sscanf(name, "mobilenet-w%g", &w); err != nil {
			return nil, fmt.Errorf("bad model %q", name)
		}
		return model.MobileNetV2(w), nil
	case name == "fedavg-cnn":
		return model.FedAvgCNN(), nil
	}
	return nil, fmt.Errorf("unknown model %q (effnet-bN, mobilenet-wX, fedavg-cnn)", name)
}

// cmdMigrate runs a what-if for §4.4's adaptive re-scheduling: apply an
// external load to one device of a pipeline and report the migration the
// scheduler would perform and the throughput it recovers.
func cmdMigrate(args []string) error {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	modelName := fs.String("model", "effnet-b4", "effnet-bN or mobilenet-wX")
	devNames := fs.String("devices", "Nano-H,TX2-Q,Nano-H", "device order")
	spikeDev := fs.Int("spike-device", 1, "index of the loaded device")
	load := fs.Float64("load", 0.35, "remaining training share on the loaded device")
	mbs := fs.Int("mbs", 8, "micro-batch size")
	m := fs.Int("m", 8, "micro-batches per sync-round")
	restart := fs.Float64("restart", 2.0, "pipeline restart overhead (s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	var devs []*device.Device
	for _, name := range strings.Split(*devNames, ",") {
		d, err := device.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		devs = append(devs, d)
	}
	if *spikeDev < 0 || *spikeDev >= len(devs) {
		return fmt.Errorf("spike device %d out of range", *spikeDev)
	}
	plan, err := partition.DynamicProgrammingBatch(spec, devs, *mbs)
	if err != nil {
		return err
	}
	cfg := &pipeline.Config{Spec: spec, Stages: plan.Stages, MicroBatchSize: *mbs, NumMicroBatches: *m}
	healthy, err := pipeline.Schedule(cfg)
	if err != nil {
		return err
	}
	devs[*spikeDev].LoadFactor = *load
	degraded, err := pipeline.Schedule(cfg)
	if err != nil {
		return err
	}
	mig, recovered, err := adaptive.Reschedule(spec, plan.Stages, *mbs, *m, *restart)
	if err != nil {
		return err
	}
	fmt.Printf("healthy:   %7.2f samples/s\n", healthy.Throughput)
	fmt.Printf("degraded:  %7.2f samples/s (%s at %.0f%% capacity)\n",
		degraded.Throughput, devs[*spikeDev].Name, *load*100)
	fmt.Printf("migration: %.1f MB of parameters, %.1f s downtime\n",
		mig.MovedParamBytes/1e6, mig.MigrationTime)
	fmt.Printf("recovered: %7.2f samples/s (%.0f%% of healthy, mbs=%d)\n",
		recovered.Throughput, recovered.Throughput/healthy.Throughput*100,
		recovered.Config.MicroBatchSize)
	fmt.Println("new layout:")
	for i, st := range mig.New {
		fmt.Printf("  stage %d on %-7s layers [%2d,%2d)\n", i, st.Device.Name, st.From, st.To)
	}
	return nil
}

// cmdDevices prints the Table 1 device presets this simulator models.
func cmdDevices() error {
	fmt.Printf("%-8s %14s %12s %14s %16s\n", "device", "compute", "memory", "bandwidth", "saturation batch")
	for _, name := range []string{"Nano-L", "Nano-H", "TX2-Q", "TX2-N"} {
		d, err := device.ByName(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %11.0f GF/s %9.1f GB %11.1f MB/s %16.0f\n",
			d.Name, d.ComputeRate/1e9, float64(d.MemoryBytes)/1e9, d.LinkBandwidth/1e6, d.SaturationBatch)
	}
	return nil
}

// cmdHeadlines recomputes the paper's abstract claims, the accuracy upgrade
// off a run of the Fig. 8 spec.
func cmdHeadlines(args []string) error {
	fs := flag.NewFlagSet("headlines", flag.ExitOnError)
	path := fs.String("scenario", "examples/scenarios/fig8.json", "the Fig. 8 sweep spec: its RLG-NIID eco-fl and fedat rows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := scenario.Load(*path)
	if err != nil {
		return err
	}
	rep, err := scenario.Run(spec, scenario.RunOptions{})
	if err != nil {
		return err
	}
	if rep.Table == nil {
		return fmt.Errorf("headlines: %s is not a sweep", *path)
	}
	eco := rep.Table.Row("fleet.partition", `"rlg-niid"`, "aggregation.strategy", `"eco-fl"`)
	fedat := rep.Table.Row("fleet.partition", `"rlg-niid"`, "aggregation.strategy", `"fedat"`)
	if eco == nil || fedat == nil {
		return fmt.Errorf("headlines: %s has no rlg-niid eco-fl and fedat rows to compare", *path)
	}
	h, err := experiments.ComputeHeadlines(eco.Curve, fedat.Curve)
	if err != nil {
		return err
	}
	experiments.PrintHeadlines(os.Stdout, h)
	return nil
}
