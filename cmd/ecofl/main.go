// Command ecofl regenerates the tables and figures of the Eco-FL paper
// (ICPP '22) from this repository's implementation, and runs every study
// that is not a paper figure from a scenario spec.
//
// Usage:
//
//	ecofl fl --experiment {fig7|fig8|fig9} [--scale quick|full] [--seed N]
//	ecofl pipeline --experiment {fig5|fig10|fig11|fig12|fig13|table2}
//	ecofl pipeline --show-schedule     # Fig. 3-style 1F1B-Sync Gantt chart
//	ecofl all [--scale quick]          # every paper figure and table
//	ecofl bench --scenario examples/scenarios/sweep-dropout.json   # a spec, or a sweep of one
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
	"ecofl/internal/tensor"
	"ecofl/internal/trace"
)

// writeCurveSVGs renders one accuracy-vs-time SVG per curve panel.
func writeCurveSVGs(dir, prefix string, sets []experiments.CurveSet) error {
	if dir == "" {
		return nil
	}
	for _, set := range sets {
		series := experiments.CurvesToSeries(prefix, []experiments.CurveSet{set})
		chart, err := plot.CurveChart(set.Dataset, "time_s", "accuracy", series)
		if err != nil {
			return err
		}
		name := strings.ReplaceAll(strings.ToLower(prefix+"_"+set.Dataset), " ", "-")
		name = strings.ReplaceAll(name, "@", "at")
		if err := plot.WriteFile(dir, name, chart); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d SVG charts to %s\n", len(sets), dir)
	return nil
}

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
	case "fl":
		err = cmdFL(args[1:])
	case "pipeline":
		err = cmdPipeline(args[1:])
	case "all":
		err = cmdAll(args[1:])
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
  fl         --experiment {fig7|fig8|fig9} [--scale quick|full] [--seed N]
  pipeline   --experiment {fig5|fig10|fig11|fig12|fig13|table2} | --show-schedule
  partition  --model {effnet-bN|mobilenet-wX} --devices A,B,C [--mbs N] [--m M]
  headlines  [--scale quick|full]
  devices    (print the Table 1 device presets)
  migrate    --model M --devices A,B,C --spike-device N --load F
  bench      --scenario <spec.json> [--out report.json]   (one run, or a sweep's table:
             examples/scenarios/sweep-{dropout,churn,byzantine,failover}.json)
  all        [--scale quick|full]   (every paper figure and table)

global flags (any command):
  --metrics-json <path>   dump an end-of-run metrics snapshot as JSON (- for stdout)`)
}

func scaleByName(name string) experiments.Scale {
	if name == "full" {
		return experiments.Full
	}
	return experiments.Quick
}

func cmdFL(args []string) error {
	fs := flag.NewFlagSet("fl", flag.ExitOnError)
	exp := fs.String("experiment", "fig7", "fig7, fig8 or fig9")
	scale := fs.String("scale", "quick", "quick or full")
	seed := fs.Int64("seed", 1, "random seed")
	csvDir := fs.String("csv", "", "directory for CSV export (optional)")
	svgDir := fs.String("svg", "", "directory for SVG charts (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := scaleByName(*scale)
	switch *exp {
	case "fig7":
		sets := experiments.Fig7(*seed, sc)
		experiments.PrintCurves(os.Stdout, sets)
		if err := writeCurveSVGs(*svgDir, "fig7", sets); err != nil {
			return err
		}
		return writeCSV(*csvDir, experiments.CurvesToSeries("fig7", sets))
	case "fig8":
		sets := experiments.Fig8(*seed, sc)
		experiments.PrintCurves(os.Stdout, sets)
		if err := writeCurveSVGs(*svgDir, "fig8", sets); err != nil {
			return err
		}
		return writeCSV(*csvDir, experiments.CurvesToSeries("fig8", sets))
	case "fig9":
		rows := experiments.Fig9(*seed, sc)
		experiments.PrintFig9(os.Stdout, rows)
		if *svgDir != "" {
			series := experiments.Fig9ToSeries(rows)[0]
			for _, col := range []string{"avg_js", "avg_latency_s", "best_acc"} {
				chart := &plot.Chart{Title: "Fig. 9 — " + col + " vs lambda", XLabel: "lambda", YLabel: col}
				if err := chart.AddSeries(col, series, "lambda", col); err != nil {
					return err
				}
				if err := plot.WriteFile(*svgDir, "fig9_"+col, chart); err != nil {
					return err
				}
			}
			fmt.Fprintf(os.Stderr, "wrote 3 SVG charts to %s\n", *svgDir)
		}
		return writeCSV(*csvDir, experiments.Fig9ToSeries(rows))
	default:
		return fmt.Errorf("unknown fl experiment %q (fig7, fig8, fig9; other studies are specs: ecofl bench --scenario)", *exp)
	}
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
		return fmt.Errorf("unknown pipeline experiment %q (fig5, fig10, fig11, fig12, fig13, table2; other studies are specs: ecofl bench --scenario)", *exp)
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

// cmdHeadlines recomputes the paper's abstract claims.
func cmdHeadlines(args []string) error {
	fs := flag.NewFlagSet("headlines", flag.ExitOnError)
	scale := fs.String("scale", "quick", "quick or full")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := experiments.ComputeHeadlines(*seed, scaleByName(*scale))
	if err != nil {
		return err
	}
	experiments.PrintHeadlines(os.Stdout, h)
	return nil
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	scale := fs.String("scale", "quick", "quick or full")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	flags := []string{"--scale", *scale, "--seed", strconv.FormatInt(*seed, 10)}

	section := func(s string) { fmt.Printf("\n######## %s ########\n", s) }
	for _, part := range []struct {
		title string
		run   func([]string) error
		args  []string
	}{
		{"Fig. 5 — device order and micro-batch size", cmdPipeline, []string{"--experiment", "fig5"}},
		{"Figs. 10/11 — training methods", cmdPipeline, []string{"--experiment", "fig10"}},
		{"Fig. 12 — workload partitioning", cmdPipeline, []string{"--experiment", "fig12"}},
		{"Table 2 — 1F1B-Sync vs GPipe", cmdPipeline, []string{"--experiment", "table2"}},
		{"Fig. 13 — adaptive re-scheduling under load spike", cmdPipeline, []string{"--experiment", "fig13"}},
		{"Fig. 7 — FL training performance", cmdFL, append([]string{"--experiment", "fig7"}, flags...)},
		{"Fig. 8 — grouping effectiveness", cmdFL, append([]string{"--experiment", "fig8"}, flags...)},
		{"Fig. 9 — λ sensitivity", cmdFL, append([]string{"--experiment", "fig9"}, flags...)},
	} {
		section(part.title)
		if err := part.run(part.args); err != nil {
			return err
		}
	}

	section("Headline claims")
	return cmdHeadlines(flags)
}
