// Command ecofl regenerates the tables and figures of the Eco-FL paper
// (ICPP '22) from this repository's implementation. Every figure is a
// scenario spec under examples/scenarios that `ecofl bench` runs: the
// pipeline figures (5, 10–13, Table 2) on the schedule topology, the FL
// figures (7, 8, 9) and every other study on the fl and flnet topologies.
//
// Usage:
//
//	ecofl bench --scenario examples/scenarios/fig5.json [--svg DIR]   # a spec, or a sweep of one
//	ecofl headlines --scenario examples/scenarios/fig8.json           # with fig10.json beside it
//	ecofl partition --model effnet-b1                                 # a plan and its 1F1B-Sync schedule
//	ecofl devices
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ecofl/internal/device"
	"ecofl/internal/metrics"
	"ecofl/internal/model"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
	"ecofl/internal/scenario"
)

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
	args, metricsJSON := extractGlobalFlag(os.Args[1:], "metrics-json")
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	err := dispatch(args)
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

// dispatch runs one command. An unknown one is an error that names the
// commands there are and where the paper's figures are.
func dispatch(args []string) error {
	switch args[0] {
	case "bench":
		return cmdBench(args[1:])
	case "headlines":
		return cmdHeadlines(args[1:])
	case "partition":
		return cmdPartition(args[1:])
	case "devices":
		return cmdDevices()
	}
	return fmt.Errorf("unknown command %q (bench, headlines, partition, devices; every figure of the paper is a spec: ecofl bench --scenario examples/scenarios/<figure>.json)", args[0])
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ecofl <command> [flags]

commands:
  bench      --scenario <spec.json> [--out report.json] [--svg DIR]   (one run, or a sweep's
             table: examples/scenarios/fig{5,7,8,9,10,12,13}.json and table2.json are the
             paper's figures; fig{7,8,9}-full.json the FL ones at paper scale)
  headlines  [--scenario examples/scenarios/fig8.json]   (and fig10.json beside it)
  partition  --model {effnet-bN|mobilenet-wX} --devices A,B,C [--mbs N] [--m M] [--search]
  devices    (print the Table 1 device presets)

global flags (any command):
  --metrics-json <path>   dump an end-of-run metrics snapshot as JSON (- for stdout)`)
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
	spec, err := model.ByName(*modelName)
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

// cmdHeadlines recomputes the paper's abstract claims off runs of the Fig. 8
// spec and of the fig10.json beside it.
func cmdHeadlines(args []string) error {
	fs := flag.NewFlagSet("headlines", flag.ExitOnError)
	path := fs.String("scenario", "examples/scenarios/fig8.json", "the Fig. 8 sweep spec: its RLG-NIID eco-fl and fedat rows; fig10.json in its directory gives the throughputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tables []*scenario.Table
	for _, p := range []string{*path, filepath.Join(filepath.Dir(*path), "fig10.json")} {
		spec, err := scenario.Load(p)
		if err != nil {
			return err
		}
		rep, err := scenario.Run(spec, scenario.RunOptions{})
		if err != nil {
			return err
		}
		if rep.Table == nil {
			return fmt.Errorf("headlines: %s is not a sweep", p)
		}
		tables = append(tables, rep.Table)
	}
	h, err := scenario.ComputeHeadlines(tables[0], tables[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %10s %12s\n", "headline", "paper", "this repo")
	fmt.Printf("%-28s %10s %11.1f%%\n", "accuracy upgrade vs FedAT", "26.3%", h.AccuracyUpgrade*100)
	fmt.Printf("%-28s %10s %11.1f%%\n", "training time reduction", "61.5%", h.TrainingTimeReduction*100)
	fmt.Printf("%-28s %10s %11.1fx\n", "throughput improvement", "2.6x", h.ThroughputGain)
	return nil
}
