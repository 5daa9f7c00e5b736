// Command benchmark measures the whole Eco-FL stack: five workloads, named
// end-to-end metrics taken with tracing off, and per-layer metrics from a
// separate traced run that times the calls into each layer's public
// functions. BENCHMARK.json at the repository root declares every metric;
// README.md in this directory defines them.
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	go run ./benchmark [--seed N] [--seconds S] [--sets K] [--out DIR]
//	go run ./benchmark compare A.json B.json
//
// Server and clients share the one process, and CPU time, allocation counters
// and the live heap are process-wide: the per-op figures are the cost of both
// ends of the loopback link.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"
)

// setupAgain decides whether a run sets its workload up once more: at least 5
// times, and up to 25 while that takes under half a second in all, because
// the cheap set-ups (10 ms) are the noisy ones. setup_s is the median; the
// last instance is the one measured. A self-test sets up once.
func setupAgain(p params, done int, spent time.Duration) bool {
	if p.scale < 1 {
		return done < 1
	}
	return done < 5 || (done < 25 && spent < 500*time.Millisecond)
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifestPath is relative to the repository root, where the benchmark runs.
const manifestPath = "BENCHMARK.json"

// manifest is BENCHMARK.json: the single declaration of what is emitted.
// A run fails if it measured a metric the manifest does not declare or left
// a declared one unmeasured, so the two cannot drift apart.
type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDecl                 `json:"end_to_end"`
	PerLayer  []metricDecl                 `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(b, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"` // calls timed: the samples behind every per-op median
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
	spans     []span
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// settle checks measured against the declared metrics: every declared one
// measured and finite, nothing undeclared. Per-layer metrics a workload does
// not exercise stay at their declared default of 0.
func settle(measured map[string]float64, decls []metricDecl, defaultZero bool) error {
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := measured[d.Name]
		if !ok && defaultZero {
			measured[d.Name] = 0
			continue
		}
		if !ok {
			return fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	for name := range measured {
		if !declared[name] || !metricName.MatchString(name) {
			return fmt.Errorf("metric %s was measured but is not declared", name)
		}
	}
	return nil
}

// runUntraced measures the end-to-end metrics of w with tracing off.
func runUntraced(w *workload, p params, mf *manifest) (*result, error) {
	var inst instance
	var setups []float64
	for t0 := time.Now(); setupAgain(p, len(setups), time.Since(t0)); {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(p, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	seg := drive(w, inst, p.ops(w.minCalls), p.budget(1), nil)
	retained := retainedHeap() // sessions and pipeline still open
	res := &result{Workload: w.name, Attempted: seg.attempted(), Failed: len(seg.errs), Samples: len(seg.durs)}
	for _, err := range seg.errs {
		res.Problems = append(res.Problems, err.Error())
	}
	if len(seg.durs) == 0 {
		return res, nil
	}
	quality, problems := inst.verify(p)
	// Each failed output check counts as one more failed operation.
	res.Attempted += len(problems)
	res.Failed += len(problems)
	res.Problems = append(res.Problems, problems...)
	ops := float64(seg.ops)
	res.Metrics = map[string]float64{
		"setup_s":             median(setups),
		"op_p50_s":            median(seg.durs),
		"ops_per_s":           ops / seg.wall,
		"cpu_per_op_s":        seg.cpu / ops,
		"allocs_per_op":       seg.mallocs / ops,
		"alloc_bytes_per_op":  seg.bytes / ops,
		"retained_heap_bytes": retained,
		"accuracy":            quality,
	}
	res.Correct = res.Failed == 0
	return res, settle(res.Metrics, mf.EndToEnd, false)
}

// tracePairs is how many times a traced run alternates an untraced and a
// traced stretch on its one instance, so both see the same machine weather.
const tracePairs = 3

// runTraced measures the per-layer metrics of w: one set-up; untraced and
// traced stretches in alternation, the traced ones twice as long (the two
// per-op medians give the cost of the harness's own spans); then the isolated
// re-timings and the workload's own baselines.
func runTraced(w *workload, p params, mf *manifest) (*result, error) {
	t0 := time.Now()
	setupTr := newTracer(t0, w.gens) // set-up gets the lane after the generators'
	inst, err := w.setup(p, setupTr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	tracers := make([]*tracer, w.gens)
	for g := range tracers {
		tracers[g] = newTracer(t0, g)
	}
	plain, seg := &segment{}, &segment{}
	for k := 0; k < tracePairs; k++ {
		plain.add(drive(w, inst, p.ops(w.minCalls/(8*tracePairs)), p.budget(0.25/tracePairs), nil))
		seg.add(drive(w, inst, p.ops(w.minCalls/(4*tracePairs)), p.budget(0.5/tracePairs), tracers))
	}
	for _, tr := range tracers {
		seg.spans = append(seg.spans, tr.spans...)
	}
	res := &result{Workload: w.name, Traced: true, Samples: len(seg.durs), spans: append(setupTr.spans, seg.spans...),
		Attempted: plain.attempted() + seg.attempted(), Failed: len(plain.errs) + len(seg.errs)}
	for _, err := range append(plain.errs, seg.errs...) {
		res.Problems = append(res.Problems, err.Error())
	}
	if len(plain.durs) == 0 || len(seg.durs) == 0 {
		return res, nil
	}
	m := map[string]float64{
		"harness.op_p95_s":                 quantile(seg.durs, 0.95),
		"obs.harness_trace_overhead_share": median(seg.durs)/median(plain.durs) - 1,
	}
	if dials := spanSeconds(setupTr.spans, "flnet.dial"); len(dials) > 0 {
		m["flnet.dial_s"] = median(dials)
	}
	if err := microLayers(p, m); err != nil {
		return nil, err
	}
	if err := inst.layers(p, seg, m); err != nil {
		return nil, err
	}
	res.Metrics = m
	res.Correct = res.Failed == 0
	return res, settle(m, mf.PerLayer, true)
}

func runOne(w *workload, p params, traced bool, mf *manifest) (*result, error) {
	if traced {
		return runTraced(w, p, mf)
	}
	return runUntraced(w, p, mf)
}

// driverLine is the contract's result object: the last line of stdout.
func driverLine(res *result, decls []metricDecl) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(decls))
	for _, d := range decls {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	return json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.Attempted,
		"failed": res.Failed, "metrics": metrics})
}

// report prints one run for a reader: every metric by name with its unit,
// the sample count behind the per-op figures, and every failed check.
func report(res *result, decls []metricDecl) {
	out := os.Stderr
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "%s (%s): correct=%v attempted=%d failed=%d per-op samples=%d\n",
		res.Workload, mode, res.Correct, res.Attempted, res.Failed, res.Samples)
	for _, d := range decls {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(out, "  FAILED: %s\n", p)
	}
}

// environment is the provenance block stamped into every output.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	// GitSHA is HEAD of the tree being measured ("unknown" outside a git
	// checkout); GitDirty says the tree differs from it.
	GitSHA   string `json:"git_sha"`
	GitDirty bool   `json:"git_dirty"`
	Link     string `json:"link"`
}

func readEnvironment() environment {
	env := environment{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		GitSHA: "unknown", Link: "TCP host loopback inside one process, not a real link"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(sha))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		env.GitDirty = err != nil || len(status) > 0
	}
	return env
}

// set is one pass over every workload, untraced then traced.
type set struct {
	EndToEnd map[string]*result `json:"end_to_end"`
	PerLayer map[string]*result `json:"per_layer"`
}

// suite is what --out DIR/results.json holds.
type suite struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	// Scale other than 1 marks a self-test, never a capture.
	Scale float64 `json:"scale"`
	Sets  []set   `json:"sets"`
}

// resultFile is where a single run leaves its full result under --out for the
// suite to collect.
func resultFile(out, workload string, traced bool) string {
	kind := "end_to_end"
	if traced {
		kind = "per_layer"
	}
	return filepath.Join(out, workload+"."+kind+".json")
}

// runSuite runs every workload untraced, then traced, sets times over. Each
// run is this same program started afresh with --workload, exactly as the
// harness starts it, so no run inherits another's heap, pools or counters and
// the suite's numbers are the harness's numbers.
func runSuite(p params, sets int, out string, mf *manifest) error {
	s := suite{Env: readEnvironment(), Seed: p.seed, Seconds: p.seconds, Scale: p.scale}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for k := 0; k < sets; k++ {
		st := set{EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
		for trace, into := range []map[string]*result{st.EndToEnd, st.PerLayer} {
			for _, w := range workloads {
				path := resultFile(out, w.name, trace == 1)
				os.Remove(path)
				cmd := exec.Command(exe, "--workload", w.name, "--trace", fmt.Sprint(trace), "--out", out,
					"--seed", fmt.Sprint(p.seed), "--seconds", fmt.Sprint(p.seconds), "--scale", fmt.Sprint(p.scale))
				cmd.Stderr = os.Stdout // the run's environment line and table; its result line is not needed
				runErr := cmd.Run()
				raw, err := os.ReadFile(path)
				if err != nil {
					return fmt.Errorf("%s left no result (%v): %w", w.name, runErr, err)
				}
				res := &result{}
				if err := json.Unmarshal(raw, res); err != nil {
					return fmt.Errorf("%s: %w", path, err)
				}
				ok = ok && res.Correct && runErr == nil
				into[w.name] = res
			}
		}
		s.Sets = append(s.Sets, st)
	}
	layers := map[string]map[string]float64{}
	for name, res := range s.Sets[len(s.Sets)-1].PerLayer {
		layers[name] = res.Metrics
	}
	if err := writeJSON(filepath.Join(out, "layers.json"), layers); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(out, "results.json"), s); err != nil {
		return err
	}
	if sets > 1 && compare(os.Stdout, mf, s.Sets[:1], s.Sets[1:]) {
		ok = false
	}
	if !ok {
		return errors.New("an output check failed or a metric left its bound")
	}
	return nil
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload and print the result object (default: every workload)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 15, "seconds each run measures for")
	trace := flag.Int("trace", 0, "with --workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	scale := flag.Float64("scale", 1, "self-test only: shrink time and op counts; stamped into the output")
	sets := flag.Int("sets", 1, "without --workload: run the suite this many times and compare the first set with the rest")
	out := flag.String("out", "", "directory for results and Chrome traces (default: none with --workload, benchmark/out without)")
	flag.Parse()

	mf, err := loadManifest(manifestPath)
	if err != nil {
		fail(2, err)
	}
	p := params{seed: *seed, seconds: *seconds, scale: *scale}
	if *name == "" {
		if *out == "" {
			*out = "benchmark/out"
		}
		if err := runSuite(p, *sets, *out, mf); err != nil {
			fail(1, err)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fail(2, fmt.Errorf("unknown workload %q", *name))
	}
	fmt.Fprintf(os.Stderr, "env: %+v seed=%d seconds=%g scale=%g\n", readEnvironment(), p.seed, p.seconds, p.scale)
	traced := *trace == 1
	res, err := runOne(w, p, traced, mf)
	if err != nil {
		fail(1, err)
	}
	decls := mf.EndToEnd
	if traced {
		decls = mf.PerLayer
	}
	report(res, decls)
	if *out != "" {
		err := writeJSON(resultFile(*out, w.name, traced), res)
		if err == nil && traced {
			err = writeChromeTrace(filepath.Join(*out, w.name+".trace.json"), res.spans)
		}
		if err != nil {
			fail(1, err)
		}
	}
	if res.Metrics == nil {
		fail(1, errors.New("no operation completed"))
	}
	line, err := driverLine(res, decls)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
