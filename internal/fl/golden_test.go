package fl

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ecofl/internal/fl/robust"
	"ecofl/internal/obs/journal"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRun is everything TestStrategyGolden pins of one simulation: the
// curve bit for bit, every counter of the RunResult, and the journal.
type goldenRun struct {
	Curve         []string // "timebits:accuracybits", hex Float64bits
	Rounds        int
	Participation string // per-client counts, space-separated
	Dropped       int
	Dropouts      int
	Discarded     int
	Failures      int
	Departures    int
	Readmissions  int
	Corrupted     int
	Clipped       int
	AvgJS         string // hex Float64bits
	AvgLatency    string
	// JournalKinds counts the journal's events by kind; JournalSHA hashes the
	// whole sequence — timestamp bits, round, client, kind and attributes of
	// every event, in order.
	JournalKinds map[string]int
	JournalSHA   string
}

func bitsOf(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func goldenOf(r *RunResult, evs []journal.Event) goldenRun {
	g := goldenRun{
		Rounds: r.Rounds, Participation: strings.Trim(fmt.Sprint(r.Participation), "[]"),
		Dropped: r.Dropped, Dropouts: r.Dropouts, Discarded: r.QuorumDiscarded, Failures: r.QuorumFailures,
		Departures: r.ChurnDepartures, Readmissions: r.Readmissions, Corrupted: r.Corrupted, Clipped: r.Clipped,
		AvgJS: bitsOf(r.AvgJS), AvgLatency: bitsOf(r.AvgLatency),
		JournalKinds: journal.CountByKind(evs),
	}
	for _, p := range r.Curve {
		g.Curve = append(g.Curve, bitsOf(p.Time)+":"+bitsOf(p.Accuracy))
	}
	h := sha256.New()
	for _, e := range evs {
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "%s %d %d %s", bitsOf(e.TS), e.Round, e.Client, e.Kind)
		for _, k := range keys {
			fmt.Fprintf(h, " %s=%s", k, e.Attrs[k])
		}
		fmt.Fprintln(h)
	}
	g.JournalSHA = fmt.Sprintf("%x", h.Sum(nil))
	return g
}

type goldenCell struct {
	name string
	cfg  Config
}

// goldenCells are the configurations the strategies are pinned in, on
// fastConfig with a short horizon: each turns on one of the features whose
// handling the strategy loops used to carry a copy of.
func goldenCells(t *testing.T, clients int) []goldenCell {
	base := fastConfig()
	base.Duration = 240
	base.MaxConcurrent = 16 // four to a group, so a group's quorum can cut a straggler
	base.LocalEpochs = 1
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	churn := sessionTraces(t, clients, 4*base.Duration)
	return []goldenCell{
		{"clean", base},
		{"dynamic", with(func(c *Config) { c.Dynamic, c.DynamicProb, c.DynamicInterval, c.RTThreshold = true, 0.3, 40, 8 })},
		{"dropout-quorum", with(func(c *Config) { c.DropoutProb, c.Quorum = 0.3, 0.6 })},
		// Half the selection drops and nine in ten must report: every round of
		// sixteen fails, a group's round of four sometimes commits.
		{"rounds-fail", with(func(c *Config) { c.DropoutProb, c.Quorum = 0.5, 0.9 })},
		{"churn", with(func(c *Config) { c.Churn = churn })},
		{"signflip-median", with(func(c *Config) {
			c.Adversary, c.Robust = &Adversary{Fraction: 0.2, Mode: AdvSignFlip, Scale: 4}, robust.Median{}
		})},
		{"sync-every-3", with(func(c *Config) { c.GroupSyncEvery = 3 })},
	}
}

// TestStrategyGolden pins every strategy's whole RunResult and journal in
// seven configurations and two seeds against testdata/strategy_golden.json,
// which the four hand-written strategy loops generated before they became one
// lifecycle. Nothing in it may be regenerated to make a refactor pass. (TiFL's
// loop read no fault, dynamics or journal setting: its dynamic, dropout-quorum,
// rounds-fail, churn and signflip-median runs, and the journal of its other
// two, are the lifecycle's.)
func TestStrategyGolden(t *testing.T) {
	if testing.Short() {
		// 98 simulations: 45 s under the race detector, which has nothing to
		// find here that TestStrategiesCurveInvariantUnderParallelism does not
		// already give it.
		t.Skip("the golden is a determinism pin; it runs in full without -short")
	}
	const clients = 40
	got := map[string]goldenRun{}
	for _, name := range StrategyNames() {
		for _, cell := range goldenCells(t, clients) {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := cell.cfg
				cfg.Seed = seed
				rec := journal.NewClock(0, 1<<14, nil)
				cfg.Journal = rec
				r := runStrategy(t, testPopulation(seed, clients, cfg), name)
				if r.Rounds == 0 && cell.name != "rounds-fail" {
					t.Fatalf("%s/%s/seed%d ran no rounds", name, cell.name, seed)
				}
				got[fmt.Sprintf("%s/%s/seed%d", name, cell.name, seed)] = goldenOf(r, rec.Events())
			}
		}
	}
	path := filepath.Join("testdata", "strategy_golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-golden to create it)", err)
	}
	want := map[string]goldenRun{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, the test made %d", len(want), len(got))
	}
	for key, g := range got {
		// Compared as JSON, so that an empty curve or journal reads the same
		// fresh from a run and back from the file.
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(want[key])
		if string(gj) != string(wj) {
			t.Errorf("%s drifted from the golden:\n got %s\nwant %s", key, gj, wj)
		}
	}
}
