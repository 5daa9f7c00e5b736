package fl_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecofl/internal/experiments"
	"ecofl/internal/fl"
)

// paperGrouping is what TestGroupingGoldenPaperScale pins of one grouping:
// the member IDs of every group in member order (the order a group's round
// aggregates in), the dropped clients, and how many clients a regrouping
// pass moved, dropped or re-admitted. IDs are space-separated.
type paperGrouping struct {
	Groups  []string
	Dropped string
	Changed int `json:",omitempty"`
}

func groupingOf(groups []*fl.Group, clients []*fl.Client, changed int) paperGrouping {
	ids := func(cs []*fl.Client, keep func(*fl.Client) bool) string {
		var b strings.Builder
		for _, c := range cs {
			if keep(c) {
				fmt.Fprintf(&b, " %d", c.ID)
			}
		}
		return strings.TrimPrefix(b.String(), " ")
	}
	all := func(*fl.Client) bool { return true }
	g := paperGrouping{Dropped: ids(clients, func(c *fl.Client) bool { return c.Dropped }), Changed: changed}
	for _, gr := range groups {
		g.Groups = append(g.Groups, ids(gr.Members, all))
	}
	return g
}

// paperPopulation is the benchmark's paper-scale fleet: 300 clients on the
// fashion-mnist preset, λ = 500, RT 15.
func paperPopulation(seed int64, partition string) (*fl.Population, *fl.Grouper) {
	scale := experiments.Full
	scale.Partition = partition
	cfg := fl.Config{Seed: seed, Lambda: 500, NumGroups: 5, RTThreshold: 15, MeanDelay: 40, StdDelay: 12}
	pop := experiments.BuildPopulation(seed, "fashion-mnist", scale, cfg)
	return pop, &fl.Grouper{Lambda: 500, RT: 15, NumClasses: pop.TestClasses()}
}

// TestGroupingGoldenPaperScale pins Eq. 4's groupings at the paper's 300
// clients against testdata/grouping_golden.json: InitialGrouping and
// DataOnlyGrouping over three seeds, InitialGrouping on an RLG partition
// (whose clients are re-sharded after the population is built), and one
// Algorithm 1 pass — CheckAndRegroup on every group, then TryReadmit on every
// client — after a collaborative-degree redraw. TestStrategyGolden runs 40
// clients only, where a cost tie or a near-tie is rare; at this scale a
// grouping cost that moved by one ulp would show here.
func TestGroupingGoldenPaperScale(t *testing.T) {
	got := map[string]paperGrouping{}
	for seed := int64(1); seed <= 3; seed++ {
		pop, gr := paperPopulation(seed, "")
		groups := gr.InitialGrouping(rand.New(rand.NewSource(seed)), pop.Clients, 5)
		got[fmt.Sprintf("initial/seed%d", seed)] = groupingOf(groups, pop.Clients, 0)

		redraw := rand.New(rand.NewSource(seed + 100))
		for _, c := range pop.Clients {
			c.MaybeRedraw(redraw, 0.3)
		}
		changed := 0
		for _, g := range groups {
			changed += gr.CheckAndRegroup(g, groups)
		}
		for _, c := range pop.Clients {
			if gr.TryReadmit(c, groups) {
				changed++
			}
		}
		got[fmt.Sprintf("regroup/seed%d", seed)] = groupingOf(groups, pop.Clients, changed)

		pop, gr = paperPopulation(seed, "")
		groups = gr.DataOnlyGrouping(rand.New(rand.NewSource(seed)), pop.Clients, 5)
		got[fmt.Sprintf("data-only/seed%d", seed)] = groupingOf(groups, pop.Clients, 0)
	}
	pop, gr := paperPopulation(1, experiments.PartitionRLGNIID)
	groups := gr.InitialGrouping(rand.New(rand.NewSource(1)), pop.Clients, 5)
	got["initial-rlg-niid/seed1"] = groupingOf(groups, pop.Clients, 0)

	path := filepath.Join("testdata", "grouping_golden.json")
	// -update-golden is declared by TestStrategyGolden's file, in package fl.
	if flag.Lookup("update-golden").Value.String() == "true" {
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
	want := map[string]paperGrouping{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d groupings, the test made %d", len(want), len(got))
	}
	for key, g := range got {
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(want[key])
		if string(gj) != string(wj) {
			t.Errorf("%s drifted from the golden:\n got %s\nwant %s", key, gj, wj)
		}
	}
}
