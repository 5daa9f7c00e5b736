package scenario

import (
	"path/filepath"
	"strings"
	"testing"
)

// validSpec is a minimal runnable flnet spec the hostile cases mutate from.
const validSpec = `{
  "schema": "ecofl/scenario/v1",
  "name": "t",
  "topology": "flnet",
  "seed": 1,
  "fleet": {"clients": 2, "dataset_size": 100},
  "aggregation": {"alpha": 0.5},
  "run": {"rounds": 1}
}`

func TestParseValidSpec(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("Parse(valid) = %v", err)
	}
	if spec.Name != "t" || spec.Topology != TopologyFLNet || spec.Fleet.Clients != 2 {
		t.Fatalf("Parse mangled the spec: %+v", spec)
	}
}

// TestExampleSpecsValidate loads (parse + Validate, no run) every shipped
// example spec. Parse rejects unknown fields, so a renamed spec field breaks
// the examples nothing else loads; this is where that shows.
func TestExampleSpecsValidate(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found (err %v)", err)
	}
	for _, path := range paths {
		if _, err := Load(path); err != nil {
			t.Error(err)
		}
	}
}

// flSpec, flnetSpec and pipelineSpec are minimal valid specs of each topology
// plus the given members; a member named again is decoded over the default
// before it.
func flSpec(members string) string {
	return `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"run":{"duration_s":10},` + members + `}`
}

func flnetSpec(members string) string {
	return `{"name":"t","topology":"flnet","fleet":{"clients":2},"run":{"rounds":1},` + members + `}`
}

func pipelineSpec(members string) string {
	return `{"name":"t","topology":"pipeline","run":{"rounds":1},` + members + `}`
}

func sweepOf(axes, report string) string {
	return `"sweep":{"axes":[` + axes + `],"report":[` + report + `]}`
}

// TestParseHostileSpecs drives the loader with malformed and out-of-range
// specs: every one must fail closed with an error naming the problem.
func TestParseHostileSpecs(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string
	}{
		{"garbage", `{{{`, "invalid character"},
		{"unknown field", `{"name":"t","topology":"fl","turbo":true}`, "unknown field"},
		{"wrong schema", `{"schema":"ecofl/scenario/v99","name":"t","topology":"fl"}`, `schema "ecofl/scenario/v99"`},
		{"missing name", `{"topology":"fl"}`, "name must be set"},
		{"missing topology", `{"name":"t"}`, "topology must be set"},
		{"unknown topology", `{"name":"t","topology":"mesh"}`, `unknown topology "mesh"`},
		{"zero clients", `{"name":"t","topology":"fl","fleet":{"clients":0}}`, "fleet.clients must be positive"},
		{"negative clients", `{"name":"t","topology":"fl","fleet":{"clients":-3}}`, "fleet.clients must be positive"},
		{"unknown dataset", `{"name":"t","topology":"fl","fleet":{"clients":2,"dataset":"imagenet"}}`, `unknown fleet.dataset "imagenet"`},
		{"negative dataset size", `{"name":"t","topology":"fl","fleet":{"clients":2,"dataset_size":-1}}`, "dataset_size must not be negative"},
		{"missing strategy", `{"name":"t","topology":"fl","fleet":{"clients":2},"run":{"duration_s":10}}`, "aggregation.strategy must be set"},
		{"unknown strategy", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"sgd"},"run":{"duration_s":10}}`, `unknown aggregation.strategy "sgd"`},
		{"alpha out of range", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg","alpha":1.5},"run":{"duration_s":10}}`, "aggregation.alpha must be in [0, 1]"},
		{"negative mu", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg","mu":-0.1},"run":{"duration_s":10}}`, "aggregation.mu must not be negative"},
		{"dropout prob > 1", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg","dropout_prob":2},"run":{"duration_s":10}}`, "dropout_prob must be in [0, 1]"},
		{"quorum > 1", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg","quorum":1.1},"run":{"duration_s":10}}`, "quorum must be in [0, 1]"},
		{"unknown codec", `{"name":"t","topology":"flnet","fleet":{"clients":2},"wire":{"codec":"zstd"},"run":{"rounds":1}}`, `unknown wire.codec "zstd"`},
		{"unknown wire mode", `{"name":"t","topology":"flnet","fleet":{"clients":2},"wire":{"mode":"binary"},"run":{"rounds":1}}`, `unknown field "mode"`},
		{"negative topk", `{"name":"t","topology":"flnet","fleet":{"clients":2},"wire":{"top_k":-5},"run":{"rounds":1}}`, "wire.top_k must not be negative"},
		{"bad fault mode", `{"name":"t","topology":"flnet","fleet":{"clients":2},"faults":[{"mode":"earthquake","prob":0.5}],"run":{"rounds":1}}`, "earthquake"},
		{"fault prob > 1", `{"name":"t","topology":"flnet","fleet":{"clients":2},"faults":[{"mode":"drop","prob":1.5}],"run":{"rounds":1}}`, "faults[0].prob must be in [0, 1]"},
		{"negative stall", `{"name":"t","topology":"flnet","fleet":{"clients":2},"faults":[{"mode":"stall","prob":0.1,"stall_ms":-200}],"run":{"rounds":1}}`, "durations must not be negative"},
		{"negative fault client", `{"name":"t","topology":"flnet","fleet":{"clients":2},"faults":[{"mode":"drop","prob":0.1,"clients":[-1]}],"run":{"rounds":1}}`, "negative id -1"},
		{"unknown churn model", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"lunar"},"run":{"duration_s":10}}`, `unknown churn.model "lunar"`},
		{"churn on pipeline", `{"name":"t","topology":"pipeline","churn":{"model":"diurnal","duty_cycle":0.5},"run":{"rounds":1}}`, "churn is set but the pipeline topology never reads it"},
		{"churn duty cycle > 1", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"diurnal","duty_cycle":1.5},"run":{"duration_s":10}}`, "churn.duty_cycle must be in [0, 1]"},
		{"diurnal zero duty cycle", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"diurnal"},"run":{"duration_s":10}}`, "churn.duty_cycle must be positive for the diurnal model"},
		{"negative churn period", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"diurnal","duty_cycle":0.5,"period_s":-1}}`, "churn.period_s must not be negative"},
		{"sessions without means", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"sessions"},"run":{"duration_s":10}}`, "churn.mean_online_s and churn.mean_offline_s must be positive"},
		{"trace without file", `{"name":"t","topology":"flnet","fleet":{"clients":2},"churn":{"model":"trace"},"run":{"rounds":1}}`, "churn.trace_file must be set for the trace model"},
		{"trace file on diurnal", `{"name":"t","topology":"flnet","fleet":{"clients":2},"churn":{"model":"diurnal","duty_cycle":0.5,"trace_file":"x.json"},"run":{"rounds":1}}`, "churn.trace_file is only valid with the trace model"},
		{"negative lease ttl", `{"name":"t","topology":"flnet","fleet":{"clients":2},"churn":{"lease_ttl_s":-3},"run":{"rounds":1}}`, "churn.lease_ttl_s must not be negative"},
		{"attack without mode", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3},"run":{"duration_s":10}}`, "attack.mode must be set"},
		{"unknown attack mode", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"ddos"},"run":{"duration_s":10}}`, `unknown attack.mode "ddos"`},
		{"attack fraction > 1", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":1.5,"mode":"sign-flip"},"run":{"duration_s":10}}`, "attack.fraction must be in [0, 1]"},
		{"negative attack scale", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"sign-flip","scale":-2},"run":{"duration_s":10}}`, "attack.scale must not be negative"},
		{"attack on pipeline", `{"name":"t","topology":"pipeline","attack":{"fraction":0.3,"mode":"sign-flip"},"run":{"rounds":1}}`, "attack is set but the pipeline topology never reads it"},
		{"stray attack params", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"mode":"sign-flip"},"run":{"duration_s":10}}`, "attack parameters set without"},
		{"unknown defense aggregator", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"sign-flip","defense":{"aggregator":"blockchain"}},"run":{"duration_s":10}}`, `unknown aggregator "blockchain"`},
		{"defense aggregator on flnet", `{"name":"t","topology":"flnet","fleet":{"clients":2},"attack":{"fraction":0.3,"mode":"sign-flip","defense":{"aggregator":"median"}},"run":{"rounds":1}}`, "attack.defense.aggregator is set but the flnet topology never reads it"},
		{"defense trim out of range", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"sign-flip","defense":{"aggregator":"trimmed","trim":0.5}},"run":{"duration_s":10}}`, "attack.defense.trim must be in [0, 0.5)"},
		{"norm gate on fl", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"sign-flip","defense":{"norm_gate":true}},"run":{"duration_s":10}}`, "attack.defense.norm_gate is set but the fl topology never reads it"},
		{"fl without duration", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"}}`, "run.duration_s must be positive for the fl topology"},
		{"negative duration", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"run":{"duration_s":-5}}`, "run.duration_s must not be negative"},
		{"flnet without rounds", `{"name":"t","topology":"flnet","fleet":{"clients":2}}`, "run.rounds must be positive for the flnet topology"},
		{"pipeline without rounds", `{"name":"t","topology":"pipeline"}`, "run.rounds must be positive for the pipeline topology"},
		{"negative rounds", `{"name":"t","topology":"flnet","fleet":{"clients":2},"run":{"rounds":-1}}`, "run.rounds must not be negative"},
		{"classes per client > 10", flSpec(`"fleet":{"clients":2,"classes_per_client":11}`), "fleet.classes_per_client must be in [0, 10]"},
		{"dataset smaller than its shards", flSpec(`"fleet":{"clients":20,"classes_per_client":10,"dataset_size":150}`), "fleet.dataset_size 150 is smaller than the 200 shards"},
		{"stall of no length", flnetSpec(`"faults":[{"mode":"stall","prob":0.1}]`), "faults[0].stall_ms must be positive"},
		{"partition of no length", flnetSpec(`"faults":[{"mode":"drop","prob":0.1},{"mode":"partition","prob":0.1,"stall_ms":5}]`), "faults[1].partition_ms must be positive"},

		// A block or field the topology never reads is an error, not an
		// ignored knob.
		{"wire on fl", flSpec(`"wire":{"codec":"raw"}`), "wire is set but the fl topology never reads it"},
		{"faults on fl", flSpec(`"faults":[{"mode":"drop","prob":0.1}]`), "faults is set but the fl topology never reads it"},
		{"pipeline on fl", flSpec(`"pipeline":{"fail_round":2}`), "pipeline is set but the fl topology never reads it"},
		{"rounds on fl", flSpec(`"run":{"duration_s":10,"rounds":3}`), "run.rounds is set but the fl topology never reads it"},
		{"lease ttl on fl", flSpec(`"churn":{"lease_ttl_s":2}`), "churn.lease_ttl_s is set but the fl topology never reads it"},
		{"dropout on fedasync", flSpec(`"aggregation":{"strategy":"fedasync","dropout_prob":0.3}`), "aggregation.dropout_prob is set but the fedasync strategy never reads it"},
		{"quorum on fedasync", flSpec(`"aggregation":{"strategy":"fedasync","quorum":0.6}`), "aggregation.quorum is set but the fedasync strategy never reads it"},
		{"mu on fedavg", flSpec(`"aggregation":{"strategy":"fedavg","mu":0.05}`), "aggregation.mu is set but the fedavg strategy never reads it"},
		{"alpha on tifl", flSpec(`"aggregation":{"strategy":"tifl","alpha":0.5}`), "aggregation.alpha is set but the tifl strategy never reads it"},
		{"lambda sweep on fedat", flSpec(`"aggregation":{"strategy":"fedat"},` + sweepOf(`{"path":"aggregation.lambda","values":[0,500]}`, `"rounds"`)), "sweep cell [aggregation.lambda=500]: aggregation.lambda is set but the fedat strategy never reads it"},
		{"rt threshold on astraea", flSpec(`"aggregation":{"strategy":"astraea","rt_threshold":60}`), "aggregation.rt_threshold is set but the astraea strategy never reads it"},
		{"num groups on fedasync", flSpec(`"aggregation":{"strategy":"fedasync","num_groups":4}`), "aggregation.num_groups is set but the fedasync strategy never reads it"},
		{"group sync on tifl", flSpec(`"aggregation":{"strategy":"tifl","group_sync_every":2}`), "aggregation.group_sync_every is set but the tifl strategy never reads it"},
		{"classes per client under rlg", flSpec(`"fleet":{"clients":2,"partition":"rlg-niid","classes_per_client":3}`), "fleet.classes_per_client is set but the rlg-niid partition never reads it"},
		{"unknown partition", flSpec(`"fleet":{"clients":2,"partition":"dirichlet"}`), `unknown fleet.partition "dirichlet"`},
		{"negative rt threshold", flSpec(`"aggregation":{"strategy":"eco-fl","rt_threshold":-1}`), "aggregation.rt_threshold must not be negative"},
		{"rt threshold on flnet", flnetSpec(`"aggregation":{"rt_threshold":60}`), "aggregation.rt_threshold is set but the flnet topology never reads it"},
		{"strategy on flnet", flnetSpec(`"aggregation":{"strategy":"eco-fl"}`), "aggregation.strategy is set but the flnet topology never reads it"},
		{"lambda on flnet", flnetSpec(`"aggregation":{"lambda":500}`), "aggregation.lambda is set but the flnet topology never reads it"},
		{"num groups on flnet", flnetSpec(`"aggregation":{"num_groups":4}`), "aggregation.num_groups is set but the flnet topology never reads it"},
		{"group sync on flnet", flnetSpec(`"aggregation":{"group_sync_every":2}`), "aggregation.group_sync_every is set but the flnet topology never reads it"},
		{"dropout on flnet", flnetSpec(`"aggregation":{"dropout_prob":0.3}`), "aggregation.dropout_prob is set but the flnet topology never reads it"},
		{"quorum on flnet", flnetSpec(`"aggregation":{"quorum":0.6}`), "aggregation.quorum is set but the flnet topology never reads it"},
		{"dynamic on flnet", flnetSpec(`"aggregation":{"dynamic":true}`), "aggregation.dynamic is set but the flnet topology never reads it"},
		{"max concurrent on flnet", flnetSpec(`"fleet":{"clients":2,"max_concurrent":2}`), "fleet.max_concurrent is set but the flnet topology never reads it"},
		{"duration on flnet", flnetSpec(`"run":{"rounds":1,"duration_s":10}`), "run.duration_s is set but the flnet topology never reads it"},
		{"eval interval on flnet", flnetSpec(`"run":{"rounds":1,"eval_interval_s":5}`), "run.eval_interval_s is set but the flnet topology never reads it"},
		{"pipeline on flnet", flnetSpec(`"pipeline":{"micro_batch_size":6}`), "pipeline is set but the flnet topology never reads it"},
		{"fleet on pipeline", pipelineSpec(`"fleet":{"clients":3}`), "fleet is set but the pipeline topology never reads it"},
		{"aggregation on pipeline", pipelineSpec(`"aggregation":{"alpha":0.5}`), "aggregation is set but the pipeline topology never reads it"},
		{"wire on pipeline", pipelineSpec(`"wire":{"codec":"raw"}`), "wire is set but the pipeline topology never reads it"},
		{"two faults on pipeline", pipelineSpec(`"faults":[{"mode":"drop","prob":0.1},{"mode":"sever","prob":0.1}]`), "faults[1] is set but the pipeline topology never reads it"},
		{"fault clients on pipeline", pipelineSpec(`"faults":[{"mode":"drop","prob":0.1,"clients":[1]}]`), "faults[0].clients is set but the pipeline topology never reads it"},

		// Sweeps: every cell is a spec, and fails like one.
		{"sweep without report", flSpec(sweepOf(`{"path":"seed","values":[1,2]}`, ``)), "sweep.report must name at least one metric"},
		{"sweep axis without path", flSpec(sweepOf(`{"values":[1]}`, `"rounds"`)), `sweep cell [=1]: json: unknown field ""`},
		{"sweep axis path that is not one", flSpec(sweepOf(`{"path":"seed\":1,\"name","values":["x"]}`, `"rounds"`)), `json: unknown field "seed\":1,\"name"`},
		{"sweep axis without values", flSpec(sweepOf(`{"path":"seed","values":[]}`, `"rounds"`)), `sweep.axes[0].values must not be empty (path "seed")`},
		{"sweep axis twice", flSpec(sweepOf(`{"path":"seed","values":[1]},{"path":"seed","values":[2]}`, `"rounds"`)), `sweep.axes[1].path "seed" is swept twice`},
		{"sweep into sweep", flSpec(sweepOf(`{"path":"sweep.report","values":[["rounds"]]}`, `"rounds"`)), `sweep.axes[0].path "sweep.report": sweep cannot be swept`},
		{"sweep over name", flSpec(sweepOf(`{"path":"name","values":["a","b"]}`, `"rounds"`)), `sweep.axes[0].path "name": name cannot be swept`},
		{"sweep over schema", flSpec(sweepOf(`{"path":"schema","values":["ecofl/scenario/v1"]}`, `"rounds"`)), `sweep.axes[0].path "schema": schema cannot be swept`},
		{"sweep unknown block", flSpec(sweepOf(`{"path":"aggregatoin.quorum","values":[0.6]}`, `"rounds"`)), `sweep cell [aggregatoin.quorum=0.6]: json: unknown field "aggregatoin"`},
		{"sweep unknown field", flSpec(sweepOf(`{"path":"aggregation.quorun","values":[0.6]}`, `"rounds"`)), `sweep cell [aggregation.quorun=0.6]: json: unknown field "quorun"`},
		{"sweep through a scalar", flSpec(sweepOf(`{"path":"seed.lane","values":[1]}`, `"rounds"`)), `sweep cell [seed.lane=1]: json: cannot unmarshal object into Go struct field Spec.seed`},
		{"sweep value of the wrong type", flSpec(sweepOf(`{"path":"aggregation.quorum","values":[0.6,"most"]}`, `"rounds"`)), `sweep cell [aggregation.quorum="most"]: json: cannot unmarshal string`},
		{"sweep value out of range", flSpec(sweepOf(`{"path":"aggregation.dropout_prob","values":[0,2]}`, `"rounds"`)), "sweep cell [aggregation.dropout_prob=2]: aggregation.dropout_prob must be in [0, 1]"},
		{"sweep block value invalid", flSpec(sweepOf(`{"path":"churn","values":[{},{"model":"diurnal"}]}`, `"rounds"`)), `sweep cell [churn={"model":"diurnal"}]: churn.duty_cycle must be positive`},
		{"sweep over an unread field", flnetSpec(sweepOf(`{"path":"aggregation.quorum","values":[0.6]}`, `"rounds"`)), "sweep cell [aggregation.quorum=0.6]: aggregation.quorum is set but the flnet topology never reads it"},
		{"sweep reports an unknown metric", flSpec(sweepOf(`{"path":"seed","values":[1,2]}`, `"rounds","pushes"`)), `sweep.report[1]: no cell produces a metric "pushes"`},
		{"sweep reports a metric no cell turns on", flSpec(sweepOf(`{"path":"aggregation.quorum","values":[1,0.6]}`, `"churn_departures"`)), `sweep.report[0]: no cell produces a metric "churn_departures"`},
		{"sweep of 65 cells", flSpec(sweepOf(`{"path":"seed","values":[1,2,3,4,5]},{"path":"aggregation.quorum","values":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1,0.15,0.25,0.35]}`, `"rounds"`)), "sweep has more than 64 cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("Parse accepted hostile spec %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestFaultAppliesTo(t *testing.T) {
	all := FaultSpec{}
	if !all.appliesTo(0) || !all.appliesTo(99) {
		t.Fatal("empty client list must cover every client")
	}
	some := FaultSpec{Clients: []int{1, 3}}
	if some.appliesTo(0) || !some.appliesTo(3) {
		t.Fatal("explicit client list must cover exactly its members")
	}
}

func TestFaultPlanSeedsAreIndependent(t *testing.T) {
	f := FaultSpec{Prob: 0.5}
	a, b := f.plan(1, 0), f.plan(1, 1)
	if a.Seed == b.Seed {
		t.Fatal("different clients must get different chaos seeds")
	}
	if a2 := f.plan(1, 0); a2.Seed != a.Seed {
		t.Fatal("chaos seeds must be reproducible for the same scenario seed")
	}
}
