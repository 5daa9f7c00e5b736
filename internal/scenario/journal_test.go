package scenario

// Journaled scenario runs: the report gains the event-count summary, the
// flnet topology merges client lanes into the server's fleet journal over
// the real telemetry piggyback, and a failing run dumps the timeline tail.

import (
	"strings"
	"testing"
)

func journalSmokeSpec(t *testing.T, topology, extra string) *Spec {
	t.Helper()
	var body string
	switch topology {
	case TopologyFLNet:
		body = `{
		  "name": "journal-smoke",
		  "topology": "flnet",
		  "seed": 7,
		  "fleet": {"clients": 3, "dataset_size": 200, "local_epochs": 1},
		  "aggregation": {"alpha": 0.5, "mu": 0.05},
		  "wire": {"codec": "raw"},
		  "run": {"rounds": 2},
		  "journal": {"enabled": true, "capacity": 512}` + extra + `
		}`
	case TopologyFL:
		body = `{
		  "name": "journal-fl",
		  "topology": "fl",
		  "seed": 3,
		  "fleet": {"clients": 10, "dataset_size": 200, "max_concurrent": 6, "local_epochs": 1},
		  "aggregation": {"strategy": "fedavg", "dropout_prob": 0.3, "quorum": 0.5},
		  "run": {"duration_s": 300, "eval_interval_s": 60},
		  "journal": {"enabled": true}` + extra + `
		}`
	default:
		body = `{
		  "name": "journal-pipeline",
		  "topology": "pipeline",
		  "seed": 1,
		  "fleet": {},
		  "aggregation": {},
		  "run": {"rounds": 3},
		  "pipeline": {"micro_batch_size": 6, "fail_round": 1, "fail_device": 1},
		  "journal": {"enabled": true}` + extra + `
		}`
	}
	spec, err := Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRunFLNetJournalSummary: every push lands as a push.apply in the fleet
// journal, client push.ack lanes arrive over the telemetry piggyback, and
// the report records the summary.
func TestRunFLNetJournalSummary(t *testing.T) {
	rep := runDeclared(t, journalSmokeSpec(t, TopologyFLNet, ""), RunOptions{})
	if rep.JournalEvents == nil {
		t.Fatal("journaled run produced no journal_events summary")
	}
	if got := rep.JournalEvents["push.apply"]; got != 6 {
		t.Fatalf("push.apply count = %d, want 6 (summary %v)", got, rep.JournalEvents)
	}
	if rep.JournalEvents["push.ack"] == 0 {
		t.Fatalf("no client push.ack events merged into the fleet journal: %v", rep.JournalEvents)
	}
	if rep.Metrics["journal_events_total"] <= 0 {
		t.Fatal("journal_events_total metric missing")
	}
}

// TestRunFLJournalSummary: the virtual-time simulation journals round
// lifecycle and quorum casualties.
func TestRunFLJournalSummary(t *testing.T) {
	rep := runDeclared(t, journalSmokeSpec(t, TopologyFL, ""), RunOptions{})
	if rep.JournalEvents["fl.round-start"] == 0 {
		t.Fatalf("no fl.round-start events: %v", rep.JournalEvents)
	}
	if rep.JournalEvents["fl.dropout"] == 0 {
		t.Fatalf("dropout_prob 0.3 run journaled no fl.dropout events: %v", rep.JournalEvents)
	}
}

// TestRunPipelineJournalSummary: the failover run journals the kill and the
// full heal sequence, and a run that succeeds prints the tail of its
// timeline too — the heal steps and the survivor layout, which the report
// only counts.
func TestRunPipelineJournalSummary(t *testing.T) {
	var dump strings.Builder
	rep := runDeclared(t, journalSmokeSpec(t, TopologyPipeline, ""), RunOptions{DumpTo: &dump})
	for _, kind := range []string{"exec.kill", "exec.detect", "exec.abort",
		"exec.repartition", "exec.ship-segment", "exec.resume", "exec.round-commit"} {
		if rep.JournalEvents[kind] == 0 {
			t.Fatalf("no %s events in journal summary: %v", kind, rep.JournalEvents)
		}
	}
	for _, want := range []string{"scenario journal-pipeline: flight recorder", "exec.repartition", "layout=TX2-N["} {
		if !strings.Contains(dump.String(), want) {
			t.Fatalf("timeline of the successful run lacks %q:\n%s", want, dump.String())
		}
	}
}

// TestJournalDisabledLeavesReportClean: without the journal knob the report
// has no summary and no journal metric.
func TestJournalDisabledLeavesReportClean(t *testing.T) {
	rep := runDeclared(t, flnetSmokeSpec(), RunOptions{})
	if rep.JournalEvents != nil {
		t.Fatalf("journal disabled but summary present: %v", rep.JournalEvents)
	}
	if _, ok := rep.Metrics["journal_events_total"]; ok {
		t.Fatal("journal disabled but journal_events_total recorded")
	}
}

// TestRunDumpsTimelineOnFailure: an unrecoverable scenario prints the
// flight-recorder tail to the configured sink.
func TestRunDumpsTimelineOnFailure(t *testing.T) {
	spec := journalSmokeSpec(t, TopologyPipeline,
		`, "faults": [{"mode": "sever", "prob": 1.0}]`)
	spec.Run.Rounds = 1
	var dump strings.Builder
	_, err := Run(spec, RunOptions{DumpTo: &dump})
	if err == nil {
		t.Fatal("sever prob=1 scenario must fail")
	}
	out := dump.String()
	if !strings.Contains(out, "flight recorder") {
		t.Fatalf("failure did not dump a timeline:\n%s", out)
	}
	if !strings.Contains(out, "chaos.inject") || !strings.Contains(out, "exec.detect") {
		t.Fatalf("dumped timeline missing fault/detect events:\n%s", out)
	}
}
