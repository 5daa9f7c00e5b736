#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, tests, plus the race-detector pass
# for the concurrent packages.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Function reach: every non-test function is kept by the linker in some
# binary — cmd/, the benchmark or an example — or is on scripts/reach.go's
# allow-list with its reason (the two test instruments, a few functions
# waiting for a ROADMAP item). A function nothing runs is deleted or moved into
# a _test.go file, not kept green. It links all ten main packages (≈ 8 s warm).
reach_start=$SECONDS
go run scripts/reach.go
echo "reach: $((SECONDS - reach_start))s"

# One codec family: what leaves memory is an EFLB frame or JSON (DESIGN.md,
# "What leaves memory"); pipeline links send EFLB frames too. encoding/gob
# stays out of the program, tests included.
if gob=$(grep -rln '"encoding/gob"' --include='*.go' .); then
	echo "encoding/gob is imported by:" >&2
	echo "$gob" >&2
	exit 1
fi

# One recorder: a span is a journal event with a duration (DESIGN.md,
# "Observability"). The span recorder with its own buffer, shipping and clock
# offset (package ecofl/internal/obs; the tests of its contracts run on the
# journal, in internal/obs/journal) stays deleted, and journal's ring is the
# one event buffer: an untagged struct field holding events (a wire envelope's
# field has a JSON tag) is a second ring growing back.
if grep -rn --include='*.go' '"ecofl/internal/obs"' . >&2; then
	echo "one recorder: the lines above import the deleted span recorder package" >&2
	exit 1
fi
rings=$(grep -rnE --include='*.go' '^[[:space:]]+[[:alnum:]_]+[[:space:]]+\[\]\*?([[:alnum:]_]+\.)?Event[[:space:]]*(//.*)?$' . | grep -v '_test\.go:' || true)
if [ "$(grep -c . <<<"$rings")" != 1 ] || ! grep -q '^\./internal/obs/journal/journal\.go:[0-9]*:[[:space:]]*buf ' <<<"$rings"; then
	echo "one event ring: want journal's ring.buf as the only untagged event-slice field, have:" >&2
	echo "$rings" >&2
	exit 1
fi
# Metric history is journal events too: the dashboard's samples are
# metric.sample events, so a per-series ring type in non-test internal/metrics,
# or a CLI flag dumping one, is the third recorder growing back.
metrics_src=$(ls internal/metrics/*.go | grep -v '_test\.go$')
if grep -nE '^func NewSeries\b|^type Series\b' $metrics_src >&2 || grep -rn -- 'series-json' cmd >&2; then
	echo "one recorder: the lines above bring back metrics.Series or --series-json" >&2
	exit 1
fi

# One round lifecycle: every FL strategy is a row of fl's strategy table run by
# the one loop in internal/fl (DESIGN.md, "One round lifecycle"). A second
# event engine, or a second call site of a lifecycle step, is a second loop
# growing back. Comment lines and the steps' own definitions do not count.
fl_src=$(ls internal/fl/*.go | grep -v '_test\.go$')
for step in 'sim\.Engine' 'cutRound(' 'newChurnState(' '\.advance(' 'TrainClients(' 'newRunMetrics('; do
	sites=$(grep -hv '^[[:space:]]*//' $fl_src | grep -v '^func ' | grep -c -- "$step" || true)
	if [ "$sites" != 1 ]; then
		echo "one lifecycle: non-test internal/fl has $sites sites of '$step', want exactly 1:" >&2
		grep -n -- "$step" $fl_src >&2 || true
		exit 1
	fi
done

# One pipeline executor, one op order: every pipeline trains through
# runtime.DistPipeline, whose stages walk pipeline.Order, the order Schedule
# times (DESIGN.md, "Self-healing pipeline"). A tensor channel in the runtime
# is a second executor growing back; a second function returning an op list
# is a second order.
rt_src=$(ls internal/pipeline/runtime/*.go | grep -v '_test\.go$')
pl_src=$(ls internal/pipeline/*.go | grep -v '_test\.go$')
if grep -n 'chan \*tensor\.Tensor' $rt_src >&2; then
	echo "one executor: non-test internal/pipeline/runtime has a tensor channel" >&2
	exit 1
fi
sites=$(grep -hv '^[[:space:]]*//' $rt_src | grep -c 'pipeline\.Order(' || true)
orders=$(grep -hE '^func .*\) \[\](pipeline\.)?[Oo]p\b' $pl_src $rt_src | wc -l)
if [ "$sites" != 1 ] || [ "$orders" != 1 ] || ! grep -q '^func Order(' $pl_src; then
	echo "one order: want 1 pipeline.Order( site in non-test internal/pipeline/runtime (have $sites)" >&2
	echo "and 1 op-order function, pipeline.Order (have $orders):" >&2
	grep -nE 'pipeline\.Order\(|^func .*\) \[\](pipeline\.)?[Oo]p\b' $pl_src $rt_src >&2 || true
	exit 1
fi

# One model vector: nn.NewNetwork packs a model's parameters into one weight
# slab and one gradient slab (DESIGN.md, "Parallel substrate"), so nothing
# keeps state per parameter or walks them one at a time. A map keyed by
# parameter is per-parameter state growing back (momentum was one, weight
# decay the knob that read the values beside it); a loop over Params() outside
# internal/nn rebuilds the flat layout by hand.
if grep -rnE 'map\[\*(nn\.)?Param\]|paramsFor|WeightDecay' --include='*.go' . >&2; then
	echo "one vector: the lines above keep per-parameter state or the removed weight decay" >&2
	exit 1
fi
if grep -rnE 'range .*\.Params\(\)' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/nn/' >&2; then
	echo "one vector: the lines above loop over Params() outside internal/nn; use the slab" >&2
	exit 1
fi

# One encoder per uplink codec, at memory speed (DESIGN.md, "Tensor kernels"
# and "Sparse-delta versioning"). The int8 quantizer is tensor.QuantizeU8, Go
# and AVX2 bodies behind one switch: a second `/ 255` scale in the program is
# a second quantizer body. Top-k selection gathers the few magnitudes at or
# above a sampled (or histogram) threshold and selects over those alone: a
# heap in the program, or kthLargest fed from anywhere but the sample and the
# gathered candidates, is the scan over all n growing back.
quant_sites=$(grep -rnE --include='*.go' '/ ?255([^0-9.]|$)' . | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ "$(grep -c . <<<"$quant_sites")" != 1 ] || ! grep -q '^\./internal/tensor/quantize\.go:' <<<"$quant_sites"; then
	echo "one quantizer: want the one / 255 scale in internal/tensor/quantize.go, have:" >&2
	echo "$quant_sites" >&2
	exit 1
fi
heap_sites=$(grep -n 'siftDown' $fl_src || true)
select_fns=$(awk '/^func /{fn = $2; sub(/\(.*/, "", fn)} /kthLargest\(/ && !/^func / && !/^[[:space:]]*\/\//{print fn}' $fl_src | sort -u | tr '\n' ' ')
if [ -n "$heap_sites" ] || [ "$select_fns" != "sampledThreshold selectTop " ]; then
	echo "one top-k select: want no heap in non-test internal/fl and kthLargest fed from sampledThreshold and selectTop alone, have:" >&2
	echo "${heap_sites}${select_fns}" >&2
	exit 1
fi

# One mix body (DESIGN.md, "Tensor kernels" and "Ingest"): the commit
# w ← (1−α)·w + α·u is tensor.Mix, MixU8 and MixAt, Go and AVX2 bodies behind
# one switch, for the server's raw, int8 and sparse pushes and fl.AsyncMix
# alike. A 1−alpha factor in non-test internal/fl or internal/flnet is a second
# mix loop growing back. internal/adaptive's scalar EWMA is not a vector mix
# and is not checked.
mix_sites=$(grep -rnE --include='*.go' '1 ?- ?[[:alnum:]_.]*[Aa]lpha\b' internal/fl internal/flnet | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$mix_sites" ]; then
	echo "one mix body: non-test internal/fl and internal/flnet mix outside tensor.Mix:" >&2
	echo "$mix_sites" >&2
	exit 1
fi

# Per-frame buffers (DESIGN.md, "Wire protocol", "Frame layout"): no flnet
# connection keeps a buffer between frames, and the lists its frame buffers,
# writers and push scratch are borrowed from are bounded lists a GC does not
# empty, not sync.Pools. The one bufio in non-test internal/flnet is the
# 64 KiB writer wire.Writer.Begin borrows for one frame from such a list:
# a bufio reader, or a bufio struct field, is a connection's end growing
# back. Comment lines do not count.
flnet_src=$(find internal/flnet -name '*.go' ! -name '*_test.go')
frame_sites=$(grep -nE 'sync\.Pool|bufio\.(NewReader|Reader|ReadWriter)|^[[:space:]]+[[:alnum:]_]+[[:space:]]+\*?bufio\.' $flnet_src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
bufio_files=$(grep -lE '"bufio"' $flnet_src || true)
if [ -n "$frame_sites" ] || [ "$bufio_files" != internal/flnet/wire/wire.go ]; then
	echo "per-frame buffers: want no sync.Pool, bufio reader or bufio field in non-test internal/flnet," >&2
	echo "and bufio imported by internal/flnet/wire/wire.go alone, have:" >&2
	printf '%s\n' "$frame_sites" "$bufio_files" >&2
	exit 1
fi

# Docs budget (ROADMAP item 0b): a CHANGES.md entry is at most 1,200 bytes —
# claim, what was expected to move, what must not move, verdict. An entry
# runs from its "- PR N" line to the next one. Entries numbered below
# $first_budgeted predate the budget and keep their long form until item 0b
# rewrites them.
first_budgeted=31
over=$(LC_ALL=C awk -v first="$first_budgeted" '
	function flush() { if (n >= first && length(text) > 1200) print "PR " n ": " length(text) " bytes"; n = 0 }
	/^- PR [0-9]+/ { flush(); n = $3 + 0; text = $0; next }
	n { text = text "\n" $0 }
	END { flush() }' CHANGES.md)
if [ -n "$over" ]; then
	echo "CHANGES.md entries over the 1,200-byte budget:" >&2
	echo "$over" >&2
	exit 1
fi

# Perf trajectory (ROADMAP item 20): each BENCH_<PR>.json at the root is the
# results.json of `go run ./benchmark --sets 3 --out DIR` in a clean checkout
# of that PR's commit, which CHANGES.md names. compare F F parses the file
# and refuses a scaled self-test; a capture of a dirty tree names no commit.
for f in BENCH_*.json; do
	if ! go run ./benchmark compare "$f" "$f" >/dev/null; then
		echo "perf trajectory: $f does not pass benchmark compare" >&2
		exit 1
	fi
	if ! grep -q '"git_dirty": false' "$f"; then
		echo "perf trajectory: $f was captured from a dirty tree" >&2
		exit 1
	fi
done

tier1_start=$SECONDS
go vet ./...
go build ./...
go test ./...
echo "tier-1 (vet + build + test): $((SECONDS - tier1_start))s"

# The tensor kernels have assembly bodies on amd64 only (vet's asmdecl, above,
# checks their frames against the Go declarations); every other GOARCH builds
# the Go bodies alone, so build one so that fallback cannot rot.
GOARCH=arm64 go vet ./internal/tensor/... && GOARCH=arm64 go build ./...
# -short keeps the race pass fast: the flnet chaos soak (fault-injected
# links, server bounces) and the pipeline chaos soak (executor TestChaosSoak:
# every simnet fault mode plus a killed device, under ./internal/adaptive/...)
# run their reduced-round configurations here, having already run in full
# above. ./internal/adaptive/... covers the self-healing executor package;
# ./internal/pipeline/runtime/... covers the hardened link layer;
# ./internal/flnet/... recursively covers ./internal/flnet/wire/... (binary
# frame codecs) alongside the transport and codec chaos soaks.
# ./internal/nn/... ./internal/data/... ./internal/model/... are the training
# step itself: nn.TrainBatch returns its tensors to a pool every goroutine
# shares and fl gathers mini-batches into pooled buffers, the kind of
# ownership change this pass exists for. Under -race the tensor kernels run
# their Go bodies: the detector cannot see what an assembly body touches, so
# the amd64 build leaves those out (kernels_generic.go).
go test -race -short ./internal/tensor/... ./internal/nn/... ./internal/data/... \
	./internal/model/... ./internal/fl/... \
	./internal/fl/robust/... \
	./internal/metrics/... ./internal/obs/... ./internal/adaptive/... \
	./internal/flnet/... ./internal/simnet/... ./internal/device/... \
	./internal/scenario/... ./internal/pipeline/runtime/...

# The session table's pins, repeated under the race detector: the reaper/ack
# race they guard against showed in a handful of pushes per thousand, so one
# passing run of a scheduling-dependent test means nothing (same reasoning as
# the -count=10 lines below). The model check rides along; it is 0.2 s a run.
go test -race -count=20 -run '^(TestReaperKeepsLiveAck|TestSessionModel)$' ./internal/flnet

# The frame buffers wire lends between connections, repeated under the race
# detector: a payload view that outlives its frame corrupts whichever
# connection borrows the buffer next, so one green run means little.
go test -race -count=5 -run '^TestLargeFramesAcrossConnections$' ./internal/flnet

# The pipeline stages' ownership pins, repeated under the race detector: a
# tensor returned to the shared pool too early, or twice, shows as an
# overwrite by whichever goroutine draws it next — scheduling-dependent, so
# one green run means nothing. The link lifetime pin rides along: a link
# held between rounds is restarted by one goroutine and drained by another,
# and a keepalive cut at a round's end races the close that cuts it. So does
# the hostile-shape pin: a refused frame hands back any pooled tensor it was
# read into, and a double return shows here. So does the view-layer pin: a
# Flatten at a stage edge hands a received tensor's storage on to the send
# queue, and only the sent-before-released gate keeps it from the pool. So does
# the residency pin: a stage that keeps more micro-batches in flight holds
# more records at once, and a record freed early shows as a moved bit; it also
# sets stage widths 2 and 4, the one way stages fan out onto the shared worker
# pool at once on a box with fewer cores than stages. So does the smoother:
# the stage and link estimate and its whole-vector switch, on synthetic
# clocks. And so does the monitor-triggered rebalance: the re-plan reads the
# estimate the last round's stage goroutines measured, ships weights over
# fresh links and rebuilds the pipeline, with a delay the stages read as they
# run.
go test -race -count=10 -run '^(TestRecyclingStagesMatchReference|TestResidencyKeepsWeightsBitIdentical|TestAbortThenRetryWithRecycling|TestLinksOutliveCleanRounds|TestHostileShapesAbortRound|TestViewLayerStagesBitIdentical|TestEstimateSwitchesWholeVector)$' ./internal/pipeline/runtime
go test -race -count=10 -run '^TestMonitorTriggeredRebalance$' ./internal/adaptive/executor

# The wall-clock-shaped simulator check (Schedule's round time from the
# measured profile against the prototype's), repeated so that a flake shows
# here and not in some later change's gate.
go test -count=10 -run '^TestSimulatorMatchesPrototype$' ./internal/pipeline/runtime

# A short real fuzzing budget for every fuzz target — the parsers that face
# the network or a checkpoint file, two frame readers trading borrowed buffers, the churn-trace loader, the divergence
# bounds, the tensor kernels' assembly bodies (axpy, mix) against their Go
# ones, and the branch-free ReLU and the uplink encoders against the bodies they
# replaced (plain `go test` above only replays their seed corpora). Minimization is capped
# so shrinking one interesting input cannot eat the whole budget.
fuzz_start=$SECONDS
fuzz() { go test -run '^$' -fuzz "^$1\$" -fuzztime 5s -fuzzminimizetime 200ms "$2"; }
fuzz FuzzFrameDecode ./internal/flnet/wire
fuzz FuzzReaderReuse ./internal/flnet/wire
fuzz FuzzRequestDecode ./internal/flnet
fuzz FuzzCheckpointDecode ./internal/flnet
fuzz FuzzQuantizeRoundTrip ./internal/flnet
fuzz FuzzLinkRecvDecode ./internal/pipeline/runtime
fuzz FuzzParseTraceSet ./internal/device
fuzz FuzzJSBounds ./internal/stats
fuzz FuzzAxpyBodies ./internal/tensor
fuzz FuzzQuantizeBodies ./internal/tensor
fuzz FuzzMixBodies ./internal/tensor
fuzz FuzzReLUBodies ./internal/nn
fuzz FuzzTopKDeltaBodies ./internal/fl
echo "fuzz: $((SECONDS - fuzz_start))s"

# Every example spec runs through the one spec runner, end to end: spec
# loading, the four topologies' runners, sweeps, report emission. The eight
# single runs (smokes, churn50 with the flight recorder on, byzantine30,
# failover, …) take well under a second together; the four sweep-*.json are
# the dropout, churn, Byzantine and failover tables of EXPERIMENTS.md at the
# scale they are published at, a few seconds each; fig{7,8,9}.json are the
# paper's FL figures at that scale (about 6 s) and fig{7,8,9}-full.json at
# the paper's 300 clients (about 30 s); fig{5,10,12,13}.json and table2.json,
# the pipeline figures on the schedule topology, take 1.0 s together (fig10's
# accuracy curves nearly all of it; 2 vCPU). A spec nothing runs is not a
# reason to keep it. stderr (progress, journal tails) shows only on failure.
specs_start=$SECONDS
ci_tmp=$(mktemp -d)
trap 'rm -rf "$ci_tmp"' EXIT
go build -o "$ci_tmp/ecofl" ./cmd/ecofl
for spec in examples/scenarios/*.json; do
	if ! "$ci_tmp/ecofl" bench --scenario "$spec" --out "$ci_tmp/report.json" >/dev/null 2>"$ci_tmp/stderr"; then
		cat "$ci_tmp/stderr" >&2
		exit 1
	fi
done
echo "example specs: $((SECONDS - specs_start))s"

# Every paper figure and every study beside them is a spec; nothing may point
# a reader back at the --experiment names or the --csv export they used to
# have, or at the `fl`, `all`, `pipeline` and `migrate` commands that ran them.
if grep -rnE -- '--experiment|--csv|ecofl (fl|all|pipeline|migrate)\b' README.md EXPERIMENTS.md DESIGN.md cmd internal; then
	echo "the lines above name an --experiment, --csv or a command that is now a spec under examples/scenarios/" >&2
	exit 1
fi

# The examples are roots of the function-reach check above (scripts/reach.go;
# cnnpipeline alone reaches the CNN layers), so each must run: an example
# that cannot run is not a reason to keep code.
examples_start=$SECONDS
for main in examples/*/main.go; do
	go run "./$(dirname "$main")" >/dev/null
done
echo "examples: $((SECONDS - examples_start))s"
