// Package executor turns adaptive's analytical migration plans into
// executed recovery on the live distributed pipeline. Where
// adaptive.Reschedule computes what *should* move, the Executor makes it
// happen: it trains through runtime.DistPipeline, watches for link faults,
// dead stage devices and measured slowdowns (a stage's smoothed compute time,
// read off the pipeline's one estimate, against its value when the layout
// was installed), and on trouble runs the paper's §4.4 state machine for
// real —
//
//	detect → abort round → re-partition survivors → ship weights → resume
//
// Weights only ever commit at round boundaries (runtime's abort guarantee),
// so an aborted round can be replayed on the healed pipeline and the model
// stays bit-identical to a fault-free run on the same final partition. The
// migration itself is executed, not simulated: every moved weight segment
// crosses a fresh net.Conn as one wire.KindSegment frame and is validated
// and installed on the receiving side, with bytes and wall time measured
// against the analytical plan (adaptive.PlanMigration).
package executor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecofl/internal/adaptive"
	"ecofl/internal/device"
	"ecofl/internal/flnet"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/metrics"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
	"ecofl/internal/pipeline/runtime"
	"ecofl/internal/simnet"
	"ecofl/internal/tensor"
)

var (
	healsTotal = metrics.GetCounter("ecofl_executor_heals_total",
		"abort→repartition→resume cycles executed by the healing executor")
	migrationsTotal = metrics.GetCounter("ecofl_executor_migrations_total",
		"executed migrations (weight segments shipped over links)")
	migratedBytesTotal = metrics.GetCounter("ecofl_executor_migrated_bytes_total",
		"weight bytes shipped during executed migrations")
	detectSeconds = metrics.GetHistogram("ecofl_executor_detect_seconds",
		"fault occurrence to full round unwind", nil)
	migrationSeconds = metrics.GetHistogram("ecofl_executor_migration_seconds",
		"executed migration duration (weight shipping + pipeline rebuild)", nil)
)

// ErrNoSurvivors is returned when every pipeline device has been killed.
var ErrNoSurvivors = errors.New("executor: no surviving devices")

// Retries between heal attempts are paced under the flnet backoff policy.
const (
	healBackoffBase = 10 * time.Millisecond
	healBackoffMax  = 400 * time.Millisecond
)

// Config describes a self-healing pipeline deployment.
type Config struct {
	// Trainable is the model; its Blocks align 1-to-1 with Spec layers.
	Trainable *model.Trainable
	// Devices is the candidate fleet in pipeline order. Their preset rates
	// plan the first layout, and any re-plan before the pipeline has
	// measured itself.
	Devices []*device.Device
	// MicroBatchSize is the per-micro-batch sample count.
	MicroBatchSize int
	// Links produces the pipeline's neighbour connections (default
	// runtime.PipeLinks). Migration traffic uses the same factory.
	Links runtime.Dialer
	// LinkOptions harden the links (deadlines, heartbeats, dial retries).
	LinkOptions runtime.LinkOptions
	// Chaos, when non-nil, injects link faults: chaos(i) is the shared
	// fault state of pipeline link i, surviving re-dials. Migration links
	// are fresh and clean (the portal re-establishes them out of band).
	Chaos func(link int) *simnet.Chaos
	// Monitor's threshold is the measured per-stage slowdown that triggers a
	// re-plan (§4.4). Nil means a default Monitor (25% threshold).
	Monitor *adaptive.Monitor
	// MaxHeals bounds recovery attempts per round before giving up
	// (default 8; negative disables healing).
	MaxHeals int
	// Journal, when non-nil, is the flight recorder: every heal-path
	// decision (kill, detect, abort, repartition, segment shipping, resume,
	// round commit) lands in it as a correlated event, and each chaos link
	// is attached so injected faults log their cause into the same
	// timeline. Nil costs nothing (nop recorder discipline).
	Journal *journal.Recorder
}

// Stats counts what the executor did; read them via Executor.Stats.
type Stats struct {
	// Rounds is the number of committed sync-rounds.
	Rounds int
	// Aborts counts rounds that failed mid-flight and were rolled back.
	Aborts int
	// Heals counts abort→recover cycles (transient retries and failovers).
	Heals int
	// Migrations counts executed weight migrations (failover or
	// monitor-triggered rebalancing); a re-plan that keeps the layout is
	// none.
	Migrations int
	// MigratedBytes is the executed weight volume shipped over links.
	MigratedBytes int64
	// PlannedMoveBytes is what adaptive.PlanMigration predicted for the
	// same layout changes — the analytic/executed comparison.
	PlannedMoveBytes float64
	// LastDetectLatency is the wall time from fault to full round unwind.
	LastDetectLatency time.Duration
	// LastMigrationTime is the wall time of the last executed migration
	// (weight shipping plus pipeline rebuild).
	LastMigrationTime time.Duration
}

// Executor drives self-healing distributed training.
type Executor struct {
	cfg  Config
	spec *model.Spec
	devs []*device.Device // cloned fleet, pipeline order
	rng  *rand.Rand

	mu     sync.Mutex
	alive  []bool
	stages []pipeline.Stage // current plan over the alive devices
	pipe   *runtime.DistPipeline
	// installed is each stage's smoothed Tf+Tb when the layout was
	// installed, zero until the estimate has one: the reference the
	// deviation rule measures a slowdown against.
	installed []float64
	delays    []time.Duration // injected per-device external load
	killAt    map[int]int     // round → device index to kill at round start
	taps      map[int][]net.Conn
	round     int
	stats     Stats
}

// New validates the config, partitions the model over the fleet with the
// DP partitioner and builds the initial pipeline.
func New(cfg Config) (*Executor, error) {
	if cfg.Trainable == nil || len(cfg.Devices) == 0 {
		return nil, errors.New("executor: need a Trainable and at least one device")
	}
	if cfg.MicroBatchSize <= 0 {
		return nil, errors.New("executor: micro-batch size must be positive")
	}
	if cfg.Links == nil {
		cfg.Links = runtime.PipeLinks()
	}
	if cfg.Monitor == nil {
		cfg.Monitor = &adaptive.Monitor{}
	}
	if cfg.MaxHeals == 0 {
		cfg.MaxHeals = 8
	}
	e := &Executor{
		cfg:    cfg,
		spec:   cfg.Trainable.Spec,
		devs:   device.CloneAll(cfg.Devices),
		rng:    rand.New(rand.NewSource(int64(len(cfg.Devices)) + 7)),
		alive:  make([]bool, len(cfg.Devices)),
		delays: make([]time.Duration, len(cfg.Devices)),
		killAt: map[int]int{},
		taps:   map[int][]net.Conn{},
	}
	for i := range e.alive {
		e.alive[i] = true
	}
	plan, err := partition.DynamicProgrammingBatch(e.spec, e.devs, cfg.MicroBatchSize)
	if err != nil {
		return nil, fmt.Errorf("executor: partition over %d devices: %w", len(e.devs), err)
	}
	if err := e.installPlanLocked(plan.Stages, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// aliveDevicesLocked returns the surviving devices in pipeline order.
func (e *Executor) aliveDevicesLocked() []*device.Device {
	var out []*device.Device
	for i, d := range e.devs {
		if e.alive[i] {
			out = append(out, d)
		}
	}
	return out
}

// devIndex maps a device pointer back to its fleet position.
func (e *Executor) devIndex(d *device.Device) int {
	for i, dd := range e.devs {
		if dd == d {
			return i
		}
	}
	return -1
}

// installPlanLocked builds the DistPipeline for a stage layout, starting
// its estimate from est when that is not nil, and closes the links of the
// one it replaces. Caller holds e.mu.
func (e *Executor) installPlanLocked(stages []pipeline.Stage, est []pipeline.StageTimes) error {
	pipe, err := runtime.NewDistributed(e.cfg.Trainable, partition.Cuts(stages), e.dialer())
	if err != nil {
		return err
	}
	pipe.SetLinkOptions(e.cfg.LinkOptions)
	e.installed = make([]float64, len(stages))
	if est != nil {
		pipe.SetEstimate(est)
		for s, t := range est {
			e.installed[s] = t.Compute()
		}
	}
	// The journal stays off the pipe: per-op spans would bury the heal story.
	if e.pipe != nil {
		e.pipe.Close()
	}
	e.stages = stages
	e.pipe = pipe
	for s, st := range stages {
		if di := e.devIndex(st.Device); di >= 0 {
			pipe.SetStageDelay(s, e.delays[di])
		}
	}
	return nil
}

// dialer wraps the base links with chaos injection, the dead-device kill
// switch, and a tap that lets KillDevice sever a stage's links, mid-round or
// held by the pipeline between rounds.
func (e *Executor) dialer() runtime.Dialer {
	base := e.cfg.Links
	if e.cfg.Chaos != nil {
		chaos := e.cfg.Chaos
		if e.cfg.Journal != nil {
			// Attach the flight recorder to every chaos link so injected
			// faults log their cause alongside the heal steps they trigger.
			orig := chaos
			chaos = func(i int) *simnet.Chaos {
				c := orig(i)
				c.SetJournal(e.cfg.Journal, i)
				return c
			}
		}
		base = runtime.ChaosLinks(base, chaos)
	}
	return func(i int) (net.Conn, net.Conn, error) {
		up, down, err := base(i)
		if err != nil {
			return nil, nil, err
		}
		e.mu.Lock()
		dead := e.linkDeadLocked(i)
		if !dead {
			e.taps[i] = []net.Conn{up, down}
		}
		e.mu.Unlock()
		if dead {
			// The link touches a dead device: hand the round endpoints that
			// fail on first use, so detection runs through the live abort
			// path rather than a dial error.
			return &downedConn{Conn: up}, &downedConn{Conn: down}, nil
		}
		return up, down, nil
	}
}

// linkDeadLocked reports whether pipeline link i touches a dead device
// under the current (possibly stale) plan. Caller holds e.mu.
func (e *Executor) linkDeadLocked(i int) bool {
	for _, s := range []int{i, i + 1} {
		if s >= 0 && s < len(e.stages) {
			if di := e.devIndex(e.stages[s].Device); di >= 0 && !e.alive[di] {
				return true
			}
		}
	}
	return false
}

// downedConn is an endpoint of a link whose device has died: every
// operation fails immediately.
type downedConn struct{ net.Conn }

var errDeviceDown = errors.New("executor: stage device is down")

func (c *downedConn) Read([]byte) (int, error)  { return 0, errDeviceDown }
func (c *downedConn) Write([]byte) (int, error) { return 0, errDeviceDown }

// KillDevice marks fleet device i dead and severs its stage's live links,
// aborting any in-flight round; links the pipeline holds between rounds fail
// the next round instead. The next TrainRound heals: survivors are
// re-partitioned and the dead device's layers migrate to them. Killing an
// already-dead device is a no-op.
func (e *Executor) KillDevice(i int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.devs) || !e.alive[i] {
		return
	}
	e.alive[i] = false
	e.cfg.Journal.Record("exec.kill", e.round, i)
	// Sever the dead stage's links, in a round or held between rounds, if
	// it is part of the plan.
	for s, st := range e.stages {
		if e.devIndex(st.Device) == i {
			for _, li := range []int{s - 1, s} {
				for _, c := range e.taps[li] {
					c.Close()
				}
			}
		}
	}
}

// ScheduleKill arranges for device dev to die at the start of round r
// (0-based, counting committed rounds) — the deterministic failure injector
// the chaos soak uses. The doomed round still executes against the stale
// partition and aborts live, exercising detection end-to-end.
func (e *Executor) ScheduleKill(r, dev int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.killAt[r] = dev
}

// SetDeviceDelay injects an external-load delay on fleet device i: every
// forward/backward op of the stage it runs sleeps this long extra. The
// monitor sees the measured slowdown and rebalances (§4.4). Zero clears it.
func (e *Executor) SetDeviceDelay(i int, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.devs) {
		return
	}
	e.delays[i] = d
	for s, st := range e.stages {
		if e.devIndex(st.Device) == i {
			e.pipe.SetStageDelay(s, d)
		}
	}
}

// Stats returns a snapshot of the executor's counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// TrainRound runs one sync-round to commit, healing as needed: a fault
// aborts the round (no weights committed), the executor re-partitions the
// survivors if a device died, ships moved weight segments over fresh links,
// and replays the round. Returns the committed mean loss.
func (e *Executor) TrainRound(x *tensor.Tensor, labels []int, opt *nn.SGD) (float64, error) {
	e.mu.Lock()
	if dev, ok := e.killAt[e.round]; ok {
		delete(e.killAt, e.round)
		e.mu.Unlock()
		e.KillDevice(dev)
		e.mu.Lock()
	}
	pipe := e.pipe
	round := e.round
	e.mu.Unlock()

	for attempt := 0; ; attempt++ {
		start := time.Now()
		loss, err := pipe.TrainSyncRound(x, labels, e.cfg.MicroBatchSize, opt)
		if err == nil {
			e.mu.Lock()
			e.round++
			e.stats.Rounds++
			e.mu.Unlock()
			if jr := e.cfg.Journal; jr != nil { // the loss is formatted only for a journal that is on
				jr.Record("exec.round-commit", round, journal.None,
					"loss", strconv.FormatFloat(loss, 'g', 6, 64), "attempt", strconv.Itoa(attempt))
			}
			e.observe()
			return loss, nil
		}
		detect := time.Since(start)
		detectSeconds.Observe(detect.Seconds())
		e.cfg.Journal.Record("exec.detect", round, journal.None,
			"err", journal.ErrText(err), "attempt", strconv.Itoa(attempt))
		e.mu.Lock()
		e.stats.Aborts++
		e.stats.LastDetectLatency = detect
		e.mu.Unlock()
		e.cfg.Journal.Record("exec.abort", round, journal.None,
			"detect_ms", strconv.FormatInt(detect.Milliseconds(), 10))
		if e.cfg.MaxHeals < 0 || attempt >= e.cfg.MaxHeals {
			e.cfg.Journal.Record("exec.unrecoverable", round, journal.None,
				"attempts", strconv.Itoa(attempt))
			return 0, fmt.Errorf("executor: round %d unrecoverable after %d heal attempts: %w", e.round, attempt, err)
		}
		time.Sleep(flnet.BackoffDelay(attempt+1, healBackoffBase, healBackoffMax, e.rng))
		if herr := e.heal(); herr != nil {
			return 0, herr
		}
		e.cfg.Journal.Record("exec.resume", round, journal.None, "attempt", strconv.Itoa(attempt+1))
		e.mu.Lock()
		pipe = e.pipe
		e.mu.Unlock()
	}
}

// heal recovers from an aborted round. If the current plan includes a dead
// device, survivors are re-partitioned and weights migrate; for transient
// link faults the plan stands and the next attempt simply dials fresh links
// (the abort closed the old ones; the dial goes through the same chaos
// state, so open partition windows persist).
func (e *Executor) heal() error {
	e.mu.Lock()
	e.stats.Heals++
	healsTotal.Inc()
	deadInPlan := false
	for _, st := range e.stages {
		if di := e.devIndex(st.Device); di >= 0 && !e.alive[di] {
			deadInPlan = true
			break
		}
	}
	if !deadInPlan {
		e.mu.Unlock()
		return nil // transient: fresh links on the next round attempt
	}
	survivors := e.aliveDevicesLocked()
	e.mu.Unlock()
	return e.migrateTo(survivors)
}

// migrateTo re-plans the model over devs (replan), executes the weight
// migration for every layer whose owner changed, and swaps in the rebuilt
// pipeline. Weight shipping is real: each moved segment crosses a fresh
// connection as a wire.KindSegment frame and is installed on arrival. A
// plan equal to the layout in force is no migration: the pipeline, its held
// links and its estimate stay.
func (e *Executor) migrateTo(devs []*device.Device) error {
	if len(devs) == 0 {
		return ErrNoSurvivors
	}
	start := time.Now()
	plan, est, err := e.replan(devs)
	if err != nil {
		return fmt.Errorf("executor: repartition over %d devices: %w", len(devs), err)
	}
	e.mu.Lock()
	oldStages := slices.Clone(e.stages)
	round := e.round
	e.mu.Unlock()
	if slices.Equal(plan.Stages, oldStages) {
		return nil
	}
	var layout []string
	for _, st := range plan.Stages {
		layout = append(layout, fmt.Sprintf("%s[%d,%d)", st.Device.Name, st.From, st.To))
	}
	e.cfg.Journal.Record("exec.repartition", round, journal.None,
		"stages", strconv.Itoa(len(plan.Stages)), "devices", strconv.Itoa(len(devs)),
		"layout", strings.Join(layout, " | "))

	moved, err := movedRanges(e.spec, oldStages, plan.Stages)
	if err != nil {
		return err
	}
	var shipped int64
	if len(moved) > 0 {
		if shipped, err = e.shipSegments(moved, round); err != nil {
			return fmt.Errorf("executor: weight migration: %w", err)
		}
	}
	// The analytic counterpart for the executed move (restart overhead 0:
	// the rebuild below is measured, not modelled).
	var plannedBytes float64
	if mig, perr := adaptive.PlanMigration(e.spec, oldStages, plan.Stages, 0); perr == nil {
		plannedBytes = mig.MovedParamBytes
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.installPlanLocked(plan.Stages, est); err != nil {
		return err
	}
	dur := time.Since(start)
	e.stats.Migrations++
	e.stats.MigratedBytes += shipped
	e.stats.PlannedMoveBytes += plannedBytes
	e.stats.LastMigrationTime = dur
	migrationsTotal.Inc()
	migratedBytesTotal.Add(shipped)
	migrationSeconds.Observe(dur.Seconds())
	return nil
}

// replan partitions the model over devs — the layout's devices, or the
// survivors among them — in pipeline order, from the running pipeline's
// estimate read as §4.2's profile (partition.Measured): each device runs at
// the rate measured on its current stage, each link at the bandwidth
// measured on it. Two survivors that never shared a link (a dead device sat between
// them) are joined at the slowest bandwidth measured. Before the pipeline
// has measured itself the plan reads the presets alone: no plan mixes
// preset numbers with measured ones. A measured plan comes with what the
// same numbers predict for the new layout, the new pipeline's starting
// estimate: a stage's Tf and Tb are its device's measured ones scaled by
// the segments' FLOPs, a link's one-way times its frames' bytes over its
// bandwidth.
func (e *Executor) replan(devs []*device.Device) (*partition.Plan, []pipeline.StageTimes, error) {
	mbs := e.cfg.MicroBatchSize
	stages, times := e.Estimate()
	rates, bws, err := partition.Measured(e.spec, partition.Cuts(stages), mbs, times)
	if err != nil {
		plan, err := partition.DynamicProgrammingBatch(e.spec, devs, mbs)
		return plan, nil, err
	}
	at := make(map[*device.Device]int, len(stages)) // a device's current stage
	for s, st := range stages {
		at[st.Device] = s
	}
	slowest := math.Inf(1)
	for _, b := range bws {
		slowest = min(slowest, b)
	}
	view := make([]*device.Device, len(devs))
	bw := make([]float64, len(devs)-1)
	for i, d := range devs {
		view[i] = &device.Device{Name: d.Name, ComputeRate: rates[at[d]], LoadFactor: 1}
		if i > 0 {
			bw[i-1] = slowest
			if s := at[devs[i-1]]; s+1 == at[d] {
				bw[i-1] = bws[s]
			}
		}
	}
	plan, err := partition.DynamicProgrammingLinks(e.spec, view, mbs, bw)
	if err != nil {
		return nil, nil, err
	}
	est := make([]pipeline.StageTimes, len(plan.Stages))
	for i, st := range plan.Stages {
		s := at[devs[i]]
		f := e.spec.SegmentFwdFLOPs(st.From, st.To) / e.spec.SegmentFwdFLOPs(stages[s].From, stages[s].To)
		est[i].Tf, est[i].Tb = times[s].Tf*f, times[s].Tb*f
		if i > 0 {
			per := float64(mbs) / bw[i-1]
			est[i-1].CommF = e.spec.CutActivationBytes(st.From) * per
			est[i-1].CommB = e.spec.CutGradientBytes(st.From) * per
		}
		plan.Stages[i].Device = devs[i]
	}
	return plan, est, nil
}

// movedRange is a contiguous block range whose owner changed.
type movedRange struct{ from, to int }

// movedRanges diffs two stage layouts into the contiguous layer ranges that
// must ship to a new device. Layers owned by a device no longer in the new
// layout (it died) are recovered from the round-boundary model state the
// portal holds — exactly what makes commit-at-round-boundaries the
// checkpointing discipline of this pipeline.
func movedRanges(spec *model.Spec, old, new []pipeline.Stage) ([]movedRange, error) {
	L := spec.NumLayers()
	oldOwner, err := partition.Assignment(old, L)
	if err != nil {
		return nil, err
	}
	newOwner, err := partition.Assignment(new, L)
	if err != nil {
		return nil, err
	}
	var out []movedRange
	for l := 0; l < L; l++ {
		if old[oldOwner[l]].Device == new[newOwner[l]].Device {
			continue
		}
		if n := len(out); n > 0 && out[n-1].to == l {
			out[n-1].to = l + 1
		} else {
			out = append(out, movedRange{l, l + 1})
		}
	}
	return out, nil
}

// shipSegments executes the migration: every moved range's weights, as of
// the last committed round boundary, cross a fresh connection as one
// wire.KindSegment frame and are installed on arrival — once the frame is a
// segment frame for exactly that range, holds exactly its parameter count
// and every weight is finite; a frame that fails has not touched the model.
// Returns the shipped byte volume.
func (e *Executor) shipSegments(moved []movedRange, round int) (int64, error) {
	up, down, err := e.cfg.Links(0)
	if err != nil {
		return 0, err
	}
	defer up.Close()
	defer down.Close()

	sendErr := make(chan error, 1)
	go func() {
		fw := wire.Writer{W: up}
		var err error
		for _, r := range moved {
			h := wire.Header{Kind: wire.KindSegment, A: int32(r.from), B: int32(r.to)}
			if err = fw.WriteRawFrame(&h, e.cfg.Trainable.SegmentNet(r.from, r.to).Weights(), nil); err != nil {
				break
			}
		}
		sendErr <- err
	}()

	var shipped int64
	fr := wire.Reader{R: down}
	for _, r := range moved {
		h, payload, _, err := fr.Next()
		if err != nil {
			return shipped, err
		}
		seg := e.cfg.Trainable.SegmentNet(r.from, r.to)
		weights, _ := wire.ParseRaw(payload, nil) // ParseHeader checked the length
		if h.Kind != wire.KindSegment || int(h.A) != r.from || int(h.B) != r.to || len(weights) != seg.NumParams() {
			return shipped, fmt.Errorf("%w: kind %d [%d,%d) with %d weights arrived, expected segment [%d,%d) with %d",
				wire.ErrFrame, h.Kind, h.A, h.B, len(weights), r.from, r.to, seg.NumParams())
		}
		for i, v := range weights {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return shipped, fmt.Errorf("%w: segment [%d,%d): weight %d is non-finite", wire.ErrFrame, r.from, r.to, i)
			}
		}
		seg.SetFlatWeights(weights)
		shipped += int64(len(payload))
		e.cfg.Journal.Record("exec.ship-segment", round, journal.None,
			"from", strconv.Itoa(r.from), "to", strconv.Itoa(r.to), "bytes", strconv.Itoa(len(payload)))
	}
	return shipped, <-sendErr
}

// Estimate returns the layout in force and the running pipeline's estimate
// of its stages and links (runtime.RoundStats.Times), nil before its first
// round.
func (e *Executor) Estimate() ([]pipeline.Stage, []pipeline.StageTimes) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.pipe.LastRoundStats(); st != nil {
		return slices.Clone(e.stages), st.Times
	}
	return slices.Clone(e.stages), nil
}

// observe applies §4.4's deviation rule to the estimate the round left: a
// stage whose smoothed Tf+Tb has grown past the monitor's threshold over
// its value when the layout was installed triggers a re-plan.
func (e *Executor) observe() {
	e.mu.Lock()
	trigger := false
	for s, t := range e.pipe.LastRoundStats().Times {
		cur, ref := t.Compute(), e.installed[s]
		if ref == 0 {
			e.installed[s] = cur
		} else if cur > ref && e.cfg.Monitor.Exceeds((cur-ref)/ref) {
			trigger = true
		}
	}
	survivors := e.aliveDevicesLocked()
	e.mu.Unlock()
	if trigger {
		// A failed proactive rebalance is not fatal: training continues on
		// the current layout and the next deviation retries.
		_ = e.migrateTo(survivors)
	}
}
