package fl

import (
	"fmt"
	"math"
	"math/rand"

	"ecofl/internal/metrics"
)

// Adversary modes: how a compromised client corrupts its trained update
// before reporting it.
const (
	// AdvSignFlip reflects the update around the reference model,
	// update ← ref − Scale·(update − ref): the classic model-poisoning
	// attack. Its norm matches an honest update at Scale 1, so it defeats
	// norm gates and must be caught by robust aggregation.
	AdvSignFlip = "sign-flip"
	// AdvNoise replaces training signal with additive Gaussian noise of
	// per-coordinate std Scale — a large-norm garbage update, the norm
	// gate's bread and butter.
	AdvNoise = "noise"
	// AdvZero reports the all-zero vector (a stuck or wiped device),
	// dragging the aggregate toward the origin.
	AdvZero = "zero"
	// AdvNaN injects NaNs into the update — one accepted coordinate
	// poisons every future aggregate, the failure mode the semantic ingest
	// gate exists for.
	AdvNaN = "nan"
	// AdvDrift adds a slowly accumulating offset along a fixed random
	// direction, growing by Scale per corrupted round — the stealthy
	// attack that starts under every static threshold.
	AdvDrift = "drift"
)

// AdversaryModes lists the corruption modes ValidAdversaryMode accepts.
func AdversaryModes() []string {
	return []string{AdvSignFlip, AdvNoise, AdvZero, AdvNaN, AdvDrift}
}

// ValidAdversaryMode reports whether mode names a known corruption mode.
func ValidAdversaryMode(mode string) bool {
	for _, m := range AdversaryModes() {
		if m == mode {
			return true
		}
	}
	return false
}

// advSeedOffset keeps the adversary's rng lane disjoint from the strategy
// stream (and from churn's 5000/7000 lanes): compromising clients must not
// perturb an honest run's draws.
const advSeedOffset = 9000

// Adversary configures seeded Byzantine client injection: a deterministic
// Fraction of the fleet is compromised and corrupts every update it reports
// according to Mode. The compromised set and all corruption randomness come
// from a dedicated seed lane, so attacks compose with dropout and churn
// without touching the strategy rng — and a Fraction of 0 is a strict nop,
// pinned byte-identical by test.
type Adversary struct {
	// Fraction of clients compromised, in [0, 1]. The count is rounded to
	// the nearest whole client; 0 disables the adversary entirely.
	Fraction float64
	// Mode is the corruption applied (AdvSignFlip, AdvNoise, AdvZero,
	// AdvNaN, AdvDrift).
	Mode string
	// Scale parameterizes the mode (reflection gain, noise std, drift step).
	// 0 means 1.
	Scale float64
	// Seed isolates the adversary's randomness. 0 derives
	// Config.Seed + 9000 when attached to a Config (callers constructing
	// plans directly should set it).
	Seed int64
}

// Validate checks the configuration without materializing a plan.
func (a *Adversary) Validate() error {
	if a == nil {
		return nil
	}
	if a.Fraction < 0 || a.Fraction > 1 {
		return fmt.Errorf("fl: adversary fraction must be in [0, 1] (got %g)", a.Fraction)
	}
	if a.Scale < 0 {
		return fmt.Errorf("fl: adversary scale must be >= 0 (got %g)", a.Scale)
	}
	if a.Fraction > 0 && !ValidAdversaryMode(a.Mode) {
		return fmt.Errorf("fl: unknown adversary mode %q (want one of %v)", a.Mode, AdversaryModes())
	}
	return nil
}

// Plan materializes the adversary over a fleet of n clients (IDs 0..n−1):
// the compromised set is a seeded ⌊Fraction·n⌉-sized sample, and each
// compromised client gets its own rng and drift state keyed by ID, so
// corruption is deterministic regardless of the order clients report in.
// Returns nil — a total nop — when the adversary is nil or Fraction rounds
// to zero clients. The plan is shared by the virtual-time simulator, the
// scenario harness's flnet topology, and ecofl-portal.
func (a *Adversary) Plan(n int) *AdversaryPlan {
	if a == nil || a.Fraction <= 0 || n <= 0 {
		return nil
	}
	k := int(math.Round(a.Fraction * float64(n)))
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	scale := a.Scale
	if scale == 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(a.Seed))
	p := &AdversaryPlan{
		mode:  a.Mode,
		scale: scale,
		state: make(map[int]*advClient, k),
		counter: metrics.GetCounter("ecofl_fl_adversary_corruptions_total",
			"client updates corrupted by the seeded adversary", "mode", a.Mode),
	}
	for _, id := range rng.Perm(n)[:k] {
		p.state[id] = &advClient{
			rng: rand.New(rand.NewSource(a.Seed + 1000003*int64(id+1))),
		}
	}
	return p
}

// AdversaryPlan is a materialized Adversary: the compromised set plus
// per-client corruption state. Methods are nil-safe nops. Corrupt mutates
// shared per-client state, so calls must be serialized — the simulator
// corrupts after the parallel training fan-in, in selection order.
type AdversaryPlan struct {
	mode        string
	scale       float64
	state       map[int]*advClient
	corruptions int
	counter     *metrics.Counter
}

// advClient is one compromised client's private corruption state.
type advClient struct {
	rng    *rand.Rand
	dir    []float64 // drift direction (unit vector, drawn lazily)
	offset float64   // accumulated drift magnitude
}

// Corruptions returns how many updates the plan has corrupted so far.
func (p *AdversaryPlan) Corruptions() int {
	if p == nil {
		return 0
	}
	return p.corruptions
}

// Mode returns the plan's corruption mode ("" for a nil plan).
func (p *AdversaryPlan) Mode() string {
	if p == nil {
		return ""
	}
	return p.mode
}

// Corrupt applies the plan's corruption to a client's trained update in
// place, with ref the reference model the update was trained from. It
// returns false untouched when the client is not compromised. Not safe for
// concurrent use.
func (p *AdversaryPlan) Corrupt(id int, ref, update []float64) bool {
	if p == nil {
		return false
	}
	st, ok := p.state[id]
	if !ok {
		return false
	}
	switch p.mode {
	case AdvSignFlip:
		for i := range update {
			update[i] = ref[i] - p.scale*(update[i]-ref[i])
		}
	case AdvNoise:
		for i := range update {
			update[i] = ref[i] + p.scale*st.rng.NormFloat64()
		}
	case AdvZero:
		for i := range update {
			update[i] = 0
		}
	case AdvNaN:
		update[0] = math.NaN()
		update[len(update)/2] = math.NaN()
	case AdvDrift:
		if st.dir == nil {
			st.dir = make([]float64, len(update))
			var norm float64
			for i := range st.dir {
				st.dir[i] = st.rng.NormFloat64()
				norm += st.dir[i] * st.dir[i]
			}
			norm = math.Sqrt(norm)
			for i := range st.dir {
				st.dir[i] /= norm
			}
		}
		st.offset += p.scale
		for i := range update {
			update[i] += st.offset * st.dir[i]
		}
	}
	p.corruptions++
	p.counter.Inc()
	return true
}
