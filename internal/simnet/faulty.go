package simnet

// Fault injection: a seeded, deterministic wrapper that makes a real
// net.Conn misbehave the way edge links do — abrupt drops, long stalls,
// silently lost messages, connections severed mid-message, and timed
// partitions. The fault state lives in a Chaos value shared by every
// connection it wraps, so a partition outlasts a reconnect (dialing a new
// socket does not heal a downed link) and the fault schedule stays a single
// deterministic stream no matter how many times the client redials. The
// flnet transport's deadlines, retries, and push dedup are proven against
// exactly these wrappers (the chaos soak in internal/flnet).

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"ecofl/internal/obs/journal"
)

// FaultMode selects what happens when the fault trigger fires on a write.
type FaultMode int

const (
	// FaultNone never fires: the wrapper is byte-transparent.
	FaultNone FaultMode = iota
	// FaultDrop closes the connection instead of writing — the abrupt
	// portal power-off.
	FaultDrop
	// FaultStall freezes the write for Plan.Stall before delivering it —
	// long enough to trip a round-trip deadline on the peer.
	FaultStall
	// FaultBlackHole claims the write succeeded but delivers nothing; the
	// peer waits for a reply that never comes.
	FaultBlackHole
	// FaultSever delivers a prefix of the message and then closes the
	// connection — a truncated frame on the receiver.
	FaultSever
	// FaultPartition fails all traffic (and new dials through Dialer) for
	// Plan.Partition, then heals.
	FaultPartition
)

func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultStall:
		return "stall"
	case FaultBlackHole:
		return "black-hole"
	case FaultSever:
		return "sever"
	case FaultPartition:
		return "partition"
	}
	return "unknown"
}

// ErrPartitioned is returned by reads, writes and dials while the link is
// inside a partition window.
var ErrPartitioned = errors.New("simnet: link partitioned")

// MarshalText renders the mode by name, so a FaultMode field serializes as
// "drop" / "partition" in JSON scenario specs instead of a bare integer.
func (m FaultMode) MarshalText() ([]byte, error) {
	if m < FaultNone || m > FaultPartition {
		return nil, fmt.Errorf("simnet: cannot marshal unknown fault mode %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a mode name (as produced by FaultMode.String), making
// FaultMode usable directly in JSON-decoded configuration.
func (m *FaultMode) UnmarshalText(b []byte) error {
	for mode := FaultNone; mode <= FaultPartition; mode++ {
		if mode.String() == string(b) {
			*m = mode
			return nil
		}
	}
	return fmt.Errorf("simnet: unknown fault mode %q (none, drop, stall, black-hole, sever, partition)", b)
}

// FaultPlan is a deterministic fault schedule.
type FaultPlan struct {
	Seed int64
	Mode FaultMode
	// Prob is the per-write probability that the fault fires.
	Prob float64
	// After exempts the first After writes (lets a session bootstrap before
	// the weather turns).
	After int
	// Stall is the write freeze for FaultStall.
	Stall time.Duration
	// Partition is the outage length for FaultPartition.
	Partition time.Duration
}

// Chaos owns one link's fault state. Wrap every connection of the link
// (including reconnects) through the same Chaos so the schedule and any
// open partition window carry across sockets.
type Chaos struct {
	plan FaultPlan

	mu        sync.Mutex
	rng       *rand.Rand
	writes    int
	partUntil time.Time
	journal   *journal.Recorder
	link      int
}

// NewChaos builds the shared fault state for one link.
func NewChaos(plan FaultPlan) *Chaos {
	return &Chaos{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// SetJournal attaches a flight recorder so every injected fault logs its
// cause (a "chaos.inject" event tagged with the link id and fault mode) —
// soaks correlate injection with the failure the system then observes. A nil
// recorder detaches. Safe to call at any time, including on a Chaos already
// wrapping live connections.
func (c *Chaos) SetJournal(rec *journal.Recorder, link int) {
	c.mu.Lock()
	c.journal = rec
	c.link = link
	c.mu.Unlock()
}

// Wrap returns conn with the chaos plan applied to its writes.
func (c *Chaos) Wrap(conn net.Conn) net.Conn {
	return &Faulty{Conn: conn, chaos: c}
}

// Dialer wraps a dial function so new connections join the link: dials fail
// while partitioned, and every successful connection is Wrap'ed.
func (c *Chaos) Dialer(base func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if base == nil {
		base = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return func(addr string) (net.Conn, error) {
		if c.partitioned() {
			return nil, ErrPartitioned
		}
		conn, err := base(addr)
		if err != nil {
			return nil, err
		}
		return c.Wrap(conn), nil
	}
}

// partitioned reports whether the link is inside a partition window.
func (c *Chaos) partitioned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.partUntil)
}

// DialFault reports the fault a fresh dial over this link would hit right
// now: ErrPartitioned inside a partition window, nil otherwise. Dialers
// that are not simple addr-based functions (e.g. the pipeline's paired-conn
// Dialer) call this before establishing connections so a downed link also
// refuses reconnects, like Chaos.Dialer does for the flnet transport.
func (c *Chaos) DialFault() error {
	if c.partitioned() {
		return ErrPartitioned
	}
	return nil
}

// decide consumes one trigger draw and returns the fault to apply to this
// write (FaultNone for a clean write).
func (c *Chaos) decide() FaultMode {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Now().Before(c.partUntil) {
		return FaultPartition
	}
	c.writes++
	if c.plan.Mode == FaultNone || c.plan.Prob <= 0 || c.writes <= c.plan.After {
		return FaultNone
	}
	if c.rng.Float64() >= c.plan.Prob {
		return FaultNone
	}
	if c.plan.Mode == FaultPartition {
		c.partUntil = time.Now().Add(c.plan.Partition)
	}
	// Log the injection itself (not the repeated effects of an open
	// partition window) so one fault maps to one journal event.
	c.journal.Record("chaos.inject", journal.None, c.link,
		"mode", c.plan.Mode.String(), "write", strconv.Itoa(c.writes))
	return c.plan.Mode
}

// Faulty is one connection of a chaotic link. All fault decisions are made
// by the shared Chaos; the wrapper itself is stateless beyond the conn.
type Faulty struct {
	net.Conn
	chaos *Chaos
}

// Write applies the link's fault schedule to one message.
func (f *Faulty) Write(b []byte) (int, error) {
	switch f.chaos.decide() {
	case FaultDrop:
		f.Conn.Close()
		return 0, errors.New("simnet: connection dropped by fault injection")
	case FaultStall:
		time.Sleep(f.chaos.plan.Stall)
	case FaultBlackHole:
		return len(b), nil // swallowed: the peer never sees it
	case FaultSever:
		n, _ := f.Conn.Write(b[:len(b)/2])
		f.Conn.Close()
		return n, errors.New("simnet: connection severed mid-message")
	case FaultPartition:
		return 0, ErrPartitioned
	}
	return f.Conn.Write(b)
}

// Read fails while the link is partitioned and otherwise passes through.
func (f *Faulty) Read(b []byte) (int, error) {
	if f.chaos.partitioned() {
		return 0, ErrPartitioned
	}
	return f.Conn.Read(b)
}
