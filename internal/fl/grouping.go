package fl

import (
	"math"
	"math/rand"

	"ecofl/internal/stats"
)

// Group is one client group g in the hierarchical architecture.
type Group struct {
	ID      int
	Members []*Client
	// Center is L_g, the group's central response latency.
	Center float64
	counts []int
}

// NewGroup creates an empty group with an initial latency center.
func NewGroup(id, numClasses int, center float64) *Group {
	return &Group{ID: id, Center: center, counts: make([]int, numClasses)}
}

// Add inserts a client and updates the aggregate label counts.
func (g *Group) Add(c *Client) {
	g.Members = append(g.Members, c)
	for i, n := range c.labelCounts() {
		g.counts[i] += n
	}
}

// Remove deletes a client (no-op if absent).
func (g *Group) Remove(c *Client) {
	for i, m := range g.Members {
		if m == c {
			g.Members = append(g.Members[:i], g.Members[i+1:]...)
			for j, n := range c.labelCounts() {
				g.counts[j] -= n
			}
			return
		}
	}
}

// UpdateCenter recomputes L_g as the mean member latency; empty groups keep
// their previous center.
func (g *Group) UpdateCenter() {
	if len(g.Members) == 0 {
		return
	}
	var s float64
	for _, c := range g.Members {
		s += c.Latency()
	}
	g.Center = s / float64(len(g.Members))
}

// RoundLatency is the synchronous round time of the group: the slowest
// selected member. With sel ≤ 0 all members participate.
func (g *Group) RoundLatency() float64 {
	var worst float64
	for _, c := range g.Members {
		if l := c.Latency(); l > worst {
			worst = l
		}
	}
	return worst
}

// Grouper implements Eco-FL's heterogeneity-aware adaptive grouping (§5.2)
// and the baselines' grouping disciplines.
type Grouper struct {
	// Lambda is the Eq. 4 trade-off: 0 reduces to latency-only grouping
	// (FedAT), +∞ to data-only grouping (Astraea).
	Lambda float64
	// RT is the per-group response-latency threshold RT_g.
	RT         float64
	NumClasses int
}

// Cost evaluates Eq. 4: COST_n^g = |L_g − L_n| + λ·JS(π_{g∪n}, π_iid), in
// O(classes) and without allocating: the JS term is stats.JSCounts of the
// group's aggregate counts and the client's counts of its shard.
func (gr *Grouper) Cost(g *Group, c *Client) float64 {
	return math.Abs(g.Center-c.Latency()) + gr.Lambda*stats.JSCounts(g.counts, c.labelCounts())
}

// InitialGrouping implements §5.2's initial phase: K-means clusters client
// latencies into k centers, then groups greedily pick the minimum-cost
// client in turn (updating their aggregate distribution each time) until no
// client can join any group within the RT threshold; leftovers are dropped.
func (gr *Grouper) InitialGrouping(rng *rand.Rand, clients []*Client, k int) []*Group {
	lat := make([]float64, len(clients))
	for i, c := range clients {
		lat[i] = c.Latency()
	}
	_, centers := stats.KMeans1D(rng, lat, k)
	groups := make([]*Group, len(centers))
	for i, ctr := range centers {
		groups[i] = NewGroup(i, gr.NumClasses, ctr)
	}
	pool := map[*Client]bool{}
	for _, c := range clients {
		pool[c] = true
		c.Dropped = false
	}
	for len(pool) > 0 {
		progress := false
		for _, g := range groups {
			var best *Client
			bestCost := math.Inf(1)
			for _, c := range clients {
				if !pool[c] {
					continue
				}
				if math.Abs(g.Center-c.Latency()) > gr.RT {
					continue
				}
				if cost := gr.Cost(g, c); cost < bestCost {
					best, bestCost = c, cost
				}
			}
			if best != nil {
				g.Add(best)
				delete(pool, best)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for c := range pool {
		c.Dropped = true
	}
	for _, g := range groups {
		g.UpdateCenter()
	}
	return groups
}

// LatencyOnlyGrouping reproduces FedAT's tiering: K-means on response
// latency alone, every client assigned to its nearest tier.
func (gr *Grouper) LatencyOnlyGrouping(rng *rand.Rand, clients []*Client, k int) []*Group {
	lat := make([]float64, len(clients))
	for i, c := range clients {
		lat[i] = c.Latency()
	}
	assign, centers := stats.KMeans1D(rng, lat, k)
	groups := make([]*Group, len(centers))
	for i, ctr := range centers {
		groups[i] = NewGroup(i, gr.NumClasses, ctr)
	}
	for i, c := range clients {
		c.Dropped = false
		groups[assign[i]].Add(c)
	}
	for _, g := range groups {
		g.UpdateCenter()
	}
	return groups
}

// DataOnlyGrouping reproduces Astraea's grouping: clients are assigned
// purely to balance the label distribution of each group (minimizing the
// union's JS divergence from IID, with a mild size-balance tie-break),
// ignoring response latency entirely.
func (gr *Grouper) DataOnlyGrouping(rng *rand.Rand, clients []*Client, k int) []*Group {
	groups := make([]*Group, k)
	for i := range groups {
		groups[i] = NewGroup(i, gr.NumClasses, 0)
	}
	order := rng.Perm(len(clients))
	capacity := (len(clients) + k - 1) / k // Astraea keeps group sizes balanced
	for _, idx := range order {
		c := clients[idx]
		c.Dropped = false
		var best *Group
		bestScore := math.Inf(1)
		for _, g := range groups {
			if len(g.Members) >= capacity {
				continue
			}
			if js := stats.JSCounts(g.counts, c.labelCounts()); js < bestScore {
				best, bestScore = g, js
			}
		}
		best.Add(c)
	}
	for _, g := range groups {
		g.UpdateCenter()
	}
	return groups
}

// Regroup implements Algorithm 1's Regroup(n): find the group with minimum
// Eq. 4 cost whose latency distance is within RT_g; if none exists the
// client is dropped out (returns nil). The caller removes the client from
// its old group first.
func (gr *Grouper) Regroup(c *Client, groups []*Group) *Group {
	var best *Group
	bestCost := math.Inf(1)
	for _, g := range groups {
		if math.Abs(g.Center-c.Latency()) > gr.RT {
			continue
		}
		if cost := gr.Cost(g, c); cost < bestCost {
			best, bestCost = g, cost
		}
	}
	return best
}

// CheckAndRegroup runs Algorithm 1's monitoring step over a group: any
// member whose latency deviates from the group center beyond RT_g is moved
// to its best-fitting group, or dropped if none fits. Dropped clients are
// also re-admitted when their latency returns within range. It reports the
// number of clients moved or dropped.
func (gr *Grouper) CheckAndRegroup(g *Group, groups []*Group) int {
	changed := 0
	// A moved client's new group is never g, whose center stays put until
	// the end, so the walk only ever deletes the member it stands on.
	for i := 0; i < len(g.Members); {
		c := g.Members[i]
		if math.Abs(g.Center-c.Latency()) <= gr.RT {
			i++
			continue
		}
		g.Remove(c)
		if t := gr.Regroup(c, groups); t != nil {
			t.Add(c)
			t.UpdateCenter()
		} else {
			c.Dropped = true
		}
		changed++
	}
	g.UpdateCenter()
	return changed
}

// TryReadmit re-admits a dropped client whose latency fits some group again.
func (gr *Grouper) TryReadmit(c *Client, groups []*Group) bool {
	if !c.Dropped {
		return false
	}
	if t := gr.Regroup(c, groups); t != nil {
		t.Add(c)
		t.UpdateCenter()
		c.Dropped = false
		return true
	}
	return false
}

// AvgGroupJS returns the mean JS divergence of group distributions from
// IID — the Fig. 9 left axis.
func AvgGroupJS(groups []*Group) float64 {
	var s float64
	n := 0
	for _, g := range groups {
		if len(g.Members) == 0 {
			continue
		}
		s += stats.JSCounts(g.counts, nil)
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// AvgGroupLatency returns the mean synchronous round latency across groups —
// the Fig. 9 right axis.
func AvgGroupLatency(groups []*Group) float64 {
	var s float64
	n := 0
	for _, g := range groups {
		if len(g.Members) == 0 {
			continue
		}
		s += g.RoundLatency()
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
