package flowgraph

import (
	"errors"
	"fmt"
	"math"
)

// ErrNegativeCycle reports that a label-correcting search ran into a
// negative residual cycle — possible only when a bounded re-opt budget
// deferred repair work. The caller must cancel a cycle
// (CancelNegativeCycle) and retry the search.
var ErrNegativeCycle = errors.New("flowgraph: residual graph has a negative cycle")

// fifo is the label-correcting searches' queue over n nodes: a ring
// (a node is queued at most once at a time, so n slots suffice) plus
// per-node enqueue counts. It lives on the search state and grows to
// the largest graph searched, so a search allocates nothing.
type fifo struct {
	ring       []NodeID
	queued     []bool
	enq        []int32
	head, size int
	// cycle is set once a node is enqueued more than n+1 times. A FIFO
	// label-correcting search queues a node at most once per pass, and
	// without a negative cycle it settles within n passes.
	cycle bool
}

func (f *fifo) reset(n int) {
	f.ring = growZero(f.ring, n)
	f.queued = growZero(f.queued, n)
	f.enq = growZero(f.enq, n)
	f.head, f.size, f.cycle = 0, 0, false
}

func (f *fifo) push(v NodeID) {
	if f.queued[v] {
		return
	}
	f.queued[v] = true
	f.ring[(f.head+f.size)%len(f.ring)] = v
	f.size++
	if f.enq[v]++; int(f.enq[v]) > len(f.ring)+1 {
		f.cycle = true
	}
}

func (f *fifo) pop() NodeID {
	v := f.ring[f.head]
	f.head = (f.head + 1) % len(f.ring)
	f.size--
	f.queued[v] = false
	return v
}

// labelSearch starts a label-correcting search: a fresh epoch over the
// |Q| + |live| nodes and an empty queue. It returns the search state
// and the improvement a relaxation must beat (cycleEps).
func (g *Graph) labelSearch() (*searchState, float64) {
	s := g.search
	s.epoch++
	n := len(g.providers) + len(g.customers)
	s.grow(n)
	s.fifo.reset(n)
	g.stats.Dijkstras++
	return s, g.cycleEps()
}

// seed starts a search path at node v with label 0; from records where
// the path enters (the source, or SwapArrival's sink seed).
func (s *searchState) seed(v, from NodeID) {
	s.alpha[v] = 0
	s.prev[v] = from
	s.seenAt[v] = s.epoch
	s.fifo.push(v)
}

// correctLabels runs the queue from the seeds until it empties,
// relaxing the residual edges out of every popped node except stop
// (-1 for none), and reports whether it stopped early on a negative
// cycle instead. A label is replaced only by one lower by more than
// eps.
func (g *Graph) correctLabels(s *searchState, stop NodeID, eps float64) bool {
	f := &s.fifo
	relax := func(v NodeID, nd float64, from NodeID, length float64) {
		if s.seen(v) && nd >= s.alpha[v]-eps {
			return
		}
		g.stats.Relaxations++
		s.alpha[v] = nd
		s.prev[v] = from
		s.prevLen[v] = length
		s.seenAt[v] = s.epoch
		f.push(v)
	}
	for f.size > 0 && !f.cycle {
		v := f.pop()
		g.stats.Pops++
		if v == stop {
			continue
		}
		base := s.alpha[v]
		if g.isCustomerNode(v) {
			for _, a := range g.assigned[g.custIdx(v)] {
				relax(NodeID(a.q), base-a.dist, v, a.dist)
			}
			continue
		}
		q := int32(v)
		for c := range g.customers {
			c32 := int32(c)
			if g.forwardSaturated(c32, q) {
				continue
			}
			d := g.dist(q, c32)
			relax(g.customerNode(c32), base+d, v, d)
		}
	}
	return f.cycle
}

// SearchLabelCorrecting computes the shortest augmenting path of a
// churn graph with a queue-based Bellman–Ford (SPFA) over raw costs:
// +dist on forward edges, −dist on reversed edges. It fills the same
// search state as Search, so Augment applies the path identically. A
// min-cost-flow residual graph built from fully repaired states has no
// negative cycles, so the search terminates; when deferred repair debt
// does leave one, the standard SPFA enqueue-count bound detects it and
// the search aborts with ErrNegativeCycle instead of relaxing forever.
func (g *Graph) SearchLabelCorrecting() (vmin NodeID, cost float64, ok bool, err error) {
	s, eps := g.labelSearch()
	s.tBest = math.Inf(1)
	s.vmin = -1
	for q := range g.providers {
		if !g.ProviderFull(int32(q)) {
			s.seed(NodeID(q), sourceNode)
		}
	}
	if g.correctLabels(s, -1, eps) {
		return -1, math.Inf(1), false, ErrNegativeCycle
	}
	// The sink's distance: the cheapest non-full customer (its p→t edge
	// costs 0 under raw costs).
	for c := range g.customers {
		c32 := int32(c)
		node := g.customerNode(c32)
		if g.CustomerFull(c32) || !s.seen(node) {
			continue
		}
		if s.alpha[node] < s.tBest {
			s.tBest = s.alpha[node]
			s.vmin = node
		}
	}
	if s.vmin < 0 {
		return -1, math.Inf(1), false, nil
	}
	return s.vmin, s.tBest, true, nil
}

// sinkSeed marks prev-chains that start at the sink's reversed edge
// (t→p for a matched customer p), used by SwapArrival.
const sinkSeed NodeID = -2

// SwapArrival restores optimality after customer cNew arrived at a
// churn graph with no provider capacity left. The matching size cannot
// grow, but its composition can improve: the minimum-cost residual
// cycle through cNew's sink edge unassigns one currently-matched
// customer and routes cNew in instead. Because only one unit of flow
// can ever pass through cNew, canceling this single cycle (when
// negative) restores the min-cost maximum matching.
//
// It returns whether cNew was swapped in. Like SearchLabelCorrecting,
// it aborts with ErrNegativeCycle if deferred repair debt left a
// negative cycle elsewhere in the residual graph.
func (g *Graph) SwapArrival(cNew int32) (bool, error) {
	// A forced cycle cancel between search attempts can route flow
	// through cNew's sink edge, matching it as a side effect; swapping
	// again would double-assign it.
	if g.custUsed[cNew] > 0 {
		return false, nil
	}
	s, eps := g.labelSearch()
	// Seeds: reversed sink edges t→p of customers carrying flow.
	for c := range g.customers {
		c32 := int32(c)
		if g.custUsed[c32] > 0 && c32 != cNew {
			s.seed(g.customerNode(c32), sinkSeed)
		}
	}
	// cNew's only out-edge is its sink edge, the cycle's end.
	target := g.customerNode(cNew)
	if g.correctLabels(s, target, eps) {
		return false, ErrNegativeCycle
	}
	if !s.seen(target) || s.alpha[target] >= -eps {
		return false, nil // no swap available: the matching is already optimal
	}
	// Apply the cycle: flip assignments along the path, move the sink
	// flow from the seed customer to cNew.
	v := target
	maxSteps := len(g.providers) + len(g.customers) + 1
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return false, fmt.Errorf("flowgraph: swap path exceeds %d nodes", maxSteps)
		}
		u := s.prev[v]
		if g.isCustomerNode(v) {
			if u == sinkSeed {
				g.custUsed[g.custIdx(v)]--
				break
			}
			c := g.custIdx(v)
			g.assign(c, int32(u), g.dist(int32(u), c))
		} else {
			if err := g.unassign(g.custIdx(u), int32(v)); err != nil {
				return false, err
			}
		}
		v = u
	}
	g.custUsed[cNew]++
	return true, nil
}
