package flowgraph

import (
	"errors"
	"fmt"
	"math"
)

// DisablePotentials switches the graph to raw edge costs (all τ pinned at
// zero, no updates on augmentation). In this mode shortest paths must be
// computed with SearchLabelCorrecting, since reversed residual edges have
// negative raw costs.
//
// The dynamic matcher uses this mode: newly arriving customers would
// invalidate potential-based reduced costs (their incident edges can turn
// negative under the old potentials), whereas a label-correcting search
// needs no potentials at all.
//
// On a complete graph this is the churn mode, which stores cost rows
// (see AddCustomer); customers already live get theirs here.
func (g *Graph) DisablePotentials() {
	if g.noPotentials {
		return
	}
	g.noPotentials = true
	if g.hasRows() {
		for _, c := range g.live {
			g.appendRow(g.customers[c].Pt)
		}
	}
}

// ErrNegativeCycle reports that a label-correcting search ran into a
// negative residual cycle — possible only when a bounded re-opt budget
// deferred repair work. The caller must cancel a cycle
// (CancelNegativeCycle) and retry the search.
var ErrNegativeCycle = errors.New("flowgraph: residual graph has a negative cycle")

// SearchLabelCorrecting computes the shortest augmenting path with a
// queue-based Bellman–Ford (SPFA) over raw costs: +dist on forward
// edges, −dist on reversed edges. It fills the same search state as
// Search, so Augment applies the path identically. A min-cost-flow
// residual graph built from fully repaired states has no negative
// cycles, so the search terminates; when deferred repair debt does
// leave one, the standard SPFA enqueue-count bound detects it and the
// search aborts with ErrNegativeCycle instead of relaxing forever.
func (g *Graph) SearchLabelCorrecting() (vmin NodeID, cost float64, ok bool, err error) {
	s := g.search
	s.epoch++
	n := len(g.providers) + len(g.customers)
	s.grow(n)
	s.heap.Clear()
	s.repair.Clear()
	s.visited = s.visited[:0]
	s.tBest = math.Inf(1)
	s.vmin = -1
	g.stats.Dijkstras++

	queue := make([]NodeID, 0, n)
	inQueue := make([]bool, n)
	enq := make([]int32, n)
	cycle := false
	eps := g.cycleEps()
	push := func(v NodeID) {
		if !inQueue[v] {
			inQueue[v] = true
			queue = append(queue, v)
			if enq[v]++; int(enq[v]) > n+1 {
				cycle = true
			}
		}
	}
	relax := func(v NodeID, nd float64, from NodeID, length float64) {
		if s.seen(v) && nd >= s.alpha[v]-eps {
			return
		}
		g.stats.Relaxations++
		s.alpha[v] = nd
		s.prev[v] = from
		s.prevLen[v] = length
		s.seenAt[v] = s.epoch
		push(v)
	}

	for q := range g.providers {
		if !g.ProviderFull(int32(q)) {
			s.alpha[q] = 0
			s.prev[q] = sourceNode
			s.seenAt[q] = s.epoch
			push(NodeID(q))
		}
	}
	for len(queue) > 0 && !cycle {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		g.stats.Pops++
		if g.isCustomerNode(v) {
			c := g.custIdx(v)
			base := s.alpha[v]
			for _, a := range g.assigned[c] {
				relax(NodeID(a.q), base-a.dist, v, a.dist)
			}
			continue
		}
		q := int32(v)
		base := s.alpha[v]
		if g.complete {
			for _, c32 := range g.live {
				if g.forwardSaturated(c32, q) {
					continue
				}
				d := g.dist(q, c32)
				relax(g.customerNode(c32), base+d, v, d)
			}
		} else {
			for _, he := range g.adj[q] {
				if !g.IsLive(he.cust) || g.forwardSaturated(he.cust, q) {
					continue
				}
				relax(g.customerNode(he.cust), base+he.dist, v, he.dist)
			}
		}
	}
	// The sink's distance: the cheapest non-full customer (its p→t edge
	// costs 0 under raw costs).
	for _, c32 := range g.live {
		node := g.customerNode(c32)
		if g.CustomerFull(c32) || !s.seen(node) {
			continue
		}
		if s.alpha[node] < s.tBest {
			s.tBest = s.alpha[node]
			s.vmin = node
		}
	}
	if cycle {
		return -1, math.Inf(1), false, ErrNegativeCycle
	}
	if s.vmin < 0 {
		return -1, math.Inf(1), false, nil
	}
	return s.vmin, s.tBest, true, nil
}

// sinkSeed marks prev-chains that start at the sink's reversed edge
// (t→p for a matched customer p), used by SwapArrival.
const sinkSeed NodeID = -2

// SwapArrival restores optimality after customer cNew arrived with no
// provider capacity left. The matching size cannot grow, but its
// composition can improve: the minimum-cost residual cycle through
// cNew's sink edge unassigns one currently-matched customer and routes
// cNew in instead. Because only one unit of flow can ever pass through
// cNew, canceling this single cycle (when negative) restores the
// min-cost maximum matching. Requires DisablePotentials mode.
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
	s := g.search
	s.epoch++
	n := len(g.providers) + len(g.customers)
	s.grow(n)
	s.visited = s.visited[:0]
	g.stats.Dijkstras++

	queue := make([]NodeID, 0, n)
	inQueue := make([]bool, n)
	enq := make([]int32, n)
	cycle := false
	eps := g.cycleEps()
	push := func(v NodeID) {
		if !inQueue[v] {
			inQueue[v] = true
			queue = append(queue, v)
			if enq[v]++; int(enq[v]) > n+1 {
				cycle = true
			}
		}
	}
	relax := func(v NodeID, nd float64, from NodeID) {
		if s.seen(v) && nd >= s.alpha[v]-eps {
			return
		}
		g.stats.Relaxations++
		s.alpha[v] = nd
		s.prev[v] = from
		s.seenAt[v] = s.epoch
		push(v)
	}
	// Seeds: reversed sink edges t→p of customers carrying flow.
	for _, c32 := range g.live {
		if g.custUsed[c32] == 0 || c32 == cNew {
			continue
		}
		node := g.customerNode(c32)
		s.alpha[node] = 0
		s.prev[node] = sinkSeed
		s.seenAt[node] = s.epoch
		push(node)
	}
	target := g.customerNode(cNew)
	for len(queue) > 0 && !cycle {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		g.stats.Pops++
		if v == target {
			continue // cNew's only out-edge is its sink edge (the cycle end)
		}
		if g.isCustomerNode(v) {
			c := g.custIdx(v)
			base := s.alpha[v]
			for _, a := range g.assigned[c] {
				relax(NodeID(a.q), base-a.dist, v)
			}
			continue
		}
		q := int32(v)
		base := s.alpha[v]
		if g.complete {
			for _, c32 := range g.live {
				if g.forwardSaturated(c32, q) {
					continue
				}
				relax(g.customerNode(c32), base+g.dist(q, c32), v)
			}
		} else {
			for _, he := range g.adj[q] {
				if !g.IsLive(he.cust) || g.forwardSaturated(he.cust, q) {
					continue
				}
				relax(g.customerNode(he.cust), base+he.dist, v)
			}
		}
	}
	if cycle {
		return false, ErrNegativeCycle
	}
	if !s.seen(target) || s.alpha[target] >= -eps {
		return false, nil // no swap available: the matching is already optimal
	}
	// Apply the cycle: flip assignments along the path, move the sink
	// flow from the seed customer to cNew.
	v := target
	maxSteps := n + 1
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
