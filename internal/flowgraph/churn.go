package flowgraph

import (
	"errors"
	"fmt"
)

// This file holds the residual-graph primitives behind the full churn
// model of the dynamic matcher: customer removal, provider capacity
// resize, and negative-cycle canceling. The successive-shortest-path
// invariant only covers *arrivals* (augmenting along a shortest path
// from an optimal state stays optimal); removing flow or adding source
// capacity can create negative cycles in the residual graph, so repair
// after a departure or resize is: restore maximality by augmenting,
// then cancel negative residual cycles until none remain. Every cancel
// strictly reduces Ψ(M) at unchanged flow value, so the process
// terminates, and a residual graph with no negative cycle certifies a
// minimum-cost flow at its value — regardless of the order repairs ran
// in. All of this runs on churn graphs (NewChurnGraph, raw edge costs).

// LiveCount returns the number of customers currently present.
func (g *Graph) LiveCount() int { return len(g.customers) }

// LiveCustomers returns a fresh copy of the customers present, in
// index order (arbitrary after removals). The oracle side of the churn
// conformance suite re-solves from this snapshot.
func (g *Graph) LiveCustomers() []Customer {
	return append([]Customer(nil), g.customers...)
}

// Customer returns customer c.
func (g *Graph) Customer(c int32) Customer { return g.customers[c] }

// ProviderUsed returns the flow on e(s,q): how many assignments
// provider q currently carries.
func (g *Graph) ProviderUsed(q int32) int { return g.provUsed[q] }

// RemoveCustomer deletes customer c from a churn graph: its
// assignments are released, freeing provider capacity, and the last
// customer moves into index c with its flow, assignments and cost row,
// so every per-customer slot stays dense over the customers present.
// A caller that holds customer indices must follow the move. The
// resulting matching is feasible but possibly neither maximum nor
// minimum-cost; callers repair with augmenting searches and
// CancelNegativeCycle.
func (g *Graph) RemoveCustomer(c int32) error {
	if !g.churn {
		return errors.New("flowgraph: remove: only a churn graph removes customers")
	}
	last := int32(len(g.customers) - 1)
	if c < 0 || c > last {
		return fmt.Errorf("flowgraph: remove: customer %d not present", c)
	}
	for _, a := range g.assigned[c] {
		g.provUsed[a.q]--
	}
	nq := len(g.providers)
	g.customers[c] = g.customers[last]
	g.custUsed[c] = g.custUsed[last]
	// c's emptied assignment list stays behind the slice end, where
	// AddCustomer reuses its backing array.
	g.assigned[c], g.assigned[last] = g.assigned[last], g.assigned[c][:0]
	g.assignedLen[c] = g.assignedLen[last]
	g.tau[nq+int(c)] = g.tau[nq+int(last)]
	copy(g.rows[int(c)*nq:], g.rows[int(last)*nq:])
	g.customers = g.customers[:last]
	g.custUsed = g.custUsed[:last]
	g.assigned = g.assigned[:last]
	g.assignedLen = g.assignedLen[:last]
	g.tau = g.tau[:nq+int(last)]
	g.rows = g.rows[:int(last)*nq]
	// Drop c from the arrival order and rename the moved customer.
	k := 0
	for _, o := range g.order {
		switch o {
		case c:
			continue
		case last:
			o = c
		}
		g.order[k] = o
		k++
	}
	g.order = g.order[:k]
	return nil
}

// SetProviderCap changes provider q's capacity. Growing may open
// augmenting opportunities and can also create negative residual
// cycles (a customer matched elsewhere may now prefer q); shrinking
// below the current usage leaves e(s,q) over-saturated until the
// caller evicts assignments (EvictLongestAssignment). The provider
// slice must be owned by this graph's caller — the dynamic matcher
// copies it at construction.
func (g *Graph) SetProviderCap(q int32, newCap int) error {
	if q < 0 || int(q) >= len(g.providers) {
		return fmt.Errorf("flowgraph: resize: provider %d out of range [0,%d)", q, len(g.providers))
	}
	if newCap < 0 {
		return fmt.Errorf("flowgraph: resize: provider %d capacity %d is negative", q, newCap)
	}
	g.providers[q].Cap = newCap
	return nil
}

// EvictLongestAssignment unassigns provider q's longest current
// assignment edge and returns the customer it was serving (now
// unmatched but still live). Used when a resize shrinks q below its
// usage: the longest edge is the costliest to keep, and the follow-up
// repair re-routes the evicted customer optimally anyway.
func (g *Graph) EvictLongestAssignment(q int32) (int32, error) {
	best := int32(-1)
	bestD := -1.0
	for c := range g.customers {
		for _, a := range g.assigned[c] {
			if a.q == q && a.dist > bestD {
				bestD, best = a.dist, int32(c)
			}
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("flowgraph: evict: provider %d has no assignments", q)
	}
	if err := g.unassign(best, q); err != nil {
		return -1, err
	}
	g.provUsed[q]--
	g.custUsed[best]--
	return best, nil
}

// CheckFlowConservation verifies the residual graph's flow invariants
// and its size: every per-customer slice, and a churn graph's arrival
// order (a permutation) and cost rows, cover exactly the LiveCount
// customers present; every provider's e(s,q) flow equals its
// assignment count and respects its capacity; every customer's e(p,t)
// flow equals its assignment count and respects its capacity. The
// churn fuzz suite calls this after every event.
func (g *Graph) CheckFlowConservation() error {
	nq, n := len(g.providers), len(g.customers)
	if len(g.custUsed) != n || len(g.assigned) != n || len(g.assignedLen) != n || len(g.tau) != nq+n {
		return fmt.Errorf("flowgraph: %d customers, but custUsed %d, assigned %d, assignedLen %d, tau %d (want %d)",
			n, len(g.custUsed), len(g.assigned), len(g.assignedLen), len(g.tau), nq+n)
	}
	if g.churn {
		listed := make([]bool, n)
		for _, c := range g.order {
			if c < 0 || int(c) >= n || listed[c] {
				return fmt.Errorf("flowgraph: arrival order %v is no permutation of %d customers", g.order, n)
			}
			listed[c] = true
		}
		if len(g.order) != n || len(g.rows) != nq*n {
			return fmt.Errorf("flowgraph: %d customers, but %d in arrival order and %d row values (want %d)",
				n, len(g.order), len(g.rows), nq*n)
		}
	}
	perProv := make([]int, nq)
	for c := range g.customers {
		for _, a := range g.assigned[c] {
			perProv[a.q]++
		}
		if g.custUsed[c] != len(g.assigned[c]) {
			return fmt.Errorf("flowgraph: customer %d custUsed %d != %d assignments",
				c, g.custUsed[c], len(g.assigned[c]))
		}
		if g.custUsed[c] > g.customers[c].Cap {
			return fmt.Errorf("flowgraph: customer %d custUsed %d > cap %d",
				c, g.custUsed[c], g.customers[c].Cap)
		}
	}
	for q := range g.providers {
		if g.provUsed[q] != perProv[q] {
			return fmt.Errorf("flowgraph: provider %d provUsed %d != %d assignments",
				q, g.provUsed[q], perProv[q])
		}
		if g.provUsed[q] > g.providers[q].Cap {
			return fmt.Errorf("flowgraph: provider %d provUsed %d > cap %d",
				q, g.provUsed[q], g.providers[q].Cap)
		}
	}
	return nil
}

// cycleEps is the minimum per-edge improvement a label-correcting
// relaxation (SearchLabelCorrecting, SwapArrival, CancelNegativeCycle)
// must achieve. It guarantees termination (every cancel strictly
// reduces Ψ(M)) while tolerating only float-noise sub-optimality. The
// three share it: any cycle the SPFA searches can keep relaxing around
// (and hence flag as ErrNegativeCycle) must be one CancelNegativeCycle
// can find, or the cancel-and-retry loop in the dynamic matcher would
// spin.
//
// A label is a sum of up to |Q|+|live|+2 edge costs, so rounding moves
// it by up to that many ulps of maxDist. Below that bound an
// "improvement" is noise, and on a metric with exact ties (a road
// network, where two assignments can cost exactly the same) the
// canceler would flip a zero-cost cycle back and forth forever. So the
// threshold scales with the bound, floored at improveEps.
func (g *Graph) cycleEps() float64 {
	active := len(g.providers) + len(g.customers) + 2
	return max(improveEps, float64(active)*g.maxDist*0x1p-50)
}

// CancelNegativeCycle finds one negative-cost cycle in the residual
// graph of a churn graph — including cycles through the implicit
// source s (capacity rebalancing between providers) and sink t
// (swapping which customer is matched) — and cancels it, strictly
// reducing the matching cost at unchanged size. It returns false when
// no such cycle exists, which certifies the current matching is a
// minimum-cost flow at its value.
//
// The search is a Bellman–Ford pass from a virtual super-source (every
// node starts at distance 0), over the node set providers + customers
// + s + t; a relaxation still firing after |V| rounds pins a negative
// cycle, recovered by walking the prev chain. The pass borrows the
// search state's labels, so it voids the path the last search found.
func (g *Graph) CancelNegativeCycle() (bool, error) {
	nq := len(g.providers)
	n := nq + len(g.customers) + 2
	sNode := NodeID(n - 2)
	tNode := NodeID(n - 1)
	s := g.search
	s.grow(n)
	s.vmin = -1
	dist, prev := s.alpha[:n], s.prev[:n]
	for i := range dist {
		dist[i], prev[i] = 0, -1
	}
	g.stats.Dijkstras++
	eps := g.cycleEps()
	improved := NodeID(-1)
	for round := 0; round <= n; round++ {
		improved = -1
		relax := func(u, v NodeID, w float64) {
			if nd := dist[u] + w; nd < dist[v]-eps {
				dist[v] = nd
				prev[v] = u
				improved = v
				g.stats.Relaxations++
			}
		}
		for q := 0; q < nq; q++ {
			q32 := int32(q)
			if !g.ProviderFull(q32) {
				relax(sNode, NodeID(q), 0)
			}
			if g.provUsed[q] > 0 {
				relax(NodeID(q), sNode, 0)
			}
		}
		for c := range g.customers {
			c32 := int32(c)
			node := g.customerNode(c32)
			for q := 0; q < nq; q++ {
				q32 := int32(q)
				if !g.forwardSaturated(c32, q32) {
					relax(NodeID(q), node, g.dist(q32, c32))
				}
			}
			for _, a := range g.assigned[c] {
				relax(node, NodeID(a.q), -a.dist)
			}
			if !g.CustomerFull(c32) {
				relax(node, tNode, 0)
			}
			if g.custUsed[c] > 0 {
				relax(tNode, node, 0)
			}
		}
		if improved < 0 {
			return false, nil
		}
	}
	// A node relaxed on the final round is reachable from a negative
	// cycle; n prev-steps land inside it.
	v := improved
	for i := 0; i < n; i++ {
		v = prev[v]
	}
	cycle := append(s.visited[:0], v)
	for u := prev[v]; u != v; u = prev[u] {
		cycle = append(cycle, u)
		if len(cycle) > n {
			return false, fmt.Errorf("flowgraph: cycle walk exceeded %d nodes", n)
		}
	}
	s.visited = cycle
	for _, w := range cycle {
		if err := g.applyResidualEdge(prev[w], w, sNode, tNode); err != nil {
			return false, err
		}
	}
	return true, nil
}

// applyResidualEdge pushes one unit of flow along residual edge u→v,
// where u and v are CancelNegativeCycle's node ids (providers,
// customers, or the explicit s/t).
func (g *Graph) applyResidualEdge(u, v, sNode, tNode NodeID) error {
	switch {
	case u == sNode: // s→q: provider takes on one more unit
		if v < 0 || int(v) >= len(g.providers) {
			return fmt.Errorf("flowgraph: cycle edge s->%d is not a provider", v)
		}
		g.provUsed[v]++
	case v == sNode: // q→s: provider releases one unit
		if u < 0 || int(u) >= len(g.providers) {
			return fmt.Errorf("flowgraph: cycle edge %d->s is not a provider", u)
		}
		g.provUsed[u]--
	case u == tNode: // t→p: customer loses its sink flow
		if !g.isCustomerNode(v) {
			return fmt.Errorf("flowgraph: cycle edge t->%d is not a customer", v)
		}
		g.custUsed[g.custIdx(v)]--
	case v == tNode: // p→t: customer becomes matched
		if !g.isCustomerNode(u) {
			return fmt.Errorf("flowgraph: cycle edge %d->t is not a customer", u)
		}
		g.custUsed[g.custIdx(u)]++
	case g.isCustomerNode(u): // reversed p→q: unassign
		if g.isCustomerNode(v) {
			return fmt.Errorf("flowgraph: cycle edge %d->%d joins two customers", u, v)
		}
		return g.unassign(g.custIdx(u), int32(v))
	default: // forward q→p: assign
		if !g.isCustomerNode(v) {
			return fmt.Errorf("flowgraph: cycle edge %d->%d joins two providers", u, v)
		}
		c := g.custIdx(v)
		g.assign(c, int32(u), g.dist(int32(u), c))
	}
	return nil
}
