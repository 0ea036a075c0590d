package flowgraph

import (
	"errors"
	"fmt"
)

// This file holds the churn mode's events — customer removal and
// provider capacity resize — and the one search that repairs every
// event (route), plus the Bellman–Ford negative-cycle check kept as a
// test oracle. Between events the churn graph keeps a minimum-cost
// flow of size min(Σcap, |live|) together with potentials under which
// every residual edge, those into and out of s and t included, has a
// non-negative reduced cost. Each event changes one unit of capacity
// or demand at a time, and each unit is repaired by one Dijkstra on
// reduced costs from the node left with excess to the node left short
// (successive shortest paths on a pseudoflow; Ahuja, Magnanti & Orlin,
// Network Flows, ch. 9), followed by the τ update that keeps every
// reduced cost non-negative.

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

// RemoveCustomer deletes customer c from a churn graph and returns
// the provider its assignment released, or -1 if it was unmatched
// (churn customers carry one unit). The last customer moves into
// index c with its flow, assignments, τ and cost row, so every
// per-customer slot stays dense over the customers present; a caller
// that holds customer indices must follow the move. Removing an
// unmatched customer keeps the flow optimal; after a matched one the
// caller repairs with Reroute on the returned provider.
func (g *Graph) RemoveCustomer(c int32) (int32, error) {
	if !g.churn {
		return -1, errors.New("flowgraph: remove: only a churn graph removes customers")
	}
	last := int32(len(g.customers) - 1)
	if c < 0 || c > last {
		return -1, fmt.Errorf("flowgraph: remove: customer %d not present", c)
	}
	freed := int32(-1)
	for _, a := range g.assigned[c] {
		g.provUsed[a.q]--
		freed = a.q
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
	return freed, nil
}

// SetProviderCap changes provider q's capacity. The caller repairs
// the flow: Shed while q carries more than the new capacity, Reroute
// for each unit a full provider gains. The provider slice must be
// owned by this graph's caller — the dynamic matcher copies it at
// construction.
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

// Admit restores optimality after customer c arrived at a churn graph
// (AddCustomer set its τ so that every edge q→c has a non-negative
// reduced cost), with one search, and reports whether c was swapped in
// for a customer already matched. While provider capacity remains, c
// is the only customer unmatched and is matched along the shortest
// augmenting path s→…→c→t. Otherwise the size cannot grow, and the
// search runs from the sink: the cheapest residual cycle t→…→c→t,
// when negative, unmatches one customer and re-routes any in between
// to let c in.
func (g *Graph) Admit(c int32) (swapped bool, err error) {
	node := g.customerNode(c)
	sN, tN := g.terminals()
	start, size := tN, g.AssignedCount()
	switch {
	case size < g.TotalCapacity():
		start = sN
	case size == 0:
		// No capacity at all, so nothing reaches c: lift τ(t) to keep
		// c→t non-negative (t has no residual edge out).
		g.tTau = max(g.tTau, g.tau[node])
		return false, nil
	}
	if !g.route(start, node) {
		return false, fmt.Errorf("flowgraph: admit: customer %d unreachable", c)
	}
	cycle := g.search.alpha[node] + g.tTau - g.tau[node]
	g.settle(node)
	if start == tN && cycle >= -g.cycleEps() {
		return false, nil
	}
	if err := g.flip(start, node); err != nil {
		return false, err
	}
	g.custUsed[c]++
	return start == tN, nil
}

// Reroute routes the unit of flow provider q has just gained — a
// departed customer's, or one unit of capacity added while q was full
// — by one shortest path from q: to the sink when a customer waits
// unmatched, which keeps the matching maximum (toSink), otherwise back
// to the source, which moves other customers only where that is
// cheaper than q handing the unit straight back.
func (g *Graph) Reroute(q int32) (toSink bool, err error) {
	sN, tN := g.terminals()
	target := sN
	if toSink = g.LiveCount() > g.AssignedCount(); toSink {
		target = tN
	}
	if g.provUsed[q] == 0 {
		// With no flow, q's τ was bound by no edge into q; lowering it
		// to s's keeps q→s non-negative once q carries the unit.
		g.tau[q] = min(g.tau[q], g.sTau)
	}
	g.provUsed[q]++
	if !g.route(NodeID(q), target) {
		return false, fmt.Errorf("flowgraph: reroute: no path from provider %d", q)
	}
	g.settle(target)
	return toSink, g.flip(NodeID(q), target)
}

// Shed takes one unit of flow off provider q, which carries more than
// its capacity, by one shortest path into q: from the source through a
// provider with room when there is one, which keeps the size (kept),
// otherwise from the sink, unmatching one customer.
func (g *Graph) Shed(q int32) (kept bool, err error) {
	sN, tN := g.terminals()
	start := tN
	room := g.TotalCapacity() - g.providers[q].Cap - g.AssignedCount() + g.provUsed[q]
	if kept = room > 0; kept {
		start = sN
	}
	if !g.route(start, NodeID(q)) {
		return false, fmt.Errorf("flowgraph: shed: no path into provider %d", q)
	}
	g.settle(NodeID(q))
	if err := g.flip(start, NodeID(q)); err != nil {
		return false, err
	}
	g.provUsed[q]--
	return kept, nil
}

// terminals returns the node ids of s and t in a churn search: they
// follow the customers, as in CancelNegativeCycle.
func (g *Graph) terminals() (NodeID, NodeID) {
	n := NodeID(len(g.tau))
	return n, n + 1
}

// potential returns node v's τ in a churn search, s and t included.
func (g *Graph) potential(v NodeID) *float64 {
	switch sN, tN := g.terminals(); v {
	case sN:
		return &g.sTau
	case tN:
		return &g.tTau
	}
	return &g.tau[v]
}

// route runs Dijkstra on reduced costs from start until target is
// finalized, over every residual edge of the churn graph, those into
// and out of s and t included, and reports whether target was
// reached; the path is left in the search state's prev chain. The
// events keep every edge a search relaxes non-negative (an arrival's
// c→t, the one edge an event may leave negative, leads out of the
// target), so the labels are exact; float drift below zero is clamped,
// as in BeginIteration.
func (g *Graph) route(start, target NodeID) bool {
	sN, tN := g.terminals()
	s := g.search
	s.epoch++
	s.grow(int(tN) + 1)
	s.heap.Clear()
	s.visited = s.visited[:0]
	g.stats.Dijkstras++
	eps := g.cycleEps()
	s.alpha[start], s.seenAt[start] = 0, s.epoch
	s.heap.Push(start, 0)
	for s.heap.Len() > 0 {
		v := s.heap.Pop().H
		s.doneAt[v] = s.epoch
		s.visited = append(s.visited, v)
		g.stats.Pops++
		if v == target {
			return true
		}
		base := s.alpha[v] - *g.potential(v)
		switch {
		case v == sN:
			for q := range g.providers {
				if !g.ProviderFull(int32(q)) {
					g.step(v, NodeID(q), base+g.tau[q], eps)
				}
			}
		case v == tN:
			for c := range g.customers {
				if g.custUsed[c] > 0 {
					node := g.customerNode(int32(c))
					g.step(v, node, base+g.tau[node], eps)
				}
			}
		case g.isCustomerNode(v):
			c := g.custIdx(v)
			for _, a := range g.assigned[c] {
				g.step(v, NodeID(a.q), base-a.dist+g.tau[a.q], eps)
			}
			if !g.CustomerFull(c) {
				g.step(v, tN, base+g.tTau, eps)
			}
		default:
			q := int32(v)
			for c := range g.customers {
				c32 := int32(c)
				if !g.forwardSaturated(c32, q) {
					node := g.customerNode(c32)
					g.step(v, node, base+g.dist(q, c32)+g.tau[node], eps)
				}
			}
			if g.provUsed[q] > 0 {
				g.step(v, sN, base+g.sTau, eps)
			}
		}
	}
	return false
}

// step relaxes route's residual edge u→v, offering v the label nd
// (clamped to u's, so drift cannot make a reduced cost negative). A
// label is replaced only by one lower by more than eps (cycleEps), so
// of two paths equal to float noise — exact ties on a road network —
// the first one found stays.
func (g *Graph) step(u, v NodeID, nd, eps float64) {
	s := g.search
	nd = max(nd, s.alpha[u])
	if s.done(v) || (s.seen(v) && nd >= s.alpha[v]-eps) {
		return
	}
	g.stats.Relaxations++
	s.alpha[v], s.prev[v], s.seenAt[v] = nd, u, s.epoch
	if s.heap.Contains(v) {
		s.heap.Update(v, nd)
	} else {
		s.heap.Push(v, nd)
	}
}

// settle applies Augment's τ update after a route to target: every
// node finalized below the target's label rises by the difference,
// which keeps every residual edge's reduced cost non-negative and
// zeroes those along the path, so they stay non-negative once flipped.
func (g *Graph) settle(target NodeID) {
	s := g.search
	for _, v := range s.visited {
		if d := s.alpha[target] - s.alpha[v]; d > 0 {
			*g.potential(v) += d
		}
	}
}

// flip pushes one unit of flow along the last route's path.
func (g *Graph) flip(start, target NodeID) error {
	sN, tN := g.terminals()
	for v := target; v != start; v = g.search.prev[v] {
		if err := g.applyResidualEdge(g.search.prev[v], v, sN, tN); err != nil {
			return err
		}
	}
	return nil
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

// cycleEps is the least improvement a residual cycle must offer to
// count as negative: Admit swaps a customer in only below -cycleEps,
// and CancelNegativeCycle relaxes only by more than it.
//
// A label is a sum of up to |Q|+|live|+2 edge costs, so rounding moves
// it by up to that many ulps of maxDist. Below that bound an
// "improvement" is noise, and on a metric with exact ties (a road
// network, where two assignments can cost exactly the same) a zero-cost
// cycle would be flipped back and forth. So the threshold scales with
// the bound, floored at improveEps.
func (g *Graph) cycleEps() float64 {
	active := len(g.providers) + len(g.customers) + 2
	return max(improveEps, float64(active)*g.maxDist*0x1p-50)
}

// CancelNegativeCycle is the churn mode's test oracle: it finds one
// negative-cost cycle in the residual graph of a churn graph — including cycles through the implicit
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
// where u and v are route's and CancelNegativeCycle's node ids
// (providers, customers, or the explicit s/t).
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
