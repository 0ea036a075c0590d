package flowgraph

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/pqueue"
)

// searchState holds the per-iteration Dijkstra labels. Arrays are epoch
// stamped so a new iteration does not pay O(V) re-initialization; the
// two heaps are indexed by node id and clear in O(entries still queued).
type searchState struct {
	epoch int64
	alpha []float64
	prev  []NodeID
	// prevLen is the length of the pair edge prev→v for a customer
	// node v, so Augment assigns the pair without a metric call.
	prevLen []float64
	seenAt  []int64 // epoch when alpha/prev were last written
	doneAt  []int64 // epoch when the node was finalized (popped)
	visited []NodeID

	heap   pqueue.Heap // Hd: the main Dijkstra frontier
	repair pqueue.Heap // Hf: the PUA repair frontier

	tBest float64 // shortest known source→sink cost this iteration
	vmin  NodeID  // finalized non-full customer realizing tBest
}

// statePool recycles searchState scratch across graphs, so back-to-back
// solves (the batch engine's workload) stop allocating label arrays and
// heap storage. The epoch counter is deliberately preserved across
// reuses: it only ever increments, so stamps written by a previous owner
// can never equal a later owner's epoch and the arrays need no zeroing.
var statePool = sync.Pool{New: func() any {
	return &searchState{heap: pqueue.NewIndexed(), repair: pqueue.NewIndexed()}
}}

// acquireSearchState returns a pooled searchState grown to n nodes with
// empty heaps.
func acquireSearchState(n int) *searchState {
	s := statePool.Get().(*searchState)
	s.grow(n)
	s.heap.Clear()
	s.repair.Clear()
	s.visited = s.visited[:0]
	s.tBest = math.Inf(1)
	s.vmin = -1
	return s
}

// release returns the state to the pool; acquireSearchState clears it
// for the next owner.
func (s *searchState) release() { statePool.Put(s) }

func (s *searchState) grow(n int) {
	for len(s.alpha) < n {
		s.alpha = append(s.alpha, 0)
		s.prev = append(s.prev, 0)
		s.prevLen = append(s.prevLen, 0)
		s.seenAt = append(s.seenAt, 0)
		s.doneAt = append(s.doneAt, 0)
	}
}

func (s *searchState) seen(v NodeID) bool { return s.seenAt[v] == s.epoch }
func (s *searchState) done(v NodeID) bool { return s.doneAt[v] == s.epoch }

// BeginIteration starts a fresh shortest-path search for the current
// residual graph: the frontier is seeded with every non-full provider at
// α(q) = w(s,q) = q.τ − s.τ.
func (g *Graph) BeginIteration() {
	s := g.search
	s.epoch++
	s.grow(len(g.providers) + len(g.customers))
	s.heap.Clear()
	s.repair.Clear()
	s.visited = s.visited[:0]
	s.tBest = math.Inf(1)
	s.vmin = -1
	g.stats.Dijkstras++
	for q := range g.providers {
		if g.ProviderFull(int32(q)) {
			continue
		}
		v := NodeID(q)
		a := g.tau[v] - g.sTau
		if a < 0 {
			a = 0 // guard against float drift; theory keeps this >= 0
		}
		s.alpha[v] = a
		s.prev[v] = sourceNode
		s.seenAt[v] = s.epoch
		s.heap.Push(v, a)
	}
}

// Search continues the current iteration's Dijkstra until the sink's
// shortest path is finalized. It returns the terminal customer node vmin
// and the path cost (vmin.α in the paper's terms). ok is false when the
// sink is unreachable in the current Esub.
func (g *Graph) Search() (vmin NodeID, cost float64, ok bool) {
	s := g.search
	for s.heap.Len() > 0 {
		if s.heap.Peek().Key >= s.tBest {
			break
		}
		v := s.heap.Pop().H
		s.doneAt[v] = s.epoch
		s.visited = append(s.visited, v)
		g.stats.Pops++
		if g.isCustomerNode(v) {
			c := g.custIdx(v)
			if !g.CustomerFull(c) {
				// Zero-cost edge to the sink: this path ends here, and no
				// other node at key >= α(v) can improve on it.
				s.tBest = s.alpha[v]
				s.vmin = v
				continue
			}
			g.relaxCustomer(c)
		} else {
			g.lastAlpha[v] = s.alpha[v]
			g.relaxProvider(int32(v))
		}
		// A relaxation may have improved an already-finalized node (this
		// happens in resumed searches after mid-iteration edge inserts);
		// propagate such improvements before the next pop.
		if s.repair.Len() > 0 {
			g.drainRepair()
		}
	}
	if s.vmin < 0 {
		return -1, math.Inf(1), false
	}
	return s.vmin, s.tBest, true
}

// relaxProvider relaxes every forward residual edge out of provider q.
func (g *Graph) relaxProvider(q int32) {
	s := g.search
	base := s.alpha[q] - g.tau[q]
	if g.complete {
		for c := range g.customers {
			c32 := int32(c)
			if g.forwardSaturated(c32, q) {
				continue
			}
			node := g.customerNode(c32)
			d := g.dist(q, c32)
			g.relax(node, base+d+g.tau[node], NodeID(q), d)
		}
		return
	}
	for _, he := range g.adj[q] {
		if g.forwardSaturated(he.cust, q) {
			continue
		}
		node := g.customerNode(he.cust)
		g.relax(node, base+he.dist+g.tau[node], NodeID(q), he.dist)
	}
}

// relaxCustomer relaxes the reversed residual edges out of customer c
// (one per provider c is assigned to).
func (g *Graph) relaxCustomer(c int32) {
	s := g.search
	node := g.customerNode(c)
	base := s.alpha[node] - g.tau[node]
	for _, a := range g.assigned[c] {
		// Reversed edge cost: −dist − τ(p) + τ(q).
		g.relax(NodeID(a.q), base-a.dist+g.tau[a.q], node, a.dist)
	}
}

// relax offers node v a path of cost nd via from over a pair edge of
// the given length.
func (g *Graph) relax(v NodeID, nd float64, from NodeID, length float64) {
	g.stats.Relaxations++
	g.offer(v, nd, from, length)
}

// InsertEdgeAndRepair adds edge (q,c) of length d (see AddEdge) to Esub
// mid-iteration and repairs the current search state with the Path
// Update Algorithm (§3.4.1) instead of restarting Dijkstra. Call Search
// afterwards to resume.
func (g *Graph) InsertEdgeAndRepair(q, c int32, d float64) {
	g.AddEdge(q, c, d)
	s := g.search
	g.stats.Resumes++
	if !s.seen(NodeID(q)) {
		// q unreached so far: the new edge cannot shorten anything yet;
		// it will be relaxed if/when q is popped.
		return
	}
	// Offer the new edge. If q is still on the frontier this is a plain
	// relaxation (q's out-edges are relaxed again when popped); if q is
	// finalized, the improvement ripples through the settled region.
	node := g.customerNode(c)
	g.offer(node, s.alpha[q]-g.tau[q]+d+g.tau[node], NodeID(q), d)
	g.drainRepair()
}

// improveEps is the minimum improvement a relaxation must achieve to be
// applied. When per-pair capacity exceeds 1, the forward and reversed
// residual edges of a partially-assigned pair coexist with reduced costs
// that sum to zero in exact arithmetic; floating-point rounding can make
// that sum infinitesimally negative, and without this guard the prev
// pointers could form a 2-cycle of "improvements" that never terminates.
const improveEps = 1e-12

// offer is PUA's relaxation: like relax, but improvements to finalized
// nodes are queued on the repair heap Hf so they propagate onward.
func (g *Graph) offer(v NodeID, nd float64, from NodeID, length float64) {
	s := g.search
	if s.seen(v) && nd >= s.alpha[v]-improveEps {
		return
	}
	s.alpha[v] = nd
	s.prev[v] = from
	s.prevLen[v] = length
	s.seenAt[v] = s.epoch
	if s.done(v) {
		// Finalized node improved: update tBest if it is a terminal, and
		// schedule re-relaxation of its out-edges.
		if g.isCustomerNode(v) && !g.CustomerFull(g.custIdx(v)) && nd < s.tBest {
			s.tBest = nd
			s.vmin = v
		}
		if s.repair.Contains(v) {
			s.repair.Update(v, nd)
		} else {
			s.repair.Push(v, nd)
		}
		return
	}
	// Frontier (or fresh) node: update Hd.
	if s.heap.Contains(v) {
		s.heap.Update(v, nd)
	} else {
		s.heap.Push(v, nd)
	}
}

// drainRepair propagates PUA improvements in ascending α order until the
// settled region is consistent again.
func (g *Graph) drainRepair() {
	s := g.search
	for s.repair.Len() > 0 {
		v := s.repair.Pop().H
		g.stats.Repairs++
		if g.isCustomerNode(v) {
			c := g.custIdx(v)
			if g.CustomerFull(c) {
				node := g.customerNode(c)
				base := s.alpha[node] - g.tau[node]
				for _, a := range g.assigned[c] {
					g.offer(NodeID(a.q), base-a.dist+g.tau[a.q], node, a.dist)
				}
			}
			continue
		}
		q := int32(v)
		g.lastAlpha[q] = s.alpha[v]
		base := s.alpha[v] - g.tau[v]
		for _, he := range g.adj[q] {
			if g.forwardSaturated(he.cust, q) {
				continue
			}
			node := g.customerNode(he.cust)
			g.offer(node, base+he.dist+g.tau[node], NodeID(q), he.dist)
		}
	}
}

// ErrNoPath is returned by Augment when no shortest path was found.
var ErrNoPath = errors.New("flowgraph: no augmenting path to apply")

// Augment applies the shortest path found by Search: the path's edges are
// reversed (assignments flipped) and the potentials of all visited nodes
// are updated by τ(v) += sp.cost − α(v), exactly as SSPA does (Algorithm
// 1, Lines 4–11).
func (g *Graph) Augment() error {
	s := g.search
	if s.vmin < 0 {
		return ErrNoPath
	}
	// Flip the path from vmin back to the source. The walk is bounded by
	// the node count: Dijkstra paths are simple, so exceeding it means
	// the prev pointers were corrupted (made impossible by improveEps,
	// but guarded against regression).
	v := s.vmin
	maxSteps := len(g.providers) + len(g.customers) + 1
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return fmt.Errorf("flowgraph: augmenting path exceeds %d nodes (prev cycle)", maxSteps)
		}
		u := s.prev[v]
		if u == sourceNode {
			g.provUsed[v]++
			break
		}
		if g.isCustomerNode(v) {
			g.assign(g.custIdx(v), int32(u), s.prevLen[v])
		} else {
			c := g.custIdx(u)
			if err := g.unassign(c, int32(v)); err != nil {
				return err
			}
		}
		v = u
	}
	g.custUsed[g.custIdx(s.vmin)]++

	// Potential update for visited nodes (the paper's Lines 8-9); nodes
	// finalized above the final sp cost keep their potential, matching
	// the min(α, cost) form that preserves non-negative reduced costs.
	for _, v := range s.visited {
		if delta := s.tBest - s.alpha[v]; delta > 0 {
			g.tau[v] += delta
		}
	}
	g.sTau += s.tBest
	// Recompute τmax over providers (Line 10).
	g.tauMax = 0
	for q := range g.providers {
		if g.tau[q] > g.tauMax {
			g.tauMax = g.tau[q]
		}
	}
	return nil
}

// CheckReducedCosts verifies that every residual edge has non-negative
// reduced cost under the current potentials — the invariant Dijkstra
// correctness rests on: the edges into and out of s and t, and every
// pair edge in both directions, which in the complete mode means every
// (q, p) pair. Test helper; tol absorbs float drift.
func (g *Graph) CheckReducedCosts(tol float64) error {
	for q := range g.providers {
		q32 := int32(q)
		if w := g.tau[q] - g.sTau; !g.ProviderFull(q32) && w < -tol {
			return fmt.Errorf("edge s->q%d has reduced cost %g", q, w)
		}
		if w := g.sTau - g.tau[q]; g.provUsed[q] > 0 && w < -tol {
			return fmt.Errorf("edge q%d->s has reduced cost %g", q, w)
		}
		pair := func(c int32, d float64) error {
			node := g.customerNode(c)
			if w := -d - g.tau[node] + g.tau[q]; g.instanceCount(c, q32) > 0 && w < -tol {
				return fmt.Errorf("edge p%d->q%d has reduced cost %g", c, q, w)
			}
			if w := d - g.tau[q] + g.tau[node]; !g.forwardSaturated(c, q32) && w < -tol {
				return fmt.Errorf("edge q%d->p%d has reduced cost %g", q, c, w)
			}
			return nil
		}
		if g.complete {
			for c := range g.customers {
				if err := pair(int32(c), g.dist(q32, int32(c))); err != nil {
					return err
				}
			}
			continue
		}
		for _, he := range g.adj[q] {
			if err := pair(he.cust, he.dist); err != nil {
				return err
			}
		}
	}
	for c := range g.customers {
		node := g.customerNode(int32(c))
		if w := g.tTau - g.tau[node]; !g.CustomerFull(int32(c)) && w < -tol {
			return fmt.Errorf("edge p%d->t has reduced cost %g", c, w)
		}
		if w := g.tau[node] - g.tTau; g.custUsed[c] > 0 && w < -tol {
			return fmt.Errorf("edge t->p%d has reduced cost %g", c, w)
		}
	}
	return nil
}
