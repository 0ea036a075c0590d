package netmetric

import (
	"math"
	"sync"
)

// Canonical float semantics. Every shortest-path computation in this
// package — the plain forward Dijkstra below, the contraction-hierarchy
// point query (ch.go) and the bulk single-source sweeps behind tables
// (table.go) — returns the *same* float64 for a node pair: the minimum
// over all src→dst paths of the left-associated float sum of edge
// lengths (the fixed point of forward relaxation from src). That value
// is well defined in float arithmetic because float addition of a
// non-negative length is monotone (x+l >= x), so Dijkstra's settle
// order cannot change it. Pinning one canonical semantics is what lets
// the conformance suite assert byte-identical solves whether distances
// come from plain Dijkstra, the hierarchy, or a table row —
// they would otherwise differ in the last ulps (float addition is not
// associative, so e.g. a bidirectional search, which adds a forward and
// a backward partial, rounds differently).

// searchScratch is the pooled label state of one single-sided search:
// distance labels epoch-stamped so reuse pays no O(V) re-initialization,
// plus a flat nheap (no per-push allocation). A warm point query
// allocates nothing (asserted by TestAllocsPointQuery).
type searchScratch struct {
	epoch  int64
	dist   []float64
	seenAt []int64
	heap   nheap
}

var searchPool = sync.Pool{New: func() any { return &searchScratch{} }}

func (s *searchScratch) reset(n int) {
	s.epoch++
	for len(s.dist) < n {
		s.dist = append(s.dist, 0)
		s.seenAt = append(s.seenAt, 0)
	}
	s.heap.clear()
}

func (s *searchScratch) label(v int32) float64 {
	if s.seenAt[v] == s.epoch {
		return s.dist[v]
	}
	return math.Inf(1)
}

func (s *searchScratch) improve(v int32, d float64) {
	s.dist[v] = d
	s.seenAt[v] = s.epoch
}

// forwardDijkstra returns the canonical src→dst distance with plain
// forward Dijkstra: the reference point query, which SetCH(0) selects
// and the hierarchy query falls back to on near-ties. The early exit at
// dst's settle is exact, not heuristic: every later relaxation starts
// from a label >= dist[dst] and adds a non-negative length, so no
// improvement can follow.
func (m *NetworkMetric) forwardDijkstra(src, dst int32) float64 {
	s := searchPool.Get().(*searchScratch)
	defer searchPool.Put(s)
	s.reset(len(m.nodes))

	s.improve(src, 0)
	s.heap.push(0, src)
	for !s.heap.empty() {
		e := s.heap.pop()
		if e.key > s.dist[e.v] {
			continue // stale entry from lazy decrease-key
		}
		if e.v == dst {
			return e.key
		}
		for _, a := range m.adj[e.v] {
			if nd := e.key + a.length; nd < s.label(a.to) {
				s.improve(a.to, nd)
				s.heap.push(nd, a.to)
			}
		}
	}
	return math.Inf(1) // unreachable: bridges keep the graph connected
}

// sweep is one single-source Dijkstra that can be suspended and
// resumed: its label vector plus its heap frontier. Advancing it pops
// and relaxes exactly as a run-to-completion Dijkstra would, only
// paused between pops, so every label it finalizes is the canonical
// forward value. A label at or below the frontier's smallest key is
// final — stale entries included — because every later relaxation
// starts from a popped key >= that minimum and adds a non-negative
// length. This is the package's one bulk relax loop: table rows
// (table.go) advance it on demand, landmark vectors run it to the end.
type sweep struct {
	dist    []float64
	heap    nheap
	settled int // labels finalized by a pop
}

// start resets s to a fresh sweep from src over n nodes, reusing its
// label and heap storage: only src is labelled and on the frontier.
func (s *sweep) start(src int32, n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
	}
	s.dist = s.dist[:n]
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
	}
	s.heap.clear()
	s.settled = 0
	s.dist[src] = 0
	s.heap.push(0, src)
}

// settle advances s until v's label is final, or to completion when
// v < 0.
func (m *NetworkMetric) settle(s *sweep, v int32) {
	for !s.heap.empty() {
		if v >= 0 && s.dist[v] <= s.heap.top().key {
			return
		}
		e := s.heap.pop()
		if e.key > s.dist[e.v] {
			continue // stale entry from lazy decrease-key
		}
		s.settled++
		for _, a := range m.adj[e.v] {
			if nd := e.key + a.length; nd < s.dist[a.to] {
				s.dist[a.to] = nd
				s.heap.push(nd, a.to)
			}
		}
	}
}

// labels settles both of a snap edge's endpoints on s and returns
// their final labels.
func (m *NetworkMetric) labels(s *sweep, e [2]int32) [2]float64 {
	m.settle(s, e[0])
	m.settle(s, e[1])
	return [2]float64{s.dist[e[0]], s.dist[e[1]]}
}

// sssp runs a fresh sweep from src to completion: the canonical
// single-source vector over the full routing graph (real edges plus
// bridges) ends up in s.dist.
func (m *NetworkMetric) sssp(s *sweep, src int32) {
	s.start(src, len(m.nodes))
	m.settle(s, -1)
}
