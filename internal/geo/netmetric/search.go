package netmetric

import (
	"math"
	"sync"

	"repro/internal/pqueue"
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
// plus a lazy flat heap (no per-push allocation). A warm point query
// allocates nothing (asserted by TestAllocsPointQuery).
type searchScratch struct {
	epoch  int64
	dist   []float64
	seenAt []int64
	heap   pqueue.Heap
}

var searchPool = sync.Pool{New: func() any { return &searchScratch{} }}

func (s *searchScratch) reset(n int) {
	s.epoch++
	for len(s.dist) < n {
		s.dist = append(s.dist, 0)
		s.seenAt = append(s.seenAt, 0)
	}
	s.heap.Clear()
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
	s.heap.Push(src, 0)
	for s.heap.Len() > 0 {
		e := s.heap.Pop()
		if e.Key > s.dist[e.H] {
			continue // stale entry from lazy decrease-key
		}
		if e.H == dst {
			return e.Key
		}
		for _, a := range m.adj[e.H] {
			if nd := e.Key + a.length; nd < s.label(a.to) {
				s.improve(a.to, nd)
				s.heap.Push(a.to, nd)
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
// (table.go) advance it on demand.
//
// order records the nodes in the order the sweep settled them, so
// their labels are non-decreasing along it (every push adds a
// non-negative length to the key just popped): the network
// nearest-neighbour stream (nn.go) walks it to expand outward from a
// row's source.
type sweep struct {
	dist  []float64
	heap  pqueue.Heap
	order []int32 // settled nodes, in settle order
}

// start resets s to a fresh sweep from src over n nodes, reusing its
// label, heap and settle-order storage: only src is labelled and on the
// frontier. Storage sized for a network more than twice as large is
// dropped instead, so a pooled row from a large network never pins its
// vectors in a small network's table.
func (s *sweep) start(src int32, n int) {
	if cap(s.dist) < n || cap(s.dist) > 2*n {
		*s = sweep{dist: make([]float64, n)}
	}
	s.dist = s.dist[:n]
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
	}
	s.heap.Clear()
	s.order = s.order[:0]
	s.dist[src] = 0
	s.heap.Push(src, 0)
}

// settle advances s until v's label is final, or to completion when
// v < 0.
func (m *NetworkMetric) settle(s *sweep, v int32) {
	for s.heap.Len() > 0 {
		if v >= 0 && s.dist[v] <= s.heap.Peek().Key {
			return
		}
		m.pop(s)
	}
}

// step advances s by one settled node; it returns false once the sweep
// is complete.
func (m *NetworkMetric) step(s *sweep) bool {
	for s.heap.Len() > 0 {
		if m.pop(s) {
			return true
		}
	}
	return false
}

// pop takes s's smallest frontier entry and, unless it is stale,
// settles its node and relaxes the node's arcs. It reports whether a
// node was settled.
func (m *NetworkMetric) pop(s *sweep) bool {
	e := s.heap.Pop()
	if e.Key > s.dist[e.H] {
		return false // stale entry from lazy decrease-key
	}
	s.order = append(s.order, e.H)
	for _, a := range m.adj[e.H] {
		if nd := e.Key + a.length; nd < s.dist[a.to] {
			s.dist[a.to] = nd
			s.heap.Push(a.to, nd)
		}
	}
	return true
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
// bridges) ends up in s.dist. The table tests and fuzzers check rows
// against it.
func (m *NetworkMetric) sssp(s *sweep, src int32) {
	s.start(src, len(m.nodes))
	m.settle(s, -1)
}
