package netmetric

// Contraction-hierarchy point queries.
//
// A plain bidirectional CH search sums a forward and a backward partial
// and so diverges from the canonical forward-relaxation float contract
// (search.go) in the last ulps, like any bidirectional search. chDist
// therefore uses the up/down meet only to *identify* the shortest
// path: it unpacks the winning up-down path's shortcuts down to
// original network edges and re-evaluates that edge sequence as a
// left-associated forward sum from src — the canonical value itself.
// Whenever path identification is ambiguous — a competing meet or a
// relaxation tie within chSlack — it falls back to forwardDijkstra
// instead of guessing. On the jittered synthetic networks ambiguity is
// vanishingly rare (CHStats measures it), so the fast path dominates;
// on adversarial tie-heavy graphs CH degrades to plain Dijkstra but
// never to a wrong byte (FuzzCHMatchesDijkstra and the backend
// conformance suite pin this).

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// DefaultCHMinNodes is the network size at which automatic mode turns
// the hierarchy on; smaller networks answer point queries with plain
// forward Dijkstra. At 1,024 nodes a cold Dijkstra point query costs
// ~50µs against 5–8µs for a cold hierarchy query (under 1.5µs warm),
// so a one-off ~20ms contraction pays for itself within a few hundred
// cold queries. Below that the saving per query shrinks with the grid
// while the contraction still costs milliseconds. Table sweeps never
// touch the hierarchy, so only point-query traffic pays for it.
const DefaultCHMinNodes = 1024

// chSlack is the ambiguity margin of the hierarchy query: when the
// second-best meet (or any relaxation tie) is within this margin of
// the winner, the shortest *path* is not unambiguously identified and
// chDist falls back to forwardDijkstra. The margin is vastly above any
// rounding error accumulated at the workloads' coordinate scale, and
// vanishingly small against real distances.
const chSlack = 1e-6

// chState is the frozen hierarchy: contraction ranks plus the upward
// arc CSR (each node's arcs lead to higher-ranked nodes only).
// Immutable after buildCH; shared without locks.
type chState struct {
	rank   []int32 // node → contraction order (0 = contracted first)
	byRank []int32 // contraction order → node

	upOff  []int32 // CSR offsets into the arc arrays, len n+1
	upFrom []int32
	upTo   []int32
	upLen  []float64
	upMid  []int32 // −1 = original edge, else the bypassed middle node

	// exp memoizes each shortcut arc's expansion: the original-edge
	// lengths of the path it represents, in from→to order (nil for
	// original edges — their length is upLen[g] itself). Built by one
	// DP pass in buildCH; nil as a whole when the total size exceeded
	// chExpBudget, in which case queries expand recursively.
	exp [][]float64

	shortcuts int // shortcut arcs (upMid >= 0)
}

// findUpArc returns the index of owner's upward arc to target. The
// core graph dedupes parallel edges, so the answer is unique; a miss
// is a construction bug, not an input condition.
func (ch *chState) findUpArc(owner, target int32) int32 {
	for g := ch.upOff[owner]; g < ch.upOff[owner+1]; g++ {
		if ch.upTo[g] == target {
			return g
		}
	}
	panic("netmetric: hierarchy unpack: missing middle arc")
}

// ParseCHMode maps a command-line value to a SetCH mode: "auto" (or
// empty) is -1, "off" is 0 and "on" is 1, case-insensitively.
func ParseCHMode(s string) (int, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return -1, nil
	case "off":
		return 0, nil
	case "on":
		return 1, nil
	}
	return 0, fmt.Errorf("must be auto, off, or on (got %q)", s)
}

// SetCH configures the contraction-hierarchy backend: v > 0 forces it
// on, v == 0 disables it, v < 0 restores automatic mode (on for
// networks of at least DefaultCHMinNodes nodes). Like SetCacheCapacity
// it must run during setup, before the metric is shared across
// goroutines: it drops any built hierarchy without synchronization.
func (m *NetworkMetric) SetCH(v int) {
	switch {
	case v < 0:
		v = -1
	case v > 0:
		v = 1
	}
	m.chMode = v
	m.chOnce = new(sync.Once)
	m.ch = nil
	// Cached cones index arcs of the dropped hierarchy; drop them too.
	m.chLabelMu.Lock()
	m.chLabels = nil
	m.chLabelN = 0
	m.chLabelMu.Unlock()
}

// CH reports whether hierarchy queries are enabled under the current
// mode and network size. It does not trigger the build.
func (m *NetworkMetric) CH() bool {
	return m.chMode > 0 || (m.chMode < 0 && len(m.nodes) >= DefaultCHMinNodes)
}

// CHStats returns the hierarchy query counters: total point queries
// answered by chDist and how many of them fell back to forwardDijkstra
// because path identification was ambiguous. The fallback fraction is
// the price of exactness; tests pin it near zero on jittered networks.
func (m *NetworkMetric) CHStats() (queries, fallbacks uint64) {
	return m.chQueries.Load(), m.chFallbacks.Load()
}

// hierarchy returns the lazily built contraction hierarchy, or nil
// when disabled. Concurrent first callers block on one sync.Once, so
// a shared metric pays the contraction exactly once.
func (m *NetworkMetric) hierarchy() *chState {
	if !m.CH() {
		return nil
	}
	m.chOnce.Do(func() { m.ch = m.buildCH() })
	return m.ch
}

// unpackFrame is one pending arc expansion: arc g traversed from→to,
// or to→from when rev.
type unpackFrame struct {
	g   int32
	rev bool
}

// chLabelBudget caps the total entries the cone (hub-label) cache may
// hold across all nodes — 1<<22 entries ≈ 64 MB, the same ceiling
// DefaultTableBudget puts on distance tables. When an insert would
// exceed it the whole cache is dropped and regrows from the current
// working set — a generation reset, not an LRU, because cones are tiny
// and rebuilt in ~100µs.
var chLabelBudget = 1 << 22

// chExpBudget caps the total floats the expansion memo (chState.exp)
// may hold — 1<<23 ≈ 64 MB. Grids stay far below it (total expansion
// size grows like arcs × average span, ~1M floats at 128×128); the
// guard exists for adversarial inputs. A var so tests can force the
// recursive-unpack path.
var chExpBudget = 1 << 23

// chCone is one node's hub label: its full upward search space (every
// node reachable over upward arcs), sorted by node id, with the
// canonical up-distance and the parent arc of each entry. tie records
// whether any relaxation during the build landed within chSlack of an
// existing label, making parent choice float-determined; queries
// touching a tied cone fall back. Immutable once built; shared without
// locks.
type chCone struct {
	nodes  []int32
	dist   []float64
	par    []int32 // parent up-arc id; −1 at the cone's source
	parIdx []int32 // the parent's own index in nodes; −1 at the source
	tie    bool
}

// chScratch is the pooled working state of one cone build plus the
// query-side unpack buffers, epoch-stamped like searchScratch so a
// build pays no O(V) re-initialization. A warm query allocates nothing
// (asserted by TestAllocsCHPointQuery).
type chScratch struct {
	epoch   int64
	dist    []float64
	seen    []int64
	par     []int32
	pos     []int32 // node id -> index in the sorted touched set
	ranked  []int64 // (rank<<32 | id) keys: one Sort orders topologically
	touched []int32
	chain   []int32
	stack   []unpackFrame
	lens    []float64

	// Scattered copy of the last query's source cone, dense by node id.
	// Solver workloads query one provider against thousands of
	// customers in runs, so consecutive queries usually reuse the
	// scatter and pay only one scan of the destination cone. srcCone
	// (the cached cone's identity) guards staleness: a different
	// source, metric, or hierarchy generation yields a different cone
	// pointer and forces a re-scatter.
	srcCone  *chCone // scattered cone, or nil
	lastCone *chCone // previous query's source cone (scatter trigger)
	srcEpoch int32
	scatter  []chScatterEntry
}

// chScatterEntry is one slot of the dense scattered-cone index: a
// single 16-byte struct so each probe during the scan touches one
// cache line instead of three parallel arrays.
type chScatterEntry struct {
	seen int32 // epoch stamp
	idx  int32 // entry's index in the scattered cone
	dist float64
}

var chPool = sync.Pool{New: func() any { return &chScratch{} }}

func (s *chScratch) reset(n int) {
	s.epoch++
	for len(s.dist) < n {
		s.dist = append(s.dist, 0)
		s.seen = append(s.seen, 0)
		s.par = append(s.par, 0)
		s.pos = append(s.pos, 0)
	}
}

// cone returns v's hub label, building and caching it on first use.
// Cones are deterministic functions of the frozen hierarchy, so a
// racing double build stores one winner and both callers see identical
// bytes either way.
func (m *NetworkMetric) cone(ch *chState, v int32) *chCone {
	m.chLabelMu.RLock()
	c := m.chLabels[v]
	m.chLabelMu.RUnlock()
	if c != nil {
		return c
	}
	c = m.buildCone(ch, v)
	m.chLabelMu.Lock()
	if ex := m.chLabels[v]; ex != nil {
		c = ex
	} else {
		if m.chLabels == nil {
			m.chLabels = make(map[int32]*chCone)
		}
		if m.chLabelN+len(c.nodes) > chLabelBudget {
			clear(m.chLabels)
			m.chLabelN = 0
		}
		m.chLabels[v] = c
		m.chLabelN += len(c.nodes)
	}
	m.chLabelMu.Unlock()
	return c
}

// buildCone computes the exhaustive upward shortest-path labels from
// src and freezes the reached set into a node-id-sorted label. The
// upward graph is a DAG — every arc goes strictly rank-up — so instead
// of a Dijkstra the build enumerates membership with a plain FIFO
// sweep and relaxes in contraction-rank (topological) order: each
// node's label is final before its out-arcs fire, no heap anywhere.
// The label values are byte-identical to what the Dijkstra computed —
// each is the float min over the same candidate set (final in-neighbor
// label + arc length) — only the visit order changes. Any relaxation
// landing within chSlack of an existing label makes the parent choice
// float-determined rather than path-determined, so it taints the whole
// cone and every query through it falls back.
func (m *NetworkMetric) buildCone(ch *chState, src int32) *chCone {
	s := chPool.Get().(*chScratch)
	defer chPool.Put(s)
	s.reset(len(m.nodes))
	s.touched = s.touched[:0]
	tie := false
	s.seen[src] = s.epoch
	s.dist[src] = 0
	s.par[src] = -1
	s.touched = append(s.touched, src)
	byRank := s.ranked[:0]
	byRank = append(byRank, int64(ch.rank[src])<<32|int64(src))
	for qi := 0; qi < len(s.touched); qi++ {
		v := s.touched[qi]
		for g := ch.upOff[v]; g < ch.upOff[v+1]; g++ {
			if to := ch.upTo[g]; s.seen[to] != s.epoch {
				s.seen[to] = s.epoch
				s.dist[to] = math.Inf(1)
				s.par[to] = -1
				s.touched = append(s.touched, to)
				byRank = append(byRank, int64(ch.rank[to])<<32|int64(to))
			}
		}
	}
	s.ranked = byRank
	slices.Sort(byRank) // rank is the high word: ascending = topological
	for _, rv := range byRank {
		v := int32(rv & 0xffffffff)
		dv := s.dist[v]
		for g := ch.upOff[v]; g < ch.upOff[v+1]; g++ {
			to := ch.upTo[g]
			nd := dv + ch.upLen[g]
			if d := nd - s.dist[to]; d < chSlack && d > -chSlack {
				tie = true
			}
			if nd < s.dist[to] {
				s.dist[to] = nd
				s.par[to] = g
			}
		}
	}
	slices.Sort(s.touched)
	c := &chCone{
		nodes:  append([]int32(nil), s.touched...),
		dist:   make([]float64, len(s.touched)),
		par:    make([]int32, len(s.touched)),
		parIdx: make([]int32, len(s.touched)),
		tie:    tie,
	}
	// Invert the sorted membership once so parent links resolve by
	// array lookup; cone membership is closed under parents, so the
	// lookup cannot miss, and freezing the index here keeps the
	// query's chain walk free of searches.
	for i, v := range c.nodes {
		s.pos[v] = int32(i)
	}
	for i, v := range c.nodes {
		c.dist[i] = s.dist[v]
		c.par[i] = s.par[v]
		if g := s.par[v]; g >= 0 {
			c.parIdx[i] = s.pos[ch.upFrom[g]]
		} else {
			c.parIdx[i] = -1
		}
	}
	return c
}

// chDist returns the canonical src→dst distance through the hierarchy.
// Both endpoints' cached cones are merge-intersected (both are sorted
// by node id), tracking the best and second-best meet over the common
// nodes — the complete meet set of the classic exhaustive up/up CH
// query, because a shortest up-down path meets at a node present in
// both cones. The winning meet's two parent chains are unpacked through
// the shortcut middles down to original edges and re-summed
// left-associated from a — the canonical value. Ambiguity (a competing
// meet within chSlack of the winner, or a relaxation tie recorded in
// either cone) falls back to forwardDijkstra.
func (m *NetworkMetric) chDist(ch *chState, a, b int32) float64 {
	if a == b {
		return 0
	}
	m.chQueries.Add(1)
	ca := m.cone(ch, a)
	cb := m.cone(ch, b)

	s := chPool.Get().(*chScratch)
	defer chPool.Put(s)
	best, second := math.Inf(1), math.Inf(1)
	meetI, meetJ := -1, -1
	an, bn := ca.nodes, cb.nodes
	if s.srcCone == ca || s.lastCone == ca {
		// Source-run fast path: solver workloads query one provider
		// against thousands of customers in a row, so the second
		// consecutive query from the same source scatters its cone into
		// dense-by-node-id arrays and every query in the run is a single
		// scan of the destination cone. Common nodes are visited in the
		// same ascending-id order the merge below produces, so
		// best/second/meet land on identical values. The scattered cone
		// stays referenced by the scratch, so its address cannot be
		// recycled and the pointer comparison cannot alias a stale
		// scatter.
		if s.srcCone != ca {
			for len(s.scatter) < len(m.nodes) {
				s.scatter = append(s.scatter, chScatterEntry{})
			}
			if s.srcEpoch++; s.srcEpoch == 0 {
				// int32 epoch wrapped: clear every stale stamp once.
				for i := range s.scatter {
					s.scatter[i].seen = 0
				}
				s.srcEpoch = 1
			}
			for i, v := range an {
				s.scatter[v] = chScatterEntry{seen: s.srcEpoch, idx: int32(i), dist: ca.dist[i]}
			}
			s.srcCone = ca
		}
		for j, v := range bn {
			e := &s.scatter[v]
			if e.seen != s.srcEpoch {
				continue
			}
			if t := e.dist + cb.dist[j]; t < best {
				second, best, meetI, meetJ = best, t, int(e.idx), j
			} else if t < second {
				second = t
			}
		}
	} else {
		// Run-based merge: each inner loop skims a run of one side
		// until it catches up with the other, which the branch
		// predictor handles far better than element-by-element
		// alternation.
		s.lastCone = ca
		i, j := 0, 0
	merge:
		for i < len(an) && j < len(bn) {
			x := an[i]
			for bn[j] < x {
				if j++; j == len(bn) {
					break merge
				}
			}
			if bn[j] == x {
				if t := ca.dist[i] + cb.dist[j]; t < best {
					second, best, meetI, meetJ = best, t, i, j
				} else if t < second {
					second = t
				}
				i++
				j++
				continue
			}
			y := bn[j]
			for i < len(an) && an[i] < y {
				i++
			}
		}
	}

	if meetI < 0 || ca.tie || cb.tie || second < best+chSlack {
		m.chFallbacks.Add(1)
		return m.forwardDijkstra(a, b)
	}

	// Unpack a→meet (parent chain walks meet→a, so expand in reverse)
	// then meet→b (chain order is already path order; arcs reversed).
	// With the expansion memo the sum accumulates straight off each
	// arc's length sequence — same sequence, same left-association,
	// same bytes as the recursive path below.
	s.chain = s.chain[:0]
	for k := meetI; ca.par[k] >= 0; k = int(ca.parIdx[k]) {
		s.chain = append(s.chain, ca.par[k])
	}
	d := 0.0
	if ch.exp != nil {
		for i := len(s.chain) - 1; i >= 0; i-- {
			g := s.chain[i]
			if e := ch.exp[g]; e != nil {
				for _, l := range e {
					d += l
				}
			} else {
				d += ch.upLen[g]
			}
		}
		for k := meetJ; cb.par[k] >= 0; k = int(cb.parIdx[k]) {
			g := cb.par[k]
			if e := ch.exp[g]; e != nil {
				for i := len(e) - 1; i >= 0; i-- {
					d += e[i]
				}
			} else {
				d += ch.upLen[g]
			}
		}
		return d
	}
	s.lens = s.lens[:0]
	for i := len(s.chain) - 1; i >= 0; i-- {
		s.lens = ch.expand(s.chain[i], false, s.lens, &s.stack)
	}
	for k := meetJ; cb.par[k] >= 0; k = int(cb.parIdx[k]) {
		s.lens = ch.expand(cb.par[k], true, s.lens, &s.stack)
	}
	for _, l := range s.lens {
		d += l
	}
	return d
}

// expand appends the original-edge lengths of the path arc g
// represents, in traversal order (from→to, or to→from when rev).
// Shortcuts recurse through the middle node's up-arc block with an
// explicit stack; the second segment is pushed first so pops emit the
// path in order.
func (ch *chState) expand(g int32, rev bool, lens []float64, stack *[]unpackFrame) []float64 {
	st := append((*stack)[:0], unpackFrame{g: g, rev: rev})
	for len(st) > 0 {
		f := st[len(st)-1]
		st = st[:len(st)-1]
		mid := ch.upMid[f.g]
		if mid < 0 {
			lens = append(lens, ch.upLen[f.g])
			continue
		}
		u, w := ch.upFrom[f.g], ch.upTo[f.g]
		if f.rev {
			u, w = w, u
		}
		st = append(st,
			unpackFrame{g: ch.findUpArc(mid, w), rev: false},
			unpackFrame{g: ch.findUpArc(mid, u), rev: true})
	}
	*stack = st
	return lens
}
