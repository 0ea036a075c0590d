package netmetric

// Offline contraction ordering for the hierarchy backend (ch.go):
// nodes are contracted one at a time in a lazy-update priority order
// (edge difference + contracted-neighbor count), inserting shortcut
// edges whenever removing a node would disconnect a shortest path that
// no witness path replaces. Each contracted node's surviving adjacency
// becomes its upward-arc block in the final CSR hierarchy; targets are
// all higher-ranked by construction, because every remaining neighbor
// is contracted later.
//
// Exactness stance: the witness search is *conservative*. A candidate
// shortcut is skipped only when a witness path beats it by at least
// chWitnessEps — far above any float rounding error, well below the
// query-time ambiguity slack (chSlack). Near-tied alternatives
// therefore stay representable in the hierarchy, surface at query time
// as competing meets, and trigger the forwardDijkstra fallback instead
// of a silently wrong unpack. Budget exhaustion also adds the shortcut:
// extra shortcuts cost memory, never correctness.

import (
	"cmp"
	"slices"
)

const (
	// chWitnessEps is the margin a witness path must win by before a
	// candidate shortcut is dropped. Strictly conservative: the true
	// witness length can exceed the float label by ulps only, so a
	// dropped shortcut always has a strictly shorter path around it.
	chWitnessEps = 1e-7
	// chWitnessBudget caps the nodes one witness search settles when a
	// contraction actually applies; chPriorityBudget is the cheaper cap
	// used inside priority estimation, which runs an order of magnitude
	// more often and only needs a rough shortcut count. Giving up early
	// just adds a shortcut (or overestimates a priority) — never a
	// wrong distance.
	chWitnessBudget  = 512
	chPriorityBudget = 24
	// Hop caps for the same two settings: in the dense contraction
	// endgame nearly every witness is 2–3 hops, and an uncapped search
	// there pushes a frontier proportional to the core degree squared.
	chWitnessHops  = 24
	chPriorityHops = 6
)

// coreArc is one directed half of an undirected edge of the shrinking
// core graph. mid < 0 marks an original network edge (length is the
// pristine float from NetworkMetric.lengths); otherwise mid is the
// contracted node the shortcut bypasses, and the arc unpacks through
// mid's upward-arc block.
type coreArc struct {
	to     int32
	mid    int32
	length float64
}

type coreShortcut struct {
	a, b   int32
	length float64
}

// chBuilder is the single-goroutine working state of one contraction
// run. The witness scratch is epoch-stamped like searchScratch so the
// ~deg² witness searches per contraction pay no re-initialization.
type chBuilder struct {
	adj     [][]coreArc // live core graph, compacted as nodes contract
	delNbrs []int32     // contracted-neighbor count per node
	dirty   []bool      // priority may be stale (a neighbor contracted)

	epoch  int64
	dist   []float64
	hops   []int32
	seenAt []int64
	heap   nheap

	nbs     []coreArc // live-neighbor scratch of simulate
	cert    []bool    // per-partner certification marks of one witness search
	pending []coreShortcut
}

// addArc inserts the undirected arc x–y into the core graph, deduping
// parallel edges by keeping the shorter one. Keeping a single arc per
// node pair is what makes shortcut unpacking unambiguous: an up-block
// lookup by target node has exactly one answer.
func (b *chBuilder) addArc(x, y int32, l float64, mid int32) {
	for i, a := range b.adj[x] {
		if a.to != y {
			continue
		}
		if a.length <= l {
			return
		}
		b.adj[x][i] = coreArc{to: y, mid: mid, length: l}
		for j, ba := range b.adj[y] {
			if ba.to == x {
				b.adj[y][j] = coreArc{to: x, mid: mid, length: l}
				break
			}
		}
		return
	}
	b.adj[x] = append(b.adj[x], coreArc{to: y, mid: mid, length: l})
	b.adj[y] = append(b.adj[y], coreArc{to: x, mid: mid, length: l})
}

// witnesses runs one budget-bounded Dijkstra from `from` (the length-
// fromLen neighbor of the contraction candidate) on the live core graph
// minus excluded, labelling everything reachable within the partners'
// largest through-length. Callers then read b.dist/b.seenAt (at the
// returned epoch) to test each candidate target: any label is the
// length of a real path, so `label ≤ slen−chWitnessEps` certifies a
// witness even when the label is unsettled or not yet optimal —
// conservative in exactly the direction exactness needs (a missing or
// loose label just means a redundant shortcut). One search per
// neighbor replaces the deg²/2 pairwise probes of the naive scheme.
// Contracted nodes are already compacted out of the adjacency lists,
// so only the excluded node needs filtering.
//
// The search stops the moment every partner holds a certifying label:
// labels only improve, so a partner certified once stays certified, and
// stopping then cannot change any shortcut decision — most witnesses
// are 2–3 hops out, so this early exit does the bulk of the saving
// while budget and hops remain backstops for the dense endgame.
func (b *chBuilder) witnesses(from, excluded int32, fromLen float64, partners []coreArc, budget int, maxHops int32) int64 {
	b.epoch++
	b.heap.clear()
	b.dist[from] = 0
	b.hops[from] = 0
	b.seenAt[from] = b.epoch
	b.heap.push(0, from)
	limit := 0.0
	for _, p := range partners {
		if l := fromLen + p.length; l > limit {
			limit = l
		}
	}
	cert := b.cert[:0]
	for range partners {
		cert = append(cert, false)
	}
	b.cert = cert
	remaining := len(partners)
	settled := 0
	for !b.heap.empty() && remaining > 0 {
		e := b.heap.pop()
		if e.key > b.dist[e.v] {
			continue // stale entry from lazy decrease-key
		}
		if settled++; settled > budget {
			break
		}
		nh := b.hops[e.v] + 1
		if nh > maxHops {
			continue
		}
		for _, a := range b.adj[e.v] {
			if a.to == excluded {
				continue
			}
			nd := e.key + a.length
			if nd > limit-chWitnessEps {
				continue
			}
			if b.seenAt[a.to] != b.epoch || nd < b.dist[a.to] {
				b.dist[a.to] = nd
				b.hops[a.to] = nh
				b.seenAt[a.to] = b.epoch
				b.heap.push(nd, a.to)
				for j, p := range partners {
					if !cert[j] && p.to == a.to && nd <= fromLen+p.length-chWitnessEps {
						cert[j] = true
						remaining--
					}
				}
			}
		}
	}
	return b.epoch
}

// simulate contracts v hypothetically (apply=false, for the priority
// term) or actually (apply=true): every pair of live neighbors whose
// through-v path has no witness needs a shortcut. One witness search
// per neighbor covers all of its partners. Shortcuts are collected
// first and inserted after all witness searches, so the outcome does
// not depend on pair enumeration order.
func (b *chBuilder) simulate(v int32, apply bool) (shortcuts, degree int) {
	nbs := append(b.nbs[:0], b.adj[v]...)
	b.nbs = nbs
	budget, maxHops := chPriorityBudget, int32(chPriorityHops)
	if apply {
		budget, maxHops = chWitnessBudget, chWitnessHops
	}
	pending := b.pending[:0]
	for i := 0; i < len(nbs)-1; i++ {
		u := nbs[i]
		epoch := b.witnesses(u.to, v, u.length, nbs[i+1:], budget, maxHops)
		for j := i + 1; j < len(nbs); j++ {
			w := nbs[j]
			slen := u.length + w.length
			if b.seenAt[w.to] == epoch && b.dist[w.to] <= slen-chWitnessEps {
				continue
			}
			shortcuts++
			if apply {
				pending = append(pending, coreShortcut{a: u.to, b: w.to, length: slen})
			}
		}
	}
	b.pending = pending
	if apply {
		for _, p := range pending {
			b.addArc(p.a, p.b, p.length, v)
		}
	}
	return shortcuts, len(nbs)
}

// priority is the lazy-update contraction key: edge difference
// (shortcuts added minus arcs removed) plus the count of already
// contracted neighbors, the classic term that spreads contraction
// evenly instead of hollowing out one region.
func (b *chBuilder) priority(v int32) float64 {
	s, d := b.simulate(v, false)
	return float64(s-d) + float64(b.delNbrs[v])
}

// buildCH runs the full contraction and freezes the result into the
// CSR hierarchy chDist queries. Deterministic: iteration orders are
// fixed and the priority heap is seeded in node order.
func (m *NetworkMetric) buildCH() *chState {
	n := len(m.nodes)
	b := &chBuilder{
		adj:     make([][]coreArc, n),
		delNbrs: make([]int32, n),
		dirty:   make([]bool, n),
		dist:    make([]float64, n),
		hops:    make([]int32, n),
		seenAt:  make([]int64, n),
	}
	for i, e := range m.edges {
		if e[0] == e[1] {
			continue // self-loops never carry a shortest path
		}
		b.addArc(e[0], e[1], m.lengths[i], -1)
	}

	ch := &chState{
		rank:   make([]int32, n),
		byRank: make([]int32, n),
	}
	upArcs := make([][]coreArc, n)

	var pq nheap
	for v := int32(0); v < int32(n); v++ {
		pq.push(b.priority(v), v)
	}
	next := int32(0)
	for !pq.empty() {
		e := pq.pop()
		v := e.v
		// Lazy update: the popped key is stale only if a neighbor was
		// contracted since it was computed (nothing else changes v's
		// adjacency or delNbrs). Clean keys are accepted as popped;
		// dirty ones are recomputed and re-pushed unless v still
		// belongs at the front. State is unchanged while re-pushing, so
		// the loop settles on the node whose fresh priority is minimal.
		if b.dirty[v] {
			p := b.priority(v)
			b.dirty[v] = false
			if !pq.empty() && p > pq.top().key {
				pq.push(p, v)
				continue
			}
		}
		b.simulate(v, true)
		live := b.nbs // simulate(apply) leaves v's live arcs here
		upArcs[v] = append([]coreArc(nil), live...)
		ch.rank[v] = next
		ch.byRank[next] = v
		next++
		// Compact v out of its neighbors' lists right away: witness
		// searches scan these lists constantly, and letting dead arcs
		// accumulate turns the contraction endgame quadratic.
		for _, a := range live {
			b.delNbrs[a.to]++
			b.dirty[a.to] = true
			na := b.adj[a.to]
			for i, x := range na {
				if x.to == v {
					na[i] = na[len(na)-1]
					b.adj[a.to] = na[:len(na)-1]
					break
				}
			}
		}
		b.adj[v] = nil
	}

	// Flatten the per-node snapshots into the up-CSR.
	arcs := 0
	for _, ua := range upArcs {
		arcs += len(ua)
	}
	ch.upOff = make([]int32, n+1)
	ch.upFrom = make([]int32, arcs)
	ch.upTo = make([]int32, arcs)
	ch.upLen = make([]float64, arcs)
	ch.upMid = make([]int32, arcs)
	g := int32(0)
	for v, ua := range upArcs {
		ch.upOff[v] = g
		// Ascending (length, target) order makes the CSR layout — and
		// with it every cone and every unpack — deterministic across
		// builds regardless of contraction-time list mutations.
		slices.SortFunc(ua, func(x, y coreArc) int {
			if c := cmp.Compare(x.length, y.length); c != 0 {
				return c
			}
			return cmp.Compare(x.to, y.to)
		})
		for _, a := range ua {
			ch.upFrom[g] = int32(v)
			ch.upTo[g] = a.to
			ch.upLen[g] = a.length
			ch.upMid[g] = a.mid
			if a.mid >= 0 {
				ch.shortcuts++
			}
			g++
		}
	}
	ch.upOff[n] = g

	ch.buildExpansions()
	return ch
}

// buildExpansions memoizes every shortcut arc's original-edge length
// sequence, turning query-time unpack into slice scans instead of
// recursive middle-node lookups. One DP pass in contraction order
// suffices: a shortcut's two halves are arcs owned by its middle node,
// which was contracted before the shortcut's endpoints, so both halves
// are already expanded when the shortcut's turn comes. A reversed
// traversal of an arc is exactly the reversed length sequence, so one
// forward copy per arc covers both directions. Skipped wholesale (exp
// stays nil) when the total would exceed chExpBudget floats.
func (ch *chState) buildExpansions() {
	n := len(ch.upOff) - 1
	span := func(g int32) int {
		if e := ch.exp[g]; e != nil {
			return len(e)
		}
		return 1
	}
	total := 0
	exp := make([][]float64, len(ch.upFrom))
	ch.exp = exp
	for r := 0; r < n; r++ {
		v := ch.byRank[r]
		for g := ch.upOff[v]; g < ch.upOff[v+1]; g++ {
			mid := ch.upMid[g]
			if mid < 0 {
				continue
			}
			la := ch.findUpArc(mid, v)          // mid→from half, traversed reversed
			ra := ch.findUpArc(mid, ch.upTo[g]) // mid→to half, traversed forward
			e := make([]float64, 0, span(la)+span(ra))
			if x := exp[la]; x == nil {
				e = append(e, ch.upLen[la])
			} else {
				for i := len(x) - 1; i >= 0; i-- {
					e = append(e, x[i])
				}
			}
			if x := exp[ra]; x == nil {
				e = append(e, ch.upLen[ra])
			} else {
				e = append(e, x...)
			}
			exp[g] = e
			if total += len(e); total > chExpBudget {
				ch.exp = nil
				return
			}
		}
	}
}
