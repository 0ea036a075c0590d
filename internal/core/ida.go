package core

import "repro/internal/rtree"

// IDA solves CCA with the Incremental On-demand Algorithm (§3.3,
// Algorithm 4), the paper's best exact method. It improves on NIA in two
// ways:
//
//   - Heap entries of full providers are keyed by q.α + dist(q,p)
//     (Φ(E−Esub)) instead of plain length, since any shortest path
//     through a full provider costs at least q.α. This prunes more edges
//     and terminates iterations earlier.
//   - While no provider is full, Theorem 2 yields each shortest path
//     directly from the heap — the path is {s, q, p, t} for the shortest
//     discovered edge with a non-full customer — so no Dijkstra runs at
//     all during the early iterations.
func IDA(providers []Provider, tree *rtree.Tree, opts Options) (*Result, error) {
	return runIncremental(providers, tree, opts, true)
}

// fastPhase executes the Theorem 2 regime: it pops edges in ascending
// length, inserts them into Esub, and assigns directly until either γ
// is reached, the edge supply is exhausted, or a provider becomes full.
// It returns the number of completed iterations. On leaving the regime
// it installs the equivalent potentials (see flowgraph.LeaveFastPhase).
func (r *incRunner) fastPhase(gamma int) (int, error) {
	g := r.g
	done := 0
	lastLen := 0.0
	entered := false
	for done < gamma {
		if err := r.opts.cancelled(); err != nil {
			return done, err
		}
		e, ok, err := r.pop()
		if err != nil {
			return done, err
		}
		if !ok {
			break // P exhausted
		}
		entered = true
		c := r.ensure(e.item)
		g.AddEdge(e.q, c, e.dist)
		if g.CustomerFull(c) {
			continue // full customer: edge joins Esub, pop the next one
		}
		// Theorem 2: sp = {s, e.q, c, t}; always valid (the popped edge
		// is the shortest undiscovered-or-discovered edge with a
		// non-full customer, and τmax equals the source potential).
		// With per-pair capacity > 1 the same edge remains the shortest
		// path until either endpoint saturates, so push as many
		// instances as fit (capacitated customers, §4.2).
		n := g.ProviderRemaining(e.q)
		if rem := g.CustomerRemaining(c); rem < n {
			n = rem
		}
		if pc := g.PairCapacity(); pc < n {
			n = pc
		}
		if left := gamma - done; left < n {
			n = left
		}
		for i := 0; i < n; i++ {
			g.DirectAssign(e.q, c, e.dist)
		}
		lastLen = e.dist
		done += n
		if g.ProviderFull(e.q) {
			break // Definition 2: leave the Theorem 2 regime
		}
	}
	if entered {
		g.LeaveFastPhase(lastLen)
	}
	return done, nil
}
