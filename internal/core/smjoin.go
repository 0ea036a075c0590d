package core

import (
	"time"

	"repro/internal/pqueue"
	"repro/internal/rtree"
)

// SMJoin computes the greedy spatial matching join of the related work
// (§2.3, [12,14]): it repeatedly commits the globally closest
// (provider, customer) pair among providers with remaining capacity and
// unassigned customers. SM performs local assignments and does not
// minimize the global cost Ψ(M) — the quality-ablation benchmark
// contrasts it with the optimal CCA matching.
func SMJoin(providers []Provider, tree *rtree.Tree, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	io := snapshotIO(tree.Buffer())
	m := Metrics{FullGraphEdges: len(providers) * tree.Size()}

	nn := nearestSource(providers, tree, opts)

	gamma, err := gammaFor(providers, tree, opts)
	if err != nil {
		return nil, err
	}

	// Each provider has at most one candidate on the heap, so the heap's
	// handle is the provider index and cands[q] its candidate.
	var h pqueue.Heap
	cands := make([]rtree.Item, len(providers))
	push := func(q int) error {
		item, d, ok, err := nn.Next(q)
		if err != nil {
			return err
		}
		if ok {
			m.NNRetrievals++
			cands[q] = item
			h.Push(int32(q), d)
		}
		return nil
	}
	for q := range providers {
		if err := push(q); err != nil {
			return nil, err
		}
	}

	assigned := make(map[int64]bool)
	remaining := make([]int, len(providers))
	for i, p := range providers {
		remaining[i] = p.Cap
	}
	var pairs []Pair
	cost := 0.0
	for len(pairs) < gamma && h.Len() > 0 {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		top := h.Pop()
		q, item := int(top.H), cands[top.H]
		if remaining[q] == 0 {
			continue // provider already full: drop its candidate stream
		}
		if assigned[item.ID] {
			// Customer taken by a closer pair; advance this provider.
			if err := push(q); err != nil {
				return nil, err
			}
			continue
		}
		pairs = append(pairs, Pair{Provider: q, CustomerID: item.ID, CustomerPt: item.Pt, Dist: top.Key})
		cost += top.Key
		assigned[item.ID] = true
		remaining[q]--
		if remaining[q] > 0 {
			if err := push(q); err != nil {
				return nil, err
			}
		}
	}

	m.CPUTime = time.Since(start)
	m.IO = io.delta()
	m.IOTime = m.IO.IOTime()
	return &Result{Pairs: pairs, Cost: cost, Size: len(pairs), Metrics: m}, nil
}
