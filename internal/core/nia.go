package core

import (
	"math"
	"time"

	"repro/internal/flowgraph"
	"repro/internal/obs"
	"repro/internal/pqueue"
	"repro/internal/rtree"
)

// edgeEntry is a candidate edge e(q, p) held in the NIA/IDA heap H.
// At most one entry per provider is in the heap at any time (§3.2), so
// H's handle is the provider index.
type edgeEntry struct {
	q    int32
	item rtree.Item
	dist float64
}

// incRunner carries the state shared by NIA and IDA: the growing flow
// graph, the candidate-edge heap H, and the incremental NN source.
type incRunner struct {
	g       *flowgraph.Graph
	tree    *rtree.Tree
	nn      rtree.NNSource
	heap    pqueue.Heap // H, indexed by provider
	entries []edgeEntry // provider q's current candidate edge
	custIdx map[int64]int32
	opts    Options
	metrics *Metrics
	idaKeys bool // key entries by q.α + dist instead of dist (IDA)
}

func newIncRunner(providers []Provider, tree *rtree.Tree, opts Options, m *Metrics, idaKeys bool) (*incRunner, error) {
	g := newFlowGraph(providers, false, opts)
	r := &incRunner{
		g:       g,
		tree:    tree,
		nn:      nearestSource(providers, tree, opts),
		heap:    pqueue.NewIndexed(),
		entries: make([]edgeEntry, len(providers)),
		custIdx: make(map[int64]int32),
		opts:    opts,
		metrics: m,
		idaKeys: idaKeys,
	}
	// Seed H with every provider's first NN (Lines 3-5).
	for q := range providers {
		if err := r.enqueueNext(int32(q)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// key computes the heap key of an edge: its length for NIA; q.α + length
// for IDA, where a full provider's α lower-bounds any path through it.
func (r *incRunner) key(e edgeEntry) float64 {
	if r.idaKeys && r.g.ProviderFull(e.q) {
		return r.g.LastAlpha(e.q) + e.dist
	}
	return e.dist
}

// enqueueNext fetches provider q's next nearest neighbor and inserts the
// corresponding edge into H.
func (r *incRunner) enqueueNext(q int32) error {
	item, d, ok, err := r.nn.Next(int(q))
	if err != nil {
		return err
	}
	if !ok {
		return nil // P exhausted for q
	}
	r.metrics.NNRetrievals++
	e := edgeEntry{q: q, item: item, dist: d}
	r.entries[q] = e
	r.heap.Push(q, r.key(e))
	return nil
}

// pop removes the top edge from H and replenishes its provider's entry.
func (r *incRunner) pop() (edgeEntry, bool, error) {
	if r.heap.Len() == 0 {
		return edgeEntry{}, false, nil
	}
	e := r.entries[r.heap.Pop().H]
	if err := r.enqueueNext(e.q); err != nil {
		return edgeEntry{}, false, err
	}
	return e, true, nil
}

// topKey returns Φ(E−Esub): the least possible cost through any
// undiscovered edge (∞ when every edge has been discovered).
func (r *incRunner) topKey() float64 {
	if r.heap.Len() > 0 {
		return r.heap.Peek().Key
	}
	return math.Inf(1)
}

// refreshKeys re-keys heap entries of full providers whose α changed in
// the last search (IDA Lines 10-12).
func (r *incRunner) refreshKeys() {
	if !r.idaKeys {
		return
	}
	for q, e := range r.entries {
		q := int32(q)
		if !r.heap.Contains(q) {
			continue
		}
		if want := r.key(e); want != r.heap.Key(q) {
			r.metrics.KeyUpdates++
			r.heap.Update(q, want)
		}
	}
}

// ensure registers a customer in the flow graph on first encounter.
func (r *incRunner) ensure(it rtree.Item) int32 {
	if idx, ok := r.custIdx[it.ID]; ok {
		return idx
	}
	idx := r.g.AddCustomer(it.Pt, r.opts.CustomerCap(it.ID), it.ID, nil)
	r.custIdx[it.ID] = idx
	return idx
}

// runIteration performs one NIA/IDA outer-loop iteration: pop an edge,
// insert it, search, and keep popping/inserting until the shortest path
// passes the Theorem 1 validity test; then augment. Returns false when
// neither a path nor more edges exist (max flow reached).
func (r *incRunner) runIteration() (bool, error) {
	g := r.g
	// Line 7-10: de-heap the top edge, insert into Esub, fetch next NN.
	e, ok, err := r.pop()
	if err != nil {
		return false, err
	}
	first := true
	if ok {
		g.AddEdge(e.q, r.ensure(e.item), e.dist)
	}
	for {
		if first {
			g.BeginIteration()
			first = false
		}
		_, cost, found := g.Search()
		r.refreshKeys()
		if found && cost <= r.topKey()-g.TauMax()+validityEps {
			if err := g.Augment(); err != nil {
				return false, err
			}
			return true, nil
		}
		// Invalid path (or none): discover the next edge and retry.
		e, ok, err = r.pop()
		if err != nil {
			return false, err
		}
		if !ok {
			// No undiscovered edges remain; the current path (if any)
			// is the true shortest path.
			if found {
				if err := g.Augment(); err != nil {
					return false, err
				}
				return true, nil
			}
			return false, nil
		}
		c := r.ensure(e.item)
		if r.opts.DisablePUA {
			g.AddEdge(e.q, c, e.dist)
			first = true // restart Dijkstra from scratch
		} else {
			g.InsertEdgeAndRepair(e.q, c, e.dist)
		}
	}
}

// NIA solves CCA with the Nearest Neighbor Incremental Algorithm (§3.2,
// Algorithm 3): Esub grows one edge at a time in ascending length order
// via incremental NN search, and Theorem 1 certifies each augmenting
// path against the shortest undiscovered edge (TopKey(H)).
func NIA(providers []Provider, tree *rtree.Tree, opts Options) (*Result, error) {
	return runIncremental(providers, tree, opts, false)
}

func runIncremental(providers []Provider, tree *rtree.Tree, opts Options, ida bool) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	io := snapshotIO(tree.Buffer())
	m := Metrics{FullGraphEdges: len(providers) * tree.Size()}
	span := obs.FromContext(opts.Ctx)

	build := span.StartChild("flowgraph-build")
	r, err := newIncRunner(providers, tree, opts, &m, ida)
	build.End()
	if err != nil {
		return nil, err
	}
	// Deferred so every exit — including mid-solve cancellation — hands
	// the Dijkstra scratch back to the pool.
	defer r.g.Release()
	gamma, err := gammaFor(providers, tree, opts)
	if err != nil {
		return nil, err
	}

	done, fastDone := 0, 0
	aug := span.StartChild("augment")
	defer func() {
		aug.SetInt("iterations", int64(done))
		aug.SetInt("fast_iterations", int64(fastDone))
		aug.End()
	}()
	if ida && !opts.DisableTheorem2 {
		done, err = r.fastPhase(gamma)
		if err != nil {
			return nil, err
		}
		fastDone = done
	}
	for ; done < gamma; done++ {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		ok, err := r.runIteration()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}

	m.Augments = done
	m.CPUTime = time.Since(start)
	m.IO = io.delta()
	m.IOTime = m.IO.IOTime()
	return finish(r.g, m), nil
}
