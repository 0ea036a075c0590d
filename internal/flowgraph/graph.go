// Package flowgraph implements the residual bipartite flow graph that
// underlies every CCA algorithm in the paper (§2.1–§2.2), with the
// spatial extensions of §3:
//
//   - node potentials τ and reduced-cost Dijkstra, following the paper's
//     convention w(u,v) = c(u,v) − u.τ + v.τ with c = +dist on forward
//     (q→p) edges, −dist on reversed (p→q) edges, and 0 on source/sink
//     edges;
//   - incremental edge insertion, so the subgraph Esub grows on demand
//     (Theorem 1 gating is performed by the callers in internal/core);
//   - the Path Update Algorithm (PUA, §3.4.1), which repairs the current
//     Dijkstra state after an edge insertion instead of restarting;
//   - customer-side capacities, needed by the CA approximation whose
//     customer representatives carry weights (§4.2);
//   - an implicit complete-bipartite mode for the SSPA baseline, which
//     visits every (q,p) pair without materializing O(|Q|·|P|) edges
//     and asks the metric for each distance it reads;
//   - a churn mode for the dynamic matcher (NewChurnGraph): complete,
//     with customers removable, carrying potentials for s and t as well
//     so that every event is repaired by one reduced-cost Dijkstra per
//     unit it changes (churn.go). A customer's index is its live
//     position, and removal swap-removes its every slot, so the whole
//     state, including each live customer's τ and its |Q| distances
//     stored as a cost row on arrival, is O(|Q|·|live|).
//
// The graph is deliberately source/sink-free in memory: an s→q edge is
// represented by the provider's remaining capacity, and a p→t edge by the
// customer's remaining capacity, since no s→t shortest path ever re-enters
// s or leaves t. The churn mode's repair searches, which do, give s and t
// node ids for the search only (churn.go).
package flowgraph

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geo"
)

// NodeID identifies a graph node: providers occupy [0, NumProviders),
// customers follow at NumProviders + customerIndex.
type NodeID = int32

// sourceNode is the prev-pointer sentinel for paths starting at s.
const sourceNode NodeID = -1

// Provider is a service provider q with capacity Cap (q.k in the paper).
type Provider struct {
	Pt  geo.Point
	Cap int
}

// Customer is a customer p. Cap is 1 in the exact algorithms; the CA
// approximation uses representatives with Cap > 1 (§4.2). ExtID carries
// the caller's identifier through to the matching.
type Customer struct {
	Pt    geo.Point
	Cap   int
	ExtID int64
}

// Pair is one (q, p) assignment in the matching, with its Euclidean
// distance (the pair's contribution to Ψ(M), Equation 1).
type Pair struct {
	Provider int       // provider index
	Customer int       // customer index within the graph
	CustID   int64     // caller's customer identifier
	CustPt   geo.Point // customer location
	Dist     float64
}

// halfEdge is a forward bipartite edge q→p stored in a provider's
// adjacency list.
type halfEdge struct {
	cust int32
	dist float64
}

// assignment is one matched (q, p) instance seen from the customer:
// the provider and the pair's length, stored when the pair is matched
// so reversed-edge relaxations and the matching's cost never query the
// metric again.
type assignment struct {
	q    int32
	dist float64
}

// Stats counts the work the graph performed.
type Stats struct {
	Dijkstras   int // searches started (BeginIteration, churn repairs)
	Resumes     int // resumed searches after edge insertions
	Pops        int // nodes finalized across all searches
	Relaxations int // edges relaxed across all searches
	Repairs     int // PUA repair propagations
}

// Graph is the (residual) flow graph state.
type Graph struct {
	providers []Provider
	customers []Customer
	provUsed  []int // flow on e(s,q)
	custUsed  []int // flow on e(p,t)

	// assigned[c] lists the providers customer c is currently assigned
	// to (each at most once), with the pair lengths; it encodes the
	// reversed residual edges.
	assigned [][]assignment
	// assignedLen[c] is the largest edge length among c's assignments;
	// used to derive potentials when IDA leaves the Theorem 2 regime
	// (§3.3).
	assignedLen []float64

	adj       [][]halfEdge // Esub: forward adjacency per provider
	edgeCount int
	// complete makes the graph the implicit complete bipartite graph.
	// SSPA reads each distance from the metric (rows would cost it
	// |Q|·|P| floats); the churn mode reads them from rows.
	complete bool
	// pairCap is the max instances per (q,p) pair; 0 means 1 (the
	// paper's exact setting). CA's concise matching uses an unbounded
	// pair capacity so one customer representative can send several of
	// its instances to the same provider (§4.2).
	pairCap int

	tau    []float64 // node potentials, indexed by NodeID
	sTau   float64   // potential of the source
	tTau   float64   // potential of the sink; moves only in the churn mode
	tauMax float64   // max provider potential (Theorem 1's τmax)

	// lastAlpha persists each provider's most recent finalized Dijkstra
	// distance; IDA keys heap entries of full providers by it (§3.3).
	lastAlpha []float64

	// churn marks the dynamic matcher's graph (NewChurnGraph): events
	// are repaired by route (churn.go), and RemoveCustomer may delete
	// customers, moving the last one into the freed index.
	churn bool

	// order lists the churn mode's customer indices in arrival order,
	// which removals scramble; Pairs and Cost walk it so the matching's
	// order and its cost's summation order do not depend on which
	// customers left. Batch graphs never remove a customer, so for
	// them the index is the arrival order and order stays empty.
	order []int32

	// rows holds the churn mode's cost rows: the |Q| metric distances
	// of customer c sit at rows[c·|Q| : (c+1)·|Q|], so the store is
	// |Q|·|live| floats. Empty outside the churn mode.
	rows []float64
	// maxDist bounds every distance the rows hold; it scales the
	// threshold below which a residual cycle counts as negative
	// (cycleEps).
	maxDist float64

	// metric computes edge costs (default geo.Euclidean). See geo.Metric
	// for the lower-bound contract non-Euclidean metrics must satisfy.
	metric geo.Metric

	search *searchState
	arr    *graphArrays
	stats  Stats
}

// graphArrays bundles a graph's construction-time arrays so they can be
// pooled across solves, like the searchState scratch: the batch
// engine's workload builds one graph per solve, and without pooling the
// provider/customer arrays alone dominate its steady-state allocation
// (BenchmarkGraphConstruction and TestAllocsGraphConstruction pin the
// budget). Provider-indexed arrays are re-zeroed on acquire; the
// customer-indexed ones only ever append, so truncation suffices.
type graphArrays struct {
	provUsed    []int
	adj         [][]halfEdge
	tau         []float64
	lastAlpha   []float64
	customers   []Customer
	custUsed    []int
	assigned    [][]assignment
	assignedLen []float64
}

var arraysPool = sync.Pool{New: func() any { return &graphArrays{} }}

// growZero returns s with length n and every element zeroed, reusing
// its backing array when the capacity allows and growing it as append
// does otherwise, so a slice resized by a slowly rising n reallocates
// only a logarithmic number of times.
func growZero[T int | int32 | float64 | bool](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	s = s[:n]
	clear(s)
	return s
}

// acquireArrays returns pooled construction arrays sized for n
// providers: provider-indexed arrays zeroed at length n, customer-
// indexed arrays empty with their backing storage (including the
// per-customer assignment lists and per-provider adjacency lists)
// retained for reuse.
func acquireArrays(n int) *graphArrays {
	a := arraysPool.Get().(*graphArrays)
	a.provUsed = growZero(a.provUsed, n)
	a.tau = growZero(a.tau, n)
	a.lastAlpha = growZero(a.lastAlpha, n)
	if cap(a.adj) < n {
		a.adj = append(a.adj[:cap(a.adj)], make([][]halfEdge, n-cap(a.adj))...)
	}
	a.adj = a.adj[:n]
	for i := range a.adj {
		a.adj[i] = a.adj[i][:0]
	}
	a.customers = a.customers[:0]
	a.custUsed = a.custUsed[:0]
	a.assigned = a.assigned[:0]
	a.assignedLen = a.assignedLen[:0]
	return a
}

// NewGraph creates a graph over the given providers. When complete is
// true the graph behaves as the full bipartite graph over all customers
// added so far (SSPA baseline); otherwise only explicitly added edges
// exist (the incremental algorithms).
//
// The Dijkstra scratch state and the construction arrays are drawn from
// shared pools; callers that solve many instances back to back should
// call Release when done with the graph so repeated solves stop
// allocating.
func NewGraph(providers []Provider, complete bool) *Graph {
	a := acquireArrays(len(providers))
	g := &Graph{
		providers:   providers,
		provUsed:    a.provUsed,
		adj:         a.adj,
		tau:         a.tau,
		lastAlpha:   a.lastAlpha,
		customers:   a.customers,
		custUsed:    a.custUsed,
		assigned:    a.assigned,
		assignedLen: a.assignedLen,
		complete:    complete,
		metric:      geo.Euclidean,
		arr:         a,
	}
	g.search = acquireSearchState(len(providers))
	return g
}

// NewChurnGraph creates the dynamic matcher's graph over the given
// providers, measured by metric (nil means geo.Euclidean): complete
// over the customers present and open to removals (RemoveCustomer).
// It carries potentials for every node, s and t included, under which
// each residual edge has a non-negative reduced cost between events,
// so each event is repaired by one Dijkstra per unit of capacity or
// demand it changes (Admit, Reroute, Shed). Each customer's |Q|
// distances are computed once, on arrival, and stored as its cost row.
func NewChurnGraph(providers []Provider, metric geo.Metric) *Graph {
	g := NewGraph(providers, true)
	g.SetMetric(metric)
	g.churn = true
	return g
}

// SetMetric installs the edge-cost metric. Must be called before any
// customer or edge is added; the default is geo.Euclidean.
func (g *Graph) SetMetric(m geo.Metric) {
	if m != nil {
		g.metric = m
	}
}

// Metric returns the edge-cost metric in use.
func (g *Graph) Metric() geo.Metric { return g.metric }

// Release returns the graph's pooled scratch — the Dijkstra search
// state and the construction arrays — for reuse. The graph must not be
// used at all afterwards: searching, augmenting, and reading the
// matching (Pairs, Cost, Stats counters excepted) are invalid once the
// arrays may belong to another solve, so extract results first (the
// core algorithms do, via finish, before their deferred Release runs).
// Calling Release more than once is a no-op.
func (g *Graph) Release() {
	if g.search != nil {
		g.search.release()
		g.search = nil
	}
	if g.arr == nil {
		return
	}
	// Hand the (possibly grown) arrays back and nil the graph's views,
	// so a use-after-release fails loudly instead of reading an array
	// recycled into a concurrent solve.
	*g.arr = graphArrays{
		provUsed:    g.provUsed,
		adj:         g.adj,
		tau:         g.tau,
		lastAlpha:   g.lastAlpha,
		customers:   g.customers,
		custUsed:    g.custUsed,
		assigned:    g.assigned,
		assignedLen: g.assignedLen,
	}
	arraysPool.Put(g.arr)
	g.arr = nil
	g.provUsed, g.adj, g.tau, g.lastAlpha = nil, nil, nil, nil
	g.customers, g.custUsed, g.assigned, g.assignedLen = nil, nil, nil, nil
	g.order, g.rows = nil, nil
}

// NumProviders returns |Q|.
func (g *Graph) NumProviders() int { return len(g.providers) }

// EdgeCount returns |Esub|, the number of bipartite edges inserted.
// In complete mode it returns |Q|·|P|.
func (g *Graph) EdgeCount() int {
	if g.complete {
		return len(g.providers) * len(g.customers)
	}
	return g.edgeCount
}

// Stats returns the accumulated work counters.
func (g *Graph) Stats() Stats { return g.stats }

// TotalCapacity returns Σ q.k over all providers, saturated at
// math.MaxInt (see AddCap).
func (g *Graph) TotalCapacity() int {
	total := 0
	for _, p := range g.providers {
		total = AddCap(total, p.Cap)
	}
	return total
}

// AddCap returns total + c for non-negative capacities, saturated at
// math.MaxInt instead of wrapping: capacities near the int range (two
// providers of capacity 2^63−1) would otherwise sum to a negative
// total, and γ = min(Σ q.k, Σ p.cap) with them. Saturation keeps γ
// exact whenever the other side of the min is smaller.
func AddCap(total, c int) int {
	if c > math.MaxInt-total {
		return math.MaxInt
	}
	return total + c
}

// AddCustomer registers a customer and returns its node-local index,
// the next free one. In the churn mode it also stores the customer's
// cost row and sets its τ to max(τ(t), max_q τ(q) − d(q,c)): the least
// value that keeps every edge q→c non-negative and, once the customer
// is matched, t→c too. A nil row asks the metric for the |Q|
// distances, the only metric calls the graph makes for the customer
// over its whole life; otherwise row holds them in provider order (a
// row the metric gave earlier, read back from a log), and the caller
// has checked its length. Batch graphs take a nil row.
func (g *Graph) AddCustomer(pt geo.Point, capacity int, extID int64, row []float64) int32 {
	g.customers = append(g.customers, Customer{Pt: pt, Cap: capacity, ExtID: extID})
	g.custUsed = append(g.custUsed, 0)
	// Extend in place while pooled capacity remains: appending nil
	// would overwrite the slot and discard the recycled assignment
	// list's backing array.
	if n := len(g.assigned); n < cap(g.assigned) {
		g.assigned = g.assigned[:n+1]
		g.assigned[n] = g.assigned[n][:0]
	} else {
		g.assigned = append(g.assigned, nil)
	}
	g.assignedLen = append(g.assignedLen, 0)
	g.tau = append(g.tau, 0)
	c := int32(len(g.customers) - 1)
	if g.churn {
		g.order = append(g.order, c)
		tau := g.tTau
		for q, p := range g.providers {
			var d float64
			if row != nil {
				d = row[q]
			} else {
				d = g.metric.Dist(p.Pt, pt)
			}
			g.rows = append(g.rows, d)
			g.maxDist = max(g.maxDist, d)
			tau = max(tau, g.tau[q]-d)
		}
		g.tau[g.customerNode(c)] = tau
	}
	g.search.grow(len(g.providers) + len(g.customers))
	return c
}

// AddEdge inserts the forward edge q→c of length d into Esub. d must be
// the metric's distance from provider q to customer c — the value the
// caller's candidate stream already computed (an NN search's key is
// exactly that call), so the graph never asks the metric again.
func (g *Graph) AddEdge(q, c int32, d float64) {
	g.adj[q] = append(g.adj[q], halfEdge{cust: c, dist: d})
	g.edgeCount++
}

// ProviderFull reports whether e(s,q) is saturated (Definition 2).
func (g *Graph) ProviderFull(q int32) bool {
	return g.provUsed[q] >= g.providers[q].Cap
}

// ProviderRemaining returns provider q's unused capacity.
func (g *Graph) ProviderRemaining(q int32) int {
	return g.providers[q].Cap - g.provUsed[q]
}

// CustomerRemaining returns customer c's unused capacity.
func (g *Graph) CustomerRemaining(c int32) int {
	return g.customers[c].Cap - g.custUsed[c]
}

// PairCapacity returns the effective per-pair instance limit.
func (g *Graph) PairCapacity() int { return g.pairCapacity() }

// CustomerFull reports whether e(p,t) is saturated (Definition 3).
func (g *Graph) CustomerFull(c int32) bool {
	return g.custUsed[c] >= g.customers[c].Cap
}

// LastAlpha returns the provider's most recent finalized Dijkstra
// distance (0 until first finalized).
func (g *Graph) LastAlpha(q int32) float64 { return g.lastAlpha[q] }

// TauMax returns max{q.τ | q ∈ Q}, the bound used by Theorem 1.
func (g *Graph) TauMax() float64 { return g.tauMax }

// AssignedCount returns the total size of the current matching.
func (g *Graph) AssignedCount() int {
	total := 0
	for _, u := range g.provUsed {
		total += u
	}
	return total
}

// arrival returns the index of the i-th oldest customer present.
func (g *Graph) arrival(i int) int32 {
	if g.churn {
		return g.order[i]
	}
	return int32(i)
}

// Pairs extracts the matching M: every (q,p) with a reversed edge, in
// the customers' arrival order.
func (g *Graph) Pairs() []Pair {
	var out []Pair
	for i := range g.customers {
		c := g.arrival(i)
		for _, a := range g.assigned[c] {
			out = append(out, Pair{
				Provider: int(a.q),
				Customer: int(c),
				CustID:   g.customers[c].ExtID,
				CustPt:   g.customers[c].Pt,
				Dist:     a.dist,
			})
		}
	}
	return out
}

// Cost returns Ψ(M) of the current matching, summed in the customers'
// arrival order.
func (g *Graph) Cost() float64 {
	total := 0.0
	for i := range g.customers {
		for _, a := range g.assigned[g.arrival(i)] {
			total += a.dist
		}
	}
	return total
}

func (g *Graph) customerNode(c int32) NodeID { return NodeID(len(g.providers)) + c }

func (g *Graph) isCustomerNode(v NodeID) bool { return int(v) >= len(g.providers) }

func (g *Graph) custIdx(v NodeID) int32 { return v - NodeID(len(g.providers)) }

// SetPairCapacity sets the maximum number of matching instances per
// (q,p) pair. The exact CCA problem uses 1 (the default); pass a large
// value for CA's concise matching. Must be called before any search.
func (g *Graph) SetPairCapacity(n int) { g.pairCap = n }

// pairCapacity returns the effective per-pair capacity.
func (g *Graph) pairCapacity() int {
	if g.pairCap <= 0 {
		return 1
	}
	return g.pairCap
}

// instanceCount returns how many instances of (q, c) are in the matching.
func (g *Graph) instanceCount(c, q int32) int {
	n := 0
	for _, a := range g.assigned[c] {
		if a.q == q {
			n++
		}
	}
	return n
}

// forwardSaturated reports whether edge (q,c) has no forward residual
// capacity left.
func (g *Graph) forwardSaturated(c, q int32) bool {
	return g.instanceCount(c, q) >= g.pairCapacity()
}

func (g *Graph) assign(c, q int32, length float64) {
	g.assigned[c] = append(g.assigned[c], assignment{q: q, dist: length})
	if len(g.assigned[c]) == 1 || length > g.assignedLen[c] {
		g.assignedLen[c] = length
	}
}

func (g *Graph) unassign(c, q int32) error {
	for i, a := range g.assigned[c] {
		if a.q == q {
			g.assigned[c] = append(g.assigned[c][:i], g.assigned[c][i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("flowgraph: unassign: customer %d not assigned to provider %d", c, q)
}

// DirectAssign performs a Theorem 2 fast-path augmentation: the shortest
// path is {s, q, c, t}, so the assignment is applied without running
// Dijkstra. The edge must already be in Esub. Valid only while no
// provider is full (the caller guarantees this, per Theorem 2).
func (g *Graph) DirectAssign(q, c int32, length float64) {
	g.assign(c, q, length)
	g.provUsed[q]++
	g.custUsed[c]++
}

// LeaveFastPhase installs potentials equivalent to those the Theorem 2
// fast-path augmentations would have produced, so that subsequent
// Dijkstra searches see non-negative reduced costs. lastLen is the length
// of the last fast-path-augmented edge. Because the IDA heap pops edges
// in ascending length:
//
//   - every provider potential equals lastLen (providers are visited at
//     α = 0 in every conceptual iteration), as does the source's;
//   - a full customer c gets τ(c) = lastLen − ℓmax(c), where ℓmax(c) is
//     its longest assignment edge: this keeps the reversed edges
//     (−ℓ − τ(c) + lastLen ≥ 0) and the forward edges into c (inserted
//     only after c was full, hence with length ≥ ℓmax(c)) non-negative;
//   - a non-full customer keeps τ = 0, so its sink edge stays cost 0.
func (g *Graph) LeaveFastPhase(lastLen float64) {
	g.sTau = lastLen
	for q := range g.providers {
		g.tau[q] = lastLen
	}
	for c := range g.customers {
		node := g.customerNode(int32(c))
		g.tau[node] = 0
		if g.CustomerFull(int32(c)) && len(g.assigned[c]) > 0 {
			if t := lastLen - g.assignedLen[c]; t > 0 {
				g.tau[node] = t
			}
		}
	}
	g.tauMax = lastLen
}

// Row returns churn-mode customer c's cost row, its distance to each
// provider in provider order. The slice aliases the graph's storage:
// read-only, and valid until the next customer is added or removed.
func (g *Graph) Row(c int32) []float64 {
	nq := len(g.providers)
	lo, hi := int(c)*nq, (int(c)+1)*nq
	return g.rows[lo:hi:hi]
}

// dist returns the metric distance between provider q and customer c,
// from c's cost row in the churn mode.
func (g *Graph) dist(q, c int32) float64 {
	if g.churn {
		return g.rows[int(c)*len(g.providers)+int(q)]
	}
	return g.metric.Dist(g.providers[q].Pt, g.customers[c].Pt)
}
