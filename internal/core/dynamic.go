package core

import (
	"errors"
	"fmt"

	"repro/internal/flowgraph"
	"repro/internal/geo"
	"repro/internal/rtree"
)

// Sentinel errors of the dynamic event API. Callers (the ccad session
// handlers) branch on these with errors.Is to map churn failures to
// HTTP statuses instead of string-matching.
var (
	// ErrDuplicateID rejects an arrival whose id was ever seen before,
	// including ids that have already departed.
	ErrDuplicateID = errors.New("dynamic: duplicate customer id")
	// ErrUnknownID rejects a departure for an id that is not currently
	// present, and a resize of a provider index out of range.
	ErrUnknownID = errors.New("dynamic: unknown id")
)

// DynamicOptions configures a DynamicMatcher beyond the zero-value
// behavior (Euclidean metric, unlimited re-optimization, no periodic
// oracle).
type DynamicOptions struct {
	// Metric is the edge-cost backend; nil means Euclidean.
	Metric geo.Metric
	// ReoptBudget bounds the repair work amortized per event: after an
	// event's mandatory fix-ups (the arrival's own augmenting path or
	// swap, a departure's capacity release, a resize's evictions, and
	// the augmentations that keep the matching maximum), at most
	// ReoptBudget negative residual cycles are canceled before the
	// event returns; remaining debt carries to later events. 0 means
	// unlimited: every event leaves a minimum-cost maximum matching.
	// The matching stays feasible and maximum under any budget — only
	// cost optimality drifts, which Drift/ChurnStats track.
	ReoptBudget int
	// OracleEvery, when positive, re-solves from scratch every n events
	// and records the cost drift in ChurnStats. The oracle is O(γ·V·E)
	// Bellman–Ford — a measurement tool, not a production setting.
	OracleEvery int
}

// ChurnStats counts a matcher's event history and the quality drift
// its re-optimization budget allowed.
type ChurnStats struct {
	Events     int // arrivals + departures + resizes accepted
	Arrivals   int
	Departures int
	Resizes    int

	Augments int // augmenting paths applied (arrivals + repairs)
	Swaps    int // full-capacity arrival swap-ins
	Cycles   int // negative residual cycles canceled
	Deferred int // events that exhausted ReoptBudget with debt left

	OracleChecks int
	LastDrift    float64 // (cost − opt) / opt at the last oracle check
	MaxDrift     float64 // worst drift seen at any oracle check
}

// DynamicMatcher maintains a minimum-cost maximum CCA matching under
// the full churn model — customer arrivals and departures plus
// provider capacity resizes — the incremental extension the paper
// points to in its related work ([11], Toroslu & Üçoluk: Incremental
// Assignment Problem) and future-work discussion.
//
// Arrivals ride the successive-shortest-path invariant: augmenting a
// new customer along one shortest path (or, at full capacity,
// canceling the best cycle through its sink edge) preserves
// optimality. Departures and resizes break that invariant — released
// flow or fresh source capacity can create negative residual cycles —
// so those events repair in two stages: restore maximality with
// augmenting searches (always run, so Size always equals the
// from-scratch optimum's), then cancel negative cycles until none
// remain or the per-event ReoptBudget is spent.
//
// The matcher keeps the full bipartite graph in memory (complete
// mode), so it suits the moderate |P| of online scenarios rather than
// the disk-resident batch setting of RIA/NIA/IDA. Each arrival asks
// the metric for its |Q| distances once and stores them as a cost row
// that every later search, swap and cycle cancel reads back. A
// customer's graph index is its live position, so a session's whole
// state — rows (|Q|·|live|·8 B), flows, assignments and search
// scratch — is O(|Q|·|live|), however many customers have come and
// gone. Only the id ledger grows with every arrival, because ids stay
// unique for the whole session.
type DynamicMatcher struct {
	g         *flowgraph.Graph
	providers []Provider
	opts      DynamicOptions

	// ids maps every id ever accepted to its customer's live position,
	// or to -1 once it departed (duplicate detection).
	ids map[int64]int32

	// exact records whether the current matching is known minimum-cost
	// (no repair debt). While true, events that provably preserve
	// optimality skip the cycle scan entirely — the arrival fast path
	// stays one search per event.
	exact bool

	stats ChurnStats
}

// NewDynamicMatcher starts an empty matching over the given providers
// with default options (Euclidean, unlimited re-optimization).
func NewDynamicMatcher(providers []Provider) *DynamicMatcher {
	return NewDynamicMatcherOpts(providers, DynamicOptions{})
}

// NewDynamicMatcherOpts starts an empty matching with explicit
// options. The provider slice is copied: ResizeProvider mutates the
// matcher's view, never the caller's.
func NewDynamicMatcherOpts(providers []Provider, opts DynamicOptions) *DynamicMatcher {
	own := make([]Provider, len(providers))
	copy(own, providers)
	return &DynamicMatcher{
		g:         flowgraph.NewChurnGraph(flowProviders(own), opts.Metric),
		providers: own,
		opts:      opts,
		ids:       make(map[int64]int32),
		exact:     true,
	}
}

// Arrive adds a customer and restores optimality. While provider
// capacity remains, the new customer is matched along one shortest
// augmenting path. Once capacity is exhausted the matching size cannot
// grow, but the arrival can still improve its composition: Arrive then
// cancels the minimum-cost residual cycle through the new customer,
// which (when negative) swaps out a more expensive customer. Ids must
// be unique across the session — re-arriving a departed id is
// ErrDuplicateID.
//
// The returned flag reports whether this customer is matched right
// now; later events may re-route or even evict it (fetch the current
// state with Matching).
func (m *DynamicMatcher) Arrive(pt geo.Point, id int64) (bool, error) {
	if _, ok := m.ids[id]; ok {
		return false, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	c := m.g.AddCustomer(pt, 1, id)
	m.ids[id] = c
	m.stats.Events++
	m.stats.Arrivals++
	for {
		augmented, err := m.searchAugment()
		if err != nil {
			return false, err
		}
		if augmented {
			break
		}
		// No free capacity: try swapping in via the new customer's best
		// residual cycle.
		swapped, err := m.g.SwapArrival(c)
		if errors.Is(err, flowgraph.ErrNegativeCycle) {
			if err := m.forceCancel(); err != nil {
				return false, err
			}
			continue
		}
		if err != nil {
			return false, err
		}
		if swapped {
			m.stats.Swaps++
		}
		break
	}
	// From an exact state the arrival step itself preserves optimality;
	// only outstanding debt from earlier budgeted events needs work.
	if !m.exact {
		if err := m.reoptimize(); err != nil {
			return false, err
		}
	}
	m.maybeOracle()
	return m.g.CustomerFull(c), nil
}

// Depart removes a previously arrived customer, releasing any provider
// capacity it held, and repairs the matching: a freed slot may admit a
// waiting customer (augment), and released flow may leave the rest
// mis-routed (cancel cycles, subject to ReoptBudget). It returns
// whether the customer was matched at the moment it left. Departing an
// id that is not currently present is ErrUnknownID.
func (m *DynamicMatcher) Depart(id int64) (bool, error) {
	c, ok := m.ids[id]
	if !ok || c < 0 {
		return false, fmt.Errorf("%w: customer %d", ErrUnknownID, id)
	}
	wasMatched := m.g.CustomerFull(c)
	if err := m.g.RemoveCustomer(c); err != nil {
		return false, err
	}
	m.ids[id] = -1
	// The last customer moved into c's position.
	if int(c) < m.g.LiveCount() {
		m.ids[m.g.Customer(c).ExtID] = c
	}
	m.stats.Events++
	m.stats.Departures++
	if !wasMatched && m.exact {
		// Dropping an unmatched customer only deletes forward edges; no
		// residual cycle or augmenting path can appear.
		m.maybeOracle()
		return false, nil
	}
	if err := m.repair(); err != nil {
		return false, err
	}
	m.maybeOracle()
	return wasMatched, nil
}

// ResizeProvider changes provider i's capacity. Shrinking below the
// provider's current usage evicts its longest assignment edges (the
// evicted customers stay in the pool and are re-routed by the repair);
// growing opens augmenting opportunities for waiting customers. An
// index out of range is ErrUnknownID; a negative capacity is a plain
// validation error.
func (m *DynamicMatcher) ResizeProvider(i, newCap int) error {
	if i < 0 || i >= len(m.providers) {
		return fmt.Errorf("%w: provider %d out of range [0,%d)", ErrUnknownID, i, len(m.providers))
	}
	if newCap < 0 {
		return fmt.Errorf("dynamic: provider %d capacity %d is negative", i, newCap)
	}
	q := int32(i)
	if err := m.g.SetProviderCap(q, newCap); err != nil {
		return err
	}
	m.providers[i].Cap = newCap
	m.stats.Events++
	m.stats.Resizes++
	for m.g.ProviderUsed(q) > newCap {
		if _, err := m.g.EvictLongestAssignment(q); err != nil {
			return err
		}
	}
	if err := m.repair(); err != nil {
		return err
	}
	m.maybeOracle()
	return nil
}

// repair restores the two-stage invariant after a capacity-releasing
// event: augmenting paths until the matching is maximum again (never
// budgeted — feasibility and size are exact under any budget), then
// negative-cycle cancels under the budget.
func (m *DynamicMatcher) repair() error {
	for {
		augmented, err := m.searchAugment()
		if err != nil {
			return err
		}
		if !augmented {
			break
		}
	}
	return m.reoptimize()
}

// searchAugment runs one shortest-augmenting-path step, returning
// whether a path was found and applied. When the search trips over a
// negative cycle left by deferred budget debt, the cycle is canceled
// immediately and the search retried: correctness cannot be deferred,
// so the budget governs only the voluntary optimization pass.
func (m *DynamicMatcher) searchAugment() (bool, error) {
	for {
		_, _, ok, err := m.g.SearchLabelCorrecting()
		if errors.Is(err, flowgraph.ErrNegativeCycle) {
			if err := m.forceCancel(); err != nil {
				return false, err
			}
			continue
		}
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		if err := m.g.Augment(); err != nil {
			return false, err
		}
		m.stats.Augments++
		return true, nil
	}
}

// forceCancel cancels one negative cycle a search just reported. The
// canceler not finding one would mean the detection epsilons diverged
// (see flowgraph.cycleEps) — fail loudly rather than spin.
func (m *DynamicMatcher) forceCancel() error {
	found, err := m.g.CancelNegativeCycle()
	if err != nil {
		return err
	}
	if !found {
		return errors.New("dynamic: search reported a negative cycle the canceler cannot find")
	}
	m.stats.Cycles++
	return nil
}

// reoptimize cancels negative residual cycles until none remain or the
// per-event budget is exhausted, tracking whether the state is exact.
func (m *DynamicMatcher) reoptimize() error {
	for i := 0; ; i++ {
		if m.opts.ReoptBudget > 0 && i >= m.opts.ReoptBudget {
			m.exact = false
			m.stats.Deferred++
			return nil
		}
		found, err := m.g.CancelNegativeCycle()
		if err != nil {
			return err
		}
		if !found {
			m.exact = true
			return nil
		}
		m.stats.Cycles++
	}
}

// maybeOracle runs the periodic full re-solve when configured.
func (m *DynamicMatcher) maybeOracle() {
	if m.opts.OracleEvery > 0 && m.stats.Events%m.opts.OracleEvery == 0 {
		m.OracleDrift()
	}
}

// OracleDrift re-solves the current live instance from scratch with
// the Bellman–Ford reference solver and returns the relative cost
// drift (cost − opt) / opt of the incremental matching, recording it
// in ChurnStats. Zero (to float noise) whenever the matcher is exact.
func (m *DynamicMatcher) OracleDrift() float64 {
	_, opt := flowgraph.RefSolveMetric(flowProviders(m.providers), m.g.LiveCustomers(), 1, m.g.Metric())
	cost := m.g.Cost()
	var drift float64
	switch {
	case opt > 0:
		drift = (cost - opt) / opt
	default:
		drift = cost
	}
	if drift < 0 {
		drift = 0 // float summation noise
	}
	m.stats.OracleChecks++
	m.stats.LastDrift = drift
	if drift > m.stats.MaxDrift {
		m.stats.MaxDrift = drift
	}
	return drift
}

// Stats returns the event and repair counters accumulated so far.
func (m *DynamicMatcher) Stats() ChurnStats { return m.stats }

// Exact reports whether the current matching is known minimum-cost
// (no repair debt outstanding from budgeted events).
func (m *DynamicMatcher) Exact() bool { return m.exact }

// Live returns the number of customers currently present.
func (m *DynamicMatcher) Live() int { return m.g.LiveCount() }

// LiveCustomers returns the customers currently present, in no
// particular order.
func (m *DynamicMatcher) LiveCustomers() []rtree.Item {
	out := make([]rtree.Item, m.g.LiveCount())
	for i := range out {
		c := m.g.Customer(int32(i))
		out[i] = rtree.Item{ID: c.ExtID, Pt: c.Pt}
	}
	return out
}

// Capacity returns the current total provider capacity Σ q.k.
func (m *DynamicMatcher) Capacity() int {
	total := 0
	for _, p := range m.providers {
		total += p.Cap
	}
	return total
}

// ProviderCap returns provider i's current capacity (after resizes).
func (m *DynamicMatcher) ProviderCap(i int) int { return m.providers[i].Cap }

// Matching returns the current matching.
func (m *DynamicMatcher) Matching() *Result {
	return finish(m.g, Metrics{})
}

// Size returns the current matching size.
func (m *DynamicMatcher) Size() int { return m.g.AssignedCount() }

// Cost returns the current Ψ(M).
func (m *DynamicMatcher) Cost() float64 { return m.g.Cost() }
