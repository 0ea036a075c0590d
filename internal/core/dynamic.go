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
// behavior (Euclidean metric).
type DynamicOptions struct {
	// Metric is the edge-cost backend; nil means Euclidean.
	Metric geo.Metric
}

// ChurnStats counts a matcher's event history, the repairs it ran and
// the drift its OracleDrift checks measured.
type ChurnStats struct {
	Events     int // arrivals + departures + resizes accepted
	Arrivals   int
	Departures int
	Resizes    int

	Augments int // repairs that grew the matching (arrivals, capacity growth)
	Swaps    int // full-capacity arrivals swapped in
	// Cycles counts the repairs that kept the size and moved flow, each
	// a residual cycle: swap-ins, a departed customer's unit re-routed
	// to a waiting customer, an evicting shrink served elsewhere, and
	// added capacity that draws customers from other providers.
	Cycles int

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
// The matcher carries potentials across events, as SSPA carries them
// across iterations, so every event leaves the exact optimum at the
// cost of one reduced-cost Dijkstra per unit of capacity or demand it
// changes: an arrival augments, or at full capacity swaps in along
// the cheapest residual cycle through its sink edge; a departure
// re-routes the unit its provider was left with to a waiting customer,
// or back to the source; a shrink below the usage takes each excess
// unit off along the cheapest path into the provider; growth routes
// each new unit of a full provider like a departure's.
//
// The matcher keeps the full bipartite graph in memory (complete
// mode), so it suits the moderate |P| of online scenarios rather than
// the disk-resident batch setting of RIA/NIA/IDA. Each arrival asks
// the metric for its |Q| distances once (or takes them from
// ArriveWithRow) and stores them as a cost row that every later search
// reads back; Row exposes it. A customer's graph index is its
// live position, so a session's whole state — rows (|Q|·|live|·8 B),
// potentials, flows, assignments and search scratch — is
// O(|Q|·|live|), however many customers have come and gone. Only the
// id ledger grows with every arrival, because ids stay unique for the
// whole session.
type DynamicMatcher struct {
	g         *flowgraph.Graph
	providers []Provider

	// ids maps every id ever accepted to its customer's live position,
	// or to -1 once it departed (duplicate detection).
	ids map[int64]int32

	stats ChurnStats
}

// NewDynamicMatcher starts an empty matching over the given providers
// with default options (Euclidean).
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
		ids:       make(map[int64]int32),
	}
}

// Arrive adds a customer and restores optimality. While provider
// capacity remains, the new customer is matched along one shortest
// augmenting path. Once capacity is exhausted the matching size cannot
// grow, but the arrival can still improve its composition: the
// cheapest residual cycle through the new customer, when negative,
// swaps out a more expensive customer. Ids must be unique across the
// session — re-arriving a departed id is ErrDuplicateID.
//
// The returned flag reports whether this customer is matched right
// now; later events may re-route or even evict it (fetch the current
// state with Matching).
func (m *DynamicMatcher) Arrive(pt geo.Point, id int64) (bool, error) {
	return m.arrive(pt, id, nil)
}

// MaxRowDist is the largest distance ArriveWithRow accepts. The matcher
// sums distances (a matching's cost, a node's potential), and the sums
// must stay finite: at 1e300 each, more than 1e8 of them fit.
const MaxRowDist = 1e300

// ArriveWithRow is Arrive with the customer's cost row supplied: row[q]
// is its distance to provider q, as Row reported it when the customer
// arrived before (a session log replaying its events). The metric is
// not asked, so the result is Arrive's exactly when row is the one the
// metric gives. A row that is not |Q| long or holds a distance outside
// [0, MaxRowDist] (negative, NaN, infinite) is rejected before anything
// changes.
func (m *DynamicMatcher) ArriveWithRow(pt geo.Point, id int64, row []float64) (bool, error) {
	if len(row) != len(m.providers) {
		return false, fmt.Errorf("dynamic: customer %d: cost row has %d distances, want %d", id, len(row), len(m.providers))
	}
	for q, d := range row {
		// Inverted so that NaN fails too.
		if !(d >= 0 && d <= MaxRowDist) {
			return false, fmt.Errorf("dynamic: customer %d: distance %v to provider %d is outside [0, %g]", id, d, q, MaxRowDist)
		}
	}
	return m.arrive(pt, id, row)
}

// arrive is Arrive and ArriveWithRow; a nil row asks the metric.
func (m *DynamicMatcher) arrive(pt geo.Point, id int64, row []float64) (bool, error) {
	if _, ok := m.ids[id]; ok {
		return false, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	c := m.g.AddCustomer(pt, 1, id, row)
	m.ids[id] = c
	m.stats.Events++
	m.stats.Arrivals++
	swapped, err := m.g.Admit(c)
	if err != nil {
		return false, err
	}
	matched := m.g.CustomerFull(c)
	switch {
	case swapped:
		m.stats.Swaps++
		m.stats.Cycles++
	case matched:
		m.stats.Augments++
	}
	return matched, nil
}

// Depart removes a previously arrived customer and repairs the
// matching: the unit of capacity it held goes to a waiting customer
// if any (possibly re-routing others), else back to the source, moving
// others only where that is cheaper. It returns whether the customer
// was matched at the moment it left. Departing an id that is not
// currently present is ErrUnknownID.
func (m *DynamicMatcher) Depart(id int64) (bool, error) {
	c, ok := m.ids[id]
	if !ok || c < 0 {
		return false, fmt.Errorf("%w: customer %d", ErrUnknownID, id)
	}
	q, err := m.g.RemoveCustomer(c)
	if err != nil {
		return false, err
	}
	m.ids[id] = -1
	// The last customer moved into c's position.
	if int(c) < m.g.LiveCount() {
		m.ids[m.g.Customer(c).ExtID] = c
	}
	m.stats.Events++
	m.stats.Departures++
	if q >= 0 {
		toSink, err := m.g.Reroute(q)
		if err != nil {
			return false, err
		}
		if toSink {
			m.stats.Cycles++
		}
	}
	return q >= 0, nil
}

// ResizeProvider changes provider i's capacity. Shrinking below the
// provider's current usage takes each excess unit off along the
// cheapest path into it: served elsewhere when another provider has
// room, otherwise by unmatching a customer (who stays in the pool).
// Growing a full provider routes each new unit to a waiting customer,
// or draws customers from other providers where that is cheaper. An
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
	oldCap := m.providers[i].Cap
	m.providers[i].Cap = newCap
	m.stats.Events++
	m.stats.Resizes++
	for m.g.ProviderUsed(q) > newCap {
		kept, err := m.g.Shed(q)
		if err != nil {
			return err
		}
		if kept {
			m.stats.Cycles++
		}
	}
	// Each unit added while q is full is one more s→q edge; once q
	// hands a unit straight back it has room, and the rest change no
	// residual edge.
	for k := oldCap; k < newCap && m.g.ProviderUsed(q) == k; k++ {
		toSink, err := m.g.Reroute(q)
		if err != nil {
			return err
		}
		switch {
		case toSink:
			m.stats.Augments++
		case m.g.ProviderUsed(q) > k:
			m.stats.Cycles++
		}
	}
	return nil
}

// OracleDrift re-solves the current live instance from scratch with
// the Bellman–Ford reference solver and returns the relative cost
// drift (cost − opt) / opt of the incremental matching, recording it
// in ChurnStats. Zero, to float noise: every event leaves the optimum.
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

// Row returns live customer id's cost row: its distance to each
// provider, in provider order, as its arrival read them. The slice is a
// read-only view of the matcher's state, valid until the next event;
// nil when id is not present.
func (m *DynamicMatcher) Row(id int64) []float64 {
	c, ok := m.ids[id]
	if !ok || c < 0 {
		return nil
	}
	return m.g.Row(c)
}

// Stats returns the event and repair counters accumulated so far.
func (m *DynamicMatcher) Stats() ChurnStats { return m.stats }

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
