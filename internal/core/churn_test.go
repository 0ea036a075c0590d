package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/flowgraph"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// The churn conformance suite replays randomized arrive/depart/resize
// sequences against the Bellman–Ford full re-solve oracle. At every
// step the matching must be feasible, maximum, and *be* the optimum
// (identical pair set under Euclidean, cost-identical to float noise
// under the network metric).

// churnMirror tracks the instance the matcher should currently hold,
// for from-scratch oracle re-solves.
type churnMirror struct {
	providers []Provider
	order     []int64 // live ids in arrival order (deterministic oracle input)
	pts       map[int64]geo.Point
}

func newChurnMirror(providers []Provider) *churnMirror {
	own := make([]Provider, len(providers))
	copy(own, providers)
	return &churnMirror{providers: own, pts: map[int64]geo.Point{}}
}

func (o *churnMirror) arrive(id int64, pt geo.Point) {
	o.order = append(o.order, id)
	o.pts[id] = pt
}

func (o *churnMirror) depart(id int64) {
	delete(o.pts, id)
	for i, v := range o.order {
		if v == id {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
}

func (o *churnMirror) customers() []flowgraph.Customer {
	out := make([]flowgraph.Customer, 0, len(o.order))
	for _, id := range o.order {
		out = append(out, flowgraph.Customer{Pt: o.pts[id], Cap: 1, ExtID: id})
	}
	return out
}

func (o *churnMirror) solve(metric geo.Metric) ([]flowgraph.Pair, float64) {
	return flowgraph.RefSolveMetric(flowProviders(o.providers), o.customers(), 1, metric)
}

// pairKey canonicalizes a matching for set comparison.
func pairKey(provider int, custID int64) string {
	return fmt.Sprintf("%d:%d", provider, custID)
}

func matcherPairSet(m *DynamicMatcher) map[string]float64 {
	out := map[string]float64{}
	for _, p := range m.Matching().Pairs {
		out[pairKey(p.Provider, p.CustomerID)] = p.Dist
	}
	return out
}

func oraclePairSet(pairs []flowgraph.Pair) map[string]float64 {
	out := map[string]float64{}
	for _, p := range pairs {
		out[pairKey(p.Provider, p.CustID)] = p.Dist
	}
	return out
}

// checkFeasible validates the snapshot against the mirror: capacity
// conservation, no duplicate or departed customers, distances from the
// metric, and cost/size agreeing with a recount.
func checkFeasible(t *testing.T, step int, m *DynamicMatcher, o *churnMirror, metric geo.Metric) {
	t.Helper()
	if metric == nil {
		metric = geo.Euclidean
	}
	res := m.Matching()
	used := make(map[int]int)
	seen := make(map[int64]bool)
	cost := 0.0
	for _, p := range res.Pairs {
		used[p.Provider]++
		if seen[p.CustomerID] {
			t.Fatalf("step %d: customer %d matched twice", step, p.CustomerID)
		}
		seen[p.CustomerID] = true
		pt, live := o.pts[p.CustomerID]
		if !live {
			t.Fatalf("step %d: departed customer %d still matched", step, p.CustomerID)
		}
		if d := metric.Dist(o.providers[p.Provider].Pt, pt); d != p.Dist {
			t.Fatalf("step %d: pair (%d,%d) dist %v, metric says %v", step, p.Provider, p.CustomerID, p.Dist, d)
		}
		cost += p.Dist
	}
	for q, u := range used {
		if u > o.providers[q].Cap {
			t.Fatalf("step %d: provider %d carries %d > cap %d", step, q, u, o.providers[q].Cap)
		}
	}
	if len(res.Pairs) != m.Size() {
		t.Fatalf("step %d: Size() %d != recount %d", step, m.Size(), len(res.Pairs))
	}
	if math.Abs(cost-m.Cost()) > 1e-9*(1+cost) {
		t.Fatalf("step %d: Cost() %v != recount %v", step, m.Cost(), cost)
	}
}

// churnEvent is one generated conformance event.
type churnEvent struct {
	kind     int // 0 arrive, 1 depart, 2 resize
	id       int64
	pt       geo.Point
	provider int
	newCap   int
}

// genChurnEvents builds a deterministic random event stream with all
// three event kinds. maxCap bounds resize targets; departs pick a
// random live id.
func genChurnEvents(rng *rand.Rand, n, nq, maxCap int) []churnEvent {
	var events []churnEvent
	var live []int64
	nextID := int64(0)
	for len(events) < n {
		r := rng.Float64()
		switch {
		case r < 0.55 || len(live) == 0:
			pt := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			events = append(events, churnEvent{kind: 0, id: nextID, pt: pt})
			live = append(live, nextID)
			nextID++
		case r < 0.85:
			i := rng.Intn(len(live))
			events = append(events, churnEvent{kind: 1, id: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			events = append(events, churnEvent{
				kind:     2,
				provider: rng.Intn(nq),
				newCap:   rng.Intn(maxCap + 1), // 0 allowed: full capacity shock
			})
		}
	}
	return events
}

// applyChurnEvent drives one event into both the matcher and the
// mirror.
func applyChurnEvent(t *testing.T, m *DynamicMatcher, o *churnMirror, ev churnEvent) {
	t.Helper()
	switch ev.kind {
	case 0:
		if _, err := m.Arrive(ev.pt, ev.id); err != nil {
			t.Fatalf("arrive %d: %v", ev.id, err)
		}
		o.arrive(ev.id, ev.pt)
	case 1:
		if _, err := m.Depart(ev.id); err != nil {
			t.Fatalf("depart %d: %v", ev.id, err)
		}
		o.depart(ev.id)
	case 2:
		if err := m.ResizeProvider(ev.provider, ev.newCap); err != nil {
			t.Fatalf("resize %d->%d: %v", ev.provider, ev.newCap, err)
		}
		o.providers[ev.provider].Cap = ev.newCap
	}
}

// runChurnConformance replays events, checking the matcher against the
// oracle after every single event: equal size, cost equal to float
// noise, and with exactPairs the oracle's very pairs.
func runChurnConformance(t *testing.T, providers []Provider, events []churnEvent, opts DynamicOptions, exactPairs bool) {
	t.Helper()
	m := NewDynamicMatcherOpts(providers, opts)
	o := newChurnMirror(providers)
	metric := opts.Metric
	if metric == nil {
		metric = geo.Euclidean
	}
	for step, ev := range events {
		applyChurnEvent(t, m, o, ev)
		checkFeasible(t, step, m, o, metric)
		refPairs, refCost := o.solve(metric)
		if m.Size() != len(refPairs) {
			t.Fatalf("step %d (%+v): size %d, oracle %d", step, ev, m.Size(), len(refPairs))
		}
		if cost := m.Cost(); math.Abs(cost-refCost) > 1e-9*(1+refCost) {
			t.Fatalf("step %d (%+v): cost %v, oracle %v", step, ev, cost, refCost)
		}
		if exactPairs {
			got, want := matcherPairSet(m), oraclePairSet(refPairs)
			if len(got) != len(want) {
				t.Fatalf("step %d: %d pairs vs oracle %d", step, len(got), len(want))
			}
			for k, d := range want {
				if gd, ok := got[k]; !ok || gd != d {
					t.Fatalf("step %d: pair %s missing or dist %v != oracle %v", step, k, got[k], d)
				}
			}
		}
	}
}

func churnProviders(rng *rand.Rand, nq, lo, hi int) []Provider {
	out := make([]Provider, nq)
	for i := range out {
		out[i] = Provider{
			Pt:  geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Cap: lo + rng.Intn(hi-lo+1),
		}
	}
	return out
}

// Euclidean: every step must be the exact optimum, pair-for-pair.
// Tight (total capacity ~ a third of peak live set) and loose capacity
// regimes; >= 1k events total across the seeds.
func TestChurnConformanceEuclideanExact(t *testing.T) {
	cases := []struct {
		name       string
		seed       int64
		nq, lo, hi int
		events     int
	}{
		{"tight", 1, 5, 1, 3, 400},
		{"loose", 2, 6, 3, 6, 400},
		{"single-provider", 3, 1, 1, 2, 200},
		{"many-providers", 4, 12, 1, 2, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			providers := churnProviders(rng, tc.nq, tc.lo, tc.hi)
			events := genChurnEvents(rng, tc.events, tc.nq, tc.hi+2)
			runChurnConformance(t, providers, events, DynamicOptions{}, true)
		})
	}
}

// The scarce-capacity streams that once ran under re-opt budgets 1, 2
// and 8 (six providers of capacity 1–3, 400 events, seed 100+budget).
// The matcher has no budget any more, so each is now held to the exact
// optimum, pair-for-pair; the cases keep their names and streams.
func TestChurnConformanceBudgeted(t *testing.T) {
	for _, budget := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + budget)))
			providers := churnProviders(rng, 6, 1, 3)
			events := genChurnEvents(rng, 400, 6, 5)
			runChurnConformance(t, providers, events, DynamicOptions{}, true)
		})
	}
}

// Under the road-network metric the cost must match the oracle exactly
// (to float noise) at every step. Pair sets are not
// compared — network distances can tie across distinct assignments.
func TestChurnConformanceNetworkExact(t *testing.T) {
	net := datagen.NewNetwork(12, geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 100, Y: 100}}, 2008)
	metric := netmetric.FromNetwork(net)
	rng := rand.New(rand.NewSource(7))
	qpts := net.Points(datagen.Config{N: 5, Seed: 8})
	providers := make([]Provider, len(qpts))
	for i, pt := range qpts {
		providers[i] = Provider{Pt: pt, Cap: 1 + rng.Intn(3)}
	}
	// Customers must sit on the network too for meaningful distances.
	cpts := net.Points(datagen.Config{N: 400, Seed: 9})
	events := genChurnEvents(rng, 350, len(providers), 4)
	next := 0
	for i := range events {
		if events[i].kind == 0 {
			events[i].pt = cpts[next]
			next++
		}
	}
	runChurnConformance(t, providers, events, DynamicOptions{Metric: metric}, false)
}

// The named datagen scenarios replay exactly against the oracle — the
// generators emit only valid event streams and the matcher stays
// optimal through all of them.
func TestChurnScenariosMatchOracle(t *testing.T) {
	space := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 100, Y: 100}}
	net := datagen.NewNetwork(8, space, 2008)
	for _, name := range datagen.ChurnScenarios() {
		t.Run(name, func(t *testing.T) {
			w, err := datagen.NewChurn(name, net, datagen.ChurnConfig{Events: 300, Providers: 6, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			providers := make([]Provider, len(w.Providers))
			for i, p := range w.Providers {
				providers[i] = Provider{Pt: p.Pt, Cap: p.Cap}
			}
			m := NewDynamicMatcherOpts(providers, DynamicOptions{})
			o := newChurnMirror(providers)
			for step, ev := range w.Events {
				switch ev.Kind {
				case datagen.EventArrive:
					if _, err := m.Arrive(ev.Pt, ev.ID); err != nil {
						t.Fatalf("step %d arrive: %v", step, err)
					}
					o.arrive(ev.ID, ev.Pt)
				case datagen.EventDepart:
					if _, err := m.Depart(ev.ID); err != nil {
						t.Fatalf("step %d depart: %v", step, err)
					}
					o.depart(ev.ID)
				case datagen.EventResize:
					if err := m.ResizeProvider(ev.Provider, ev.NewCap); err != nil {
						t.Fatalf("step %d resize: %v", step, err)
					}
					o.providers[ev.Provider].Cap = ev.NewCap
				}
				if step%10 == 0 || step == len(w.Events)-1 {
					checkFeasible(t, step, m, o, nil)
					_, refCost := o.solve(nil)
					if math.Abs(m.Cost()-refCost) > 1e-9*(1+refCost) {
						t.Fatalf("step %d: cost %v, oracle %v", step, m.Cost(), refCost)
					}
				}
			}
			st := m.Stats()
			if st.Events != len(w.Events) {
				t.Fatalf("stats counted %d events, replayed %d", st.Events, len(w.Events))
			}
		})
	}
}

// Sentinel errors: duplicate arrivals (including re-arriving a
// departed id) and unknown departures/resizes must be typed.
func TestChurnSentinelErrors(t *testing.T) {
	m := NewDynamicMatcher([]Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 1}})
	if _, err := m.Arrive(geo.Point{X: 1, Y: 1}, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Arrive(geo.Point{X: 2, Y: 2}, 7); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate arrival: got %v, want ErrDuplicateID", err)
	}
	if _, err := m.Depart(99); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown depart: got %v, want ErrUnknownID", err)
	}
	if _, err := m.Depart(7); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Depart(7); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double depart: got %v, want ErrUnknownID", err)
	}
	if _, err := m.Arrive(geo.Point{X: 3, Y: 3}, 7); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("re-arrival of departed id: got %v, want ErrDuplicateID", err)
	}
	if err := m.ResizeProvider(5, 1); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("out-of-range resize: got %v, want ErrUnknownID", err)
	}
	if err := m.ResizeProvider(0, -1); err == nil || errors.Is(err, ErrUnknownID) {
		t.Fatalf("negative capacity: got %v, want a plain validation error", err)
	}
}

// Directed micro-scenarios where the repair provably matters.
func TestChurnDepartRepairsDisplacedCustomer(t *testing.T) {
	// A at 0 (cap 1), B at 10 (cap 1). c0 at 4 takes A; c1 at 1 arrives
	// and re-routes c0 to B. When c1 departs, c0 must move back to A.
	providers := []Provider{
		{Pt: geo.Point{X: 0, Y: 0}, Cap: 1},
		{Pt: geo.Point{X: 10, Y: 0}, Cap: 1},
	}
	m := NewDynamicMatcher(providers)
	mustArrive := func(x float64, id int64) {
		if _, err := m.Arrive(geo.Point{X: x, Y: 0}, id); err != nil {
			t.Fatal(err)
		}
	}
	mustArrive(4, 0)
	mustArrive(1, 1)
	if pairFor(m, 0) != 1 {
		t.Fatalf("setup: c0 should be displaced to B, got %d", pairFor(m, 0))
	}
	wasMatched, err := m.Depart(1)
	if err != nil {
		t.Fatal(err)
	}
	if !wasMatched {
		t.Fatal("c1 was matched when it departed")
	}
	if q := pairFor(m, 0); q != 0 {
		t.Fatalf("after depart, c0 should return to A, got %d", q)
	}
	if m.Size() != 1 || math.Abs(m.Cost()-4) > 1e-9 {
		t.Fatalf("final state: size %d cost %v, want 1 / 4", m.Size(), m.Cost())
	}
}

func TestChurnResizeShrinkEvictsAndGrowReadmits(t *testing.T) {
	// One provider, cap 2, three customers; shrink to 1 must keep only
	// the closest, grow to 3 must re-admit the waiting two.
	providers := []Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 2}}
	m := NewDynamicMatcher(providers)
	for i, x := range []float64{5, 3, 8} {
		if _, err := m.Arrive(geo.Point{X: x, Y: 0}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Size() != 2 || math.Abs(m.Cost()-8) > 1e-9 { // 3 + 5
		t.Fatalf("setup: size %d cost %v, want 2 / 8", m.Size(), m.Cost())
	}
	if err := m.ResizeProvider(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 || math.Abs(m.Cost()-3) > 1e-9 {
		t.Fatalf("after shrink: size %d cost %v, want 1 / 3 (closest kept)", m.Size(), m.Cost())
	}
	if err := m.ResizeProvider(0, 3); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 3 || math.Abs(m.Cost()-16) > 1e-9 {
		t.Fatalf("after grow: size %d cost %v, want 3 / 16", m.Size(), m.Cost())
	}
	if err := m.ResizeProvider(0, 0); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 || m.Cost() != 0 {
		t.Fatalf("after shock to 0: size %d cost %v", m.Size(), m.Cost())
	}
}

// Drift bookkeeping: OracleDrift, called every 25 events, must be
// counted and read (near) zero drift.
func TestChurnDriftStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	providers := churnProviders(rng, 6, 1, 3)
	events := genChurnEvents(rng, 300, 6, 5)

	m := NewDynamicMatcher(providers)
	o := newChurnMirror(providers)
	for i, ev := range events {
		applyChurnEvent(t, m, o, ev)
		if (i+1)%25 == 0 {
			m.OracleDrift()
		}
	}
	st := m.Stats()
	if st.OracleChecks != len(events)/25 {
		t.Fatalf("OracleChecks %d, want %d", st.OracleChecks, len(events)/25)
	}
	if st.MaxDrift > 1e-9 {
		t.Fatalf("matcher drifted: MaxDrift %v", st.MaxDrift)
	}
	if st.Events != len(events) {
		t.Fatalf("events %d, want %d", st.Events, len(events))
	}
}

// countingMetric counts the Dist calls a matcher makes.
type countingMetric struct {
	geo.Metric
	calls int
}

func (m *countingMetric) Dist(p, q geo.Point) float64 {
	m.calls++
	return m.Metric.Dist(p, q)
}

// The churn graph computes a customer's |Q| distances once, on
// arrival, and every later read comes from its cost row: Arrive asks
// the metric exactly |Q| times, while Depart, ResizeProvider, Matching
// and Cost never ask it. The stream must reach swaps at full capacity,
// departures of matched customers and shrinking resizes that evict,
// or the pin proves nothing about those paths.
func TestChurnMetricCallsPerEvent(t *testing.T) {
	// budget=0 named the unbounded re-optimization, the only one left.
	t.Run("budget=0", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		providers := churnProviders(rng, 7, 1, 3)
		events := genChurnEvents(rng, 600, len(providers), 4)
		metric := &countingMetric{Metric: geo.Euclidean}
		m := NewDynamicMatcherOpts(providers, DynamicOptions{Metric: metric})
		nq := len(providers)
		evictions, matchedDeparts := 0, 0
		for step, ev := range events {
			before := metric.calls
			want := 0
			switch ev.kind {
			case 0:
				if _, err := m.Arrive(ev.pt, ev.id); err != nil {
					t.Fatal(err)
				}
				want = nq
			case 1:
				wasMatched, err := m.Depart(ev.id)
				if err != nil {
					t.Fatal(err)
				}
				if wasMatched {
					matchedDeparts++
				}
			case 2:
				if m.g.ProviderUsed(int32(ev.provider)) > ev.newCap {
					evictions++
				}
				if err := m.ResizeProvider(ev.provider, ev.newCap); err != nil {
					t.Fatal(err)
				}
			}
			m.Matching()
			m.Cost()
			if got := metric.calls - before; got != want {
				t.Fatalf("step %d (%+v): %d Dist calls, want %d", step, ev, got, want)
			}
		}
		st := m.Stats()
		if st.Swaps == 0 || st.Cycles == 0 || matchedDeparts == 0 || evictions == 0 {
			t.Fatalf("stream misses a path: %+v, %d matched departures, %d evicting resizes",
				st, matchedDeparts, evictions)
		}
	})
}
