package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// FuzzDynamicChurn fuzzes full churn event streams — arrivals,
// departures, capacity resizes (including shocks to zero) — under
// either metric: bit 3 of the last byte picks the 6×6 road network
// FuzzExactSolvers uses, over a space ten times wider. That byte once
// also chose a re-optimization budget; its other bits now select
// nothing, so the committed corpus inputs keep their instances. After
// every event it checks:
//
//   - an optimality certificate: every residual edge has a
//     non-negative reduced cost (CheckReducedCosts), one Bellman–Ford
//     pass finds no negative cycle (CancelNegativeCycle), and Size()
//     is min(Σcap, live), so the matching is a minimum-cost maximum
//     one;
//   - capacity conservation after every resize (no provider carries
//     more than its current capacity);
//   - no orphaned assignments after a departure (departed customers
//     never appear in the matching, no customer is matched twice);
//   - Size() and Cost() agree with a recount of the pair list, and
//     every pair's distance is exactly what the metric says;
//   - stats counters partition the event history;
//   - duplicate-id arrivals and unknown-id departs/resizes fail with
//     the sentinel errors and leave the matching untouched;
//   - a shadow matcher fed every arrival through ArriveWithRow, with
//     the primary's Row, over a metric that fails the test if asked,
//     holds the same pairs, cost bits and size (a session log's
//     replay).
//
// The from-scratch re-solve oracle is deliberately absent here (too
// slow for a fuzz loop); the conformance suite compares against it.
func FuzzDynamicChurn(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(60), uint8(0))
	f.Add(int64(2), uint8(1), uint8(120), uint8(1))
	f.Add(int64(3), uint8(12), uint8(200), uint8(3))
	f.Add(int64(7), uint8(6), uint8(255), uint8(2))
	f.Add(int64(11), uint8(2), uint8(30), uint8(0))
	f.Add(int64(5), uint8(5), uint8(150), uint8(12))
	f.Add(int64(13), uint8(9), uint8(220), uint8(14))
	f.Add(int64(17), uint8(3), uint8(90), uint8(13))
	// One network for every input, as in FuzzExactSolvers: its caches
	// only memoize canonical distances.
	space := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}
	network := netmetric.FromNetwork(datagen.NewNetwork(6, space, 6))
	f.Fuzz(func(t *testing.T, seed int64, nqRaw, nRaw, modeRaw uint8) {
		nq := 1 + int(nqRaw)%12
		n := int(nRaw)
		var metric geo.Metric = geo.Euclidean
		scale := 1.0
		if modeRaw&8 != 0 {
			metric, scale = network, 10
		}
		rng := rand.New(rand.NewSource(seed))
		providers := make([]Provider, nq)
		for i := range providers {
			providers[i] = Provider{
				Pt:  geo.Point{X: rng.Float64() * 100 * scale, Y: rng.Float64() * 100 * scale},
				Cap: 1 + rng.Intn(4),
			}
		}
		events := genChurnEvents(rng, n, nq, 5)
		for i := range events {
			events[i].pt = geo.Point{X: events[i].pt.X * scale, Y: events[i].pt.Y * scale}
		}

		m := NewDynamicMatcherOpts(providers, DynamicOptions{Metric: metric})
		shadow := NewDynamicMatcherOpts(providers, DynamicOptions{Metric: unaskedMetric{t}})
		o := newChurnMirror(providers)
		departed := []int64{}
		for step, ev := range events {
			applyChurnEvent(t, m, o, ev)
			applyRowEvent(t, shadow, m, ev)
			checkSameMatching(t, step, shadow, m)
			if ev.kind == 1 {
				departed = append(departed, ev.id)
			}
			checkFeasible(t, step, m, o, metric)
			if err := m.g.CheckFlowConservation(); err != nil {
				t.Fatalf("step %d (%+v): %v", step, ev, err)
			}
			if m.Live() != len(o.order) {
				t.Fatalf("step %d: Live() %d, mirror has %d", step, m.Live(), len(o.order))
			}
			checkOptimal(t, step, m, scale)
		}

		st := m.Stats()
		if st.Events != len(events) {
			t.Fatalf("Events %d, applied %d", st.Events, len(events))
		}
		if st.Arrivals+st.Departures+st.Resizes != st.Events {
			t.Fatalf("counters %d+%d+%d don't partition %d events",
				st.Arrivals, st.Departures, st.Resizes, st.Events)
		}

		// Error paths must not disturb the matching.
		size, cost := m.Size(), m.Cost()
		for _, id := range o.order { // live id re-arrival
			if _, err := m.Arrive(geo.Point{}, id); !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("re-arrive live %d: %v, want ErrDuplicateID", id, err)
			}
			break
		}
		for _, id := range departed { // departed ids stay burned
			if _, err := m.Arrive(geo.Point{}, id); !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("re-arrive departed %d: %v, want ErrDuplicateID", id, err)
			}
			if _, err := m.Depart(id); !errors.Is(err, ErrUnknownID) {
				t.Fatalf("re-depart %d: %v, want ErrUnknownID", id, err)
			}
			break
		}
		if _, err := m.Depart(int64(len(events)) + 1e6); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("depart unknown: %v, want ErrUnknownID", err)
		}
		if err := m.ResizeProvider(nq, 1); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("resize out of range: %v, want ErrUnknownID", err)
		}
		if err := m.ResizeProvider(0, -1); err == nil || errors.Is(err, ErrUnknownID) {
			t.Fatalf("resize negative cap: %v, want plain validation error", err)
		}
		if m.Size() != size || m.Cost() != cost {
			t.Fatalf("rejected events changed the matching: size %d->%d cost %v->%v",
				size, m.Size(), cost, m.Cost())
		}
		checkFeasible(t, len(events), m, o, metric)
	})
}

// checkOptimal certifies the matcher's matching as a minimum-cost
// maximum one: non-negative reduced costs on every residual edge (to
// float drift, which grows with the coordinates' scale), no negative
// residual cycle, and the maximum size.
func checkOptimal(t *testing.T, step int, m *DynamicMatcher, scale float64) {
	t.Helper()
	if err := m.g.CheckReducedCosts(1e-6 * scale); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if found, err := m.g.CancelNegativeCycle(); err != nil || found {
		t.Fatalf("step %d: residual graph has a negative cycle (found %v, err %v)", step, found, err)
	}
	if want := min(m.Capacity(), m.Live()); m.Size() != want {
		t.Fatalf("step %d: size %d, want min(capacity %d, live %d)", step, m.Size(), m.Capacity(), m.Live())
	}
}

// unaskedMetric is the metric of a matcher that must get every distance
// from a cost row: asking it fails the test.
type unaskedMetric struct{ t *testing.T }

func (unaskedMetric) Name() string { return "unasked" }

func (m unaskedMetric) Dist(p, q geo.Point) float64 {
	m.t.Fatalf("metric asked for the distance %v–%v", p, q)
	return 0
}

// applyRowEvent drives ev into the shadow matcher, each arrival with
// the cost row the primary matcher (which already took ev) reports.
func applyRowEvent(t *testing.T, shadow, primary *DynamicMatcher, ev churnEvent) {
	t.Helper()
	var err error
	switch ev.kind {
	case 0:
		_, err = shadow.ArriveWithRow(ev.pt, ev.id, primary.Row(ev.id))
	case 1:
		_, err = shadow.Depart(ev.id)
	case 2:
		err = shadow.ResizeProvider(ev.provider, ev.newCap)
	}
	if err != nil {
		t.Fatalf("shadow %+v: %v", ev, err)
	}
}

// checkSameMatching requires got to hold want's matching: the same
// pairs in the same order with the same distance bits, cost bits and
// size.
func checkSameMatching(t *testing.T, step int, got, want *DynamicMatcher) {
	t.Helper()
	g, w := got.Matching(), want.Matching()
	if g.Size != w.Size || math.Float64bits(g.Cost) != math.Float64bits(w.Cost) || len(g.Pairs) != len(w.Pairs) {
		t.Fatalf("step %d: shadow size %d cost %v (%d pairs), primary size %d cost %v (%d pairs)",
			step, g.Size, g.Cost, len(g.Pairs), w.Size, w.Cost, len(w.Pairs))
	}
	for i := range g.Pairs {
		a, b := g.Pairs[i], w.Pairs[i]
		if a.Provider != b.Provider || a.CustomerID != b.CustomerID || math.Float64bits(a.Dist) != math.Float64bits(b.Dist) {
			t.Fatalf("step %d: shadow pair %d is %+v, primary's %+v", step, i, a, b)
		}
	}
}
