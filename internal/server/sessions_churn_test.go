package server_test

import (
	"context"
	"net/http"
	"strings"
	"testing"

	cca "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/server"
)

// churnWorkload generates a deterministic scenario stream for the
// session churn tests.
func churnWorkload(t *testing.T, scenario string, events, providers int, seed int64) *datagen.ChurnWorkload {
	t.Helper()
	n := datagen.NewNetwork(8, geo.Rect{Max: geo.Point{X: 1000, Y: 1000}}, seed)
	w, err := datagen.NewChurn(scenario, n, datagen.ChurnConfig{Events: events, Providers: providers, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sessionProviders(w *datagen.ChurnWorkload) ([]cca.Provider, []client.Provider) {
	core := make([]cca.Provider, len(w.Providers))
	wire := make([]client.Provider, len(w.Providers))
	for i, p := range w.Providers {
		core[i] = cca.Provider{Pt: cca.Point{X: p.Pt.X, Y: p.Pt.Y}, Cap: p.Cap}
		wire[i] = client.Provider{X: p.Pt.X, Y: p.Pt.Y, Cap: p.Cap}
	}
	return core, wire
}

// TestSessionChurnConformance replays a generated churn stream through
// the HTTP session endpoints and through an in-process DynamicMatcher,
// asserting every response's size/cost/flags equal the in-process
// values exactly — the wire format round-trips float64 losslessly, so
// any divergence is a real behavioral drift. A session created with a
// reopt_budget (still accepted on the wire, but selecting nothing)
// must answer exactly as one created without.
func TestSessionChurnConformance(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{
		{"unlimited", 0},
		{"budget1", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := testServer(t, server.Config{})
			ctx := context.Background()
			w := churnWorkload(t, "ridehail", 300, 6, 17)
			core, wire := sessionProviders(w)

			info, err := h.c.NewSession(ctx, client.SessionRequest{Providers: wire, ReoptBudget: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			ref := cca.NewDynamicMatcher(core)

			for i, ev := range w.Events {
				switch ev.Kind {
				case datagen.EventArrive:
					resp, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: ev.ID, X: ev.Pt.X, Y: ev.Pt.Y})
					if err != nil {
						t.Fatalf("event %d arrive: %v", i, err)
					}
					wantMatched, err := ref.Arrive(cca.Point{X: ev.Pt.X, Y: ev.Pt.Y}, ev.ID)
					if err != nil {
						t.Fatalf("event %d ref arrive: %v", i, err)
					}
					if resp.Matched != wantMatched || resp.Size != ref.Size() || resp.Cost != ref.Cost() {
						t.Fatalf("event %d arrive: got (%v,%d,%v), in-process (%v,%d,%v)",
							i, resp.Matched, resp.Size, resp.Cost, wantMatched, ref.Size(), ref.Cost())
					}
				case datagen.EventDepart:
					resp, err := h.c.Depart(ctx, info.ID, client.DepartRequest{ID: ev.ID})
					if err != nil {
						t.Fatalf("event %d depart: %v", i, err)
					}
					wantMatched, err := ref.Depart(ev.ID)
					if err != nil {
						t.Fatalf("event %d ref depart: %v", i, err)
					}
					if resp.WasMatched != wantMatched || resp.Size != ref.Size() || resp.Cost != ref.Cost() || resp.Live != ref.Live() {
						t.Fatalf("event %d depart: got (%v,%d,%v,%d), in-process (%v,%d,%v,%d)",
							i, resp.WasMatched, resp.Size, resp.Cost, resp.Live, wantMatched, ref.Size(), ref.Cost(), ref.Live())
					}
				case datagen.EventResize:
					resp, err := h.c.Resize(ctx, info.ID, client.ResizeRequest{Provider: ev.Provider, Cap: ev.NewCap})
					if err != nil {
						t.Fatalf("event %d resize: %v", i, err)
					}
					if err := ref.ResizeProvider(ev.Provider, ev.NewCap); err != nil {
						t.Fatalf("event %d ref resize: %v", i, err)
					}
					if resp.Size != ref.Size() || resp.Cost != ref.Cost() || resp.Capacity != ref.Capacity() {
						t.Fatalf("event %d resize: got (%d,%v,%d), in-process (%d,%v,%d)",
							i, resp.Size, resp.Cost, resp.Capacity, ref.Size(), ref.Cost(), ref.Capacity())
					}
				}
			}

			// The final matching must be byte-identical to the in-process one.
			got, err := h.c.Matching(ctx, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			res := ref.Matching()
			want := make(map[client.Pair]bool, len(res.Pairs))
			for _, p := range res.Pairs {
				want[client.Pair{Provider: p.Provider, Customer: p.CustomerID, X: p.CustomerPt.X, Y: p.CustomerPt.Y, Dist: p.Dist}] = true
			}
			if len(got.Pairs) != len(want) || got.Size != res.Size || got.Cost != res.Cost {
				t.Fatalf("final matching: got size %d cost %v, in-process size %d cost %v",
					got.Size, got.Cost, res.Size, res.Cost)
			}
			for _, p := range got.Pairs {
				if !want[p] {
					t.Fatalf("final matching: pair %+v not in in-process matching", p)
				}
			}
		})
	}
}

// TestSessionChurnNetworkConformance replays a churn stream through a
// network-metric session and through an in-process DynamicMatcher over
// the same road network, asserting byte-identical sizes and costs at
// every event. The session forces the contraction hierarchy on
// (net_ch: 1) while the in-process reference keeps it off, so any
// divergence between hierarchy queries and plain forward Dijkstra
// surfaces here as a cost mismatch — the canonical-float contract,
// checked end to end through the wire.
func TestSessionChurnNetworkConformance(t *testing.T) {
	h := testServer(t, server.Config{})
	ctx := context.Background()
	w := churnWorkload(t, "ridehail", 200, 5, 23)
	core, wire := sessionProviders(w)

	const grid, seed = 16, int64(77)
	info, err := h.c.NewSession(ctx, client.SessionRequest{
		Providers: wire,
		Metric:    "network",
		NetGrid:   grid,
		NetSeed:   seed,
		NetCH:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	refMetric := cca.RoadNetworkMetric(grid, cca.Rect{Max: cca.Point{X: 1000, Y: 1000}}, seed)
	ref := cca.NewDynamicMatcherOpts(core, cca.DynamicOptions{Metric: refMetric})

	for i, ev := range w.Events {
		switch ev.Kind {
		case datagen.EventArrive:
			resp, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: ev.ID, X: ev.Pt.X, Y: ev.Pt.Y})
			if err != nil {
				t.Fatalf("event %d arrive: %v", i, err)
			}
			wantMatched, err := ref.Arrive(cca.Point{X: ev.Pt.X, Y: ev.Pt.Y}, ev.ID)
			if err != nil {
				t.Fatalf("event %d ref arrive: %v", i, err)
			}
			if resp.Matched != wantMatched || resp.Size != ref.Size() || resp.Cost != ref.Cost() {
				t.Fatalf("event %d arrive: got (%v,%d,%v), in-process (%v,%d,%v)",
					i, resp.Matched, resp.Size, resp.Cost, wantMatched, ref.Size(), ref.Cost())
			}
		case datagen.EventDepart:
			resp, err := h.c.Depart(ctx, info.ID, client.DepartRequest{ID: ev.ID})
			if err != nil {
				t.Fatalf("event %d depart: %v", i, err)
			}
			wantMatched, err := ref.Depart(ev.ID)
			if err != nil {
				t.Fatalf("event %d ref depart: %v", i, err)
			}
			if resp.WasMatched != wantMatched || resp.Size != ref.Size() || resp.Cost != ref.Cost() {
				t.Fatalf("event %d depart: got (%v,%d,%v), in-process (%v,%d,%v)",
					i, resp.WasMatched, resp.Size, resp.Cost, wantMatched, ref.Size(), ref.Cost())
			}
		case datagen.EventResize:
			resp, err := h.c.Resize(ctx, info.ID, client.ResizeRequest{Provider: ev.Provider, Cap: ev.NewCap})
			if err != nil {
				t.Fatalf("event %d resize: %v", i, err)
			}
			if err := ref.ResizeProvider(ev.Provider, ev.NewCap); err != nil {
				t.Fatalf("event %d ref resize: %v", i, err)
			}
			if resp.Size != ref.Size() || resp.Cost != ref.Cost() || resp.Capacity != ref.Capacity() {
				t.Fatalf("event %d resize: got (%d,%v,%d), in-process (%d,%v,%d)",
					i, resp.Size, resp.Cost, resp.Capacity, ref.Size(), ref.Cost(), ref.Capacity())
			}
		}
	}

	got, err := h.c.Matching(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	res := ref.Matching()
	if got.Size != res.Size || got.Cost != res.Cost {
		t.Fatalf("final matching: got size %d cost %v, in-process size %d cost %v",
			got.Size, got.Cost, res.Size, res.Cost)
	}
}

// TestSessionMetricErrors covers metric validation on session creation:
// unknown metric names, out-of-range grids, and invalid hierarchy modes
// are all 400.
func TestSessionMetricErrors(t *testing.T) {
	h := testServer(t, server.Config{})
	ctx := context.Background()
	providers := []client.Provider{{X: 0, Y: 0, Cap: 1}}

	if _, err := h.c.NewSession(ctx, client.SessionRequest{Providers: providers, Metric: "manhattan"}); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("unknown metric: %v, want 400", err)
	}
	if _, err := h.c.NewSession(ctx, client.SessionRequest{Providers: providers, Metric: "network", NetGrid: 1}); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("grid too small: %v, want 400", err)
	}
	if _, err := h.c.NewSession(ctx, client.SessionRequest{Providers: providers, Metric: "network", NetCH: 7}); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("invalid net_ch: %v, want 400", err)
	}
	// Case-insensitive metric names, like solve instances.
	if _, err := h.c.NewSession(ctx, client.SessionRequest{Providers: providers, Metric: "Network", NetGrid: 8}); err != nil {
		t.Fatalf("capitalized metric name: %v", err)
	}
}

// TestSessionChurnErrors covers the churn endpoints' failure statuses:
// 409 for duplicate arrivals (including re-arriving a departed id),
// 404 for unknown ids, sessions, and provider indices, and 400 for
// invalid capacities and budgets.
func TestSessionChurnErrors(t *testing.T) {
	h := testServer(t, server.Config{})
	ctx := context.Background()
	providers := []client.Provider{{X: 0, Y: 0, Cap: 2}, {X: 10, Y: 10, Cap: 1}}

	if _, err := h.c.NewSession(ctx, client.SessionRequest{Providers: providers, ReoptBudget: -1}); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("negative reopt_budget: %v, want 400", err)
	}

	info, err := h.c.NewSession(ctx, client.SessionRequest{Providers: providers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: 1, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}

	if _, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: 1, X: 2, Y: 2}); statusOf(err) != http.StatusConflict {
		t.Fatalf("duplicate arrive: %v, want 409", err)
	}
	if _, err := h.c.Depart(ctx, info.ID, client.DepartRequest{ID: 99}); statusOf(err) != http.StatusNotFound {
		t.Fatalf("depart unknown id: %v, want 404", err)
	}
	if _, err := h.c.Depart(ctx, info.ID, client.DepartRequest{ID: 1}); err != nil {
		t.Fatalf("depart: %v", err)
	}
	if _, err := h.c.Depart(ctx, info.ID, client.DepartRequest{ID: 1}); statusOf(err) != http.StatusNotFound {
		t.Fatalf("double depart: %v, want 404", err)
	}
	// A departed id stays burned: the session's id space is append-only.
	if _, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: 1, X: 3, Y: 3}); statusOf(err) != http.StatusConflict {
		t.Fatalf("re-arrive departed id: %v, want 409", err)
	}
	if _, err := h.c.Resize(ctx, info.ID, client.ResizeRequest{Provider: 2, Cap: 1}); statusOf(err) != http.StatusNotFound {
		t.Fatalf("resize out of range: %v, want 404", err)
	}
	if _, err := h.c.Resize(ctx, info.ID, client.ResizeRequest{Provider: 0, Cap: -1}); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("resize negative: %v, want 400", err)
	}
	if _, err := h.c.Depart(ctx, "nope", client.DepartRequest{ID: 1}); statusOf(err) != http.StatusNotFound {
		t.Fatalf("depart on unknown session: %v, want 404", err)
	}
	if _, err := h.c.Resize(ctx, "nope", client.ResizeRequest{Provider: 0, Cap: 1}); statusOf(err) != http.StatusNotFound {
		t.Fatalf("resize on unknown session: %v, want 404", err)
	}
}

// TestSessionChurnDrain: once draining, churn events are new work and
// are rejected with 503, while the matching stays readable.
func TestSessionChurnDrain(t *testing.T) {
	h := testServer(t, server.Config{})
	ctx := context.Background()
	info, err := h.c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{Cap: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: 1, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	h.srv.Drain()
	if _, err := h.c.Depart(ctx, info.ID, client.DepartRequest{ID: 1}); statusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("depart while draining: %v, want 503", err)
	}
	if _, err := h.c.Resize(ctx, info.ID, client.ResizeRequest{Provider: 0, Cap: 2}); statusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("resize while draining: %v, want 503", err)
	}
	if m, err := h.c.Matching(ctx, info.ID); err != nil || m.Size != 1 {
		t.Fatalf("matching should stay readable while draining: %v %+v", err, m)
	}
}

// TestSessionChurnMetrics asserts the session churn counters appear in
// /metrics with the exact event counts.
func TestSessionChurnMetrics(t *testing.T) {
	h := testServer(t, server.Config{})
	ctx := context.Background()
	info, err := h.c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{Cap: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		if _, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: id, X: float64(id), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= 2; id++ {
		if _, err := h.c.Depart(ctx, info.ID, client.DepartRequest{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.c.Resize(ctx, info.ID, client.ResizeRequest{Provider: 0, Cap: 1}); err != nil {
		t.Fatal(err)
	}
	text, err := h.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ccad_sessions_arrivals_total 3",
		"ccad_sessions_departures_total 2",
		"ccad_sessions_resizes_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// statusOf extracts the HTTP status from a client error (0 when nil or
// not an APIError).
func statusOf(err error) int {
	if ae, ok := err.(*client.APIError); ok {
		return ae.StatusCode
	}
	return 0
}
