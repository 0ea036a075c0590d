package server_test

import (
	"context"
	"math/rand"
	"testing"

	cca "repro"
	"repro/client"
	"repro/internal/geo/netmetric"
	"repro/internal/server"
)

// pointQueries counts the Dist calls that reached m's point-query path
// (its point-pair cache); a table row never does.
func pointQueries(m *netmetric.NetworkMetric) uint64 {
	st := m.Stats()
	return st.PairHits + st.PairMisses
}

// tableSession drives one road-network session: it opens the session,
// sends arrivals at pts and checks every answer against a matcher over
// the shared metric's point queries, and returns the session's id.
func tableSession(t *testing.T, h testHarness, grid int, seed int64, providers []cca.Provider, pts []cca.Point) string {
	t.Helper()
	ctx := context.Background()
	wire := make([]client.Provider, len(providers))
	for i, q := range providers {
		wire[i] = client.Provider{X: q.Pt.X, Y: q.Pt.Y, Cap: q.Cap}
	}
	info, err := h.c.NewSession(ctx, client.SessionRequest{Providers: wire, Metric: "network", NetGrid: grid, NetSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ref := cca.NewDynamicMatcherOpts(providers, cca.DynamicOptions{
		Metric: cca.RoadNetworkMetric(grid, cca.Rect{Max: cca.Point{X: 1000, Y: 1000}}, seed),
	})
	for i, p := range pts {
		resp, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: int64(i + 1), X: p.X, Y: p.Y})
		if err != nil {
			t.Fatal(err)
		}
		matched, err := ref.Arrive(p, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Matched != matched || resp.Size != ref.Size() || resp.Cost != ref.Cost() {
			t.Fatalf("arrival %d: got (%v,%d,%v), point queries (%v,%d,%v)",
				i, resp.Matched, resp.Size, resp.Cost, matched, ref.Size(), ref.Cost())
		}
	}
	return info.ID
}

// randomSession returns q providers of capacity 2 and a arrivals, all
// uniform over the server's road-network space.
func randomSession(rng *rand.Rand, q, a int) ([]cca.Provider, []cca.Point) {
	pt := func() cca.Point { return cca.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000} }
	providers := make([]cca.Provider, q)
	for i := range providers {
		providers[i] = cca.Provider{Pt: pt(), Cap: 2}
	}
	pts := make([]cca.Point, a)
	for i := range pts {
		pts[i] = pt()
	}
	return providers, pts
}

// TestSessionTableBudget: session tables share one server-wide cell
// budget. A session whose table does not fit answers through the shared
// metric's point queries, byte-identically, and a deleted session's
// table hands its cells back for the next one.
func TestSessionTableBudget(t *testing.T) {
	const grid, seed = 32, int64(23)
	n := cca.RoadNetworkMetric(grid, cca.Rect{Max: cca.Point{X: 1000, Y: 1000}}, seed).(*netmetric.NetworkMetric).NumNodes()
	const q = 3
	// Room for one session's 2q rows, not two.
	h := testServerWith(t, server.Config{}, func(s *server.Server) { s.SetSessionTableBudget(int64(2 * q * n)) })
	rng := rand.New(rand.NewSource(5))

	providers, pts := randomSession(rng, q, 12)
	first := tableSession(t, h, grid, seed, providers, pts)
	m := h.srv.NetworkMetric(grid, seed)
	if got := pointQueries(m); got != 0 {
		t.Fatalf("the first session made %d point queries, want its table", got)
	}
	held := h.srv.SessionTableCells()
	if held <= 0 || held > int64(2*q*n) {
		t.Fatalf("the first session's table holds %d cells, want (0, %d]", held, 2*q*n)
	}

	providers, pts = randomSession(rng, q, 12)
	tableSession(t, h, grid, seed, providers, pts)
	if pointQueries(m) == 0 {
		t.Fatal("a session over the budget made no point query")
	}
	if got := h.srv.SessionTableCells(); got != held {
		t.Fatalf("after a session over the budget, tables hold %d cells, want %d", got, held)
	}

	if err := h.c.DeleteSession(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if got := h.srv.SessionTableCells(); got != 0 {
		t.Fatalf("after deleting the table's session, tables hold %d cells", got)
	}
	before := pointQueries(m)
	providers, pts = randomSession(rng, q, 12)
	tableSession(t, h, grid, seed, providers, pts)
	if got := pointQueries(m) - before; got != 0 {
		t.Fatalf("a session within the freed budget made %d point queries, want its table", got)
	}
}

// TestSessionRowsYieldToPointQueries: once the tables of a network's
// retired sessions have settled 128 labels per node, later sessions on
// that network use point queries, with the same answers. Each session
// here has 16 providers, so its table settles at most 32 labels per
// node: the first four sessions must read their tables.
func TestSessionRowsYieldToPointQueries(t *testing.T) {
	const grid, seed = 32, int64(23)
	h := testServer(t, server.Config{})
	rng := rand.New(rand.NewSource(9))
	switched := -1
	for s := 0; s < 12 && switched < 0; s++ {
		var before uint64
		if m := h.srv.NetworkMetric(grid, seed); m != nil {
			before = pointQueries(m)
		}
		providers, pts := randomSession(rng, 16, 48)
		id := tableSession(t, h, grid, seed, providers, pts)
		if pointQueries(h.srv.NetworkMetric(grid, seed)) > before {
			switched = s
		}
		if err := h.c.DeleteSession(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	switch {
	case switched < 0:
		t.Fatal("12 sessions of 48 arrivals never moved to point queries")
	case switched < 4:
		t.Fatalf("session %d made point queries before retired rows could reach 128 labels per node", switched)
	}
	t.Logf("session %d was the first on point queries", switched)
	if got := h.srv.SessionTableCells(); got != 0 {
		t.Fatalf("with every session deleted, tables hold %d cells", got)
	}
}
