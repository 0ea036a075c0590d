package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flowgraph"
	"repro/internal/geo"
)

// Online arrivals must reproduce the batch optimum after every prefix —
// the successive-shortest-path invariant that makes DynamicMatcher
// correct.
func TestDynamicMatchesBatchOnEveryPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	providers := randDynProviders(4, 3, rng)
	m := NewDynamicMatcher(providers)
	var arrived []flowgraph.Customer
	for i := 0; i < 30; i++ {
		pt := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		arrived = append(arrived, flowgraph.Customer{Pt: pt, Cap: 1, ExtID: int64(i)})
		matched, err := m.Arrive(pt, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if i < 12 && !matched { // 4 providers × cap 3: capacity remains
			t.Fatalf("arrival %d should always match", i)
		}
		if size := m.Size(); size != min(i+1, 12) {
			t.Fatalf("arrival %d: size %d want %d", i, size, min(i+1, 12))
		}
		_, wantCost := flowgraph.RefSolve(flowProviders(providers), arrived)
		if math.Abs(m.Cost()-wantCost) > 1e-6*(1+wantCost) {
			t.Fatalf("after %d arrivals: cost %v want %v", i+1, m.Cost(), wantCost)
		}
	}
}

func randDynProviders(n, k int, rng *rand.Rand) []Provider {
	out := make([]Provider, n)
	for i := range out {
		out[i] = Provider{
			Pt:  geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Cap: k,
		}
	}
	return out
}

// Property: for random instances and arrival orders, the final dynamic
// matching equals the batch optimum.
func TestDynamicOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		providers := randDynProviders(2+rng.Intn(4), 1+rng.Intn(3), rng)
		n := 5 + rng.Intn(20)
		customers := make([]flowgraph.Customer, n)
		for i := range customers {
			customers[i] = flowgraph.Customer{
				Pt:    geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Cap:   1,
				ExtID: int64(i),
			}
		}
		m := NewDynamicMatcher(providers)
		for _, i := range rng.Perm(n) {
			if _, err := m.Arrive(customers[i].Pt, customers[i].ExtID); err != nil {
				return false
			}
		}
		_, wantCost := flowgraph.RefSolve(flowProviders(providers), customers)
		return math.Abs(m.Cost()-wantCost) <= 1e-6*(1+wantCost)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The matching snapshot must validate like any batch result.
func TestDynamicMatchingSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	providers := randDynProviders(3, 2, rng)
	m := NewDynamicMatcher(providers)
	for i := 0; i < 10; i++ {
		if _, err := m.Arrive(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	res := m.Matching()
	if res.Size != 6 || m.Size() != 6 {
		t.Fatalf("size %d want 6", res.Size)
	}
	used := map[int]int{}
	seen := map[int64]bool{}
	for _, p := range res.Pairs {
		used[p.Provider]++
		if seen[p.CustomerID] {
			t.Fatal("duplicate customer")
		}
		seen[p.CustomerID] = true
	}
	for q, u := range used {
		if u > providers[q].Cap {
			t.Fatalf("provider %d over capacity", q)
		}
	}
	if math.Abs(res.Cost-m.Cost()) > 1e-9 {
		t.Fatalf("snapshot cost %v != matcher cost %v", res.Cost, m.Cost())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// pairFor returns the provider index customer id is currently matched
// to, or -1.
func pairFor(m *DynamicMatcher, id int64) int {
	for _, p := range m.Matching().Pairs {
		if p.CustomerID == id {
			return p.Provider
		}
	}
	return -1
}

// Arrivals after capacity exhaustion: the swap path must evict a more
// expensive earlier customer for a strictly closer newcomer, keep the
// size pinned at Γ, and leave the matching the batch optimum; a worse
// newcomer must change nothing. This is the path the server's session
// /arrive endpoint rides once a session's providers fill up.
func TestDynamicArrivalsAfterExhaustion(t *testing.T) {
	providers := []Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 2}}
	m := NewDynamicMatcher(providers)

	for i, x := range []float64{50, 40} {
		matched, err := m.Arrive(geo.Point{X: x, Y: 0}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !matched {
			t.Fatalf("arrival %d should match: capacity remains", i)
		}
	}
	if m.Size() != 2 || m.Cost() != 90 {
		t.Fatalf("pre-exhaustion state: size %d cost %v, want 2 / 90", m.Size(), m.Cost())
	}

	// Capacity exhausted. A closer customer evicts the most expensive one.
	matched, err := m.Arrive(geo.Point{X: 10, Y: 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !matched {
		t.Fatal("closer arrival after exhaustion should swap in")
	}
	if m.Size() != 2 {
		t.Fatalf("size grew past capacity: %d", m.Size())
	}
	if m.Cost() != 50 {
		t.Fatalf("cost after swap = %v, want 40+10 = 50", m.Cost())
	}
	if q := pairFor(m, 0); q != -1 {
		t.Fatalf("customer 0 (dist 50) should be evicted, still on provider %d", q)
	}
	if pairFor(m, 1) != 0 || pairFor(m, 2) != 0 {
		t.Fatal("customers 1 and 2 should hold the two slots")
	}

	// A farther customer must be rejected and change nothing.
	matched, err = m.Arrive(geo.Point{X: 60, Y: 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if matched {
		t.Fatal("farther arrival must not displace anyone")
	}
	if m.Size() != 2 || m.Cost() != 50 {
		t.Fatalf("rejected arrival mutated the matching: size %d cost %v", m.Size(), m.Cost())
	}

	// The snapshot equals the batch optimum over everything that arrived.
	all := []flowgraph.Customer{
		{Pt: geo.Point{X: 50, Y: 0}, Cap: 1, ExtID: 0},
		{Pt: geo.Point{X: 40, Y: 0}, Cap: 1, ExtID: 1},
		{Pt: geo.Point{X: 10, Y: 0}, Cap: 1, ExtID: 2},
		{Pt: geo.Point{X: 60, Y: 0}, Cap: 1, ExtID: 3},
	}
	_, wantCost := flowgraph.RefSolve(flowProviders(providers), all)
	if math.Abs(m.Cost()-wantCost) > 1e-9 {
		t.Fatalf("cost %v differs from batch optimum %v", m.Cost(), wantCost)
	}
}

// A later arrival can displace an earlier customer onto a different
// provider (re-route along the augmenting path) without evicting it:
// c0 initially takes the near provider A, then c1 arrives even nearer
// to A, and the optimum re-routes c0 to the far provider B.
func TestDynamicLaterArrivalReRoutes(t *testing.T) {
	providers := []Provider{
		{Pt: geo.Point{X: 0, Y: 0}, Cap: 1},  // A
		{Pt: geo.Point{X: 10, Y: 0}, Cap: 1}, // B
	}
	m := NewDynamicMatcher(providers)

	if matched, err := m.Arrive(geo.Point{X: 4, Y: 0}, 0); err != nil || !matched {
		t.Fatalf("c0: matched=%v err=%v", matched, err)
	}
	if pairFor(m, 0) != 0 {
		t.Fatalf("c0 should start on provider A, got %d", pairFor(m, 0))
	}

	// c1 at x=1: optimum is c1→A (1) + c0→B (6) = 7, beating c1→B (9) +
	// c0→A (4) = 13 — so c0 must be re-routed from A to B.
	if matched, err := m.Arrive(geo.Point{X: 1, Y: 0}, 1); err != nil || !matched {
		t.Fatalf("c1: matched=%v err=%v", matched, err)
	}
	if m.Size() != 2 {
		t.Fatalf("size = %d, want 2", m.Size())
	}
	if pairFor(m, 1) != 0 {
		t.Fatalf("c1 should take provider A, got %d", pairFor(m, 1))
	}
	if pairFor(m, 0) != 1 {
		t.Fatalf("c0 should be re-routed to provider B, got %d", pairFor(m, 0))
	}
	if math.Abs(m.Cost()-7) > 1e-9 {
		t.Fatalf("cost = %v, want 7", m.Cost())
	}
}

// Eviction + re-route combined, pinned against the batch oracle after
// every arrival: a capacity-1 chain where each newcomer cascades the
// previous assignments. Catches any optimality drift in the swap path
// (flowgraph.Admit) that single-step tests cannot see.
func TestDynamicEvictionCascadeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	providers := randDynProviders(3, 1, rng) // Γ = 3: exhausted quickly
	m := NewDynamicMatcher(providers)
	var arrived []flowgraph.Customer
	evictions := 0
	for i := 0; i < 24; i++ {
		pt := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		arrived = append(arrived, flowgraph.Customer{Pt: pt, Cap: 1, ExtID: int64(i)})
		before := map[int64]bool{}
		for _, p := range m.Matching().Pairs {
			before[p.CustomerID] = true
		}
		if _, err := m.Arrive(pt, int64(i)); err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Matching().Pairs {
			delete(before, p.CustomerID)
		}
		evictions += len(before) // earlier customers displaced out entirely
		if i >= 2 && m.Size() != 3 {
			t.Fatalf("arrival %d: size %d, want Γ=3", i, m.Size())
		}
		_, wantCost := flowgraph.RefSolve(flowProviders(providers), arrived)
		if math.Abs(m.Cost()-wantCost) > 1e-6*(1+wantCost) {
			t.Fatalf("after arrival %d: cost %v, want batch optimum %v", i, m.Cost(), wantCost)
		}
	}
	if evictions == 0 {
		t.Fatal("24 arrivals into Γ=3 never displaced anyone — swap path untested")
	}
}

// TestArriveWithRowRejects: a cost row that is not |Q| long or holds a
// negative or non-finite distance is an error, and leaves the matching,
// the live set, the counters and the id ledger as they were: the id
// stays free, and a valid row for it is accepted afterwards.
func TestArriveWithRowRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	providers := randDynProviders(3, 2, rng)
	m := NewDynamicMatcher(providers)
	for i := int64(0); i < 8; i++ {
		if _, err := m.Arrive(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, i); err != nil {
			t.Fatal(err)
		}
	}
	pt := geo.Point{X: 50, Y: 50}
	valid := []float64{1, 2, 3}
	bad := map[string][]float64{
		"nil":      nil,
		"short":    {1, 2},
		"long":     {1, 2, 3, 4},
		"negative": {1, -2, 3},
		"NaN":      {1, 2, math.NaN()},
		"+Inf":     {math.Inf(1), 2, 3},
		"-Inf":     {1, math.Inf(-1), 3},
		"huge":     {1, 2, 2 * MaxRowDist},
	}
	size, cost, live, stats, ledger := m.Size(), m.Cost(), m.Live(), m.Stats(), len(m.ids)
	for name, row := range bad {
		if _, err := m.ArriveWithRow(pt, 100, row); err == nil {
			t.Fatalf("%s row accepted", name)
		}
		if m.Size() != size || math.Float64bits(m.Cost()) != math.Float64bits(cost) || m.Live() != live ||
			m.Stats() != stats || len(m.ids) != ledger || m.Row(100) != nil {
			t.Fatalf("%s row changed the matcher: size %d→%d cost %v→%v live %d→%d ledger %d→%d",
				name, size, m.Size(), cost, m.Cost(), live, m.Live(), ledger, len(m.ids))
		}
	}
	if _, err := m.ArriveWithRow(pt, 100, valid); err != nil {
		t.Fatalf("valid row after rejected ones: %v", err)
	}
	if got := m.Row(100); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Row(100) = %v, want the row it arrived with", got)
	}
	if _, err := m.ArriveWithRow(pt, 100, valid); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate id with a valid row: %v, want ErrDuplicateID", err)
	}
}
