package flowgraph

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
)

// Arrivals admitted one by one into a churn graph, each repaired by
// one search, must reach the minimum-cost matching the reference
// solver finds, with every residual edge non-negative after each.
func TestChurnArrivalsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		providers := randProviders(2+rng.Intn(4), func(int) int { return 1 + rng.Intn(4) }, rng)
		customers := randCustomers(1+rng.Intn(20), rng)
		g := NewChurnGraph(providers, nil)
		for i, c := range customers {
			if _, err := g.Admit(g.AddCustomer(c.Pt, 1, c.ExtID, nil)); err != nil {
				t.Fatal(err)
			}
			if err := g.CheckReducedCosts(1e-9); err != nil {
				t.Fatalf("trial %d arrival %d: %v", trial, i, err)
			}
		}
		_, want := RefSolve(providers, customers)
		if math.Abs(g.Cost()-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d: cost %v want %v", trial, g.Cost(), want)
		}
	}
}

// admit adds a customer at (x, 0) to a churn graph and admits it.
func admit(t *testing.T, g *Graph, x float64, id int64) (int32, bool) {
	t.Helper()
	c := g.AddCustomer(geo.Point{X: x, Y: 0}, 1, id, nil)
	swapped, err := g.Admit(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, swapped
}

// Admit at zero remaining capacity: a strictly closer customer must
// displace the most expensive one; a farther customer must be left out.
func TestSwapArrival(t *testing.T) {
	providers := []Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 1}}
	g := NewChurnGraph(providers, nil)

	far, swapped := admit(t, g, 10, 1)
	if swapped || !g.CustomerFull(far) || g.Cost() != 10 {
		t.Fatalf("first customer must match by augmenting: swapped %v cost %v", swapped, g.Cost())
	}

	// A closer customer arrives with no capacity left: swap in.
	near, swapped := admit(t, g, 2, 2)
	if !swapped {
		t.Fatal("closer customer should swap in")
	}
	if g.Cost() != 2 || g.CustomerFull(far) || !g.CustomerFull(near) {
		t.Fatalf("after swap: cost %v, far full=%v near full=%v",
			g.Cost(), g.CustomerFull(far), g.CustomerFull(near))
	}

	// A farther customer arrives: no improvement, no swap.
	worse, swapped := admit(t, g, 50, 3)
	if swapped || g.Cost() != 2 || g.CustomerFull(worse) {
		t.Fatalf("farther customer must not swap (swapped=%v cost=%v)", swapped, g.Cost())
	}
	if err := g.CheckReducedCosts(1e-9); err != nil {
		t.Fatal(err)
	}
}

// Multi-hop swaps: the improving cycle may reroute intermediate
// customers across providers.
func TestSwapArrivalMultiHop(t *testing.T) {
	// q1 at 0, q2 at 10, both capacity 1.
	providers := []Provider{
		{Pt: geo.Point{X: 0, Y: 0}, Cap: 1},
		{Pt: geo.Point{X: 10, Y: 0}, Cap: 1},
	}
	g := NewChurnGraph(providers, nil)
	admit(t, g, 4, 1)  // between the providers, nearer q1
	admit(t, g, 11, 2) // near q2
	// Both providers full: matching is {q1:4 (cost 4), q2:11 (cost 1)} = 5.
	if math.Abs(g.Cost()-5) > 1e-9 {
		t.Fatalf("setup cost %v want 5", g.Cost())
	}
	// A customer at 0.5 arrives: optimal is {q1:0.5, q2:11} = 1.5,
	// evicting customer 1 entirely.
	if _, swapped := admit(t, g, 0.5, 3); !swapped || math.Abs(g.Cost()-1.5) > 1e-9 {
		t.Fatalf("swap: %v cost %v want 1.5", swapped, g.Cost())
	}
}

// CheckReducedCosts must see the pair edges of a complete graph, in
// both directions: after an exact SSPA run, a matched customer's τ
// lowered below its provider's breaks only its reversed pair edge
// (its sink edge is saturated), and an unmatched customer's τ lowered
// breaks only its forward pair edges.
func TestCheckReducedCostsCompleteMode(t *testing.T) {
	providers := []Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 1}}
	customers := []Customer{
		{Pt: geo.Point{X: 3, Y: 0}, Cap: 1, ExtID: 1},
		{Pt: geo.Point{X: 8, Y: 0}, Cap: 1, ExtID: 2},
	}
	g := runSSPA(t, providers, customers)
	if !g.CustomerFull(0) || g.CustomerFull(1) {
		t.Fatal("setup: the nearer customer must be the one matched")
	}
	for c, want := range []string{"p0->q0", "q0->p1"} {
		node := g.customerNode(int32(c))
		saved := g.tau[node]
		g.tau[node] = saved + []float64{1, -100}[c]
		err := g.CheckReducedCosts(1e-9)
		g.tau[node] = saved
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("customer %d with a corrupted τ: got %v, want a negative %s", c, err, want)
		}
	}
	if err := g.CheckReducedCosts(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	providers := []Provider{{Pt: geo.Point{X: 0, Y: 0}, Cap: 3}}
	g := NewGraph(providers, false)
	g.SetPairCapacity(5)
	if g.NumProviders() != 1 || g.LiveCount() != 0 {
		t.Fatal("counts wrong")
	}
	if g.PairCapacity() != 5 {
		t.Fatalf("PairCapacity = %d", g.PairCapacity())
	}
	c := g.AddCustomer(geo.Point{X: 1, Y: 0}, 2, 7, nil)
	if g.LiveCount() != 1 {
		t.Fatal("customer count")
	}
	if g.ProviderRemaining(0) != 3 || g.CustomerRemaining(c) != 2 {
		t.Fatal("remaining capacities wrong")
	}
	addEdge(g, 0, c)
	g.DirectAssign(0, c, 1)
	if g.ProviderRemaining(0) != 2 || g.CustomerRemaining(c) != 1 {
		t.Fatal("remaining capacities after assign wrong")
	}
	if g.LastAlpha(0) != 0 {
		t.Fatal("LastAlpha should start at 0")
	}
}

// The churn mode's row store follows the live set: after many
// arrive/depart cycles it holds exactly |Q| values per live customer,
// each the metric's distance for that customer, and its backing array
// is sized by the peak live set, not by the arrivals ever made.
func TestChurnRowsTrackLiveSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	providers := randProviders(6, func(int) int { return 2 }, rng)
	nq := len(providers)
	g := NewChurnGraph(providers, nil)
	peak, arrivals := 0, 0
	for round := 0; round < 400; round++ {
		for i := rng.Intn(4); i > 0; i-- {
			g.AddCustomer(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, 1, int64(arrivals), nil)
			arrivals++
		}
		if g.LiveCount() > peak {
			peak = g.LiveCount()
		}
		for i := rng.Intn(4); i > 0 && g.LiveCount() > 0; i-- {
			if _, err := g.RemoveCustomer(int32(rng.Intn(g.LiveCount()))); err != nil {
				t.Fatal(err)
			}
		}
		if len(g.rows) != nq*g.LiveCount() {
			t.Fatalf("round %d: %d row values for %d live customers × %d providers",
				round, len(g.rows), g.LiveCount(), nq)
		}
		for c := range g.LiveCount() {
			for q := range providers {
				if d, want := g.dist(int32(q), int32(c)), geo.Euclidean.Dist(providers[q].Pt, g.customers[c].Pt); d != want {
					t.Fatalf("round %d: row of customer %d provider %d holds %v, metric says %v", round, c, q, d, want)
				}
			}
		}
	}
	if cap(g.rows) > 4*nq*peak || 4*peak > arrivals {
		t.Fatalf("rows cap %d for peak live %d (×%d providers) after %d arrivals", cap(g.rows), peak, nq, arrivals)
	}
}

// addEdge inserts edge (q, c) with its metric length, as the solvers'
// candidate streams supply it.
func addEdge(g *Graph, q, c int32) {
	g.AddEdge(q, c, g.metric.Dist(g.providers[q].Pt, g.customers[c].Pt))
}
