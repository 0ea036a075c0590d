package netmetric

import (
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
)

// ParseCHMode accepts exactly the values the CLIs document.
func TestParseCHMode(t *testing.T) {
	for in, want := range map[string]int{"": -1, "auto": -1, "Auto": -1, "off": 0, "OFF": 0, "on": 1, "On": 1} {
		if got, err := ParseCHMode(in); err != nil || got != want {
			t.Errorf("ParseCHMode(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"1", "0", "yes", " on"} {
		if _, err := ParseCHMode(in); err == nil {
			t.Errorf("ParseCHMode(%q) accepted", in)
		}
	}
}

// TestCHMatchesPlainDijkstra pins the canonical-float contract for the
// hierarchy backend: chDist must return the *same* float64 as the
// plain forward Dijkstra for every oriented node pair — not merely
// close. The conformance suite's byte-identical solves rest on this.
func TestCHMatchesPlainDijkstra(t *testing.T) {
	m := FromNetwork(datagen.NewNetwork(16, space, 2008))
	m.SetCH(1)
	ch := m.hierarchy()
	if ch == nil {
		t.Fatal("forced-on hierarchy did not build")
	}
	t.Logf("hierarchy: %d up arcs, %d shortcuts", len(ch.upTo), ch.shortcuts)
	for _, pr := range testPairs(m, 2000, 1) {
		got := m.chDist(ch, pr[0], pr[1])
		want := m.forwardDijkstra(pr[0], pr[1])
		if got != want {
			t.Fatalf("chDist(%d,%d) = %v, forwardDijkstra = %v (must be byte-identical)",
				pr[0], pr[1], got, want)
		}
	}
	q, f := m.CHStats()
	t.Logf("ch stats: %d queries, %d fallbacks", q, f)
	if q == 0 {
		t.Fatal("no hierarchy queries counted")
	}
	// Jittered networks must answer almost everything on the fast
	// path; a high fallback rate means the ambiguity detection is
	// misfiring and CH is quietly degrading to plain Dijkstra.
	if f*10 > q {
		t.Fatalf("fallback rate too high: %d of %d", f, q)
	}
}

// TestCHFallbackStaysExact forces the hierarchy onto a tie-heavy graph
// — the unit square, where two opposite corners are joined by two
// exactly equal paths — and checks the ambiguity fallback keeps every
// answer byte-identical instead of picking an arbitrary winner.
func TestCHFallbackStaysExact(t *testing.T) {
	m := square(t)
	m.SetCH(1)
	ch := m.hierarchy()
	if ch == nil {
		t.Fatal("forced-on hierarchy did not build")
	}
	for a := int32(0); a < 4; a++ {
		for b := int32(0); b < 4; b++ {
			got := m.chDist(ch, a, b)
			want := m.forwardDijkstra(a, b)
			if got != want {
				t.Fatalf("chDist(%d,%d) = %v, forwardDijkstra = %v", a, b, got, want)
			}
		}
	}
	if _, f := m.CHStats(); f == 0 {
		t.Fatal("tied diagonal paths should have triggered the fallback")
	}
}

// chain returns a metric over an n-node path graph, sized to probe the
// automatic-mode threshold exactly.
func chain(t *testing.T, n int) *NetworkMetric {
	t.Helper()
	nodes := make([]geo.Point, n)
	edges := make([][2]int32, n-1)
	for i := range nodes {
		nodes[i] = geo.Point{X: float64(i), Y: 0}
		if i > 0 {
			edges[i-1] = [2]int32{int32(i - 1), int32(i)}
		}
	}
	m, err := New(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCHModes pins the knob semantics: automatic mode keys on
// DefaultCHMinNodes (on at exactly 1,024 nodes, off one below), and
// SetCH forces either way.
func TestCHModes(t *testing.T) {
	if below := chain(t, 1023); below.CH() {
		t.Fatal("auto mode enabled CH on 1023 nodes")
	}
	if at := chain(t, 1024); !at.CH() {
		t.Fatal("auto mode left CH off at 1024 nodes")
	}

	small := FromNetwork(datagen.NewNetwork(8, space, 2008))
	if small.CH() {
		t.Fatalf("auto mode enabled CH on %d nodes (< %d)", small.NumNodes(), DefaultCHMinNodes)
	}
	if small.hierarchy() != nil {
		t.Fatal("disabled hierarchy still built")
	}
	small.SetCH(1)
	if !small.CH() || small.hierarchy() == nil {
		t.Fatal("SetCH(1) did not force the hierarchy on")
	}
	small.SetCH(0)
	if small.CH() || small.hierarchy() != nil {
		t.Fatal("SetCH(0) did not disable the hierarchy")
	}
	big := FromNetwork(datagen.NewNetwork(64, space, 2008))
	if !big.CH() {
		t.Fatalf("auto mode left CH off on %d nodes (>= %d)", big.NumNodes(), DefaultCHMinNodes)
	}
}

// TestAllocsCHPointQuery pins the zero-allocation budget of warm
// hierarchy queries, like TestAllocsPointQuery does for the plain
// Dijkstra.
func TestAllocsCHPointQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is defeated under -race")
	}
	m := FromNetwork(datagen.NewNetwork(16, space, 2008))
	m.SetCH(1)
	ch := m.hierarchy()
	pairs := testPairs(m, 64, 7)
	run := func() {
		for _, pr := range pairs {
			sinkDist = m.chDist(ch, pr[0], pr[1])
		}
	}
	run() // warm the scratch pool
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("warm CH point queries allocated %v times per run, want 0", avg)
	}
}

// fuzzCHMetrics caches one forced-CH metric per (grid, seed) fuzz
// coordinate so each exec pays cached lookups, not a contraction.
var fuzzCHMetrics sync.Map // [2]int64 -> *NetworkMetric

func fuzzCHMetric(grid int, seed int64) *NetworkMetric {
	key := [2]int64{int64(grid), seed}
	if m, ok := fuzzCHMetrics.Load(key); ok {
		return m.(*NetworkMetric)
	}
	m := FromNetwork(datagen.NewNetwork(grid, space, seed))
	m.SetCH(1)
	got, _ := fuzzCHMetrics.LoadOrStore(key, m)
	return got.(*NetworkMetric)
}

// FuzzCHMatchesDijkstra hammers the byte-equality contract over random
// small grids, seeds, and node pairs: any input where the hierarchy's
// unpack-and-resum (or its ambiguity fallback) diverges from the plain
// forward Dijkstra by even one ulp is a crasher.
func FuzzCHMatchesDijkstra(f *testing.F) {
	f.Add(uint8(12), int64(2008), uint16(0), uint16(143))
	f.Add(uint8(8), int64(1), uint16(63), uint16(5))
	f.Add(uint8(16), int64(42), uint16(255), uint16(255))
	f.Fuzz(func(t *testing.T, grid uint8, seed int64, a, b uint16) {
		g := 6 + int(grid)%11  // grids 6..16
		s := 1 + (seed&7)*1000 // 8 distinct seeds
		m := fuzzCHMetric(g, s)
		ch := m.hierarchy()
		if ch == nil {
			t.Fatal("forced-on hierarchy did not build")
		}
		n := int32(m.NumNodes())
		x, y := int32(a)%n, int32(b)%n
		got := m.chDist(ch, x, y)
		want := m.forwardDijkstra(x, y)
		if got != want {
			t.Fatalf("grid %d seed %d: chDist(%d,%d) = %v, forwardDijkstra = %v",
				g, s, x, y, got, want)
		}
	})
}
