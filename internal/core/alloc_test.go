package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geo"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool reuse
// is deliberately defeated and allocation budgets cannot hold.
var raceEnabled bool

// longSession drives a Euclidean matcher over 32 providers of capacity
// 4 through the given number of arrivals: it arrives while fewer than
// live customers are present and otherwise departs a random one, and
// reads Cost after every event, as the session endpoints do. mark, if
// set, sees the arrival and event counts before every arrival and once
// at the end. It returns the number of events applied.
func longSession(tb testing.TB, arrivals, live int, mark func(arrival, event int)) int {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	providers := make([]Provider, 32)
	for i := range providers {
		providers[i] = Provider{Pt: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, Cap: 4}
	}
	m := NewDynamicMatcher(providers)
	present := make([]int64, 0, live)
	events := 0
	for next := 0; next < arrivals; events++ {
		if len(present) < live {
			if mark != nil {
				mark(next, events)
			}
			id := int64(next)
			if _, err := m.Arrive(geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, id); err != nil {
				tb.Fatal(err)
			}
			present = append(present, id)
			next++
		} else {
			i := rng.Intn(len(present))
			if _, err := m.Depart(present[i]); err != nil {
				tb.Fatal(err)
			}
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
		}
		_ = m.Cost()
	}
	if mark != nil {
		mark(arrivals, events)
	}
	return events
}

// TestChurnAllocationFlat pins that a session's per-event allocation is
// set by its live set, not by the arrivals it has ever had: with the
// live set held at 100, the bytes allocated per event over arrivals
// 9k–10k may not exceed those over arrivals 0–1k by more than the id
// ledger's growth. Scratch sized by every customer ever added (searches
// that allocate |Q| + arrivals-ever labels per call, tombstoned
// customers that Pairs and Cost walk) grows from about 13 KB to about
// 220 KB per event over the same windows.
func TestChurnAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets don't hold under the race detector")
	}
	if testing.Short() {
		t.Skip("a 20k-event session")
	}
	var ms runtime.MemStats
	bytes := map[int]uint64{}
	events := map[int]int{}
	longSession(t, 10000, 100, func(arrival, event int) {
		switch arrival {
		case 0, 1000, 9000, 10000:
			runtime.ReadMemStats(&ms)
			bytes[arrival], events[arrival] = ms.TotalAlloc, event
		}
	})
	perEvent := func(from, to int) float64 {
		return float64(bytes[to]-bytes[from]) / float64(events[to]-events[from])
	}
	early, late := perEvent(0, 1000), perEvent(9000, 10000)
	t.Logf("allocation per event: %.0f B over arrivals 0–1k, %.0f B over 9k–10k", early, late)
	// The ledger gains one entry per arrival, about half of the events;
	// 64 B per event covers its map growth with room to spare.
	if late > early+64 {
		t.Fatalf("per-event allocation grew with arrivals: %.0f B over arrivals 0–1k, %.0f B over 9k–10k", early, late)
	}
}

// BenchmarkDynamicChurnLongSession runs one long session per iteration:
// 10k arrivals with the live set held at 100 (about 20k events).
func BenchmarkDynamicChurnLongSession(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		events += longSession(b, 10000, 100, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
