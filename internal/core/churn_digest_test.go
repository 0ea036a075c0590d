package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// churnDigest pins the dynamic matcher's exact answers on a fixed
// delivery stream: the FNV-64a digest replayChurnDigest computes over
// the matched flag, Size and Cost bits after every event and the final
// pairs. Any change to how distances are stored, to the order repairs
// run in or to how ties break must reproduce them bit for bit; a
// change meant to alter the answers must say so and re-record.
//
// Recorded when the reduced-cost repairs replaced Bellman–Ford cycle
// cancelling (whose answers hashed to 0x8f17e73f7b8569f6). The two
// agree on every event's size and matched flag and on its cost to
// 4e-16; from event 35 on they pick different ones of two optimal
// matchings that tie exactly on the road network, whose sums differ
// in the last bit.
const churnDigest = 0xf8ef396703416de9

// replayChurnDigest replays a 400-event delivery stream over a 16-grid
// road network with 12 providers and hashes, per event, whether the
// customer was matched (arrive) or left matched (depart), Size and the
// bits of Cost; then the final matching's pairs in order. The repair
// counters are returned beside it, not hashed: they describe the work,
// not the answer.
func replayChurnDigest(t *testing.T) (uint64, ChurnStats) {
	t.Helper()
	space := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 100, Y: 100}}
	net := datagen.NewNetwork(16, space, 2008)
	w, err := datagen.NewChurn("delivery", net, datagen.ChurnConfig{Events: 400, Providers: 12, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	providers := make([]Provider, len(w.Providers))
	for i, p := range w.Providers {
		providers[i] = Provider{Pt: p.Pt, Cap: p.Cap}
	}
	m := NewDynamicMatcherOpts(providers, DynamicOptions{Metric: netmetric.FromNetwork(net)})
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for step, ev := range w.Events {
		var matched bool
		switch ev.Kind {
		case datagen.EventArrive:
			matched, err = m.Arrive(ev.Pt, ev.ID)
		case datagen.EventDepart:
			matched, err = m.Depart(ev.ID)
		case datagen.EventResize:
			err = m.ResizeProvider(ev.Provider, ev.NewCap)
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, ev.Kind, err)
		}
		var flag uint64
		if matched {
			flag = 1
		}
		put(flag)
		put(uint64(m.Size()))
		put(math.Float64bits(m.Cost()))
	}
	for _, p := range m.Matching().Pairs {
		put(uint64(p.Provider))
		put(uint64(p.CustomerID))
		put(math.Float64bits(p.Dist))
	}
	return h.Sum64(), m.Stats()
}

// TestDynamicMatcherDigest holds the matcher to its recorded answers.
// The stream must reach every repair path for the pin to mean
// anything: departures, resizes, swaps at full capacity, and re-routes.
func TestDynamicMatcherDigest(t *testing.T) {
	// budget=0 named the unbounded re-optimization, the only one left.
	t.Run("budget=0", func(t *testing.T) {
		got, st := replayChurnDigest(t)
		if st.Departures == 0 || st.Resizes == 0 || st.Swaps == 0 || st.Cycles <= st.Swaps {
			t.Fatalf("stream misses a repair path: %+v", st)
		}
		if got != churnDigest {
			t.Fatalf("digest %#x, want %#x (stats %+v)", got, uint64(churnDigest), st)
		}
	})
}
