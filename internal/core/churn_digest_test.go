package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// churnDigests pins the dynamic matcher's exact answers on a fixed
// delivery stream, per re-opt budget: the FNV-64a digest
// replayChurnDigest computes. The constants were recorded from a
// matcher that asked the metric for every distance it read, so any
// change to how distances are stored, or to the order repairs run in,
// must reproduce those answers bit for bit: the same matched flags,
// sizes and cost bits after every event, and the same final pairs. A
// change meant to alter the answers must say so and re-record them.
var churnDigests = map[int]uint64{
	0: 0xdddea6aaeeea09c0,
	2: 0x1d0dd1628b7d0844,
}

// replayChurnDigest replays a 400-event delivery stream over a 16-grid
// road network with 12 providers and hashes, per event, whether the
// customer was matched (arrive) or left matched (depart), Size and the
// bits of Cost; then the final matching's pairs in order, and the
// repair counters.
func replayChurnDigest(t *testing.T, budget int) (uint64, ChurnStats) {
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
	m := NewDynamicMatcherOpts(providers, DynamicOptions{Metric: netmetric.FromNetwork(net), ReoptBudget: budget})
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
			t.Fatalf("budget %d step %d (%s): %v", budget, step, ev.Kind, err)
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
	st := m.Stats()
	for _, v := range []int{st.Augments, st.Swaps, st.Cycles, st.Deferred} {
		put(uint64(v))
	}
	return h.Sum64(), st
}

// TestDynamicMatcherDigest holds the matcher to its recorded answers
// under an unlimited and a tight re-opt budget. The stream must reach
// every repair path for the pin to mean anything: swaps at full
// capacity, cycle cancels, and (under budget 2) deferred debt.
func TestDynamicMatcherDigest(t *testing.T) {
	for _, budget := range []int{0, 2} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			got, st := replayChurnDigest(t, budget)
			if st.Departures == 0 || st.Resizes == 0 || st.Swaps == 0 || st.Cycles == 0 {
				t.Fatalf("stream misses a repair path: %+v", st)
			}
			if budget > 0 && st.Deferred == 0 {
				t.Fatalf("budget %d never deferred: %+v", budget, st)
			}
			if want := churnDigests[budget]; got != want {
				t.Fatalf("digest %#x, want %#x (stats %+v)", got, want, st)
			}
		})
	}
}
