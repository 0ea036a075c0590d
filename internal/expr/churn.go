package expr

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
)

// ChurnDrift is the online-matching trajectory behind BENCH_churn.json:
// one ride-hailing churn session (arrivals, departures, capacity
// resizes; 10K events at scale 1) replayed through the dynamic matcher,
// with a periodic Bellman–Ford full re-solve checking that every event
// left the optimum.
//
// Its one row, labeled "exact", reuses the batch sweeps' fields:
//
//	CPU      summed event-application time (oracle checks excluded)
//	Cost     final Ψ(M) — deterministic, gated exactly by benchgate
//	Size     final matching size
//	Quality  MaxDrift: worst (Ψ − Ψopt)/Ψopt seen at any oracle check,
//	         0 to float noise
//	Esub     repairs that kept the size and moved flow (ChurnStats.Cycles)
//	KeyUpd   repairs that grew the matching (ChurnStats.Augments)
//
// The replayed stream and the repair algorithm are deterministic, so
// every non-CPU field round-trips exactly across machines; cmd/
// benchgate pins them and requires zero drift in CI.
func ChurnDrift(s float64, out io.Writer) ([]Row, error) {
	p := Default(s)
	events := int(10000 * s)
	if events < 200 {
		events = 200
	}
	// The ridehail live pool is set by the scenario's lifetimes (~25
	// customers in steady state), not by the stream length, so the
	// fleet size is fixed rather than scaled: 6 providers ≈ 20 slots
	// keep capacity scarce, the regime where departures re-route and
	// arrivals swap. Scale governs the session length only.
	const fleet = 6
	n := datagen.NewNetwork(32, Space, p.Seed)
	w, err := datagen.NewChurn("ridehail", n, datagen.ChurnConfig{
		Events: events, Providers: fleet, Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}
	providers := make([]core.Provider, len(w.Providers))
	for i, q := range w.Providers {
		providers[i] = core.Provider{Pt: q.Pt, Cap: q.Cap}
	}
	oracleEvery := events / 25
	if oracleEvery < 1 {
		oracleEvery = 1
	}

	row, err := runChurnSession(providers, w.Events, oracleEvery)
	if err != nil {
		return nil, err
	}
	rows := []Row{row}
	PrintRows(out, fmt.Sprintf("Online churn drift: ridehail, %d events, |Q|=%d, oracle every %d events",
		events, len(providers), oracleEvery), rows, true)
	fmt.Fprintf(out, "Quality = worst cost drift vs full re-solve; Esub = size-keeping repairs; KeyUpd = augmenting repairs\n")
	return rows, nil
}

// runChurnSession replays one event stream. Oracle checks run outside
// the timed sections, so CPU measures only the incremental repairs.
func runChurnSession(providers []core.Provider, events []datagen.Event, oracleEvery int) (Row, error) {
	m := core.NewDynamicMatcher(providers)
	var cpu time.Duration
	for i, ev := range events {
		start := time.Now()
		var err error
		switch ev.Kind {
		case datagen.EventArrive:
			_, err = m.Arrive(ev.Pt, ev.ID)
		case datagen.EventDepart:
			_, err = m.Depart(ev.ID)
		case datagen.EventResize:
			err = m.ResizeProvider(ev.Provider, ev.NewCap)
		}
		cpu += time.Since(start)
		if err != nil {
			return Row{}, fmt.Errorf("churn event %d (%v): %w", i, ev.Kind, err)
		}
		if (i+1)%oracleEvery == 0 {
			m.OracleDrift()
		}
	}
	st := m.Stats()
	return Row{
		Label:   "exact",
		Algo:    "dynamic",
		CPU:     cpu,
		Cost:    m.Cost(),
		Size:    m.Size(),
		Quality: st.MaxDrift,
		Esub:    st.Cycles,
		KeyUpd:  st.Augments,
	}, nil
}
