package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/geo"
)

// Sizes of the session-churn workload.
const (
	churnGrid      = 64 // 64² = 4,096 nodes: exactly DefaultCHMinNodes
	churnProviders = 32
	churnScenario  = "delivery" // emits arrivals, departures and ±1 resizes
	// One delivery fleet's cost per event depends on where its seed put
	// the depots and the order clusters: over ten seeds the in-process
	// replay time of one stream had an interquartile range of 38% of its
	// median. churnSessions independently seeded sessions, one per
	// dispatch region, average that out.
	churnSessions = 8
	churnWarm     = 80 // untimed events per session at the head of the run
	// A fresh setup (server.New, the network and its hierarchy, one
	// session, its first arrival) takes a fraction of a second; a
	// restart replays every WAL and takes seconds. Restarts alternate
	// with groups of setupsPerRestart fresh setups, so both medians
	// sample the same stretch of the run.
	churnRestarts    = 3
	setupsPerRestart = 7 // 1 + 3 × 7 = 22 setups
)

// churnRate scales the timed event count with --seconds (see opCount):
// each session's stream is churnWarm + churnRate·seconds events, so the
// run times 8 × 200 = 1,600 events at the benchmark's 25 seconds.
const churnRate = 8.0

// churnStream is one session's inputs.
type churnStream struct {
	providers []client.Provider
	events    []datagen.Event
}

// eventRef names event i of stream s.
type eventRef struct{ s, i int }

// churnInputs is one run's session streams and the order in which the
// single client sends their events: stream 0 through its first arrival
// (the setup), then round robin over the streams.
type churnInputs struct {
	netSeed int64
	streams []churnStream
	first   int // index of stream 0's first arrival
	order   []eventRef
}

// genChurn builds the streams from datagen's delivery scenario: a few
// high-capacity depots and many capacity-1 or -2 couriers, orders
// clustered around the depots, and ±1 courier resizes on about 6% of
// the events, so all three event kinds come from the program's own
// traffic model.
func genChurn(cfg config) *churnInputs {
	in := &churnInputs{netSeed: fixedSeed}
	net := datagen.NewNetwork(churnGrid, space, in.netSeed)
	n := churnWarm + opCount(churnRate, cfg.seconds)
	for s := 0; s < churnSessions; s++ {
		wl, err := datagen.NewChurn(churnScenario, net, datagen.ChurnConfig{Events: n, Providers: churnProviders, Seed: subSeed(cfg.seed, "churn", s)})
		if err != nil {
			panic(err) // churnScenario is a registered scenario
		}
		st := churnStream{events: wl.Events}
		for _, p := range wl.Providers {
			st.providers = append(st.providers, client.Provider{X: p.Pt.X, Y: p.Pt.Y, Cap: p.Cap})
		}
		in.streams = append(in.streams, st)
	}
	// The first arrival's distance queries build the contraction
	// hierarchy, so setup runs through it whatever events precede it.
	for in.first < n-1 && in.streams[0].events[in.first].Kind != datagen.EventArrive {
		in.first++
	}
	for i := 0; i <= in.first; i++ {
		in.order = append(in.order, eventRef{0, i})
	}
	for i := 0; i < n; i++ {
		for s := range in.streams {
			if s > 0 || i > in.first {
				in.order = append(in.order, eventRef{s, i})
			}
		}
	}
	return in
}

// warm is the number of untimed events at the head of in.order.
func (in *churnInputs) warm() int { return churnSessions * churnWarm }

// event returns the event at position pos of the client's order.
func (in *churnInputs) event(pos int) datagen.Event {
	r := in.order[pos]
	return in.streams[r.s].events[r.i]
}

// final is one in-process matcher's state after its last event.
type final struct {
	capacity, size int // Γ, |M|
	cost           float64
	stats          cca.ChurnStats
}

// expected is the in-process answer to one event.
type expected struct {
	matched bool // arrive: matched; depart: was matched
	size    int
	cost    float64
}

// replay runs the events in the client's order through one in-process
// cca.DynamicMatcher per stream, all over m (as ccad's sessions share
// one network), returning each event's expected answer and wall time
// and each matcher's final state.
func (in *churnInputs) replay(m geo.Metric) ([]expected, []time.Duration, []final, error) {
	dms := make([]*cca.DynamicMatcher, len(in.streams))
	for s, st := range in.streams {
		q := make([]cca.Provider, len(st.providers))
		for i, p := range st.providers {
			q[i] = cca.Provider{Pt: cca.Point{X: p.X, Y: p.Y}, Cap: p.Cap}
		}
		dms[s] = cca.NewDynamicMatcherOpts(q, cca.DynamicOptions{Metric: m})
	}
	exp := make([]expected, len(in.order))
	took := make([]time.Duration, len(in.order))
	for pos, r := range in.order {
		var (
			ok  bool
			err error
		)
		ev, dm := in.event(pos), dms[r.s]
		t0 := time.Now()
		switch ev.Kind {
		case datagen.EventArrive:
			ok, err = dm.Arrive(ev.Pt, ev.ID)
		case datagen.EventDepart:
			ok, err = dm.Depart(ev.ID)
		case datagen.EventResize:
			err = dm.ResizeProvider(ev.Provider, ev.NewCap)
		}
		took[pos] = time.Since(t0)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("in-process session %d event %d (%v): %w", r.s, r.i, ev.Kind, err)
		}
		exp[pos] = expected{matched: ok, size: dm.Size(), cost: dm.Cost()}
	}
	fins := make([]final, len(dms))
	for s, dm := range dms {
		fins[s] = final{capacity: dm.Capacity(), size: dm.Size(), cost: dm.Cost(), stats: dm.Stats()}
	}
	return exp, took, fins, nil
}

// churnOp is one answered event.
type churnOp struct {
	lat   time.Duration
	bytes int
	got   expected
	err   error
}

// send posts the event at position pos of the client's order to its
// session and records the answer; verify checks it against the
// in-process replay afterwards.
func (in *churnInputs) send(d *ccad, ids []string, pos int) churnOp {
	ev := in.event(pos)
	base := d.url + "/v1/sessions/" + ids[in.order[pos].s]
	var (
		raw []byte
		op  churnOp
	)
	switch ev.Kind {
	case datagen.EventArrive:
		var r client.ArriveResponse
		raw, op.lat, op.err = callJSON("POST", base+"/arrive", client.ArriveRequest{ID: ev.ID, X: ev.Pt.X, Y: ev.Pt.Y}, &r)
		op.got = expected{matched: r.Matched, size: r.Size, cost: r.Cost}
	case datagen.EventDepart:
		var r client.DepartResponse
		raw, op.lat, op.err = callJSON("POST", base+"/depart", client.DepartRequest{ID: ev.ID}, &r)
		op.got = expected{matched: r.WasMatched, size: r.Size, cost: r.Cost}
	case datagen.EventResize:
		var r client.ResizeResponse
		raw, op.lat, op.err = callJSON("POST", base+"/resize", client.ResizeRequest{Provider: ev.Provider, Cap: ev.NewCap}, &r)
		op.got = expected{size: r.Size, cost: r.Cost}
	}
	op.bytes = len(raw)
	return op
}

// session creates stream s's persisted network session.
func (in *churnInputs) session(d *ccad, s int) (string, error) {
	var info client.SessionInfo
	_, _, err := callJSON("POST", d.url+"/v1/sessions", client.SessionRequest{
		Providers: in.streams[s].providers, Metric: "network", NetGrid: churnGrid, NetSeed: in.netSeed,
	}, &info)
	if err == nil && !info.Persisted {
		err = fmt.Errorf("session %s not persisted", info.ID)
	}
	return info.ID, err
}

// bootFirst boots a ccad on a fresh stateDir, creates stream 0's
// session and sends its events through the first arrival, timing
// server.New → that arrival's answer.
func (in *churnInputs) bootFirst(stateDir string, rep *report) (*ccad, []string, []churnOp, float64, error) {
	d, t0, err := boot("", stateDir)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	id, err := in.session(d, 0)
	if !rep.check(err) {
		d.stop(true)
		return nil, nil, nil, 0, err
	}
	ids := make([]string, len(in.streams))
	ids[0] = id
	var ops []churnOp
	for pos := 0; pos <= in.first; pos++ {
		ops = append(ops, in.send(d, ids, pos))
	}
	return d, ids, ops, since(t0), nil
}

// matchings fetches every session's current matching as raw bytes.
func matchings(d *ccad, ids []string) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for s, id := range ids {
		raw, _, err := call("GET", d.url+"/v1/sessions/"+id+"/matching", nil)
		if err != nil {
			return nil, err
		}
		out[s] = raw
	}
	return out, nil
}

// probe is a restarted server's answer to a resize of one session's
// provider 0 to its final capacity in the stream.
type probe struct {
	s    int
	resp client.ResizeResponse
	err  error
}

// churnRun is the result of driving the streams over HTTP.
type churnRun struct {
	setups, recoveries []float64
	events             []churnOp   // every event, in the client's order
	fresh              [][]churnOp // the setup events of each extra fresh setup
	probes             []probe
	meter              *meter
	rss                float64
	before, after      map[string]float64 // /metrics around the timed pass
	walBytes           int64
}

// drive runs the HTTP side before any benchmark-side matcher or metric
// exists, so rss_mb is the server's and the client's peak alone: setup,
// the other sessions, warm-up, the timed events, an abandon without
// clean shutdown, then restarts on the same state dir, each followed by
// setupsPer extra fresh setups. Each restart must serve byte-identical
// /matching responses; every session is then probed with a resize of
// provider 0 to its final capacity, which verify checks against the
// replay's final capacities (a lost resize need not change the
// matching while capacity is slack, but it changes Γ).
func (in *churnInputs) drive(cfg config, restarts, setupsPer int, rep *report) (*churnRun, error) {
	out := &churnRun{}
	state := filepath.Join(cfg.dir, "state")
	d, ids, ops, setup, err := in.bootFirst(state, rep)
	if err != nil {
		return nil, err
	}
	out.setups, out.events = append(out.setups, setup), ops
	for s := 1; s < len(ids); s++ {
		if ids[s], err = in.session(d, s); !rep.check(err) {
			return nil, err
		}
	}
	for pos := len(ops); pos < in.warm(); pos++ {
		out.events = append(out.events, in.send(d, ids, pos))
	}
	if out.before, err = scrape(d); err != nil {
		return nil, err
	}
	quiesce()
	out.meter = newMeter(len(in.order) - in.warm())
	for pos := in.warm(); pos < len(in.order); pos++ {
		op := in.send(d, ids, pos)
		out.events = append(out.events, op)
		out.meter.add(op.lat)
	}
	out.rss = peakRSSMB()
	if out.after, err = scrape(d); err != nil {
		return nil, err
	}
	before, err := matchings(d, ids)
	if !rep.check(err) {
		return nil, err
	}
	d.stop(false)
	if out.walBytes, err = dirBytes(filepath.Join(state, "sessions"), ".wal"); err != nil {
		return nil, err
	}

	for r := 0; r < restarts; r++ {
		d, t0, err := boot("", state)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		after, err := matchings(d, ids)
		out.recoveries = append(out.recoveries, since(t0))
		for s := 0; err == nil && s < len(ids); s++ {
			if !bytes.Equal(before[s], after[s]) {
				err = fmt.Errorf("session %d: /matching after restart %d differs from before the abandon", s, r)
			}
		}
		rep.check(err)
		for s, id := range ids {
			p := probe{s: s}
			_, _, p.err = callJSON("POST", d.url+"/v1/sessions/"+id+"/resize", client.ResizeRequest{Provider: 0, Cap: in.streams[s].capFinal()}, &p.resp)
			out.probes = append(out.probes, p)
		}
		d.stop(false)
		for k := 0; k < setupsPer; k++ {
			fresh := filepath.Join(cfg.dir, fmt.Sprintf("state-%d-%d", r, k))
			d, _, ops, t, err := in.bootFirst(fresh, rep)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			out.setups, out.fresh = append(out.setups, t), append(out.fresh, ops)
			d.stop(true)
			os.RemoveAll(fresh)
		}
	}
	return out, nil
}

// capFinal is provider 0's capacity after the stream's last resize:
// the restart probe resizes it to that value, a no-op on a correctly
// recovered session.
func (st *churnStream) capFinal() int {
	c := st.providers[0].Cap
	for _, ev := range st.events {
		if ev.Kind == datagen.EventResize && ev.Provider == 0 {
			c = ev.NewCap
		}
	}
	return c
}

// verify checks every answer the server gave against the in-process
// replay bit for bit: each event, the setup events of every extra fresh
// setup, and every restart's resize probes.
func (in *churnInputs) verify(run *churnRun, exp []expected, fins []final, rep *report) {
	check := func(pos int, op churnOp) {
		err := op.err
		if err == nil && (op.got.matched != exp[pos].matched || op.got.size != exp[pos].size || math.Float64bits(op.got.cost) != math.Float64bits(exp[pos].cost)) {
			r := in.order[pos]
			err = fmt.Errorf("session %d event %d (%v): got %+v, in-process %+v", r.s, r.i, in.event(pos).Kind, op.got, exp[pos])
		}
		rep.check(err)
	}
	for pos, op := range run.events {
		check(pos, op)
	}
	for _, ops := range run.fresh {
		for pos, op := range ops {
			check(pos, op)
		}
	}
	for _, p := range run.probes {
		err, rr, fin := p.err, p.resp, fins[p.s]
		if err == nil && (rr.Capacity != fin.capacity || rr.Size != fin.size || math.Float64bits(rr.Cost) != math.Float64bits(fin.cost)) {
			err = fmt.Errorf("session %d after restart: capacity/size/cost %d/%d/%v, in-process %d/%d/%v", p.s, rr.Capacity, rr.Size, rr.Cost, fin.capacity, fin.size, fin.cost)
		}
		rep.check(err)
	}
}

func runChurn(cfg config, rep *report) error {
	in := genChurn(cfg)
	if cfg.trace {
		return in.layers(cfg, rep)
	}
	run, err := in.drive(cfg, churnRestarts, setupsPerRestart, rep)
	if err != nil {
		return err
	}
	exp, _, fins, err := in.replay(netMetric(churnGrid, in.netSeed))
	if err != nil {
		return err
	}
	in.verify(run, exp, fins, rep)
	run.meter.report(rep)
	rep.set("setup_s", median(run.setups), len(run.setups))
	rep.set("rss_mb", run.rss, 1)
	rep.set("recovery_s", median(run.recoveries), len(run.recoveries))
	return nil
}
