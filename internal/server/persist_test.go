package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/storage"
)

// crashableServer boots a server whose durable state can be abandoned
// mid-flight: the returned crash func kills the listener and the engine
// but never calls srv.Close, so open WAL handles are simply dropped —
// the in-process analogue of SIGKILL. Every acknowledged event was
// fsynced, so the on-disk state is exactly what a real crash leaves.
func crashableServer(t *testing.T, cfg server.Config) (testHarness, func()) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = &cca.Engine{Workers: 4}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	crash := func() {
		hs.Close()
		cfg.Engine.Close()
	}
	return testHarness{c: client.New(hs.URL, hs.Client()), srv: srv, engine: cfg.Engine, url: hs.URL}, crash
}

// rawMatching fetches GET /v1/sessions/{id}/matching as raw bytes — the
// strongest byte-identity witness the wire offers.
func rawMatching(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/sessions/" + id + "/matching")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching: status %d: %s", resp.StatusCode, body)
	}
	return body
}

// applyChurnEvent drives one generated event through the HTTP session
// and the in-process reference matcher, asserting exact agreement.
func applyChurnEvent(t *testing.T, c *client.Client, id string, ref *cca.DynamicMatcher, i int, ev datagen.Event) {
	t.Helper()
	ctx := context.Background()
	switch ev.Kind {
	case datagen.EventArrive:
		resp, err := c.Arrive(ctx, id, client.ArriveRequest{ID: ev.ID, X: ev.Pt.X, Y: ev.Pt.Y})
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
		resp, err := c.Depart(ctx, id, client.DepartRequest{ID: ev.ID})
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
		resp, err := c.Resize(ctx, id, client.ResizeRequest{Provider: ev.Provider, Cap: ev.NewCap})
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

// liveSet is a matcher's live customers in wire form, sorted by id as
// the session checkpoint lists them.
func liveSet(m *cca.DynamicMatcher) []client.Customer {
	out := []client.Customer{}
	for _, c := range m.LiveCustomers() {
		out = append(out, client.Customer{ID: c.ID, X: c.Pt.X, Y: c.Pt.Y})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// checkSnapshotLive decodes the session's latest checkpoint and
// requires its live set to be the one the reference matcher held after
// the same number of events (want, keyed by event count).
func checkSnapshotLive(t *testing.T, state, id string, want map[int][]client.Customer) {
	t.Helper()
	data, err := storage.ReadSnapshot(filepath.Join(state, "sessions", id+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Events int               `json:"events"`
		Live   []client.Customer `json:"live"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	live, ok := want[snap.Events]
	if !ok {
		t.Fatalf("snapshot at %d events, none expected there", snap.Events)
	}
	if !reflect.DeepEqual(snap.Live, live) {
		t.Fatalf("snapshot at %d events lists live %v, the session held %v", snap.Events, snap.Live, live)
	}
}

// TestSessionCrashRecoveryConformance is the durability acceptance
// test: for every churn scenario generator, a session driven over HTTP
// with persistence on, crashed (no drain, no close), and recovered by a
// fresh server boot must serve a /matching byte-identical to both the
// pre-crash response and an uninterrupted in-process DynamicMatcher —
// and must keep accepting churn events conformantly afterwards. Its
// checkpoints, before the crash and after recovery, must list the live
// set the session held when they were taken.
func TestSessionCrashRecoveryConformance(t *testing.T) {
	for _, scenario := range []string{"ridehail", "delivery", "evacuation", "diurnal"} {
		t.Run(scenario, func(t *testing.T) {
			state := t.TempDir()
			w := churnWorkload(t, scenario, 160, 5, 41)
			core, wire := sessionProviders(w)
			split := len(w.Events) * 3 / 4

			a, crash := crashableServer(t, server.Config{StateDir: state, SnapshotEvery: 16})
			info, err := a.c.NewSession(context.Background(), client.SessionRequest{Providers: wire})
			if err != nil {
				t.Fatal(err)
			}
			if !info.Persisted {
				t.Fatal("session with a state dir must report persisted")
			}
			ref := cca.NewDynamicMatcherOpts(core, cca.DynamicOptions{})
			live := map[int][]client.Customer{}
			for i, ev := range w.Events[:split] {
				applyChurnEvent(t, a.c, info.ID, ref, i, ev)
				live[i+1] = liveSet(ref)
			}
			pre := rawMatching(t, a.url, info.ID)
			crash()
			checkSnapshotLive(t, state, info.ID, live)

			b := testServer(t, server.Config{StateDir: state, SnapshotEvery: 16})
			if n := b.srv.RecoveredSessions(); n != 1 {
				t.Fatalf("recovered %d sessions, want 1", n)
			}
			post := rawMatching(t, b.url, info.ID)
			if !bytes.Equal(pre, post) {
				t.Fatalf("recovered matching differs from pre-crash bytes:\n got %.300s…\nwant %.300s…", post, pre)
			}

			// The recovered session is live, not a read-only replica: the
			// rest of the stream must stay conformant with the in-process
			// matcher that never crashed.
			for i, ev := range w.Events[split:] {
				applyChurnEvent(t, b.c, info.ID, ref, split+i, ev)
				live[split+i+1] = liveSet(ref)
			}
			checkSnapshotLive(t, state, info.ID, live)
			res := ref.Matching()
			got, err := b.c.Matching(context.Background(), info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != res.Size || got.Cost != res.Cost {
				t.Fatalf("final matching: got size %d cost %v, in-process size %d cost %v",
					got.Size, got.Cost, res.Size, res.Cost)
			}
		})
	}
}

// TestSessionCrashRecoveryNetworkMetric: the WAL header carries the
// metric configuration, so a network-metric session must recover
// byte-identically too (the replay goes through the same network memo).
func TestSessionCrashRecoveryNetworkMetric(t *testing.T) {
	state := t.TempDir()
	w := churnWorkload(t, "ridehail", 80, 4, 7)
	_, wire := sessionProviders(w)

	a, crash := crashableServer(t, server.Config{StateDir: state})
	info, err := a.c.NewSession(context.Background(), client.SessionRequest{
		Providers: wire, Metric: "network", NetGrid: 8, NetSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range w.Events {
		ctx := context.Background()
		switch ev.Kind {
		case datagen.EventArrive:
			if _, err := a.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: ev.ID, X: ev.Pt.X, Y: ev.Pt.Y}); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		case datagen.EventDepart:
			if _, err := a.c.Depart(ctx, info.ID, client.DepartRequest{ID: ev.ID}); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		case datagen.EventResize:
			if _, err := a.c.Resize(ctx, info.ID, client.ResizeRequest{Provider: ev.Provider, Cap: ev.NewCap}); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
	}
	pre := rawMatching(t, a.url, info.ID)
	crash()

	b := testServer(t, server.Config{StateDir: state})
	if n := b.srv.RecoveredSessions(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if post := rawMatching(t, b.url, info.ID); !bytes.Equal(pre, post) {
		t.Fatalf("network-metric session diverged after recovery:\n got %.300s…\nwant %.300s…", post, pre)
	}
}

// TestSessionWALGarbageTail: a crash can leave garbage past the last
// fsynced record (a torn or preallocated page). Recovery must truncate
// to the valid prefix and serve the session — every acknowledged event
// survives, the garbage does not become a phantom record.
func TestSessionWALGarbageTail(t *testing.T) {
	state := t.TempDir()
	a, crash := crashableServer(t, server.Config{StateDir: state})
	info, err := a.c.NewSession(context.Background(), client.SessionRequest{
		Providers: []client.Provider{{X: 0, Y: 0, Cap: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		if _, err := a.c.Arrive(context.Background(), info.ID, client.ArriveRequest{ID: id, X: float64(id), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	pre := rawMatching(t, a.url, info.ID)
	crash()

	// Append one page of 0xFF garbage to the WAL — its frame length is
	// absurd, so the scan must treat it as a torn tail.
	walPath := filepath.Join(state, "sessions", info.ID+".wal")
	junk := bytes.Repeat([]byte{0xFF}, 1024)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := testServer(t, server.Config{StateDir: state})
	if n := b.srv.RecoveredSessions(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if post := rawMatching(t, b.url, info.ID); !bytes.Equal(pre, post) {
		t.Fatalf("matching diverged after garbage-tail recovery:\n got %s\nwant %s", post, pre)
	}
	// The recovered log must accept appends cleanly after the truncation.
	if _, err := b.c.Arrive(context.Background(), info.ID, client.ArriveRequest{ID: 4, X: 4, Y: 0}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionWALReoptBudgetReplays: logs written while sessions had a
// re-optimization budget carry "reopt_budget" in their create record,
// and logs of network sessions may carry "net_landmarks" and "net_ch".
// None of them selects anything any more, but such a log must still
// replay — to the exact optimum, as a session created without the
// fields would — and the recovered session must keep serving.
func TestSessionWALReoptBudgetReplays(t *testing.T) {
	state := t.TempDir()
	w := churnWorkload(t, "ridehail", 120, 4, 9)
	core, wire := sessionProviders(w)
	if err := os.MkdirAll(filepath.Join(state, "sessions"), 0o755); err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		id     string
		header map[string]any
		ref    *cca.DynamicMatcher
	}{
		{"00000000000000b2", map[string]any{"op": "create", "providers": wire, "reopt_budget": 2},
			cca.NewDynamicMatcher(core)},
		{"00000000000000b3", map[string]any{"op": "create", "providers": wire,
			"metric": "network", "net_grid": 8, "net_seed": 9, "net_landmarks": 8, "net_ch": -1},
			cca.NewDynamicMatcherOpts(core, cca.DynamicOptions{
				Metric: cca.RoadNetworkMetric(8, cca.Rect{Max: cca.Point{X: 1000, Y: 1000}}, 9)})},
	}
	for _, in := range inputs {
		fs, err := storage.CreateFileStore(filepath.Join(state, "sessions", in.id+".wal"), storage.DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		l, err := storage.NewLog(fs)
		if err != nil {
			t.Fatal(err)
		}
		header, err := json.Marshal(in.header)
		if err != nil {
			t.Fatal(err)
		}
		records := [][]byte{header}
		ref := in.ref
		for i, ev := range w.Events {
			var rec map[string]any
			switch ev.Kind {
			case datagen.EventArrive:
				rec = map[string]any{"op": "arrive", "id": ev.ID, "x": ev.Pt.X, "y": ev.Pt.Y}
				_, err = ref.Arrive(cca.Point{X: ev.Pt.X, Y: ev.Pt.Y}, ev.ID)
			case datagen.EventDepart:
				rec = map[string]any{"op": "depart", "id": ev.ID}
				_, err = ref.Depart(ev.ID)
			case datagen.EventResize:
				rec = map[string]any{"op": "resize", "provider": ev.Provider, "cap": ev.NewCap}
				err = ref.ResizeProvider(ev.Provider, ev.NewCap)
			}
			if err != nil {
				t.Fatalf("%s event %d: %v", in.id, i, err)
			}
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			records = append(records, data)
		}
		for _, data := range records {
			if err := l.Append(data); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	h := testServer(t, server.Config{StateDir: state})
	if n := h.srv.RecoveredSessions(); n != len(inputs) {
		t.Fatalf("recovered %d sessions, want %d", n, len(inputs))
	}
	for _, in := range inputs {
		got, err := h.c.Matching(context.Background(), in.id)
		if err != nil {
			t.Fatal(err)
		}
		want := in.ref.Matching()
		if got.Size != want.Size || got.Cost != want.Cost || len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("%s replayed: size %d cost %v (%d pairs), in-process size %d cost %v (%d pairs)",
				in.id, got.Size, got.Cost, len(got.Pairs), want.Size, want.Cost, len(want.Pairs))
		}
		for i, p := range want.Pairs {
			if g := got.Pairs[i]; g.Provider != p.Provider || g.Customer != p.CustomerID || g.Dist != p.Dist {
				t.Fatalf("%s pair %d: got %+v, in-process %+v", in.id, i, g, p)
			}
		}
		if _, err := h.c.Arrive(context.Background(), in.id, client.ArriveRequest{ID: 1 << 40, X: 1, Y: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSnapshotCrossCheck: recovery checks a replay against a
// current snapshot. A snapshot cost a few ulps off (an equally optimal
// matching summed in another order) recovers and is served; a different
// size, or a cost off by 1e-6 relative, is refused as divergence.
func TestSessionSnapshotCrossCheck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(size int, cost float64) (int, float64)
		served bool
	}{
		{"cost-ulps", func(n int, c float64) (int, float64) {
			for i := 0; i < 3; i++ {
				c = math.Nextafter(c, math.Inf(1))
			}
			return n, c
		}, true},
		{"size", func(n int, c float64) (int, float64) { return n + 1, c }, false},
		{"cost-1e-6", func(n int, c float64) (int, float64) { return n, c * (1 + 1e-6) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := t.TempDir()
			a, crash := crashableServer(t, server.Config{StateDir: state, SnapshotEvery: 1})
			info, err := a.c.NewSession(context.Background(), client.SessionRequest{
				Providers: []client.Provider{{X: 0, Y: 0, Cap: 2}, {X: 100, Y: 100, Cap: 1}},
			})
			if err != nil {
				t.Fatal(err)
			}
			for id, pt := range [][2]float64{{3, 4}, {90, 90}, {50, 50}} {
				if _, err := a.c.Arrive(context.Background(), info.ID,
					client.ArriveRequest{ID: int64(id + 1), X: pt[0], Y: pt[1]}); err != nil {
					t.Fatal(err)
				}
			}
			pre := rawMatching(t, a.url, info.ID)
			crash()

			// The last event fell on a checkpoint, so the snapshot is
			// current; rewrite its summary.
			path := filepath.Join(state, "sessions", info.ID+".snap")
			data, err := storage.ReadSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			var snap map[string]json.RawMessage
			var size int
			var cost float64
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(snap["size"], &size); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(snap["cost"], &cost); err != nil {
				t.Fatal(err)
			}
			size, cost = tc.mangle(size, cost)
			snap["size"] = json.RawMessage(strconv.Itoa(size))
			snap["cost"] = json.RawMessage(strconv.FormatFloat(cost, 'g', -1, 64))
			if data, err = json.Marshal(snap); err != nil {
				t.Fatal(err)
			}
			if err := storage.WriteSnapshot(path, data); err != nil {
				t.Fatal(err)
			}

			b := testServer(t, server.Config{StateDir: state})
			if tc.served {
				if n := b.srv.RecoveredSessions(); n != 1 {
					t.Fatalf("recovered %d sessions, want 1", n)
				}
				if post := rawMatching(t, b.url, info.ID); !bytes.Equal(pre, post) {
					t.Fatalf("matching changed across recovery:\n got %s\nwant %s", post, pre)
				}
				return
			}
			if n := b.srv.RecoveredSessions(); n != 0 {
				t.Fatalf("recovered %d sessions, want the diverged one refused", n)
			}
			resp, err := http.Get(b.url + "/v1/sessions/" + info.ID + "/matching")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "replay diverged") {
				t.Fatalf("diverged session: status %d: %s", resp.StatusCode, body)
			}
		})
	}
}

// metricsText scrapes /metrics.
func metricsText(t *testing.T, h testHarness) string {
	t.Helper()
	text, err := h.c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// waitForMetric polls /metrics until line appears (the sweeper runs on
// its own ticker, so expiry is asynchronous).
func waitForMetric(t *testing.T, h testHarness, line string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(metricsText(t, h), line) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("metrics never showed %q", line)
}

// TestSessionTTLSweeper: an idle persisted session is checkpointed and
// unloaded by the TTL sweeper, then transparently reloaded — with a
// byte-identical matching and its arrival counter intact — when touched
// again.
func TestSessionTTLSweeper(t *testing.T) {
	state := t.TempDir()
	h := testServer(t, server.Config{
		StateDir:   state,
		SessionTTL: 50 * time.Millisecond,
	})
	ctx := context.Background()
	info, err := h.c.NewSession(ctx, client.SessionRequest{
		Providers: []client.Provider{{X: 0, Y: 0, Cap: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastArrivals int
	for id := int64(1); id <= 3; id++ {
		resp, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: id, X: float64(id), Y: float64(id)})
		if err != nil {
			t.Fatal(err)
		}
		lastArrivals = resp.Arrivals
	}
	pre := rawMatching(t, h.url, info.ID)

	waitForMetric(t, h, "ccad_sessions_expired_total 1")
	waitForMetric(t, h, "ccad_sessions_active 0")
	if _, err := os.Stat(filepath.Join(state, "sessions", info.ID+".snap")); err != nil {
		t.Fatalf("unload must leave a checkpoint snapshot: %v", err)
	}

	// Touch: the read reloads the session from its WAL.
	if post := rawMatching(t, h.url, info.ID); !bytes.Equal(pre, post) {
		t.Fatalf("reloaded matching differs:\n got %s\nwant %s", post, pre)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, "ccad_sessions_reloaded_total 1") {
		t.Fatal("metrics missing ccad_sessions_reloaded_total 1")
	}
	// The arrival counter (and with it the MaxArrivals bound) must
	// survive the unload/reload cycle.
	resp, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: 4, X: 4, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Arrivals != lastArrivals+1 {
		t.Fatalf("arrivals after reload = %d, want %d", resp.Arrivals, lastArrivals+1)
	}
}

// TestSessionTTLWithoutPersistence: -session-ttl without -state-dir
// discards idle sessions outright — the documented in-memory behavior.
func TestSessionTTLWithoutPersistence(t *testing.T) {
	h := testServer(t, server.Config{SessionTTL: 50 * time.Millisecond})
	ctx := context.Background()
	info, err := h.c.NewSession(ctx, client.SessionRequest{
		Providers: []client.Provider{{Cap: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Persisted {
		t.Fatal("session without a state dir must not report persisted")
	}
	waitForMetric(t, h, "ccad_sessions_expired_total 1")
	if _, err := h.c.Matching(ctx, info.ID); statusOf(err) != http.StatusNotFound {
		t.Fatalf("expired in-memory session: %v, want 404", err)
	}
}

// TestSessionDeleteAccounting pins the lifecycle counters — active =
// created + recovered + reloaded − deleted − expired — and that DELETE
// stays allowed during drain (an orchestrated shutdown cleans up its
// own sessions; wedging it on its own drain would deadlock teardown).
func TestSessionDeleteAccounting(t *testing.T) {
	h := testServer(t, server.Config{})
	ctx := context.Background()
	a, err := h.c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{Cap: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{Cap: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.c.DeleteSession(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	text := metricsText(t, h)
	for _, want := range []string{
		"ccad_sessions_created_total 2",
		"ccad_sessions_deleted_total 1",
		"ccad_sessions_expired_total 0",
		"ccad_sessions_active 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	h.srv.Drain()
	if err := h.c.DeleteSession(ctx, b.ID); err != nil {
		t.Fatalf("DELETE during drain must stay allowed: %v", err)
	}
	text = metricsText(t, h)
	for _, want := range []string{
		"ccad_sessions_deleted_total 2",
		"ccad_sessions_active 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSessionDeleteUnloaded: DELETE on a session the sweeper unloaded
// must remove its on-disk state — a deleted session is gone forever,
// unlike a swept one.
func TestSessionDeleteUnloaded(t *testing.T) {
	state := t.TempDir()
	h := testServer(t, server.Config{StateDir: state, SessionTTL: 50 * time.Millisecond})
	ctx := context.Background()
	info, err := h.c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{Cap: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	waitForMetric(t, h, "ccad_sessions_expired_total 1")

	if err := h.c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatalf("deleting an unloaded session: %v", err)
	}
	if _, err := os.Stat(filepath.Join(state, "sessions", info.ID+".wal")); !os.IsNotExist(err) {
		t.Fatalf("WAL must be removed on delete, stat: %v", err)
	}
	if _, err := h.c.Matching(ctx, info.ID); statusOf(err) != http.StatusNotFound {
		t.Fatalf("deleted session: %v, want 404", err)
	}
	if err := h.c.DeleteSession(ctx, info.ID); statusOf(err) != http.StatusNotFound {
		t.Fatalf("double delete: %v, want 404", err)
	}
}

// TestDatasetLifecycle walks the full dataset surface: upload over
// HTTP, list with residency stats, solve (paging the index through the
// file-backed buffer), evict, and re-solve — the post-eviction solve
// must reproduce the matching byte-identically from a cold buffer, with
// the faults of both loads visible in /metrics.
func TestDatasetLifecycle(t *testing.T) {
	dataDir, stateDir := t.TempDir(), t.TempDir()
	h := testServer(t, server.Config{DataDir: dataDir, StateDir: stateDir})
	ctx := context.Background()

	pts := testPoints(500, 91)
	var sb strings.Builder
	for i, p := range pts {
		fmt.Fprintf(&sb, "%d,%.6f,%.6f\n", i, p.X, p.Y)
	}
	up, err := h.c.UploadDataset(ctx, "town", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if up.Customers != 500 {
		t.Fatalf("upload reported %d customers, want 500", up.Customers)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "town.csv")); err != nil {
		t.Fatalf("upload must commit the CSV: %v", err)
	}

	// Malformed uploads must not replace a committed dataset.
	if _, err := h.c.UploadDataset(ctx, "town", strings.NewReader("not,a,number,row\n")); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("malformed upload: %v, want 400", err)
	}
	if _, err := h.c.UploadDataset(ctx, ".hidden", strings.NewReader("0,1,1\n")); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("dot-prefixed name: %v, want 400", err)
	}

	in := client.Instance{Solver: "nia", Providers: []client.Provider{
		{X: 100, Y: 100, Cap: 40}, {X: 900, Y: 900, Cap: 40},
	}, Dataset: "town"}
	first, err := h.c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{in}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Results[0].Error != "" {
		t.Fatal(first.Results[0].Error)
	}
	if first.Fleet.Faults == 0 || first.Fleet.IONS == 0 {
		t.Fatalf("file-backed solve must report faults, fleet = %+v", first.Fleet)
	}

	ds, err := h.c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || !ds[0].Resident || ds[0].Customers != 500 {
		t.Fatalf("datasets = %+v", ds)
	}
	if ds[0].Pages == 0 || ds[0].PageSize != 1024 || ds[0].Bytes != int64(ds[0].Pages)*1024 {
		t.Fatalf("resident stats = %+v", ds[0])
	}
	if ds[0].BufferPages >= ds[0].Pages {
		t.Fatalf("buffer (%d frames) should be a small fraction of %d pages", ds[0].BufferPages, ds[0].Pages)
	}
	if ds[0].Faults == 0 {
		t.Fatalf("per-dataset fault accounting missing: %+v", ds[0])
	}
	if _, err := os.Stat(filepath.Join(stateDir, "datasets", "town.pages")); err != nil {
		t.Fatalf("state dir must hold the page file: %v", err)
	}

	ev, err := h.c.EvictDataset(ctx, "town")
	if err != nil {
		t.Fatal(err)
	}
	if !ev.WasResident {
		t.Fatalf("evict = %+v, want resident", ev)
	}
	if ds, err = h.c.Datasets(ctx); err != nil || ds[0].Resident {
		t.Fatalf("after evict: datasets = %+v, err = %v", ds, err)
	}

	// Re-solve: a fresh identity (cold reload) must miss the result
	// cache, fault its pages back in, and reproduce the same matching.
	second, err := h.c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{in}})
	if err != nil {
		t.Fatal(err)
	}
	if second.Results[0].Error != "" {
		t.Fatal(second.Results[0].Error)
	}
	if second.Results[0].Cached {
		t.Fatal("post-eviction solve must not be served from the result cache")
	}
	if second.Fleet.Faults == 0 {
		t.Fatalf("post-eviction solve must fault, fleet = %+v", second.Fleet)
	}
	got, want := mustJSON(t, second.Results[0].Pairs), mustJSON(t, first.Results[0].Pairs)
	if !bytes.Equal(got, want) || second.Results[0].Cost != first.Results[0].Cost {
		t.Fatalf("post-eviction matching differs:\n got %.200s…\nwant %.200s…", got, want)
	}

	text := metricsText(t, h)
	for _, want := range []string{
		"ccad_datasets_uploaded_total 1",
		"ccad_datasets_evicted_total 1",
		`ccad_dataset_page_faults_total{dataset="town"}`,
		`ccad_dataset_io_seconds_total{dataset="town"}`,
		`ccad_dataset_resident_pages{dataset="town"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Unknown names: evicting a dataset with no CSV is 404.
	if _, err := h.c.EvictDataset(ctx, "nope"); statusOf(err) != http.StatusNotFound {
		t.Fatalf("evict unknown: %v, want 404", err)
	}
}

// TestDatasetUploadReplaces: re-uploading a name evicts the old index,
// so the next solve sees the new rows (no stale-index serving).
func TestDatasetUploadReplaces(t *testing.T) {
	dataDir := t.TempDir()
	h := testServer(t, server.Config{DataDir: dataDir})
	ctx := context.Background()

	if _, err := h.c.UploadDataset(ctx, "d", strings.NewReader("0,10,10\n1,20,20\n")); err != nil {
		t.Fatal(err)
	}
	in := client.Instance{Providers: []client.Provider{{X: 0, Y: 0, Cap: 5}}, Dataset: "d"}
	first, err := h.c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{in}})
	if err != nil || first.Results[0].Error != "" {
		t.Fatalf("solve: %v %s", err, first.Results[0].Error)
	}
	if first.Results[0].Size != 2 {
		t.Fatalf("size = %d, want 2", first.Results[0].Size)
	}

	if _, err := h.c.UploadDataset(ctx, "d", strings.NewReader("0,1,1\n1,2,2\n2,3,3\n")); err != nil {
		t.Fatal(err)
	}
	second, err := h.c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{in}})
	if err != nil || second.Results[0].Error != "" {
		t.Fatalf("solve: %v %s", err, second.Results[0].Error)
	}
	if second.Results[0].Size != 3 {
		t.Fatalf("after re-upload: size = %d, want 3 (stale index served?)", second.Results[0].Size)
	}
}

// TestDatasetEvictDuringSolve: eviction is refcounted — a solve holding
// the entry keeps its page store alive until it finishes, so a
// concurrent DELETE can never close the store under a reader.
func TestDatasetEvictDuringSolve(t *testing.T) {
	dataDir, stateDir := t.TempDir(), t.TempDir()
	h := testServer(t, server.Config{DataDir: dataDir, StateDir: stateDir})
	ctx := context.Background()

	pts := testPoints(800, 13)
	var sb strings.Builder
	for i, p := range pts {
		fmt.Fprintf(&sb, "%d,%.6f,%.6f\n", i, p.X, p.Y)
	}
	if _, err := h.c.UploadDataset(ctx, "big", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}

	in := client.Instance{Solver: "nia", Providers: []client.Provider{
		{X: 500, Y: 500, Cap: 400},
	}, Dataset: "big"}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := h.c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{in}})
			if err == nil && resp.Results[0].Error != "" {
				err = fmt.Errorf("%s", resp.Results[0].Error)
			}
			done <- err
		}()
	}
	// Race evictions against the in-flight solves; each next solve
	// reloads the dataset cold.
	for i := 0; i < 4; i++ {
		if _, err := h.c.EvictDataset(ctx, "big"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("solve during eviction churn: %v", err)
		}
	}
}
