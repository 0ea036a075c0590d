package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/server"
)

// testHarness is one booted test server: the client, the server, its
// engine, and the base URL for raw-HTTP assertions.
type testHarness struct {
	c      *client.Client
	srv    *server.Server
	engine *cca.Engine
	url    string
}

// testServer boots a Server over a fresh engine on an httptest listener.
func testServer(t *testing.T, cfg server.Config) testHarness {
	t.Helper()
	return testServerWith(t, cfg, nil)
}

// testServerWith is testServer with setup, when non-nil, run on the
// server before it serves a request.
func testServerWith(t *testing.T, cfg server.Config, setup func(*server.Server)) testHarness {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = &cca.Engine{Workers: 4}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(srv)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		cfg.Engine.Close()
	})
	return testHarness{c: client.New(hs.URL, hs.Client()), srv: srv, engine: cfg.Engine, url: hs.URL}
}

// testPoints builds a deterministic point cloud in the [0,1000]² space.
func testPoints(n int, seed int64) []cca.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]cca.Point, n)
	for i := range pts {
		pts[i] = cca.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

func wireCustomers(pts []cca.Point) []client.Customer {
	out := make([]client.Customer, len(pts))
	for i, p := range pts {
		out[i] = client.Customer{ID: int64(i), X: p.X, Y: p.Y}
	}
	return out
}

func wireProviders(providers []cca.Provider) []client.Provider {
	out := make([]client.Provider, len(providers))
	for i, q := range providers {
		out[i] = client.Provider{X: q.Pt.X, Y: q.Pt.Y, Cap: q.Cap}
	}
	return out
}

// inProcessPairs runs the same instance through cca.Solve and renders
// the matching in the wire format.
func inProcessPairs(t *testing.T, solverName string, providers []cca.Provider, pts []cca.Point, opts *cca.SolverOptions) ([]client.Pair, float64, int) {
	t.Helper()
	items := wireCustomers(pts)
	customers, err := cca.IndexItems(itemsOf(items), cca.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer customers.Close()
	res, err := cca.Solve(solverName, providers, customers, opts)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]client.Pair, len(res.Pairs))
	for i, p := range res.Pairs {
		pairs[i] = client.Pair{Provider: p.Provider, Customer: p.CustomerID, X: p.CustomerPt.X, Y: p.CustomerPt.Y, Dist: p.Dist}
	}
	return pairs, res.Cost, res.Size
}

// itemsOf converts wire customers back to R-tree items (the same
// conversion the server performs).
func itemsOf(cs []client.Customer) []cca.Customer {
	out := make([]cca.Customer, len(cs))
	for i, c := range cs {
		out[i] = cca.Customer{ID: c.ID, Pt: cca.Point{X: c.X, Y: c.Y}}
	}
	return out
}

// mustJSON marshals v for byte-level comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSolveConformance: results fetched through the full HTTP path must
// be byte-identical to in-process cca.Solve for the same instance,
// across solver families and both metrics.
func TestSolveConformance(t *testing.T) {
	h := testServer(t, server.Config{})
	c := h.c
	pts := testPoints(400, 11)
	providers := []cca.Provider{
		{Pt: cca.Point{X: 200, Y: 300}, Cap: 30},
		{Pt: cca.Point{X: 700, Y: 200}, Cap: 40},
		{Pt: cca.Point{X: 500, Y: 800}, Cap: 25},
	}

	cases := []struct {
		name   string
		solver string
		metric string
		opts   *client.Options
	}{
		{name: "ida-euclidean", solver: "ida"},
		{name: "sspa-euclidean", solver: "sspa"},
		{name: "greedy-euclidean", solver: "greedy"},
		{name: "sharded-ida", solver: "sharded:ida", opts: &client.Options{Shards: 3}},
		{name: "ida-network", solver: "ida", metric: "network"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{{
				Label:     tc.name,
				Solver:    tc.solver,
				Providers: wireProviders(providers),
				Customers: wireCustomers(pts),
				Metric:    tc.metric,
				NetGrid:   16,
				NetSeed:   5,
				Options:   tc.opts,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != 1 {
				t.Fatalf("got %d results", len(resp.Results))
			}
			r := resp.Results[0]
			if r.Error != "" {
				t.Fatalf("instance failed: %s", r.Error)
			}

			var opts cca.SolverOptions
			if tc.opts != nil {
				opts.Core.Shards = tc.opts.Shards
			}
			if tc.metric == "network" {
				opts.Core.Metric = cca.RoadNetworkMetric(16, cca.Rect{Min: cca.Point{}, Max: cca.Point{X: 1000, Y: 1000}}, 5)
			}
			wantPairs, wantCost, wantSize := inProcessPairs(t, tc.solver, providers, pts, &opts)

			if r.Size != wantSize {
				t.Fatalf("size %d, want %d", r.Size, wantSize)
			}
			if r.Cost != wantCost {
				t.Fatalf("cost %v, want %v (exact float equality)", r.Cost, wantCost)
			}
			got, want := mustJSON(t, r.Pairs), mustJSON(t, wantPairs)
			if !bytes.Equal(got, want) {
				t.Fatalf("HTTP matching differs from in-process solve:\n got %.200s…\nwant %.200s…", got, want)
			}
			if fl := resp.Fleet; fl.Instances != 1 || fl.Solved != 1 || fl.Pairs != wantSize {
				t.Fatalf("fleet = %+v", fl)
			}
		})
	}
}

// TestSolveNamedDataset: a dataset resolved by name must solve
// identically to the same points sent inline, and repeats must hit the
// engine's result cache (named datasets share identity across requests).
func TestSolveNamedDataset(t *testing.T) {
	pts := testPoints(300, 23)
	dir := t.TempDir()
	var sb strings.Builder
	for i, p := range pts {
		fmt.Fprintf(&sb, "%d,%.6f,%.6f\n", i, p.X, p.Y)
	}
	if err := os.WriteFile(filepath.Join(dir, "town.csv"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	h := testServer(t, server.Config{DataDir: dir})
	c := h.c
	providers := []client.Provider{{X: 100, Y: 100, Cap: 20}, {X: 900, Y: 900, Cap: 20}}

	ds, err := c.Datasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Name != "town" || ds[0].Customers != -1 {
		t.Fatalf("datasets = %+v", ds)
	}

	in := client.Instance{Solver: "nia", Providers: providers, Dataset: "town"}
	first, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{in}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Results[0].Error != "" {
		t.Fatal(first.Results[0].Error)
	}
	if first.Results[0].Cached {
		t.Fatal("first solve cannot be a cache hit")
	}

	// Same instance again: served from the result cache, same bytes.
	second, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{in}})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Results[0].Cached {
		t.Fatal("repeat solve on a named dataset should hit the result cache")
	}
	if !bytes.Equal(mustJSON(t, first.Results[0].Pairs), mustJSON(t, second.Results[0].Pairs)) {
		t.Fatal("cached result differs")
	}

	// The CSV file's own id,x,y precision is what the dataset holds, so
	// compare inline vs named through a re-parse of the same file
	// contents rather than the original float64 points.
	if ds, err = c.Datasets(context.Background()); err != nil || ds[0].Customers != 300 {
		t.Fatalf("after load: datasets = %+v, err = %v", ds, err)
	}
}

// TestSolveStreamed: streamed responses carry the same per-instance
// results as the buffered path, arriving in completion order with a
// final fleet aggregate; both NDJSON and SSE framings work.
func TestSolveStreamed(t *testing.T) {
	h := testServer(t, server.Config{})
	c := h.c
	pts := testPoints(250, 31)
	req := client.SolveRequest{}
	for i := 0; i < 5; i++ {
		req.Instances = append(req.Instances, client.Instance{
			Label:     fmt.Sprintf("s%d", i),
			Solver:    []string{"ida", "sspa", "greedy"}[i%3],
			Providers: []client.Provider{{X: float64(100 * i), Y: 500, Cap: 10 + i}},
			Customers: wireCustomers(pts),
		})
	}

	buffered, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	byIndex := map[int]client.InstanceResult{}
	fleet, err := c.SolveStream(context.Background(), req, func(r client.InstanceResult) error {
		if _, dup := byIndex[r.Index]; dup {
			return fmt.Errorf("duplicate index %d", r.Index)
		}
		byIndex[r.Index] = r
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(byIndex) != 5 {
		t.Fatalf("streamed %d results, want 5", len(byIndex))
	}
	if fleet.Instances != 5 || fleet.Solved != 5 {
		t.Fatalf("fleet = %+v", fleet)
	}
	for i, want := range buffered.Results {
		got, ok := byIndex[i]
		if !ok {
			t.Fatalf("missing index %d", i)
		}
		if !bytes.Equal(mustJSON(t, got.Pairs), mustJSON(t, want.Pairs)) || got.Cost != want.Cost {
			t.Fatalf("instance %d: streamed result differs from buffered", i)
		}
	}

	// SSE framing: raw scrape, check event lines and valid payloads.
	body := mustJSON(t, req)
	resp, err := http.Post(h.url+"/v1/solve?stream=sse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	if strings.Count(text, "event: result") != 5 || strings.Count(text, "event: fleet") != 1 {
		t.Fatalf("SSE framing off:\n%s", text)
	}

	// Accept-header negotiation tolerates lists and parameters.
	hreq, err := http.NewRequest(http.MethodPost, h.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Accept", "application/x-ndjson, */*")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if ct := hresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Accept list ignored: Content-Type = %q", ct)
	}
}

// TestSolveInstanceErrors: malformed instances fail individually with
// HTTP 200 batch semantics; malformed requests fail with 400.
func TestSolveInstanceErrors(t *testing.T) {
	h := testServer(t, server.Config{})
	c := h.c
	pts := testPoints(50, 41)
	good := client.Instance{Providers: []client.Provider{{X: 1, Y: 1, Cap: 2}}, Customers: wireCustomers(pts)}

	resp, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{
		{Customers: wireCustomers(pts)},                                           // no providers
		{Providers: good.Providers},                                               // no customers
		{Providers: good.Providers, Customers: good.Customers, Dataset: "x"},      // both
		{Providers: good.Providers, Customers: good.Customers, Metric: "taxicab"}, // bad metric
		{Providers: good.Providers, Customers: good.Customers, Lane: "turbo"},     // bad lane
		{Providers: good.Providers, Customers: good.Customers, Solver: "nope"},    // bad solver
		{Providers: good.Providers, Dataset: "missing"},                           // no data dir
		{Providers: good.Providers, Customers: good.Customers,
			Metric: "network", NetGrid: 1}, // grid below the generator's minimum
		{Providers: good.Providers, Customers: good.Customers,
			Metric: "network", NetGrid: 100000}, // grid would allocate O(grid²) nodes
		good, // sanity: the good one still solves
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fleet.Errors != 9 || resp.Fleet.Solved != 1 {
		t.Fatalf("fleet = %+v", resp.Fleet)
	}
	for i, r := range resp.Results[:9] {
		if r.Error == "" {
			t.Fatalf("instance %d should have failed", i)
		}
	}
	if resp.Results[9].Error != "" || resp.Results[9].Size != 2 {
		t.Fatalf("good instance: %+v", resp.Results[9])
	}

	// Request-level failures.
	for _, body := range []string{"{not json", `{}`, `{"instances": []}`} {
		hresp, err := http.Post(h.url+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, hresp.StatusCode)
		}
	}
}

// TestNonFiniteInputs: an uploaded dataset with a NaN coordinate
// answers 400 naming the line and stores nothing, and an inline solve
// whose finite but huge coordinates overflow a distance to +Inf answers
// a decodable 200 carrying that instance's error beside a healthy
// instance's matching.
func TestNonFiniteInputs(t *testing.T) {
	dir := t.TempDir()
	h := testServer(t, server.Config{DataDir: dir})
	ctx := context.Background()

	_, err := h.c.UploadDataset(ctx, "bad", strings.NewReader("0,1,1\n1,NaN,5\n"))
	if statusOf(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("NaN upload: %v, want 400 naming line 2", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.csv")); !os.IsNotExist(err) {
		t.Fatalf("rejected upload left bad.csv behind: %v", err)
	}

	good := client.Instance{Providers: []client.Provider{{X: 1, Y: 1, Cap: 20}}, Customers: wireCustomers(testPoints(10, 43))}
	huge := good
	huge.Customers = append([]client.Customer(nil), good.Customers...)
	huge.Customers[0].X = 1e200
	resp, err := h.c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{huge, good}})
	if err != nil {
		t.Fatalf("overflowing solve: %v, want a decodable 200", err)
	}
	if r := resp.Results[0]; !strings.Contains(r.Error, "non-finite") {
		t.Errorf("overflowing instance: error %q, size %d; want a non-finite cost error", r.Error, r.Size)
	}
	if r := resp.Results[1]; r.Error != "" || r.Size != 10 {
		t.Errorf("healthy instance: %+v", r)
	}
}

// TestSolveInstanceCap: admission counts requests, so the per-request
// instance bound must stop one admitted request from flooding the
// engine queue.
func TestSolveInstanceCap(t *testing.T) {
	h := testServer(t, server.Config{MaxInstances: 2})
	c := h.c
	in := client.Instance{
		Providers: []client.Provider{{X: 0, Y: 0, Cap: 1}},
		Customers: []client.Customer{{ID: 0, X: 1, Y: 1}},
	}
	if _, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{in, in}}); err != nil {
		t.Fatalf("at the cap: %v", err)
	}
	_, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{in, in, in}})
	ae, ok := err.(*client.APIError)
	if !ok || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("over the cap: err = %v, want 400", err)
	}
}

// TestNetworkMemoBound: the server materializes a bounded number of
// distinct road networks; request MaxNetworks+1 seeds and the last one
// must fail its instance instead of growing the memo forever.
func TestNetworkMemoBound(t *testing.T) {
	h := testServer(t, server.Config{})
	c := h.c
	pts := testPoints(30, 61)
	for i := 0; i <= server.MaxNetworks; i++ {
		resp, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{{
			Solver:    "greedy",
			Providers: []client.Provider{{X: 500, Y: 500, Cap: 3}},
			Customers: wireCustomers(pts),
			Metric:    "network",
			NetGrid:   4,
			NetSeed:   int64(1000 + i),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		r := resp.Results[0]
		if i < server.MaxNetworks && r.Error != "" {
			t.Fatalf("network %d rejected early: %s", i, r.Error)
		}
		if i == server.MaxNetworks {
			if r.Error == "" || !strings.Contains(r.Error, "too many distinct road networks") {
				t.Fatalf("network %d should exceed the memo bound, got %+v", i, r)
			}
		}
	}
	// Reusing an already-built network still works at the bound.
	resp, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{{
		Solver:    "greedy",
		Providers: []client.Provider{{X: 500, Y: 500, Cap: 3}},
		Customers: wireCustomers(pts),
		Metric:    "network",
		NetGrid:   4,
		NetSeed:   1000,
	}}})
	if err != nil || resp.Results[0].Error != "" {
		t.Fatalf("existing network rejected: %v %+v", err, resp.Results[0])
	}
}

// TestNetLandmarksCompatibility: net_landmarks, net_ch,
// options.dist_table and options.ann_group_size are accepted for
// compatibility and select nothing. Solves and sessions that carry any
// of their in-range values answer exactly as requests without them, all
// of them share one memoized network (one /metrics label), and
// out-of-range net_landmarks and net_ch values are still rejected. The
// network solve has 3 × 1,400 pairs, so it takes the distance table,
// which dist_table -1 used to turn off; the Euclidean solve runs the
// grouped ANN search whose group size ann_group_size used to set.
func TestNetLandmarksCompatibility(t *testing.T) {
	h := testServer(t, server.Config{})
	ctx := context.Background()
	pts := testPoints(1400, 71)
	providers := []client.Provider{{X: 200, Y: 300, Cap: 10}, {X: 700, Y: 650, Cap: 12}, {X: 450, Y: 900, Cap: 8}}
	type fields struct{ landmarks, ch, table int }
	instance := func(f fields) client.Instance {
		return client.Instance{Solver: "ida", Providers: providers, Customers: wireCustomers(pts),
			Metric: "network", NetGrid: 16, NetSeed: 5, NetLandmarks: f.landmarks, NetCH: f.ch,
			Options: &client.Options{DistTable: f.table}}
	}
	newSession := func(f fields) (*client.SessionInfo, error) {
		return h.c.NewSession(ctx, client.SessionRequest{Providers: providers,
			Metric: "network", NetGrid: 16, NetSeed: 5, NetLandmarks: f.landmarks, NetCH: f.ch})
	}
	// answer is a solve's answer without its timing and placement fields.
	answer := func(in client.Instance) string {
		t.Helper()
		resp, err := h.c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{in}})
		if err != nil {
			t.Fatal(err)
		}
		r := resp.Results[0]
		if r.Error != "" || r.Size != 30 {
			t.Fatalf("%+v: %+v", in.Options, r)
		}
		out, err := json.Marshal(client.MatchingResponse{Size: r.Size, Cost: r.Cost, Pairs: r.Pairs})
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	solved := func(f fields) string { return answer(instance(f)) }
	session := func(f fields) []byte {
		t.Helper()
		info, err := newSession(f)
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		for i, p := range pts[:40] {
			if _, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: int64(i), X: p.X, Y: p.Y}); err != nil {
				t.Fatal(err)
			}
		}
		return rawMatching(t, h.url, info.ID)
	}
	wantSolve, wantSession := solved(fields{}), session(fields{})
	var cases []fields
	for _, v := range []int{-1, 8, 0} {
		cases = append(cases, fields{landmarks: v})
	}
	for _, v := range []int{-1, 0, 1} {
		cases = append(cases, fields{ch: v})
	}
	for _, v := range []int{-1, 0, 1 << 20} {
		cases = append(cases, fields{table: v})
	}
	for _, f := range cases {
		if got := solved(f); got != wantSolve {
			t.Errorf("solve with %+v:\n%s\nwithout:\n%s", f, got, wantSolve)
		}
		if f.table != 0 {
			continue // sessions carry no options
		}
		if got := session(f); !bytes.Equal(got, wantSession) {
			t.Errorf("session with %+v:\n%s\nwithout:\n%s", f, got, wantSession)
		}
	}

	euclid := client.Instance{Solver: "ida", Providers: providers, Customers: wireCustomers(pts)}
	wantEuclid := answer(euclid)
	for _, gs := range []int{0, 1, 2, 64} {
		euclid.Options = &client.Options{ANNGroupSize: gs}
		if got := answer(euclid); got != wantEuclid {
			t.Errorf("Euclidean solve with ann_group_size %d:\n%s\nwithout:\n%s", gs, got, wantEuclid)
		}
	}

	text, err := h.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "ccad_netmetric_node_cache_hits_total{") {
			labels = append(labels, line[:strings.IndexByte(line, '}')+1])
		}
	}
	if want := `ccad_netmetric_node_cache_hits_total{network="grid16-seed5"}`; len(labels) != 1 || labels[0] != want {
		t.Errorf("network labels %q, want only %s", labels, want)
	}

	for _, bad := range []struct {
		field string
		f     fields
	}{
		{"net_landmarks", fields{landmarks: -2}},
		{"net_landmarks", fields{landmarks: server.MaxNetLandmarks + 1}},
		{"net_ch", fields{ch: -2}},
		{"net_ch", fields{ch: 2}},
	} {
		resp, err := h.c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{instance(bad.f)}})
		if err != nil {
			t.Fatal(err)
		}
		if r := resp.Results[0]; !strings.Contains(r.Error, bad.field) {
			t.Errorf("solve with %+v: %+v, want a %s error", bad.f, r, bad.field)
		}
		if _, err := newSession(bad.f); statusOf(err) != http.StatusBadRequest {
			t.Errorf("session with %+v: %v, want 400", bad.f, err)
		}
	}
}

// TestSessionBodyCap: session endpoints reject oversized bodies with
// 413 instead of buffering them.
func TestSessionBodyCap(t *testing.T) {
	h := testServer(t, server.Config{})
	info, err := h.c.NewSession(context.Background(), client.SessionRequest{
		Providers: []client.Provider{{X: 0, Y: 0, Cap: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat(" ", 2<<20) + `{"id":1,"x":1,"y":1}`
	resp, err := http.Post(h.url+"/v1/sessions/"+info.ID+"/arrive", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized arrive body: status %d, want 413", resp.StatusCode)
	}
}

// TestSolveTimeout: a per-instance timeout_ms must abort the solve with
// a context error instead of running to completion.
func TestSolveTimeout(t *testing.T) {
	h := testServer(t, server.Config{})
	c := h.c
	pts := testPoints(100, 43)
	resp, err := c.Solve(context.Background(), client.SolveRequest{Instances: []client.Instance{{
		Solver:    blockingSolverName, // parks until released or cancelled
		Providers: []client.Provider{{X: 0, Y: 0, Cap: 1}},
		Customers: wireCustomers(pts),
		TimeoutMS: 50,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Results[0]
	if r.Error == "" || !strings.Contains(r.Error, "context deadline exceeded") {
		t.Fatalf("expected a deadline error, got %+v", r)
	}
}

// TestSessionLifecycle drives the online-session API end to end and
// pins it against an in-process DynamicMatcher replay.
func TestSessionLifecycle(t *testing.T) {
	h := testServer(t, server.Config{})
	c := h.c
	ctx := context.Background()
	providers := []client.Provider{{X: 0, Y: 0, Cap: 1}, {X: 100, Y: 0, Cap: 1}}

	info, err := c.NewSession(ctx, client.SessionRequest{Providers: providers})
	if err != nil {
		t.Fatal(err)
	}
	if info.Capacity != 2 || info.ID == "" {
		t.Fatalf("session info = %+v", info)
	}

	ref := cca.NewDynamicMatcher([]cca.Provider{
		{Pt: cca.Point{X: 0, Y: 0}, Cap: 1},
		{Pt: cca.Point{X: 100, Y: 0}, Cap: 1},
	})
	arrivals := []client.ArriveRequest{
		{ID: 0, X: 40, Y: 0},
		{ID: 1, X: 10, Y: 0}, // re-routes 0 to the far provider
		{ID: 2, X: 90, Y: 0}, // evicts 0 (swap after exhaustion)
		{ID: 3, X: 500, Y: 500},
	}
	for i, a := range arrivals {
		got, err := c.Arrive(ctx, info.ID, a)
		if err != nil {
			t.Fatal(err)
		}
		wantMatched, err := ref.Arrive(cca.Point{X: a.X, Y: a.Y}, a.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matched != wantMatched || got.Size != ref.Size() || got.Cost != ref.Cost() {
			t.Fatalf("arrival %d: got %+v, want matched=%v size=%d cost=%v",
				i, got, wantMatched, ref.Size(), ref.Cost())
		}
		if got.Arrivals != i+1 {
			t.Fatalf("arrival count = %d, want %d", got.Arrivals, i+1)
		}
	}

	m, err := c.Matching(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Matching()
	if m.Size != want.Size || m.Cost != want.Cost || len(m.Pairs) != len(want.Pairs) {
		t.Fatalf("matching = %+v, want size=%d cost=%v", m, want.Size, want.Cost)
	}

	// Duplicate arrival id → 409.
	if _, err := c.Arrive(ctx, info.ID, arrivals[0]); err == nil {
		t.Fatal("duplicate arrival id accepted")
	} else if ae, ok := err.(*client.APIError); !ok || ae.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate arrival: %v", err)
	}

	if err := c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Matching(ctx, info.ID); err == nil {
		t.Fatal("deleted session still answers")
	}
	if _, err := c.Arrive(ctx, "nosuch", arrivals[0]); err == nil {
		t.Fatal("arrival on unknown session accepted")
	}
}

// TestSessionLimit: the session bound sheds with 429.
func TestSessionLimit(t *testing.T) {
	h := testServer(t, server.Config{MaxSessions: 2})
	c := h.c
	ctx := context.Background()
	req := client.SessionRequest{Providers: []client.Provider{{X: 0, Y: 0, Cap: 1}}}
	for i := 0; i < 2; i++ {
		if _, err := c.NewSession(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.NewSession(ctx, req)
	if !client.IsBackpressure(err) {
		t.Fatalf("third session: err = %v, want 429", err)
	}
}

// TestSessionArrivalLimit: a session's matching graph grows per
// arrival, so arrivals are bounded; past the limit the session sheds
// with 429 while a fresh session keeps working.
func TestSessionArrivalLimit(t *testing.T) {
	h := testServer(t, server.Config{MaxArrivals: 3})
	ctx := context.Background()
	info, err := h.c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{X: 0, Y: 0, Cap: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: int64(i), X: float64(i), Y: 1}); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
	}
	_, err = h.c.Arrive(ctx, info.ID, client.ArriveRequest{ID: 99, X: 9, Y: 9})
	if !client.IsBackpressure(err) {
		t.Fatalf("arrival past the limit: err = %v, want 429", err)
	}
	fresh, err := h.c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{X: 0, Y: 0, Cap: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.Arrive(ctx, fresh.ID, client.ArriveRequest{ID: 0, X: 1, Y: 1}); err != nil {
		t.Fatalf("fresh session after limit: %v", err)
	}
}

// TestDrain: Drain flips healthz to 503 and rejects new solve/session
// work while leaving reads (metrics, matching) alive.
func TestDrain(t *testing.T) {
	h := testServer(t, server.Config{})
	c := h.c
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{X: 0, Y: 0, Cap: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Arrive(ctx, sess.ID, client.ArriveRequest{ID: 1, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	h.srv.Drain()
	err = c.Healthz(ctx)
	ae, ok := err.(*client.APIError)
	if !ok || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v", err)
	}
	if _, err := c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{{
		Providers: []client.Provider{{X: 0, Y: 0, Cap: 1}},
		Customers: []client.Customer{{ID: 0, X: 1, Y: 1}},
	}}}); err == nil {
		t.Fatal("solve accepted while draining")
	}
	if _, err := c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{X: 0, Y: 0, Cap: 1}}}); err == nil {
		t.Fatal("session accepted while draining")
	}
	// Arrivals are new work too: they must be rejected so keep-alive
	// arrival loops cannot hold Shutdown open, while reads stay live.
	if _, err := c.Arrive(ctx, sess.ID, client.ArriveRequest{ID: 2, X: 2, Y: 2}); err == nil {
		t.Fatal("arrival accepted while draining")
	}
	if m, err := c.Matching(ctx, sess.ID); err != nil || m.Size != 1 {
		t.Fatalf("matching should stay readable while draining: %v %+v", err, m)
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatalf("metrics should stay scrapeable while draining: %v", err)
	}
}

// TestMetricsExposition: after mixed activity, the scrape exposes the
// engine pool, result cache, fleet aggregates, sessions, and netmetric
// cache counters in Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	h := testServer(t, server.Config{})
	c := h.c
	ctx := context.Background()
	pts := testPoints(120, 53)
	in := client.Instance{
		Solver:    "sspa",
		Providers: []client.Provider{{X: 500, Y: 500, Cap: 15}},
		Customers: wireCustomers(pts),
		Metric:    "network",
		NetGrid:   8,
		NetSeed:   3,
	}
	if _, err := c.Solve(ctx, client.SolveRequest{Instances: []client.Instance{in, in}}); err != nil {
		t.Fatal(err)
	}
	info, err := c.NewSession(ctx, client.SessionRequest{Providers: []client.Provider{{X: 0, Y: 0, Cap: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Arrive(ctx, info.ID, client.ArriveRequest{ID: 1, X: 3, Y: 4}); err != nil {
		t.Fatal(err)
	}

	wants := []string{
		"ccad_uptime_seconds",
		`ccad_http_requests_total{handler="solve",code="200"} 1`,
		"ccad_http_admission_limit " + fmt.Sprint(server.DefaultMaxInFlight),
		"ccad_engine_workers 4",
		"ccad_engine_tasks_completed_total 2",
		"ccad_solve_instances_total 2",
		"ccad_solve_solved_total 2",
		"ccad_solve_pairs_total 30",
		"ccad_sessions_active 1",
		"ccad_sessions_created_total 1",
		"ccad_sessions_arrivals_total 1",
		"ccad_sessions_arrivals_matched_total 1",
		`ccad_netmetric_node_cache_hits_total{network="grid8-seed3"}`,
		`ccad_netmetric_pair_cache_hits_total{network="grid8-seed3"}`,
		// Inline per-request datasets can never repeat, so they must
		// bypass the result cache entirely — no misses, no dead inserts
		// evicting named-dataset entries.
		"ccad_result_cache_misses_total 0",
		"ccad_draining 0",
	}
	// Request accounting lands just after a handler returns, which can
	// trail the client seeing the response by a beat — poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		missing := ""
		for _, want := range wants {
			if !strings.Contains(text, want) {
				missing = want
				break
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics missing %q in:\n%s", missing, text)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUnknownRoutes: the mux 404s unknown paths and 405s wrong methods.
func TestUnknownRoutes(t *testing.T) {
	h := testServer(t, server.Config{})
	base := h.url
	resp, err := http.Get(base + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/nope = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve = %d", resp.StatusCode)
	}
}
