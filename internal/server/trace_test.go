package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/server"
)

// tracedSolve posts one solve request with ?trace=1 and returns the
// decoded response.
func tracedSolve(t *testing.T, url string, req client.SolveRequest) client.SolveResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out client.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	return out
}

// shardedNetRequest is the canonical traced instance: the sharded
// meta-solver over the road-network metric, one shard worker so the
// region loop is sequential (deterministic span order).
func shardedNetRequest(nCustomers int) client.SolveRequest {
	pts := testPoints(nCustomers, 97)
	return client.SolveRequest{Instances: []client.Instance{{
		Solver:    "sharded:ida",
		Providers: []client.Provider{{X: 200, Y: 200, Cap: nCustomers / 3}, {X: 800, Y: 300, Cap: nCustomers / 3}, {X: 500, Y: 800, Cap: nCustomers / 3}},
		Customers: wireCustomers(pts),
		Metric:    "network",
		NetGrid:   8,
		NetSeed:   3,
		Options:   &client.Options{Shards: 2, ShardWorkers: 1},
	}}}
}

// traceShape renders a span tree's structure — names, nesting, sorted
// attribute keys — with durations and attribute values excluded, so
// two runs of the same request compare equal.
func traceShape(n *client.TraceSpan, indent string, sb *strings.Builder) {
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(sb, "%s%s[%s]\n", indent, n.Name, strings.Join(keys, ","))
	for _, c := range n.Children {
		traceShape(c, indent+"  ", sb)
	}
}

// findSpan returns the first span with the given name, depth-first.
func findSpan(n *client.TraceSpan, name string) *client.TraceSpan {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// countSpans counts spans with the given name.
func countSpans(n *client.TraceSpan, name string) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.Name == name {
		c = 1
	}
	for _, ch := range n.Children {
		c += countSpans(ch, name)
	}
	return c
}

// sumSelfNS sums every span's self time (duration minus its children's
// durations, clamped at zero). Overlay spans are skipped — their time
// already lives inside the siblings they annotate.
func sumSelfNS(n *client.TraceSpan) int64 {
	if n.Overlay {
		return 0
	}
	var kids int64
	var total int64
	for _, c := range n.Children {
		if c.Overlay {
			continue
		}
		kids += c.DurNS
		total += sumSelfNS(c)
	}
	self := n.DurNS - kids
	if self < 0 {
		self = 0
	}
	return total + self
}

// TestTraceStructureDeterministic: the same traced request against two
// fresh servers yields byte-identical span structure — names, nesting,
// and attribute keys are part of the API surface; only durations and
// attribute values may differ between runs.
func TestTraceStructureDeterministic(t *testing.T) {
	req := shardedNetRequest(300)
	shapes := make([]string, 2)
	for i := range shapes {
		h := testServer(t, server.Config{})
		out := tracedSolve(t, h.url, req)
		if out.Trace == nil {
			t.Fatal("trace=1 returned no trace")
		}
		var sb strings.Builder
		traceShape(out.Trace, "", &sb)
		shapes[i] = sb.String()
	}
	if shapes[0] != shapes[1] {
		t.Errorf("trace structure not deterministic:\nrun 1:\n%s\nrun 2:\n%s", shapes[0], shapes[1])
	}

	// Pin the phases the structure must carry and their nesting.
	h := testServer(t, server.Config{})
	out := tracedSolve(t, h.url, req)
	root := out.Trace
	if root.Name != "server" {
		t.Fatalf("root span %q, want server", root.Name)
	}
	for _, name := range []string{"read", "instance", "queue", "solve", "solver", "partition", "region-solve", "reconcile", "netmetric-query", "flowgraph-build", "augment"} {
		if findSpan(root, name) == nil {
			var sb strings.Builder
			traceShape(root, "", &sb)
			t.Fatalf("trace carries no %q span:\n%s", name, sb.String())
		}
	}
	if n := countSpans(root, "region-solve"); n != 2 {
		t.Errorf("expected 2 region-solve spans for shards:2, got %d", n)
	}
	// Nesting: queue and solve live under instance; partition under the
	// meta solver span; the leaf solver nests inside each region.
	inst := findSpan(root, "instance")
	if findSpan(inst, "queue") == nil || findSpan(inst, "solve") == nil {
		t.Error("queue/solve spans not nested under instance")
	}
	meta := findSpan(root, "solver")
	if got := meta.Attrs["name"]; got != "sharded:ida" {
		t.Errorf("outer solver span names %v, want sharded:ida", got)
	}
	if findSpan(meta, "partition") == nil || findSpan(meta, "reconcile") == nil {
		t.Error("partition/reconcile not nested under the meta solver span")
	}
	region := findSpan(root, "region-solve")
	leaf := findSpan(region, "solver")
	if leaf == nil {
		t.Fatal("region-solve has no nested leaf solver span")
	}
	if got := leaf.Attrs["name"]; got != "ida" {
		t.Errorf("leaf solver span names %v, want ida", got)
	}
	aug := findSpan(leaf, "augment")
	if aug == nil {
		t.Fatal("leaf solver has no augment span")
	}
	if _, ok := aug.Attrs["iterations"]; !ok {
		t.Errorf("augment span missing iterations attribute: %v", aug.Attrs)
	}
	nq := findSpan(leaf, "netmetric-query")
	if nq == nil {
		t.Fatal("leaf solver has no netmetric-query span")
	}
	if _, ok := nq.Attrs["calls"]; !ok {
		t.Errorf("netmetric-query span missing calls attribute: %v", nq.Attrs)
	}
}

// TestTraceTableSettled: a network solve large enough for the registry's
// distance table reports on its solver span how far the table's sweeps
// ran — some labels settled, never more than the rows could hold.
func TestTraceTableSettled(t *testing.T) {
	h := testServer(t, server.Config{})
	req := client.SolveRequest{Instances: []client.Instance{{
		Solver:    "ida",
		Providers: []client.Provider{{X: 200, Y: 200, Cap: 100}, {X: 800, Y: 300, Cap: 100}, {X: 500, Y: 800, Cap: 100}},
		Customers: wireCustomers(testPoints(1500, 98)),
		Metric:    "network",
		NetGrid:   16,
		NetSeed:   3,
	}}}
	out := tracedSolve(t, h.url, req)
	sv := findSpan(out.Trace, "solver")
	if sv == nil {
		t.Fatal("trace carries no solver span")
	}
	if findSpan(sv, "table-build") == nil {
		t.Fatal("solver span has no table-build child")
	}
	settled, ok1 := sv.Attrs["table_settled"].(float64)
	total, ok2 := sv.Attrs["table_nodes"].(float64)
	if !ok1 || !ok2 {
		t.Fatalf("solver span missing table_settled/table_nodes: %v", sv.Attrs)
	}
	if settled <= 0 || settled > total {
		t.Errorf("table settled %v of %v labels; want 1..%v", settled, total, total)
	}
}

// TestTraceSelfTimeAcceptance: the span tree accounts for the request —
// summed self-times across all spans must land within 20% of the time
// the server's handler ran, so the trace cannot silently omit a
// dominant phase. The handler time covers everything the server does
// for the request (reading the body, the solve, encoding the response),
// but not the client's connection setup and JSON decode, which no span
// can cover.
func TestTraceSelfTimeAcceptance(t *testing.T) {
	engine := &cca.Engine{Workers: 4}
	srv, err := server.New(server.Config{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	// The client can decode the whole response before the handler
	// returns (only the chunked terminator follows it), so the handler
	// time is received, not read from a variable.
	handled := make(chan time.Duration, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		srv.Handler().ServeHTTP(w, r)
		handled <- time.Since(begin)
	}))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		engine.Close()
	})
	out := tracedSolve(t, hs.URL, shardedNetRequest(2000))
	if out.Trace == nil {
		t.Fatal("no trace in response")
	}
	if out.Fleet.Errors > 0 {
		t.Fatalf("solve errored: %+v", out.Results)
	}
	self := time.Duration(sumSelfNS(out.Trace))
	wall := <-handled
	lo, hi := time.Duration(float64(wall)*0.8), time.Duration(float64(wall)*1.2)
	if self < lo || self > hi {
		t.Errorf("summed self-times %v outside ±20%% of the handler's wall %v", self, wall)
	}
}

// TestTraceBodyFlag: "trace": true inside the request body works like
// ?trace=1 (the SDK path), and an untraced request carries no trace.
func TestTraceBodyFlag(t *testing.T) {
	h := testServer(t, server.Config{})
	ctx := context.Background()
	req := shardedNetRequest(200)
	req.Trace = true
	out, err := h.c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.Name != "server" {
		t.Fatalf("body trace flag produced no trace: %+v", out.Trace)
	}
	// The body flag is only seen after the body is read, so the read
	// phase cannot be covered — but the instance must be.
	if findSpan(out.Trace, "instance") == nil {
		t.Error("body-flag trace has no instance span")
	}

	req.Trace = false
	out2, err := h.c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Trace != nil {
		t.Error("untraced request returned a trace")
	}
	// Fleet queue-wait surfaces the histogram alongside the legacy mean.
	if out2.Fleet.QueueWaitHist == nil || out2.Fleet.QueueWaitHist.Count != 1 {
		t.Errorf("fleet queue-wait histogram missing or wrong count: %+v", out2.Fleet.QueueWaitHist)
	}
}

// TestTraceStreamed: streamed responses attach the trace to the final
// fleet envelope.
func TestTraceStreamed(t *testing.T) {
	h := testServer(t, server.Config{})
	body, err := json.Marshal(shardedNetRequest(200))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.url+"/v1/solve?trace=1&stream=ndjson", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var last client.StreamEnvelope
	sawTrace := false
	for dec.More() {
		var env client.StreamEnvelope
		if err := dec.Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Trace != nil {
			sawTrace = true
			if env.Fleet == nil {
				t.Error("trace attached to a non-fleet envelope")
			}
		}
		last = env
	}
	if !sawTrace {
		t.Fatal("no envelope carried the trace")
	}
	if last.Trace == nil || findSpan(last.Trace, "solve") == nil {
		t.Error("final envelope's trace misses the solve span")
	}
}

// TestSlowSolveLog: a threshold below any real solve's wall time makes
// every solve log a structured warning through the configured logger.
func TestSlowSolveLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{mu: &mu, w: &buf}, nil))
	h := testServer(t, server.Config{
		SlowSolveThreshold: time.Nanosecond,
		Logger:             logger,
	})
	if _, err := h.c.Solve(context.Background(), shardedNetRequest(200)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow solve") {
		t.Fatalf("no slow-solve warning logged; log: %q", logged)
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(logged, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("slow-solve log line is not JSON: %v", err)
	}
	if entry["solver"] != "sharded:ida" {
		t.Errorf("log entry solver = %v, want sharded:ida", entry["solver"])
	}
	for _, key := range []string{"wall", "queue_wait", "pairs"} {
		if _, ok := entry[key]; !ok {
			t.Errorf("slow-solve log misses %q: %v", key, entry)
		}
	}

	// Without a threshold nothing is logged.
	var quiet bytes.Buffer
	h2 := testServer(t, server.Config{Logger: slog.New(slog.NewJSONHandler(&quiet, nil))})
	if _, err := h2.c.Solve(context.Background(), shardedNetRequest(200)); err != nil {
		t.Fatal(err)
	}
	if s := quiet.String(); strings.Contains(s, "slow solve") {
		t.Errorf("slow-solve warning logged with no threshold: %q", s)
	}
}

// lockedWriter serializes concurrent slog writes in tests.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestUntracedOverheadPath: solving without trace=1 must leave the
// engine result identical to a traced run — tracing observes, never
// alters. (The zero-alloc guarantee itself is pinned in internal/obs.)
func TestUntracedOverheadPath(t *testing.T) {
	req := shardedNetRequest(300)
	h := testServer(t, server.Config{})
	traced := tracedSolve(t, h.url, req)
	h2 := testServer(t, server.Config{})
	plain, err := h2.c.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	tj := mustJSON(t, traced.Results)
	pj := mustJSON(t, func() []client.InstanceResult {
		rs := plain.Results
		for i := range rs {
			rs[i].WallNS, rs[i].QueueWaitNS, rs[i].Worker = 0, 0, 0
		}
		return rs
	}())
	tr := traced.Results
	for i := range tr {
		tr[i].WallNS, tr[i].QueueWaitNS, tr[i].Worker = 0, 0, 0
	}
	tj = mustJSON(t, tr)
	if !bytes.Equal(tj, pj) {
		t.Errorf("traced and untraced solves disagree:\n%s\nvs\n%s", tj, pj)
	}
}

// mustSolve runs one solve through the harness client.
func mustSolve(t *testing.T, h testHarness, req client.SolveRequest) {
	t.Helper()
	if _, err := h.c.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsConformance is a promlint-style check over a live scrape
// after mixed (traced and untraced) activity: every exposed series has
// HELP and TYPE metadata, no (name, labels) pair repeats, histograms
// are internally consistent (+Inf bucket == _count, buckets cumulative),
// and label cardinality stays bounded.
func TestMetricsConformance(t *testing.T) {
	h := testServer(t, server.Config{})
	mustSolve(t, h, shardedNetRequest(200))
	tracedSolve(t, h.url, shardedNetRequest(300))
	// An euclidean solve on a second family.
	pts := testPoints(100, 11)
	mustSolve(t, h, client.SolveRequest{Instances: []client.Instance{{
		Solver:    "sspa",
		Providers: []client.Provider{{X: 500, Y: 500, Cap: 40}},
		Customers: wireCustomers(pts),
	}}})

	text, err := h.c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	typeOf := map[string]string{} // metric family → TYPE
	helped := map[string]bool{}   // family → has HELP
	seen := map[string]int{}      // full series (name{labels}) → occurrences
	labelSets := map[string]int{} // family → distinct series count
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if typeOf[f[2]] != "" {
				t.Errorf("duplicate TYPE for %s", f[2])
			}
			typeOf[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndex(line, " ")]
		seen[series]++
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		labelSets[name]++
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typeOf[name] == "" && typeOf[base] == "" {
			t.Errorf("series %s has no TYPE metadata", name)
		}
		if !helped[name] && !helped[base] {
			t.Errorf("series %s has no HELP metadata", name)
		}
	}
	for series, n := range seen {
		if n > 1 {
			t.Errorf("duplicate series %s (%d occurrences)", series, n)
		}
	}
	for fam, n := range labelSets {
		if n > 64 {
			t.Errorf("family %s exposes %d series — unbounded label cardinality?", fam, n)
		}
	}

	// Histogram self-consistency for the new series.
	for _, name := range []string{"ccad_solve_latency_seconds", "ccad_solve_queue_wait_seconds", "ccad_netmetric_point_query_seconds", "ccad_wal_fsync_seconds"} {
		if typeOf[name] != "histogram" {
			t.Errorf("%s TYPE = %q, want histogram", name, typeOf[name])
		}
	}
	checkHistogram(t, text, "ccad_solve_queue_wait_seconds", "")
	checkHistogram(t, text, "ccad_solve_latency_seconds", `family="sharded"`)
	checkHistogram(t, text, "ccad_solve_latency_seconds", `family="sspa"`)
	checkHistogram(t, text, "ccad_netmetric_point_query_seconds", "")

	// The point-query histogram is fed by traced solves: one ran, so it
	// must carry observations.
	if !histogramHasSamples(text, "ccad_netmetric_point_query_seconds", "") {
		t.Error("point-query histogram empty after a traced network solve")
	}
	if !histogramHasSamples(text, "ccad_solve_latency_seconds", `family="sharded"`) {
		t.Error("sharded solve-latency histogram empty after sharded solves")
	}
}

// parseHistogram extracts a histogram's bucket lines for one label set.
func parseHistogram(text, name, labels string) (buckets []float64, count, inf float64, ok bool) {
	count, inf = -1, -1
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		series, valStr := fields[0], fields[1]
		var v float64
		fmt.Sscanf(valStr, "%g", &v)
		switch {
		case strings.HasPrefix(series, name+"_bucket{"):
			if labels != "" && !strings.Contains(series, labels) {
				continue
			}
			if strings.Contains(series, `le="+Inf"`) {
				inf = v
			} else {
				buckets = append(buckets, v)
			}
		case labels == "" && series == name+"_count",
			labels != "" && strings.HasPrefix(series, name+"_count{") && strings.Contains(series, labels):
			count = v
		}
	}
	return buckets, count, inf, count >= 0 && inf >= 0
}

// checkHistogram asserts one exposed histogram is internally
// consistent: cumulative non-decreasing buckets, +Inf == _count.
func checkHistogram(t *testing.T, text, name, labels string) {
	t.Helper()
	buckets, count, inf, ok := parseHistogram(text, name, labels)
	if !ok {
		t.Errorf("%s{%s}: missing _count or +Inf bucket", name, labels)
		return
	}
	if inf != count {
		t.Errorf("%s{%s}: le=+Inf %g != _count %g", name, labels, inf, count)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Errorf("%s{%s}: bucket %d (%g) below bucket %d (%g) — not cumulative", name, labels, i, buckets[i], i-1, buckets[i-1])
		}
	}
	if len(buckets) > 0 && count < buckets[len(buckets)-1] {
		t.Errorf("%s{%s}: _count %g below last bucket %g", name, labels, count, buckets[len(buckets)-1])
	}
}

// histogramHasSamples reports whether the histogram observed anything.
func histogramHasSamples(text, name, labels string) bool {
	_, count, _, ok := parseHistogram(text, name, labels)
	return ok && count > 0
}
