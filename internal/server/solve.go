package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// maxSolveBody bounds a solve request's body — room for roughly two
// million inline customers. Together with the read-phase semaphore
// (2 × MaxInFlight handlers buffering at once) it bounds the heap that
// request bodies can pin; ship bigger point sets as named datasets.
const maxSolveBody = 64 << 20

// prepared is one instance after wire → engine conversion.
type prepared struct {
	in      cca.Instance
	cancel  context.CancelFunc
	cleanup func() // closes an inline dataset / releases a named one (nil otherwise)
	err     error  // conversion failure; the instance never runs
	label   string
	solver  string
	dataset string    // named dataset, for per-dataset fault accounting
	span    *obs.Span // per-instance trace span (nil when untraced)
}

// handleSolve serves POST /v1/solve: decode instances, admit, submit
// them all on the shared engine, and deliver results buffered (default)
// or streamed in completion order (?stream=ndjson|sse).
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Two-stage admission. The outer (read) bound sheds when too many
	// handlers are buffering bodies; the inner (solve) bound is taken
	// only after the request is read and validated, so a slow client
	// trickling its body occupies a cheap read slot, never a solve slot.
	// MaxBytesReader makes an oversized body a distinguishable 413
	// instead of a confusing truncated-JSON 400.
	releaseRead, ok := s.admitRead(w)
	if !ok {
		return
	}
	defer releaseRead()

	// Tracing is opt-in per request: ?trace=1 (known before the body) or
	// "trace": true in the body (known only after decode, so that path
	// cannot cover the read phase). The root span carries the server's
	// point-query histogram as a sink, so traced solves feed
	// ccad_netmetric_point_query_seconds.
	ctx := r.Context()
	var root *obs.Span
	startTrace := func() {
		root = obs.NewRoot("server")
		root.SetSink(obs.PointQuerySink, s.stats.pointQuery)
		ctx = obs.WithSpan(ctx, root)
	}
	if r.URL.Query().Get("trace") == "1" {
		startTrace()
	}

	read := root.StartChild("read")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSolveBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	instances, bodyTrace, err := decodeSolveRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	read.SetInt("bytes", int64(len(body)))
	read.SetInt("instances", int64(len(instances)))
	read.End()
	if bodyTrace && root == nil {
		startTrace()
	}
	if len(instances) > s.cfg.MaxInstances {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("request carries %d instances, limit is %d", len(instances), s.cfg.MaxInstances))
		return
	}

	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	stream := strings.ToLower(r.URL.Query().Get("stream"))
	if stream == "" {
		switch {
		case acceptsMedia(r.Header.Get("Accept"), "application/x-ndjson"):
			stream = "ndjson"
		case acceptsMedia(r.Header.Get("Accept"), "text/event-stream"):
			stream = "sse"
		}
	}
	switch stream {
	case "", "ndjson", "sse":
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown stream mode %q (ndjson, sse)", stream))
		return
	}

	preps := make([]*prepared, len(instances))
	for i, wi := range instances {
		preps[i] = s.prepare(ctx, i, wi)
	}
	defer func() {
		for _, p := range preps {
			if p.cancel != nil {
				p.cancel()
			}
			if p.cleanup != nil {
				p.cleanup()
			}
		}
	}()

	start := time.Now()
	chans := make([]<-chan cca.InstanceResult, len(preps))
	for i, p := range preps {
		if p.err != nil {
			continue
		}
		// Each instance gets its own child span; the engine's queue and
		// solve spans nest under it via the submitted context.
		ictx, ispan := obs.Start(ctx, "instance")
		ispan.SetInt("index", int64(i))
		p.span = ispan
		if d := s.timeoutFor(instances[i]); d > 0 {
			ictx, p.cancel = context.WithTimeout(ictx, d)
		}
		chans[i] = s.engine.Submit(ictx, p.in)
	}

	if stream == "" {
		s.solveBuffered(w, preps, chans, start, root)
		return
	}
	s.solveStreamed(w, stream, preps, chans, start, root)
}

// acceptsMedia reports whether an Accept header names mediatype,
// tolerating lists and parameters ("application/x-ndjson, */*" or
// "text/event-stream;charset=utf-8") — exact-string matching would
// silently ignore standards-conformant variants and hand a streaming
// client a buffered body.
func acceptsMedia(accept, mediatype string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(mt), mediatype) {
			return true
		}
	}
	return false
}

// decodeSolveRequest accepts {"instances": [...]} or a single bare
// instance object. The second return is the body's "trace" flag (the
// wrapped form only — a bare instance has no request-level fields).
func decodeSolveRequest(body []byte) ([]client.Instance, bool, error) {
	var req client.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, false, fmt.Errorf("bad request body: %v", err)
	}
	if req.Instances == nil {
		var one client.Instance
		if err := json.Unmarshal(body, &one); err != nil {
			return nil, false, fmt.Errorf("bad request body: %v", err)
		}
		if len(one.Providers) == 0 {
			return nil, false, fmt.Errorf(`empty request: send {"instances": [...]} or a single instance with providers`)
		}
		req.Instances = []client.Instance{one}
	}
	if len(req.Instances) == 0 {
		return nil, false, fmt.Errorf("no instances")
	}
	return req.Instances, req.Trace, nil
}

// timeoutFor resolves an instance's solve deadline.
func (s *Server) timeoutFor(wi client.Instance) time.Duration {
	if wi.TimeoutMS > 0 {
		return time.Duration(wi.TimeoutMS) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// prepare converts one wire instance into an engine instance. ctx is
// only used to fail fast on an already-dead client connection while
// indexing large inline customer sets.
func (s *Server) prepare(ctx context.Context, idx int, wi client.Instance) *prepared {
	p := &prepared{label: wi.Label, solver: wi.Solver}
	fail := func(format string, args ...any) *prepared {
		p.err = fmt.Errorf("instance %d: "+format, append([]any{idx}, args...)...)
		return p
	}
	if len(wi.Providers) == 0 {
		return fail("no providers")
	}
	providers := make([]cca.Provider, len(wi.Providers))
	for i, q := range wi.Providers {
		if q.Cap <= 0 {
			return fail("provider %d: capacity must be positive, got %d", i, q.Cap)
		}
		providers[i] = cca.Provider{Pt: cca.Point{X: q.X, Y: q.Y}, Cap: q.Cap}
	}

	var customers *cca.Customers
	noCache := false
	switch {
	case wi.Dataset != "" && len(wi.Customers) > 0:
		return fail("customers and dataset are mutually exclusive")
	case wi.Dataset != "":
		// Hold a reference for the lifetime of the solve so a concurrent
		// DELETE /v1/datasets/{name} cannot close the page store under us.
		e, err := s.datasets.acquire(wi.Dataset)
		if err != nil {
			return fail("%v", err)
		}
		customers = e.c
		p.cleanup = e.release
		p.dataset = wi.Dataset
	case len(wi.Customers) > 0:
		if err := ctx.Err(); err != nil {
			return fail("%v", err)
		}
		items := make([]rtree.Item, len(wi.Customers))
		seen := make(map[int64]bool, len(wi.Customers))
		for i, c := range wi.Customers {
			if seen[c.ID] {
				return fail("duplicate customer id %d", c.ID)
			}
			seen[c.ID] = true
			items[i] = rtree.Item{ID: c.ID, Pt: cca.Point{X: c.X, Y: c.Y}}
		}
		indexed, err := cca.IndexItems(items, cca.IndexConfig{})
		if err != nil {
			return fail("index customers: %v", err)
		}
		customers = indexed
		p.cleanup = func() { indexed.Close() }
		// A per-request dataset's identity is unique, so its result can
		// never be served again — keep it out of the result cache
		// instead of letting one-shot solves evict named-dataset entries.
		noCache = true
	default:
		return fail("customers or dataset is required")
	}

	var opts cca.SolverOptions
	if o := wi.Options; o != nil {
		opts.Delta = o.Delta
		opts.Core.Theta = o.Theta
		opts.Core.Shards = o.Shards
		opts.Core.ShardBoundary = o.ShardBoundary
		opts.Core.ShardWorkers = o.ShardWorkers
		opts.Core.DisablePUA = o.DisablePUA
		opts.Core.DisableTheorem2 = o.DisableTheorem2
		opts.Core.DisableANN = o.DisableANN
		opts.Core.ANNGroupSize = o.ANNGroupSize
	}
	switch strings.ToLower(wi.Metric) {
	case "", "euclidean":
	case "network":
		grid, seed := wi.NetGrid, wi.NetSeed
		if grid == 0 {
			grid = 32
		}
		if seed == 0 {
			seed = 2008
		}
		m, err := s.networkMetric(grid, seed, wi.NetLandmarks, wi.NetCH)
		if err != nil {
			return fail("%v", err)
		}
		opts.Core.Metric = m
	default:
		return fail("unknown metric %q (euclidean, network)", wi.Metric)
	}

	var lane cca.Lane
	switch strings.ToLower(wi.Lane) {
	case "", "interactive":
		lane = cca.LaneInteractive
	case "batch":
		lane = cca.LaneBatch
	default:
		return fail("unknown lane %q (interactive, batch)", wi.Lane)
	}

	p.in = cca.Instance{
		Label:     wi.Label,
		Providers: providers,
		Customers: customers,
		Solver:    wi.Solver,
		Options:   opts,
		Lane:      lane,
		NoCache:   noCache,
	}
	return p
}

// collect receives an instance's result (or synthesizes one for a
// conversion failure) and releases its per-instance resources.
func collect(p *prepared, ch <-chan cca.InstanceResult) cca.InstanceResult {
	if p.err != nil {
		return cca.InstanceResult{Label: p.label, Solver: p.solver, Worker: -1, Err: p.err}
	}
	r := <-ch
	p.span.End()
	if p.cancel != nil {
		p.cancel()
		p.cancel = nil
	}
	if p.cleanup != nil {
		p.cleanup()
		p.cleanup = nil
	}
	return r
}

// recordDatasetIO folds a named-dataset solve's buffer stats into that
// dataset's lifetime fault accounting. Cache hits carry the original
// solve's metrics, which were already recorded once — counting them
// again would charge phantom faults.
func (s *Server) recordDatasetIO(p *prepared, r cca.InstanceResult) {
	if p.dataset == "" || r.Err != nil || r.Cached || r.Result == nil {
		return
	}
	s.datasets.recordIO(p.dataset, r.Result.Metrics.IO)
}

// noteSlow logs a structured warning for any solve whose wall time
// crossed the -slow-solve-threshold (0 disables); i is the instance's
// index in its request.
func (s *Server) noteSlow(i int, r cca.InstanceResult) {
	if s.cfg.SlowSolveThreshold <= 0 || r.Wall < s.cfg.SlowSolveThreshold {
		return
	}
	args := []any{
		"index", i,
		"solver", r.Solver,
		"wall", r.Wall,
		"queue_wait", r.QueueWait,
		"cached", r.Cached,
		"worker", r.Worker,
	}
	if r.Label != "" {
		args = append(args, "label", r.Label)
	}
	if r.Err != nil {
		args = append(args, "error", r.Err.Error())
	} else if r.Result != nil {
		args = append(args, "pairs", r.Result.Size, "faults", r.Result.Metrics.IO.Faults)
	}
	s.logger.Warn("slow solve", args...)
}

// solveBuffered collects every result in submission order and writes
// one SolveResponse.
func (s *Server) solveBuffered(w http.ResponseWriter, preps []*prepared, chans []<-chan cca.InstanceResult, start time.Time, root *obs.Span) {
	results := make([]client.InstanceResult, len(preps))
	raw := make([]cca.InstanceResult, len(preps))
	for i, p := range preps {
		raw[i] = collect(p, chans[i])
		s.recordDatasetIO(p, raw[i])
		s.noteSlow(i, raw[i])
		results[i] = wireResult(i, raw[i])
	}
	fleet := fleetOf(raw, time.Since(start))
	s.stats.recordSolve(fleet, raw)
	resp := client.SolveResponse{Results: results, Fleet: fleet}
	if root != nil {
		root.End()
		resp.Trace = wireTrace(root.Tree())
	}
	writeJSON(w, http.StatusOK, resp)
}

// solveStreamed delivers results in completion order as NDJSON lines or
// SSE events, ending with the fleet aggregate.
func (s *Server) solveStreamed(w http.ResponseWriter, mode string, preps []*prepared, chans []<-chan cca.InstanceResult, start time.Time, root *obs.Span) {
	switch mode {
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
	case "sse":
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(env client.StreamEnvelope, event string) {
		if mode == "sse" {
			fmt.Fprintf(w, "event: %s\ndata: ", event)
		}
		enc.Encode(env)
		if mode == "sse" {
			io.WriteString(w, "\n")
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Fan the per-instance channels into completion order. Each
	// goroutine owns raw[i]; the merged channel's close orders those
	// writes before the fleet aggregation below reads them.
	merged := make(chan client.InstanceResult)
	raw := make([]cca.InstanceResult, len(preps))
	var wg sync.WaitGroup
	for i, p := range preps {
		wg.Add(1)
		go func(i int, p *prepared) {
			defer wg.Done()
			r := collect(p, chans[i])
			s.recordDatasetIO(p, r)
			s.noteSlow(i, r)
			raw[i] = r
			merged <- wireResult(i, r)
		}(i, p)
	}
	go func() {
		wg.Wait()
		close(merged)
	}()

	for wr := range merged {
		emit(client.StreamEnvelope{Result: &wr}, "result")
	}
	fleet := fleetOf(raw, time.Since(start))
	s.stats.recordSolve(fleet, raw)
	env := client.StreamEnvelope{Fleet: &fleet}
	if root != nil {
		root.End()
		env.Trace = wireTrace(root.Tree())
	}
	emit(env, "fleet")
}

// wireResult converts the result of a request's instance i to the wire
// form.
func wireResult(i int, r cca.InstanceResult) client.InstanceResult {
	out := client.InstanceResult{
		Index:       i,
		Label:       r.Label,
		Solver:      r.Solver,
		Cached:      r.Cached,
		WallNS:      int64(r.Wall),
		QueueWaitNS: int64(r.QueueWait),
		Worker:      r.Worker,
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	res := r.Result
	out.Kind = res.Kind.String()
	out.Size = res.Size
	out.Cost = res.Cost
	out.ErrorBound = res.ErrorBound
	out.Pairs = wirePairs(res.Pairs)
	return out
}

// wirePairs converts matching pairs to the wire form — the single
// conversion point shared by solve and session responses, so the wire
// format cannot drift between them.
func wirePairs(pairs []cca.Pair) []client.Pair {
	out := make([]client.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = client.Pair{
			Provider: p.Provider,
			Customer: p.CustomerID,
			X:        p.CustomerPt.X,
			Y:        p.CustomerPt.Y,
			Dist:     p.Dist,
		}
	}
	return out
}

// wireTrace converts a completed span tree to the wire form.
func wireTrace(n *obs.TraceNode) *client.TraceSpan {
	if n == nil {
		return nil
	}
	out := &client.TraceSpan{Name: n.Name, DurNS: n.DurNS, Attrs: n.Attrs, Overlay: n.Overlay}
	for _, c := range n.Children {
		out.Children = append(out.Children, wireTrace(c))
	}
	return out
}

// fleetOf aggregates a request's raw results into its fleet metrics.
func fleetOf(raw []cca.InstanceResult, wall time.Duration) client.Fleet {
	f := client.Fleet{Instances: len(raw), WallNS: int64(wall)}
	qh := obs.NewHistogram(obs.LatencyBounds)
	for _, r := range raw {
		f.SolveWallNS += int64(r.Wall)
		qh.ObserveDuration(r.QueueWait)
		if r.Cached {
			f.CacheHits++
		}
		if r.Err != nil {
			f.Errors++
			continue
		}
		f.Solved++
		f.Pairs += r.Result.Size
		f.Cost += r.Result.Cost
		if !r.Cached {
			// Cached results echo the original solve's metrics; charging
			// them again would double-count the paper's fault accounting.
			f.Faults += r.Result.Metrics.IO.Faults
			f.IONS += int64(r.Result.Metrics.IOTime)
		}
	}
	snap := qh.Snapshot()
	f.QueueWaitNS = int64(snap.MeanDuration())
	f.QueueWaitHist = &client.Histogram{Bounds: snap.Bounds, Counts: snap.Counts, Count: snap.Count, Sum: snap.Sum}
	return f
}
