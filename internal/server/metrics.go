package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/geo/netmetric"
	"repro/internal/obs"
)

// maxSolveFamilies bounds the family label's cardinality on
// ccad_solve_latency_seconds. A family is a solver name up to the
// first ':' ("sharded:ida" → "sharded"), so the registry keeps this
// naturally small; past the cap, new families fold into "other"
// rather than letting a hostile client mint unbounded series.
const maxSolveFamilies = 16

// counters is the server's own telemetry: per-endpoint request counts,
// admission sheds, and fleet-level solve aggregates across every
// request served. The engine and metric caches keep their own lifetime
// counters; /metrics stitches all of them into one exposition.
type counters struct {
	mu       sync.Mutex
	requests map[string]map[int]uint64 // handler → status code → count
	rejected uint64                    // solve requests shed by admission control

	instances uint64 // instances received by /v1/solve
	solved    uint64 // instances that produced a matching
	errored   uint64 // instances that failed (incl. timeouts)
	pairs     uint64 // Σ matching sizes
	cacheHits uint64 // results served from the engine result cache
	cost      float64
	solveWall time.Duration // Σ per-instance wall time
	queueWait time.Duration // Σ time instances waited for a worker
	faults    uint64        // Σ buffer faults across non-cached solves
	ioTime    time.Duration // simulated I/O time (10 ms per fault)

	sessionsCreated uint64
	arrivals        uint64
	arrivalsMatched uint64
	departures      uint64
	resizes         uint64
	// Lifecycle accounting: with these, the sessions_active gauge is
	// reconcilable from counters alone —
	//   active = created + recovered + reloaded − deleted − expired.
	sessionsDeleted   uint64 // DELETE /v1/sessions/{id}
	sessionsExpired   uint64 // unloaded (or dropped) by the TTL sweeper
	sessionsRecovered uint64 // replayed from WALs at boot
	sessionsReloaded  uint64 // lazily replayed on touch after a TTL unload
	sessionSnapshots  uint64 // checkpoint snapshots written

	// Latency histograms. The obs.Histogram is internally atomic, so
	// observations never take c.mu; only the solveLatency map (family →
	// histogram, created on demand) is guarded by it.
	solveLatency  map[string]*obs.Histogram // per solver family solve wall time
	queueWaitHist *obs.Histogram            // per-instance scheduler queue wait
	pointQuery    *obs.Histogram            // network-metric point-query latency (fed by traced solves)
	walFsync      *obs.Histogram            // session WAL append+fsync latency
}

func (c *counters) init() {
	c.requests = make(map[string]map[int]uint64)
	c.solveLatency = make(map[string]*obs.Histogram)
	c.queueWaitHist = obs.NewHistogram(obs.LatencyBounds)
	c.pointQuery = obs.NewHistogram(obs.MicroBounds)
	c.walFsync = obs.NewHistogram(obs.FsyncBounds)
}

// solveFamily returns the latency histogram for a solver's family —
// the name before the first ':' — creating it on first use and folding
// overflow past maxSolveFamilies into "other".
func (c *counters) solveFamily(solver string) *obs.Histogram {
	fam := solver
	if i := strings.IndexByte(fam, ':'); i >= 0 {
		fam = fam[:i]
	}
	if fam == "" {
		fam = "unknown"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.solveLatency[fam]; ok {
		return h
	}
	if len(c.solveLatency) >= maxSolveFamilies {
		fam = "other"
		if h, ok := c.solveLatency[fam]; ok {
			return h
		}
	}
	h := obs.NewHistogram(obs.LatencyBounds)
	c.solveLatency[fam] = h
	return h
}

func (c *counters) recordRequest(handler string, code int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byCode := c.requests[handler]
	if byCode == nil {
		byCode = make(map[int]uint64)
		c.requests[handler] = byCode
	}
	byCode[code]++
}

func (c *counters) recordRejected() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

func (c *counters) recordSolve(fleet client.Fleet, raw []cca.InstanceResult) {
	// Per-instance observations come from the raw results: the fleet's
	// QueueWaitNS is a mean now that QueueWaitHist exists, so the Σ
	// counter must be rebuilt from the originals.
	var queueSum time.Duration
	for _, r := range raw {
		queueSum += r.QueueWait
		c.queueWaitHist.Observe(r.QueueWait.Seconds())
		if r.Err == nil {
			c.solveFamily(r.Solver).Observe(r.Wall.Seconds())
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.instances += uint64(fleet.Instances)
	c.solved += uint64(fleet.Solved)
	c.errored += uint64(fleet.Errors)
	c.pairs += uint64(fleet.Pairs)
	c.cacheHits += uint64(fleet.CacheHits)
	c.cost += fleet.Cost
	c.solveWall += time.Duration(fleet.SolveWallNS)
	c.queueWait += queueSum
	c.faults += uint64(fleet.Faults)
	c.ioTime += time.Duration(fleet.IONS)
}

func (c *counters) recordSession() {
	c.mu.Lock()
	c.sessionsCreated++
	c.mu.Unlock()
}

func (c *counters) recordArrival(matched bool) {
	c.mu.Lock()
	c.arrivals++
	if matched {
		c.arrivalsMatched++
	}
	c.mu.Unlock()
}

func (c *counters) recordDepart() {
	c.mu.Lock()
	c.departures++
	c.mu.Unlock()
}

func (c *counters) recordResize() {
	c.mu.Lock()
	c.resizes++
	c.mu.Unlock()
}

func (c *counters) recordDeleted() {
	c.mu.Lock()
	c.sessionsDeleted++
	c.mu.Unlock()
}

func (c *counters) recordExpired() {
	c.mu.Lock()
	c.sessionsExpired++
	c.mu.Unlock()
}

func (c *counters) recordRecovered(n int) {
	c.mu.Lock()
	c.sessionsRecovered += uint64(n)
	c.mu.Unlock()
}

func (c *counters) recordReloaded() {
	c.mu.Lock()
	c.sessionsReloaded++
	c.mu.Unlock()
}

func (c *counters) recordSnapshot() {
	c.mu.Lock()
	c.sessionSnapshots++
	c.mu.Unlock()
}

// promWriter accumulates one Prometheus text exposition.
type promWriter struct {
	w http.ResponseWriter
}

func (p promWriter) header(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) val(name string, v float64) {
	fmt.Fprintf(p.w, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

func (p promWriter) labeled(name, labels string, v float64) {
	fmt.Fprintf(p.w, "%s{%s} %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// histogram emits one Prometheus histogram series set: cumulative
// _bucket lines (le is an inclusive upper bound, matching
// obs.Histogram), the mandatory le="+Inf" bucket, then _sum and
// _count. labels carries extra label pairs ("" for none).
func (p promWriter) histogram(name, labels string, s obs.Snapshot) {
	withLe := func(le string) string {
		if labels == "" {
			return `le="` + le + `"`
		}
		return labels + `,le="` + le + `"`
	}
	cum := s.Cumulative()
	for i, b := range s.Bounds {
		p.labeled(name+"_bucket", withLe(strconv.FormatFloat(b, 'g', -1, 64)), float64(cum[i]))
	}
	p.labeled(name+"_bucket", withLe("+Inf"), float64(s.Count))
	if labels == "" {
		p.val(name+"_sum", s.Sum)
		p.val(name+"_count", float64(s.Count))
		return
	}
	p.labeled(name+"_sum", labels, s.Sum)
	p.labeled(name+"_count", labels, float64(s.Count))
}

// handleMetrics serves GET /metrics: one scrape stitches together the
// HTTP layer (requests, admission), the engine (pool telemetry, result
// cache), the solve-level fleet aggregates, the session layer, and
// every road-network metric's snap/node-pair cache counters. All
// counters are process-lifetime; see README "Serving" for field
// meanings.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := promWriter{w: w}

	p.header("ccad_uptime_seconds", "Seconds since the server started.", "gauge")
	p.val("ccad_uptime_seconds", time.Since(s.start).Seconds())
	p.header("ccad_draining", "1 once graceful drain began, else 0.", "gauge")
	p.val("ccad_draining", boolGauge(s.draining.Load()))

	// HTTP layer. Snapshot everything under the lock, write after — the
	// counters mutex is on every request's hot path and must never wait
	// on a slow scraper's socket.
	s.stats.mu.Lock()
	requests := make(map[string]map[int]uint64, len(s.stats.requests))
	for h, byCode := range s.stats.requests {
		cp := make(map[int]uint64, len(byCode))
		for code, n := range byCode {
			cp[code] = n
		}
		requests[h] = cp
	}
	rejected := s.stats.rejected
	instances, solved, errored := s.stats.instances, s.stats.solved, s.stats.errored
	pairs, cacheHits, cost := s.stats.pairs, s.stats.cacheHits, s.stats.cost
	solveWall, queueWait := s.stats.solveWall, s.stats.queueWait
	faults, ioTime := s.stats.faults, s.stats.ioTime
	sessionsCreated, arrivals, arrivalsMatched := s.stats.sessionsCreated, s.stats.arrivals, s.stats.arrivalsMatched
	departures, resizes := s.stats.departures, s.stats.resizes
	sessionsDeleted, sessionsExpired := s.stats.sessionsDeleted, s.stats.sessionsExpired
	sessionsRecovered, sessionsReloaded := s.stats.sessionsRecovered, s.stats.sessionsReloaded
	sessionSnapshots := s.stats.sessionSnapshots
	s.stats.mu.Unlock()

	handlers := make([]string, 0, len(requests))
	for h := range requests {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	p.header("ccad_http_requests_total", "HTTP requests served, by handler and status code.", "counter")
	for _, h := range handlers {
		codes := make([]int, 0, len(requests[h]))
		for code := range requests[h] {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			p.labeled("ccad_http_requests_total",
				fmt.Sprintf("handler=%q,code=%q", h, strconv.Itoa(code)),
				float64(requests[h][code]))
		}
	}

	p.header("ccad_http_inflight_solves", "Solve requests currently admitted.", "gauge")
	p.val("ccad_http_inflight_solves", float64(len(s.sem)))
	p.header("ccad_http_admission_limit", "Admission bound on concurrent solve requests (MaxInFlight).", "gauge")
	p.val("ccad_http_admission_limit", float64(cap(s.sem)))
	p.header("ccad_http_rejected_total", "Solve requests shed with 429 by admission control.", "counter")
	p.val("ccad_http_rejected_total", float64(rejected))

	// Engine pool (sched lifetime telemetry).
	pm := s.engine.PoolMetrics()
	p.header("ccad_engine_workers", "Engine worker-pool size (0 until the pool first runs).", "gauge")
	p.val("ccad_engine_workers", float64(pm.Workers))
	p.header("ccad_engine_tasks_submitted_total", "Instances accepted by the engine scheduler.", "counter")
	p.val("ccad_engine_tasks_submitted_total", float64(pm.Submitted))
	p.header("ccad_engine_tasks_completed_total", "Instances that finished running.", "counter")
	p.val("ccad_engine_tasks_completed_total", float64(pm.Completed))
	p.header("ccad_engine_queue_depth", "Instances waiting for a worker, all lanes.", "gauge")
	p.val("ccad_engine_queue_depth", float64(pm.Queued))
	p.header("ccad_engine_queue_wait_seconds_total", "Total time completed instances waited for a worker.", "counter")
	p.val("ccad_engine_queue_wait_seconds_total", pm.QueueWait.Seconds())
	p.header("ccad_engine_queue_wait_max_seconds", "Worst single queue wait observed.", "gauge")
	p.val("ccad_engine_queue_wait_max_seconds", pm.MaxQueueWait.Seconds())
	p.header("ccad_engine_worker_tasks_total", "Tasks completed, by worker.", "counter")
	for i, ws := range pm.PerWorker {
		p.labeled("ccad_engine_worker_tasks_total", fmt.Sprintf("worker=%q", strconv.Itoa(i)), float64(ws.Tasks))
	}
	p.header("ccad_engine_worker_busy_seconds_total", "Time spent running tasks, by worker.", "counter")
	for i, ws := range pm.PerWorker {
		p.labeled("ccad_engine_worker_busy_seconds_total", fmt.Sprintf("worker=%q", strconv.Itoa(i)), ws.Busy.Seconds())
	}

	// Engine result cache.
	cs := s.engine.CacheStats()
	p.header("ccad_result_cache_hits_total", "Solves served from the cross-instance result cache.", "counter")
	p.val("ccad_result_cache_hits_total", float64(cs.Hits))
	p.header("ccad_result_cache_misses_total", "Result-cache lookups that found nothing.", "counter")
	p.val("ccad_result_cache_misses_total", float64(cs.Misses))
	p.header("ccad_result_cache_evictions_total", "Result-cache entries displaced by the LRU bound.", "counter")
	p.val("ccad_result_cache_evictions_total", float64(cs.Evictions))

	// Fleet aggregates across every solve request served.
	p.header("ccad_solve_instances_total", "Instances received by /v1/solve.", "counter")
	p.val("ccad_solve_instances_total", float64(instances))
	p.header("ccad_solve_solved_total", "Instances that produced a matching.", "counter")
	p.val("ccad_solve_solved_total", float64(solved))
	p.header("ccad_solve_errors_total", "Instances that failed (bad input, unknown solver, timeout).", "counter")
	p.val("ccad_solve_errors_total", float64(errored))
	p.header("ccad_solve_pairs_total", "Total assignment pairs across all matchings.", "counter")
	p.val("ccad_solve_pairs_total", float64(pairs))
	p.header("ccad_solve_cost_total", "Total matching cost sum(Psi(M)) across all solved instances.", "counter")
	p.val("ccad_solve_cost_total", cost)
	p.header("ccad_solve_cache_hits_total", "Instances served from the result cache.", "counter")
	p.val("ccad_solve_cache_hits_total", float64(cacheHits))
	p.header("ccad_solve_wall_seconds_total", "Total per-instance solve wall time.", "counter")
	p.val("ccad_solve_wall_seconds_total", solveWall.Seconds())
	p.header("ccad_solve_queue_wait_seconds_total", "Total time solve instances waited for a worker.", "counter")
	p.val("ccad_solve_queue_wait_seconds_total", queueWait.Seconds())
	p.header("ccad_solve_page_faults_total", "Buffer faults across non-cached solves (the paper's fault accounting).", "counter")
	p.val("ccad_solve_page_faults_total", float64(faults))
	p.header("ccad_solve_io_seconds_total", "Simulated I/O time across non-cached solves (10 ms per fault, the paper's cost model).", "counter")
	p.val("ccad_solve_io_seconds_total", ioTime.Seconds())

	// Latency histograms. The map needs the lock; the histograms are
	// atomic and snapshot lock-free.
	s.stats.mu.Lock()
	fams := make([]string, 0, len(s.stats.solveLatency))
	for f := range s.stats.solveLatency {
		fams = append(fams, f)
	}
	famHists := make(map[string]*obs.Histogram, len(fams))
	for _, f := range fams {
		famHists[f] = s.stats.solveLatency[f]
	}
	s.stats.mu.Unlock()
	sort.Strings(fams)
	p.header("ccad_solve_latency_seconds", "Per-instance solve wall time, by solver family (the solver name before the first ':').", "histogram")
	for _, f := range fams {
		p.histogram("ccad_solve_latency_seconds", fmt.Sprintf("family=%q", f), famHists[f].Snapshot())
	}
	p.header("ccad_solve_queue_wait_seconds", "Per-instance time waiting for an engine worker.", "histogram")
	p.histogram("ccad_solve_queue_wait_seconds", "", s.stats.queueWaitHist.Snapshot())
	p.header("ccad_netmetric_point_query_seconds", "Road-network point-query (Dist) latency. Fed only by traced solves (trace=1), which time every metric call.", "histogram")
	p.histogram("ccad_netmetric_point_query_seconds", "", s.stats.pointQuery.Snapshot())
	p.header("ccad_wal_fsync_seconds", "Session WAL append+fsync latency per logged event.", "histogram")
	p.histogram("ccad_wal_fsync_seconds", "", s.stats.walFsync.Snapshot())

	// Sessions.
	p.header("ccad_sessions_active", "Live online sessions.", "gauge")
	p.val("ccad_sessions_active", float64(s.sessions.count()))
	p.header("ccad_sessions_created_total", "Sessions created since start.", "counter")
	p.val("ccad_sessions_created_total", float64(sessionsCreated))
	p.header("ccad_sessions_arrivals_total", "Customer arrivals processed across all sessions.", "counter")
	p.val("ccad_sessions_arrivals_total", float64(arrivals))
	p.header("ccad_sessions_arrivals_matched_total", "Arrivals that held a slot immediately.", "counter")
	p.val("ccad_sessions_arrivals_matched_total", float64(arrivalsMatched))
	p.header("ccad_sessions_departures_total", "Customer departures processed across all sessions.", "counter")
	p.val("ccad_sessions_departures_total", float64(departures))
	p.header("ccad_sessions_resizes_total", "Provider capacity resizes processed across all sessions.", "counter")
	p.val("ccad_sessions_resizes_total", float64(resizes))
	p.header("ccad_sessions_deleted_total", "Sessions removed by DELETE /v1/sessions/{id}.", "counter")
	p.val("ccad_sessions_deleted_total", float64(sessionsDeleted))
	p.header("ccad_sessions_expired_total", "Sessions unloaded (or, without -state-dir, dropped) by the TTL sweeper.", "counter")
	p.val("ccad_sessions_expired_total", float64(sessionsExpired))
	p.header("ccad_sessions_recovered_total", "Sessions replayed from their WALs at boot.", "counter")
	p.val("ccad_sessions_recovered_total", float64(sessionsRecovered))
	p.header("ccad_sessions_reloaded_total", "Unloaded sessions replayed from their WALs on touch.", "counter")
	p.val("ccad_sessions_reloaded_total", float64(sessionsReloaded))
	p.header("ccad_session_snapshots_total", "Session checkpoint snapshots written.", "counter")
	p.val("ccad_session_snapshots_total", float64(sessionSnapshots))

	// Named datasets: lifecycle counters plus the paper's per-dataset
	// fault accounting and buffer residency.
	p.header("ccad_datasets_loaded", "Named datasets currently indexed in memory.", "gauge")
	p.val("ccad_datasets_loaded", float64(s.datasets.loadedCount()))
	uploads, evicted := s.datasets.counts()
	p.header("ccad_datasets_uploaded_total", "Datasets committed by POST /v1/datasets/{name}.", "counter")
	p.val("ccad_datasets_uploaded_total", float64(uploads))
	p.header("ccad_datasets_evicted_total", "Dataset indexes dropped by DELETE /v1/datasets/{name} (or replaced by an upload).", "counter")
	p.val("ccad_datasets_evicted_total", float64(evicted))
	dsNames, dsAggs := s.datasets.ioSnapshot()
	p.header("ccad_dataset_page_faults_total", "Buffer faults charged to non-cached solves of this dataset.", "counter")
	p.header("ccad_dataset_buffer_hits_total", "Buffer hits across non-cached solves of this dataset.", "counter")
	p.header("ccad_dataset_io_seconds_total", "Simulated I/O time charged to this dataset (10 ms per fault).", "counter")
	for i, name := range dsNames {
		labels := fmt.Sprintf("dataset=%q", name)
		p.labeled("ccad_dataset_page_faults_total", labels, float64(dsAggs[i].faults))
		p.labeled("ccad_dataset_buffer_hits_total", labels, float64(dsAggs[i].hits))
		p.labeled("ccad_dataset_io_seconds_total", labels, dsAggs[i].ioTime.Seconds())
	}
	p.header("ccad_dataset_pages", "R-tree pages in a resident dataset's page store.", "gauge")
	p.header("ccad_dataset_resident_pages", "Pages cached in a resident dataset's primary LRU buffer.", "gauge")
	p.header("ccad_dataset_buffer_pages", "LRU buffer capacity of a resident dataset (the paper's 1%).", "gauge")
	for _, info := range s.datasets.residentInfos() {
		labels := fmt.Sprintf("dataset=%q", info.Name)
		p.labeled("ccad_dataset_pages", labels, float64(info.Pages))
		p.labeled("ccad_dataset_resident_pages", labels, float64(info.ResidentPages))
		p.labeled("ccad_dataset_buffer_pages", labels, float64(info.BufferPages))
	}

	// Road-network metric caches, one series set per distinct (built)
	// network; entries still mid-build are skipped, never waited on.
	type netSample struct {
		key netKey
		m   *netmetric.NetworkMetric
	}
	s.netMu.Lock()
	nets := make([]netSample, 0, len(s.netMetrics))
	for k, e := range s.netMetrics {
		if e.done.Load() {
			nets = append(nets, netSample{key: k, m: e.m})
		}
	}
	s.netMu.Unlock()
	sort.Slice(nets, func(i, j int) bool {
		if nets[i].key.grid != nets[j].key.grid {
			return nets[i].key.grid < nets[j].key.grid
		}
		return nets[i].key.seed < nets[j].key.seed
	})
	p.header("ccad_netmetric_node_cache_hits_total", "Node-pair distances served from a network metric's cache (a hit avoids a cold point search: a contraction-hierarchy query or a plain Dijkstra).", "counter")
	p.header("ccad_netmetric_node_cache_misses_total", "Node-pair distances computed by Dijkstra.", "counter")
	p.header("ccad_netmetric_node_cache_evictions_total", "Node-pair entries displaced by the LRU bound.", "counter")
	p.header("ccad_netmetric_snap_cache_hits_total", "Point snap positions served from cache.", "counter")
	p.header("ccad_netmetric_snap_cache_misses_total", "Point snap positions computed against the edge grid.", "counter")
	p.header("ccad_netmetric_snap_cache_evictions_total", "Snap entries displaced by the LRU bound.", "counter")
	p.header("ccad_netmetric_pair_cache_hits_total", "Finished point-pair distances served whole from a network metric's cache (a hit skips the snap and node layers entirely).", "counter")
	p.header("ccad_netmetric_pair_cache_misses_total", "Point-pair distances assembled from the snap and node layers.", "counter")
	p.header("ccad_netmetric_pair_cache_evictions_total", "Point-pair entries displaced by the LRU bound.", "counter")
	for _, n := range nets {
		st := n.m.Stats()
		labels := fmt.Sprintf("network=%q", fmt.Sprintf("grid%d-seed%d", n.key.grid, n.key.seed))
		p.labeled("ccad_netmetric_node_cache_hits_total", labels, float64(st.NodeHits))
		p.labeled("ccad_netmetric_node_cache_misses_total", labels, float64(st.NodeMisses))
		p.labeled("ccad_netmetric_node_cache_evictions_total", labels, float64(st.NodeEvictions))
		p.labeled("ccad_netmetric_snap_cache_hits_total", labels, float64(st.SnapHits))
		p.labeled("ccad_netmetric_snap_cache_misses_total", labels, float64(st.SnapMisses))
		p.labeled("ccad_netmetric_snap_cache_evictions_total", labels, float64(st.SnapEvictions))
		p.labeled("ccad_netmetric_pair_cache_hits_total", labels, float64(st.PairHits))
		p.labeled("ccad_netmetric_pair_cache_misses_total", labels, float64(st.PairMisses))
		p.labeled("ccad_netmetric_pair_cache_evictions_total", labels, float64(st.PairEvictions))
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
