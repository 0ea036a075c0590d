// Package client is the Go client for ccad, the CCA assignment
// service (cmd/ccad). It speaks the service's JSON wire format — the
// types in this file are the protocol, shared by the server
// (internal/server) and every consumer (the conformance tests, the
// ccabench -serve load generator, and external callers).
//
// The wire format carries float64 coordinates and distances through
// encoding/json, which marshals them with the shortest representation
// that round-trips exactly, so a matching fetched over HTTP is
// bit-identical to the one the in-process solver produced — the
// server-path conformance tests assert exactly that.
package client

// Provider is one capacitated service provider.
type Provider struct {
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Cap int     `json:"cap"`
}

// Customer is one customer point with its identifier.
type Customer struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// Options tunes a solve; the zero value selects the paper defaults
// (mirrors cca.SolverOptions field by field, minus the non-serializable
// ones: metric values travel as Instance.Metric, and function-valued
// options have no wire form).
type Options struct {
	// Theta is RIA's range increment θ (0 = the paper's 0.8).
	Theta float64 `json:"theta,omitempty"`
	// Delta is the approximate solvers' δ (0 = paper default).
	Delta float64 `json:"delta,omitempty"`
	// Shards / ShardBoundary / ShardWorkers tune "sharded:*" solvers.
	Shards        int     `json:"shards,omitempty"`
	ShardBoundary float64 `json:"shard_boundary,omitempty"`
	ShardWorkers  int     `json:"shard_workers,omitempty"`
	// Ablation switches (see core.Options).
	DisablePUA      bool `json:"disable_pua,omitempty"`
	DisableTheorem2 bool `json:"disable_theorem2,omitempty"`
	DisableANN      bool `json:"disable_ann,omitempty"`
	// ANNGroupSize is accepted for compatibility and selects nothing:
	// ANN groups hold 8 providers, or one under DisableANN.
	ANNGroupSize int `json:"ann_group_size,omitempty"`
	// DistTable is accepted for compatibility and selects nothing: a
	// network-metric solve builds its provider-sourced distance table
	// whenever the instance is large enough and the table fits the
	// server's memory budget.
	DistTable int `json:"dist_table,omitempty"`
}

// Instance is one solve request: a provider set plus a customer set —
// inline points or a server-side named dataset, exactly one of the two.
type Instance struct {
	// Label identifies the instance in results (optional).
	Label string `json:"label,omitempty"`
	// Solver is the registry name ("" = the server's default, normally
	// "ida"; "sharded:<base>" selects the sharded meta-solver).
	Solver string `json:"solver,omitempty"`
	// Providers is the capacitated provider set Q.
	Providers []Provider `json:"providers"`
	// Customers carries the customer points inline. Mutually exclusive
	// with Dataset.
	Customers []Customer `json:"customers,omitempty"`
	// Dataset names a server-side dataset (see GET /v1/datasets).
	// Named datasets are indexed once and shared, so repeated solves
	// hit the engine's result cache; inline customers are re-indexed
	// per request and never do.
	Dataset string `json:"dataset,omitempty"`
	// Metric selects the distance backend: "" or "euclidean" (the
	// paper's setting) or "network" (shortest-path over the synthetic
	// road network with NetGrid/NetSeed, defaults 32/2008). The server
	// bounds NetGrid and the number of distinct (NetGrid, NetSeed)
	// networks it will materialize; out-of-range values fail the
	// instance.
	Metric  string `json:"metric,omitempty"`
	NetGrid int    `json:"net_grid,omitempty"`
	NetSeed int64  `json:"net_seed,omitempty"`
	// NetLandmarks is accepted for compatibility and selects nothing:
	// exact NN refinement prunes with the Euclidean lower bound alone.
	// Values outside [-1, 64] are still rejected.
	NetLandmarks int `json:"net_landmarks,omitempty"`
	// NetCH is accepted for compatibility and selects nothing: the
	// network's point queries use a contraction hierarchy from 1,024
	// nodes (a 32-grid) up. Values other than -1, 0 and 1 are still
	// rejected.
	NetCH int `json:"net_ch,omitempty"`
	// Options tunes the solve (nil = defaults).
	Options *Options `json:"options,omitempty"`
	// Lane selects the scheduling priority: "" or "interactive"
	// (drained first) or "batch" (bulk throughput work).
	Lane string `json:"lane,omitempty"`
	// TimeoutMS bounds this instance's solve in milliseconds (0 = the
	// server's default). The deadline is observed between augmenting
	// iterations; an expired instance reports a context error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	Instances []Instance `json:"instances"`
	// Trace asks the server to attach the request's completed span tree
	// to the response (equivalent to the trace=1 query parameter, which
	// additionally covers the body-read phase because the server sees it
	// before decoding).
	Trace bool `json:"trace,omitempty"`
}

// TraceSpan is one node of a solve request's span tree (trace=1): a
// named phase with its duration, attributes, and child phases. Durations
// are nanoseconds; the tree's structure (names, nesting, attribute keys)
// is deterministic for a given request shape — only durations and
// attribute values vary run to run.
type TraceSpan struct {
	Name  string         `json:"name"`
	DurNS int64          `json:"dur_ns"`
	Attrs map[string]any `json:"attrs,omitempty"`
	// Overlay marks a span whose duration accrued inside its sibling
	// spans (e.g. netmetric-query time spent during flowgraph-build and
	// augment): skip it when summing self-times, or the overlapped time
	// counts twice.
	Overlay  bool         `json:"overlay,omitempty"`
	Children []*TraceSpan `json:"children,omitempty"`
}

// Histogram is a bounded latency distribution: ascending upper bounds in
// seconds, one count per bucket plus a final overflow bucket
// (len(Counts) == len(Bounds)+1), and the observation count and sum.
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Pair is one (provider, customer) assignment of a matching. It carries
// the customer's coordinates so the wire result round-trips the full
// cca.Pair.
type Pair struct {
	Provider int     `json:"provider"`
	Customer int64   `json:"customer"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Dist     float64 `json:"dist"`
}

// InstanceResult is one instance's outcome. Exactly one of Pairs/Error
// is meaningful: a failed instance reports Error and no matching.
type InstanceResult struct {
	Index  int    `json:"index"`
	Label  string `json:"label,omitempty"`
	Solver string `json:"solver"`
	// Kind is the solver's guarantee class: exact | approximate |
	// heuristic.
	Kind string `json:"kind,omitempty"`
	Size int    `json:"size"`
	// Cost is Ψ(M), the summed pair distance.
	Cost  float64 `json:"cost"`
	Pairs []Pair  `json:"pairs,omitempty"`
	// ErrorBound bounds Ψ(M) − Ψ(M_CCA) for approximate solvers.
	ErrorBound float64 `json:"error_bound,omitempty"`
	// Cached reports a result served from the engine's cross-instance
	// result cache.
	Cached bool `json:"cached,omitempty"`
	// WallNS / QueueWaitNS are the solve's own wall time and the time
	// it waited for a worker, in nanoseconds.
	WallNS      int64 `json:"wall_ns"`
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// Worker is the pool worker that ran the instance (-1 = never ran).
	Worker int    `json:"worker"`
	Error  string `json:"error,omitempty"`
}

// Fleet aggregates one solve request's instances.
type Fleet struct {
	Instances   int     `json:"instances"`
	Solved      int     `json:"solved"`
	Errors      int     `json:"errors"`
	Pairs       int     `json:"pairs"`
	Cost        float64 `json:"cost"`
	CacheHits   int     `json:"cache_hits"`
	WallNS      int64   `json:"wall_ns"`
	SolveWallNS int64   `json:"solve_wall_ns"`
	// QueueWaitNS is the mean per-instance queue wait (the mean of
	// QueueWaitHist; it was a Σ before the histogram existed — the sum
	// is QueueWaitHist.Sum seconds).
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// QueueWaitHist is the distribution of per-instance queue waits in
	// seconds.
	QueueWaitHist *Histogram `json:"queue_wait_hist,omitempty"`
	// Faults / IONS carry the paper's fault accounting for the request:
	// buffer faults across the solved (non-cached) instances and the
	// simulated I/O time they cost at 10 ms per fault, in nanoseconds.
	Faults int   `json:"faults"`
	IONS   int64 `json:"io_ns"`
}

// SolveResponse is the buffered response of POST /v1/solve. Streamed
// responses (?stream=ndjson or ?stream=sse) deliver the same
// InstanceResult values one by one in completion order, then one final
// Fleet.
type SolveResponse struct {
	Results []InstanceResult `json:"results"`
	Fleet   Fleet            `json:"fleet"`
	// Trace is the request's completed span tree, present only when the
	// request asked for it (trace=1 or SolveRequest.Trace).
	Trace *TraceSpan `json:"trace,omitempty"`
}

// StreamEnvelope is one NDJSON line of a streamed solve response:
// exactly one field is set — Result for each completed instance (in
// completion order), then Fleet on the final line.
type StreamEnvelope struct {
	Result *InstanceResult `json:"result,omitempty"`
	Fleet  *Fleet          `json:"fleet,omitempty"`
	// Trace rides on the final (fleet) envelope of a traced request.
	Trace *TraceSpan `json:"trace,omitempty"`
}

// SessionRequest is the body of POST /v1/sessions: the provider set an
// online session assigns arriving customers to.
type SessionRequest struct {
	Providers []Provider `json:"providers"`
	// ReoptBudget is accepted for compatibility and selects nothing:
	// every churn event leaves the exact optimum. A negative value is
	// still rejected.
	ReoptBudget int `json:"reopt_budget,omitempty"`
	// Metric selects the session's distance backend with the same wire
	// encoding as Instance: "" or "euclidean", or "network" with
	// NetGrid/NetSeed (defaults 32/2008). NetLandmarks and NetCH are
	// accepted and checked as on Instance, and select nothing. The session
	// shares the server's per-network metric memo with batch solves,
	// and every incremental assignment measures shortest-path distance
	// over that road network.
	Metric       string `json:"metric,omitempty"`
	NetGrid      int    `json:"net_grid,omitempty"`
	NetSeed      int64  `json:"net_seed,omitempty"`
	NetLandmarks int    `json:"net_landmarks,omitempty"`
	NetCH        int    `json:"net_ch,omitempty"`
}

// SessionInfo describes a created session.
type SessionInfo struct {
	ID string `json:"id"`
	// Capacity is Γ = Σ provider capacities — the maximum matching size.
	Capacity int `json:"capacity"`
	// Persisted reports whether the session is backed by a write-ahead
	// log (the server runs with -state-dir) and survives a restart.
	Persisted bool `json:"persisted,omitempty"`
}

// ArriveRequest is the body of POST /v1/sessions/{id}/arrive.
type ArriveRequest struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// ArriveResponse reports an arrival's effect. Matched says whether this
// customer holds a slot right now; later arrivals may re-route or evict
// it (poll GET /v1/sessions/{id}/matching for the current state).
type ArriveResponse struct {
	Matched  bool    `json:"matched"`
	Size     int     `json:"size"`
	Cost     float64 `json:"cost"`
	Arrivals int     `json:"arrivals"`
}

// DepartRequest is the body of POST /v1/sessions/{id}/depart.
type DepartRequest struct {
	ID int64 `json:"id"`
}

// DepartResponse reports a departure's effect. WasMatched says whether
// the customer held a slot at the moment it left.
type DepartResponse struct {
	WasMatched bool    `json:"was_matched"`
	Size       int     `json:"size"`
	Cost       float64 `json:"cost"`
	// Live is the number of customers still present.
	Live int `json:"live"`
}

// ResizeRequest is the body of POST /v1/sessions/{id}/resize: set
// provider Provider's capacity to Cap (>= 0; 0 takes the provider
// offline, evicting and re-routing its assignees).
type ResizeRequest struct {
	Provider int `json:"provider"`
	Cap      int `json:"cap"`
}

// ResizeResponse reports a resize's effect on the matching and the
// session's total capacity.
type ResizeResponse struct {
	Size int     `json:"size"`
	Cost float64 `json:"cost"`
	// Capacity is the new Γ = Σ provider capacities.
	Capacity int `json:"capacity"`
}

// MatchingResponse is the body of GET /v1/sessions/{id}/matching.
type MatchingResponse struct {
	Size  int     `json:"size"`
	Cost  float64 `json:"cost"`
	Pairs []Pair  `json:"pairs"`
}

// DatasetInfo describes one server-side named dataset.
type DatasetInfo struct {
	Name string `json:"name"`
	// Customers is the indexed point count (-1 when the dataset exists
	// on disk but has not been loaded yet).
	Customers int `json:"customers"`
	// Resident reports whether the dataset is currently indexed (its
	// R-tree pages reachable through the buffer manager).
	Resident bool `json:"resident"`
	// Pages / PageSize / Bytes describe the dataset's page store when
	// resident: total R-tree pages, the page size, and their product.
	Pages    int   `json:"pages,omitempty"`
	PageSize int   `json:"page_size,omitempty"`
	Bytes    int64 `json:"bytes,omitempty"`
	// ResidentPages / BufferPages are the LRU buffer's current fill and
	// capacity on the primary handle (solves run on clones with their
	// own cold buffers; see Faults for their accounting).
	ResidentPages int `json:"resident_pages,omitempty"`
	BufferPages   int `json:"buffer_pages,omitempty"`
	// Faults / IONS accumulate the paper's fault accounting across every
	// non-cached solve that used this dataset: buffer faults and the
	// simulated I/O time they cost (10 ms per fault), in nanoseconds.
	Faults uint64 `json:"faults,omitempty"`
	IONS   int64  `json:"io_ns,omitempty"`
}

// DatasetEvictResponse is the body of DELETE /v1/datasets/{name}. The
// dataset's CSV (and rebuilt page file) stay on disk; eviction drops the
// in-memory index so the next query reloads cold, re-paying its faults.
type DatasetEvictResponse struct {
	Name string `json:"name"`
	// WasResident reports whether an in-memory index was actually
	// dropped (false when the dataset existed but was not loaded).
	WasResident bool `json:"was_resident"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
