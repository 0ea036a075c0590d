// Package server implements ccad, the long-lived HTTP/JSON assignment
// service over one shared cca.Engine. It is the layer the ROADMAP's
// "serve heavy traffic from millions of users" north star asks for: the
// registry solvers, streaming scheduler, result cache, sharded
// meta-solver, and both distance backends become reachable over the
// network instead of only in-process.
//
// Endpoints:
//
//	POST   /v1/solve                  batch solving; buffered JSON or
//	                                  streamed (?stream=ndjson|sse)
//	POST   /v1/sessions               create an online session
//	POST   /v1/sessions/{id}/arrive   incremental customer arrival
//	POST   /v1/sessions/{id}/depart   customer departure (slot release)
//	POST   /v1/sessions/{id}/resize   provider capacity change
//	GET    /v1/sessions/{id}/matching current optimal matching
//	DELETE /v1/sessions/{id}          end a session
//	GET    /v1/datasets               list named datasets
//	GET    /metrics                   Prometheus text exposition
//	GET    /healthz                   liveness / drain state
//
// Production plumbing: admission control bounds concurrent solve
// requests (excess load is shed with 429 + Retry-After instead of
// queueing without bound), per-request timeouts map onto the engine's
// cancellation path, and Drain flips the server into a draining state
// for graceful shutdown (healthz 503, new work rejected) while
// cmd/ccad lets in-flight requests finish and then closes the engine.
//
// The wire format lives in repro/client, which is also the Go client
// used by the conformance tests and the ccabench -serve load mode.
package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/geo/netmetric"
)

// Config sizes a Server.
type Config struct {
	// Engine is the shared solving engine (required). The server does
	// not close it; cmd/ccad owns the drain sequence.
	Engine *cca.Engine
	// MaxInFlight bounds concurrently admitted solve requests; excess
	// requests are shed with 429 + Retry-After. Values < 1 select
	// DefaultMaxInFlight.
	MaxInFlight int
	// MaxSessions bounds live online sessions (each holds an in-memory
	// incremental matcher). Values < 1 select DefaultMaxSessions.
	MaxSessions int
	// MaxInstances bounds the instances one solve request may carry —
	// admission control counts requests, so without this cap a single
	// admitted request could flood the engine queue. Values < 1 select
	// DefaultMaxInstances.
	MaxInstances int
	// MaxArrivals bounds arrivals per session, and with them the live
	// set and its cost rows (|Q| distances, 8 B each, per live
	// customer). Each arrival also leaves one id-ledger entry behind
	// that departures do not reclaim, since ids stay unique for the
	// whole session, so an unbounded session would be an unbounded
	// allocation. Values < 1 select DefaultMaxArrivals.
	MaxArrivals int
	// DefaultTimeout bounds each instance's solve when the request does
	// not set its own timeout_ms; 0 means no limit.
	DefaultTimeout time.Duration
	// DataDir is the named-dataset directory (files <name>.csv in
	// dataio's id,x,y format); empty disables named datasets.
	DataDir string
	// StateDir is the durable-state directory. Non-empty enables the
	// storage layer: dataset R-tree pages live in page files under
	// <StateDir>/datasets (behind the paper's LRU buffer, so cold
	// datasets page out instead of pinning heap), and every session gets
	// a write-ahead log + snapshot under <StateDir>/sessions, replayed
	// on boot so a restart recovers byte-identical matchings. Empty
	// keeps everything in memory (the pre-durability behavior).
	StateDir string
	// SessionTTL unloads sessions idle longer than this: with StateDir
	// they checkpoint to disk and reload on the next touch; without it
	// they are simply deleted. 0 disables the sweeper.
	SessionTTL time.Duration
	// SnapshotEvery checkpoints a session's snapshot every N logged
	// events (<= 0 selects DefaultSnapshotEvery). Snapshots are
	// integrity checkpoints, not the recovery path — recovery always
	// replays the full WAL for byte-identical matchings.
	SnapshotEvery int
	// SlowSolveThreshold emits a structured slog warning for every solve
	// instance whose wall time reaches it; 0 disables the slow-solve log.
	SlowSolveThreshold time.Duration
	// Logger receives the server's structured logs (slow solves); nil
	// selects slog.Default().
	Logger *slog.Logger
}

// Defaults for Config's bounds.
const (
	DefaultMaxInFlight   = 64
	DefaultMaxSessions   = 1024
	DefaultMaxInstances  = 1024
	DefaultMaxArrivals   = 100_000
	DefaultSnapshotEvery = 64
)

// Server is the HTTP front end. Build one with New and mount Handler.
type Server struct {
	cfg    Config
	engine *cca.Engine
	mux    *http.ServeMux
	start  time.Time
	logger *slog.Logger

	// sem is the admission semaphore: one slot per in-flight solve
	// request (len(sem) is the inflight gauge). readSem is the wider
	// outer bound on solve handlers that are merely buffering/decoding
	// request bodies — without it, any number of concurrent (or slow)
	// clients could hold maxSolveBody-sized buffers before admission
	// ever applies.
	sem      chan struct{}
	readSem  chan struct{}
	draining atomic.Bool

	sessions sessionStore
	datasets datasetStore

	// netMu guards netMetrics, the (grid, seed) → metric memo. Reusing
	// one metric instance per network keeps its snap/node-pair caches
	// warm across requests and makes the engine's result cache able to
	// recognize repeats (the cache key embeds the metric identity).
	// Like the dataset store, the lock covers only the map — the
	// O(grid²) network build runs outside it under a per-entry Once.
	netMu      sync.Mutex
	netMetrics map[netKey]*netEntry

	stats counters

	// reloadMu serializes WAL reloads of unloaded sessions (persist.go).
	reloadMu sync.Mutex
	// recovered is the number of sessions replayed at boot.
	recovered int
	// stop ends the TTL sweeper; closeOnce guards Close.
	stop      chan struct{}
	closeOnce sync.Once
}

// netKey identifies a synthetic road network.
type netKey struct {
	grid int
	seed int64
}

// netEntry is one network's lazily built metric.
type netEntry struct {
	once sync.Once
	done atomic.Bool // set after once ran; guards m for non-waiters
	m    *netmetric.NetworkMetric
}

// metric returns the entry's metric, building it on first use (outside
// any map lock). The build cannot fail: the grid was validated before
// the entry was created.
func (e *netEntry) metric(key netKey) *netmetric.NetworkMetric {
	e.once.Do(func() {
		e.m = cca.RoadNetworkMetric(key.grid, netSpace, key.seed).(*netmetric.NetworkMetric)
		e.done.Store(true)
	})
	return e.m
}

// New builds a Server over cfg.Engine. With a StateDir configured it
// also recovers every persisted session (full WAL replay) before
// returning, so the first request after a restart already sees them.
func New(cfg Config) (*Server, error) {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxSessions < 1 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MaxInstances < 1 {
		cfg.MaxInstances = DefaultMaxInstances
	}
	if cfg.MaxArrivals < 1 {
		cfg.MaxArrivals = DefaultMaxArrivals
	}
	if cfg.SnapshotEvery < 1 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:        cfg,
		engine:     cfg.Engine,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		logger:     cfg.Logger,
		sem:        make(chan struct{}, cfg.MaxInFlight),
		readSem:    make(chan struct{}, 2*cfg.MaxInFlight),
		netMetrics: make(map[netKey]*netEntry),
		stop:       make(chan struct{}),
	}
	s.sessions.init(cfg.MaxSessions)
	if err := s.datasets.init(cfg.DataDir, cfg.StateDir); err != nil {
		return nil, err
	}
	s.stats.init()
	if s.persistEnabled() {
		if _, err := s.recoverSessions(); err != nil {
			return nil, err
		}
	}
	if cfg.SessionTTL > 0 {
		go s.sweepLoop()
	}

	s.handle("POST /v1/solve", "solve", s.handleSolve)
	s.handle("POST /v1/sessions", "session_create", s.handleSessionCreate)
	s.handle("POST /v1/sessions/{id}/arrive", "session_arrive", s.handleSessionArrive)
	s.handle("POST /v1/sessions/{id}/depart", "session_depart", s.handleSessionDepart)
	s.handle("POST /v1/sessions/{id}/resize", "session_resize", s.handleSessionResize)
	s.handle("GET /v1/sessions/{id}/matching", "session_matching", s.handleSessionMatching)
	s.handle("DELETE /v1/sessions/{id}", "session_delete", s.handleSessionDelete)
	s.handle("GET /v1/datasets", "datasets", s.handleDatasets)
	s.handle("POST /v1/datasets/{name}", "dataset_upload", s.handleDatasetUpload)
	s.handle("DELETE /v1/datasets/{name}", "dataset_evict", s.handleDatasetEvict)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// RecoveredSessions reports how many sessions boot-time recovery
// replayed from their WALs.
func (s *Server) RecoveredSessions() int { return s.recovered }

// Close stops the TTL sweeper and releases durable-state handles (open
// session WALs). It does not close the engine — cmd/ccad owns the drain
// sequence — and it must run after the HTTP listener stopped serving.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		for id, sess := range s.sessions.snapshot() {
			sess.mu.Lock()
			if sess.log != nil {
				sess.log.Close()
				sess.log = nil
			}
			sess.gone = true
			sess.mu.Unlock()
			s.sessions.removeIfSame(id, sess)
		}
	})
	return nil
}

// Drain flips the server into its draining state: healthz turns 503 and
// new solve/session work is rejected, while requests already admitted
// run to completion. cmd/ccad calls it on SIGTERM before shutting the
// listener down and closing the engine.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// handle mounts fn under pattern, recording per-endpoint request and
// status-code counts for /metrics.
func (s *Server) handle(pattern, name string, fn http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		fn(rec, r)
		s.stats.recordRequest(name, rec.code)
	})
}

// statusRecorder captures the response status for telemetry.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streamed responses keep
// flushing through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admit reserves an admission slot, or sheds the request with 429 +
// Retry-After when MaxInFlight requests are already running. The
// returned release func must be called exactly once when admitted.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	return s.acquire(w, s.sem)
}

// admitRead reserves a body-read slot (the wider outer bound on
// handlers buffering request bodies).
func (s *Server) admitRead(w http.ResponseWriter) (release func(), ok bool) {
	return s.acquire(w, s.readSem)
}

func (s *Server) acquire(w http.ResponseWriter, sem chan struct{}) (release func(), ok bool) {
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, true
	default:
		s.stats.recordRejected()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
		return nil, false
	}
}

// Bounds on client-selected road networks: grids outside [MinNetGrid,
// MaxNetGrid] either divide by zero in the generator or allocate
// O(grid²) nodes, and each distinct (grid, seed) pins a network plus
// two caches for the life of the process (and one /metrics label set),
// so the memo itself is bounded too.
const (
	MinNetGrid      = 2
	MaxNetGrid      = 256
	MaxNetworks     = 8
	MaxNetLandmarks = 64
)

// networkMetric returns the shared road-network metric for (grid,
// seed), building it on first use. Concurrent requests for the same
// cold network share one build, and the build never blocks the map
// lock (so other networks' requests and /metrics scrapes proceed
// meanwhile). The metric turns its contraction hierarchy on by network
// size. landmarks (net_landmarks) and ch (net_ch) select nothing and
// are accepted for compatibility, but keep their range checks so no
// request changes status.
func (s *Server) networkMetric(grid int, seed int64, landmarks, ch int) (*netmetric.NetworkMetric, error) {
	if grid < MinNetGrid || grid > MaxNetGrid {
		return nil, fmt.Errorf("net_grid %d out of range [%d, %d]", grid, MinNetGrid, MaxNetGrid)
	}
	if landmarks < -1 || landmarks > MaxNetLandmarks {
		return nil, fmt.Errorf("net_landmarks %d out of range [-1, %d]", landmarks, MaxNetLandmarks)
	}
	if ch < -1 || ch > 1 {
		return nil, fmt.Errorf("net_ch %d out of range [-1, 1]", ch)
	}
	key := netKey{grid: grid, seed: seed}
	s.netMu.Lock()
	e, ok := s.netMetrics[key]
	if !ok {
		if len(s.netMetrics) >= MaxNetworks {
			s.netMu.Unlock()
			return nil, fmt.Errorf("too many distinct road networks (limit %d); reuse an existing net_grid/net_seed", MaxNetworks)
		}
		e = &netEntry{}
		s.netMetrics[key] = e
	}
	s.netMu.Unlock()
	return e.metric(key), nil
}

// netSpace is the normalized data space of the paper's evaluation
// (expr.Space) — the space ccagen generates workloads in, so a server
// solving such a workload under "network" measures travel distance on
// the road network the points were placed on.
var netSpace = cca.Rect{Min: cca.Point{X: 0, Y: 0}, Max: cca.Point{X: 1000, Y: 1000}}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	infos, err := s.datasets.list()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, infos)
}

// decodeBody decodes one JSON request body bounded to limit bytes; on
// failure it writes the error response (413 for an oversized body, 400
// otherwise) and returns false. Every non-solve endpoint funnels its
// body through here so no endpoint offers an unbounded-allocation
// vector (solve has its own two-stage path).
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// writeJSON writes v as a JSON response. v is marshalled before the
// status goes out, so a value that cannot be encoded (a NaN or ±Inf
// float) answers 500 with an error body instead of code with an empty
// one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		code = http.StatusInternalServerError
		body.Reset()
		json.NewEncoder(&body).Encode(client.ErrorResponse{Error: "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body.Bytes())
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, client.ErrorResponse{Error: msg})
}

// newID returns a 16-hex-char random identifier.
func newID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
