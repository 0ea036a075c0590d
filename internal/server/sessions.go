package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/geo/netmetric"
	"repro/internal/storage"
)

// Body bounds for the session endpoints: a provider set is small (the
// paper's |Q| ≈ 1K fits in kilobytes) and a churn event is one point
// or id.
const (
	maxSessionBody = 8 << 20
	maxArriveBody  = 1 << 20
)

// session is one server-held online matching: a DynamicMatcher plus the
// lock serializing its events (the matcher mutates a shared residual
// graph, so events within a session are ordered; distinct sessions
// proceed in parallel). Id bookkeeping lives in the matcher itself —
// the handlers branch on its sentinel errors rather than tracking a
// parallel seen-set.
type session struct {
	mu       sync.Mutex
	m        *cca.DynamicMatcher
	arrivals int

	id string
	// gone marks a session unloaded by the TTL sweeper or deleted; a
	// handler that locked a stale pointer must re-resolve through the
	// store instead of mutating a zombie.
	gone bool
	// log is the session's write-ahead log (nil = persistence off or
	// unloaded). events counts churn events since creation.
	log    *storage.Log
	events int
	// table is a road-network session's metric (nil for Euclidean).
	// Such a session also logs each arrival's cost row, so replay asks
	// the metric nothing; a Euclidean row would cost more log bytes
	// than the |Q| square roots it saves on replay.
	table *sessionTable
	// lastTouch is the unix-nano time of the last handler access — the
	// TTL sweeper's idleness clock.
	lastTouch atomic.Int64
}

func (sess *session) touch() { sess.lastTouch.Store(time.Now().UnixNano()) }

// retire marks a session unloaded or deleted and frees what it holds:
// its log and its distance table's rows. Called with sess.mu held.
func (sess *session) retire() {
	sess.gone = true
	if sess.log != nil {
		sess.log.Close()
		sess.log = nil
	}
	if sess.table != nil {
		sess.table.release()
	}
}

// sessionTable is a road-network session's metric. A session's
// providers never change, so its distances can come from a
// netmetric.Table over them: one row per snap-edge endpoint (2|Q| at
// most), each a suspended sweep that arrivals advance only as far as
// they reach. Table.Dist is bit-identical to the shared metric's point
// queries, so no answer and no logged row depends on which one serves,
// but a session on its table never builds the contraction hierarchy
// and never touches the node-pair and point-pair caches. The choice is
// made on the first distance query, so a replay that reads every row
// from the log allocates nothing, and it falls to the shared metric
// when any of these holds:
//
//   - the network's retired session tables have already settled
//     sessionRowLabelsPerNode labels per node (netEntry.rowLabels):
//     from then on the hierarchy costs less than more rows;
//   - the table's 2|Q| rows would take the server's live session
//     tables past sessionTableCells;
//   - BuildTable declines (over netmetric.DefaultTableBudget).
//
// Queries and release run under the session's lock (or, during replay,
// before the session is shared).
type sessionTable struct {
	srv       *Server
	net       *netEntry
	providers []cca.Point
	// metric is nil until the first query, then table or the shared
	// metric. cells is the share of the server's table budget the table
	// holds until release.
	metric cca.Metric
	table  *netmetric.Table
	cells  int64
}

// sessionRowLabelsPerNode is how many labels per network node the
// tables of retired sessions may settle before later sessions on that
// network use point queries. A table row costs one settled label per
// node it reaches, however few arrivals it serves; a point query costs
// a few hundred labels' worth once the hierarchy exists, and the
// hierarchy costs 140 (32-grid), 232 (64-grid), 313 (128-grid) and 487
// (256-grid) labels per node to build, timed against full row sweeps
// on a 2-vCPU VM. Sessions with few arrivals on a large grid sweep most
// of their rows for little use: with the hierarchy built, a session of
// 8 providers and 4 arrivals on the 128-grid took 36 ms on rows against
// 6 ms on point queries, while one of 256 arrivals took 58 ms against
// 115. So rows serve until they have cost about one hierarchy build
// (the smallest measured), and the hierarchy after that; a network's
// sessions then never cost much more than twice what point queries
// alone would, and dense sessions on a fresh server keep their rows.
const sessionRowLabelsPerNode = 128

// Name implements cca.Metric.
func (d *sessionTable) Name() string { return d.net.m.Name() }

// Dist implements cca.Metric.
func (d *sessionTable) Dist(p, q cca.Point) float64 {
	if d.metric == nil {
		d.metric = d.open()
	}
	return d.metric.Dist(p, q)
}

// open builds the session's table, or returns the shared metric when
// the network's session rows have run their course or the table does
// not fit the server's budget. The budget is taken for 2|Q| rows before
// the build and the rows the table did not need are handed back.
func (d *sessionTable) open() cca.Metric {
	m := d.net.m
	n := int64(m.NumNodes())
	if d.net.rowLabels.Load() >= sessionRowLabelsPerNode*n {
		return m
	}
	want := 2 * int64(len(d.providers)) * n
	if d.srv.tableCells.Add(want) > d.srv.tableBudget {
		d.srv.tableCells.Add(-want)
		return m
	}
	t := m.BuildTable(d.providers, 0)
	if t == nil {
		d.srv.tableCells.Add(-want)
		return m
	}
	d.table, d.cells = t, int64(t.Coverage())*n
	d.srv.tableCells.Add(d.cells - want)
	return t
}

// release returns the table's rows to netmetric's pool for the next
// table, in this session or a batch solve, and its cells to the
// server's budget, and adds the labels its rows settled to the
// network's count.
func (d *sessionTable) release() {
	if d.table == nil {
		return
	}
	settled, _ := d.table.Settled()
	d.net.rowLabels.Add(int64(settled))
	d.srv.tableCells.Add(-d.cells)
	d.table.Release()
	d.table, d.cells = nil, 0
}

// sessionStore is the bounded id → session map (resident sessions only;
// swept sessions live on disk until touched).
type sessionStore struct {
	mu       sync.Mutex
	max      int
	sessions map[string]*session
}

func (st *sessionStore) init(max int) {
	st.max = max
	st.sessions = make(map[string]*session)
}

// put stores a session under id, enforcing the bound.
func (st *sessionStore) put(id string, s *session) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.sessions) >= st.max {
		return fmt.Errorf("session limit reached (%d live sessions)", st.max)
	}
	st.sessions[id] = s
	return nil
}

func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	return s, ok
}

func (st *sessionStore) remove(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	if !ok {
		return nil, false
	}
	delete(st.sessions, id)
	return s, true
}

// removeIfSame removes id only if it still maps to s — the sweeper uses
// it so a delete-then-recreate race can never drop a fresh session.
func (st *sessionStore) removeIfSame(id string, s *session) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sessions[id] != s {
		return false
	}
	delete(st.sessions, id)
	return true
}

// snapshot returns a copy of the resident-session map for iteration
// without holding the store lock.
func (st *sessionStore) snapshot() map[string]*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]*session, len(st.sessions))
	for id, s := range st.sessions {
		out[id] = s
	}
	return out
}

func (st *sessionStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// lockSession resolves id to a live session and returns it with its
// lock held (the caller must unlock). A session the TTL sweeper
// unloaded is transparently reloaded from its WAL; one marked gone
// between lookup and lock is re-resolved. On failure the HTTP error has
// been written already.
func (s *Server) lockSession(w http.ResponseWriter, id string) (*session, bool) {
	for tries := 0; tries < 4; tries++ {
		sess, ok := s.sessions.get(id)
		if !ok {
			var err error
			sess, err = s.loadSession(id)
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					writeError(w, http.StatusNotFound, "no such session")
				} else {
					writeError(w, http.StatusInternalServerError, err.Error())
				}
				return nil, false
			}
		}
		sess.mu.Lock()
		if sess.gone {
			sess.mu.Unlock()
			continue
		}
		sess.touch()
		return sess, true
	}
	writeError(w, http.StatusServiceUnavailable, "session is being recycled, retry")
	return nil, false
}

// handleSessionCreate serves POST /v1/sessions: it builds a server-held
// incremental matcher over the request's providers, so each subsequent
// /arrive costs one augmenting path (or swap) instead of a re-solve.
// Sessions measure Euclidean distance by default; metric "network"
// measures on the shared road-network metric (same memo and bounds as
// batch solves), through the session's own table over its providers
// (sessionTable). With -state-dir, the
// session is durable: its configuration is the WAL's header record and
// every later event is logged before it is acknowledged.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req client.SessionRequest
	if !decodeBody(w, r, maxSessionBody, &req) {
		return
	}
	m, table, capacity, err := s.buildMatcher(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess := &session{m: m, id: newID(), table: table}
	sess.touch()
	if s.persistEnabled() {
		if err := s.attachWAL(sess, req); err != nil {
			writeError(w, http.StatusInternalServerError, "session persistence: "+err.Error())
			return
		}
	}
	if err := s.sessions.put(sess.id, sess); err != nil {
		if sess.log != nil {
			sess.log.Close()
			s.removeSessionFiles(sess.id)
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	s.stats.recordSession()
	writeJSON(w, http.StatusOK, client.SessionInfo{
		ID:        sess.id,
		Capacity:  capacity,
		Persisted: sess.log != nil,
	})
}

// handleSessionArrive serves POST /v1/sessions/{id}/arrive: one
// customer arrival through the incremental path.
func (s *Server) handleSessionArrive(w http.ResponseWriter, r *http.Request) {
	// Arrivals are new work: reject them during drain like solves and
	// session creation, so keep-alive arrival loops cannot hold
	// Shutdown open for the full drain timeout. Reads (matching) stay
	// available.
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req client.ArriveRequest
	if !decodeBody(w, r, maxArriveBody, &req) {
		return
	}
	if err := checkSessionPoint(cca.Point{X: req.X, Y: req.Y}); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess, ok := s.lockSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	// Each arrival permanently grows the matcher's id ledger, so the
	// per-session arrival count is bounded like every other
	// client-driven allocation; start a new session past the limit.
	if sess.arrivals >= s.cfg.MaxArrivals {
		sess.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session reached its arrival limit (%d); create a new session", s.cfg.MaxArrivals))
		return
	}
	matched, err := sess.m.Arrive(cca.Point{X: req.X, Y: req.Y}, req.ID)
	if errors.Is(err, cca.ErrDuplicateID) {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Sprintf("customer %d already arrived", req.ID))
		return
	}
	if err != nil {
		sess.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sess.arrivals++
	ev := walEvent{Op: walOpArrive, ID: req.ID, X: req.X, Y: req.Y}
	if sess.table != nil {
		ev.Row = sess.m.Row(req.ID)
	}
	if err := s.logEvent(sess, ev); err != nil {
		sess.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := client.ArriveResponse{
		Matched:  matched,
		Size:     sess.m.Size(),
		Cost:     sess.m.Cost(),
		Arrivals: sess.arrivals,
	}
	sess.mu.Unlock()

	s.stats.recordArrival(matched)
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionDepart serves POST /v1/sessions/{id}/depart: remove one
// customer, releasing its slot and repairing the matching. An id that
// never arrived, or already departed, is 404.
func (s *Server) handleSessionDepart(w http.ResponseWriter, r *http.Request) {
	// Like arrivals, churn events are new work: reject them during
	// drain so event loops cannot hold Shutdown open. Reads stay
	// available.
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req client.DepartRequest
	if !decodeBody(w, r, maxArriveBody, &req) {
		return
	}
	sess, ok := s.lockSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	wasMatched, err := sess.m.Depart(req.ID)
	if errors.Is(err, cca.ErrUnknownID) {
		sess.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Sprintf("customer %d is not present", req.ID))
		return
	}
	if err != nil {
		sess.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := s.logEvent(sess, walEvent{Op: walOpDepart, ID: req.ID}); err != nil {
		sess.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := client.DepartResponse{
		WasMatched: wasMatched,
		Size:       sess.m.Size(),
		Cost:       sess.m.Cost(),
		Live:       sess.m.Live(),
	}
	sess.mu.Unlock()

	s.stats.recordDepart()
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionResize serves POST /v1/sessions/{id}/resize: change one
// provider's capacity. Shrinking evicts and re-routes assignees;
// growing admits waiting customers. An index out of range is 404, a
// capacity outside [0, maxSessionCap] 400.
func (s *Server) handleSessionResize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req client.ResizeRequest
	if !decodeBody(w, r, maxArriveBody, &req) {
		return
	}
	if req.Cap < 0 || req.Cap > maxSessionCap {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("capacity must be in [0, %d], got %d", maxSessionCap, req.Cap))
		return
	}
	sess, ok := s.lockSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	err := sess.m.ResizeProvider(req.Provider, req.Cap)
	if errors.Is(err, cca.ErrUnknownID) {
		sess.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Sprintf("no provider %d in this session", req.Provider))
		return
	}
	if err != nil {
		sess.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := s.logEvent(sess, walEvent{Op: walOpResize, Provider: req.Provider, Cap: req.Cap}); err != nil {
		sess.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := client.ResizeResponse{
		Size:     sess.m.Size(),
		Cost:     sess.m.Cost(),
		Capacity: sess.m.Capacity(),
	}
	sess.mu.Unlock()

	s.stats.recordResize()
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionMatching serves GET /v1/sessions/{id}/matching: the
// current optimal matching over everything that has arrived. Reads stay
// available during drain, and reading an unloaded session reloads it.
func (s *Server) handleSessionMatching(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lockSession(w, r.PathValue("id"))
	if !ok {
		return
	}
	res := sess.m.Matching()
	sess.mu.Unlock()

	resp := client.MatchingResponse{Size: res.Size, Cost: res.Cost, Pairs: wirePairs(res.Pairs)}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionDelete serves DELETE /v1/sessions/{id}. Deletion is
// permanent — unlike a TTL unload, the WAL and snapshot are removed
// too. It stays allowed during drain: delete frees resources, and an
// orchestrated shutdown cleaning up its sessions must not be wedged by
// its own drain.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.sessions.remove(id)
	if !ok {
		// Not resident — but with persistence on, an unloaded session's
		// files may still exist and must die too.
		if s.persistEnabled() && validSessionID(id) {
			if _, err := os.Stat(s.sessionWALPath(id)); err == nil {
				s.removeSessionFiles(id)
				s.stats.recordDeleted()
				writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
				return
			}
		}
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.mu.Lock()
	sess.retire()
	sess.mu.Unlock()
	s.removeSessionFiles(id)
	s.stats.recordDeleted()
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}
