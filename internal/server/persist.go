// Session persistence: a write-ahead log per session plus periodic
// snapshots, so a ccad restart (including SIGKILL) recovers every
// session's matcher byte-identically.
//
// Design: the WAL is the source of truth. Every accepted event (the
// header "create" record, then arrive/depart/resize) is appended — and
// fsynced — after the matcher applied it and before the response is
// written, so an acknowledged event is durable and a crash loses at
// most an unacknowledged one. Recovery replays the full WAL through the
// same DynamicMatcher event API that served the live traffic; since the
// matcher is deterministic (the churn conformance suite pins this),
// the replayed matching is byte-identical to the uninterrupted one —
// replaying only a snapshot's live set would land on a different (if
// equally optimal) matching, so snapshots are *checkpoints*, not the
// recovery path: they give the TTL sweeper a verified on-disk summary
// when it unloads an idle session, and recovery cross-checks the
// replayed size/cost against the latest snapshot to detect divergence.
package server

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/storage"
)

// walOp is the record discriminator of a session WAL.
const (
	walOpCreate = "create"
	walOpArrive = "arrive"
	walOpDepart = "depart"
	walOpResize = "resize"
)

// walEvent is one JSON-encoded session WAL record. The first record of
// every log is a walOpCreate carrying the session's full configuration
// (providers, metric, options); every later record is one churn event.
// Coordinates travel through encoding/json, which round-trips float64
// exactly, so replay feeds the matcher bit-identical inputs. Create
// records may also carry "reopt_budget", "net_landmarks" or "net_ch",
// which decoding ignores.
type walEvent struct {
	Op string `json:"op"`
	// walOpCreate: the session header.
	Providers []client.Provider `json:"providers,omitempty"`
	Metric    string            `json:"metric,omitempty"`
	NetGrid   int               `json:"net_grid,omitempty"`
	NetSeed   int64             `json:"net_seed,omitempty"`
	// walOpArrive (ID, X, Y) / walOpDepart (ID).
	ID int64   `json:"id,omitempty"`
	X  float64 `json:"x,omitempty"`
	Y  float64 `json:"y,omitempty"`
	// walOpResize.
	Provider int `json:"provider,omitempty"`
	Cap      int `json:"cap,omitempty"`
}

// sessionSnapshot is the checkpoint payload: the live customer set and
// matching summary as of Events applied events. It is intentionally not
// sufficient to rebuild the matcher byte-identically (see the package
// comment); Size/Cost let recovery verify a full-WAL replay that caught
// up to Events, and Live documents the working set for operators.
type sessionSnapshot struct {
	ID       string            `json:"id"`
	Events   int               `json:"events"` // churn events applied (excludes create)
	Arrivals int               `json:"arrivals"`
	Size     int               `json:"size"`
	Cost     float64           `json:"cost"`
	Capacity int               `json:"capacity"`
	Live     []client.Customer `json:"live"`
}

func (s *Server) persistEnabled() bool { return s.cfg.StateDir != "" }

func (s *Server) sessionsDir() string { return filepath.Join(s.cfg.StateDir, "sessions") }

func (s *Server) sessionWALPath(id string) string {
	return filepath.Join(s.sessionsDir(), id+".wal")
}

func (s *Server) sessionSnapPath(id string) string {
	return filepath.Join(s.sessionsDir(), id+".snap")
}

// buildMatcher validates a session request and constructs its matcher.
// Shared by POST /v1/sessions and WAL replay, so a session that was
// valid at creation always revalidates on recovery (and both paths hit
// the same network-metric memo and bounds).
func (s *Server) buildMatcher(req client.SessionRequest) (*cca.DynamicMatcher, int, error) {
	if len(req.Providers) == 0 {
		return nil, 0, fmt.Errorf("no providers")
	}
	// reopt_budget selects nothing (every event leaves the exact
	// optimum), but keeps its validation so no request changes status.
	if req.ReoptBudget < 0 {
		return nil, 0, fmt.Errorf("reopt_budget must be >= 0, got %d", req.ReoptBudget)
	}
	providers := make([]cca.Provider, len(req.Providers))
	capacity := 0
	for i, q := range req.Providers {
		if q.Cap <= 0 {
			return nil, 0, fmt.Errorf("provider %d: capacity must be positive, got %d", i, q.Cap)
		}
		providers[i] = cca.Provider{Pt: cca.Point{X: q.X, Y: q.Y}, Cap: q.Cap}
		capacity += q.Cap
	}
	var opts cca.DynamicOptions
	switch strings.ToLower(req.Metric) {
	case "", "euclidean":
	case "network":
		grid, seed := req.NetGrid, req.NetSeed
		if grid == 0 {
			grid = 32
		}
		if seed == 0 {
			seed = 2008
		}
		m, err := s.networkMetric(grid, seed, req.NetLandmarks, req.NetCH)
		if err != nil {
			return nil, 0, err
		}
		opts.Metric = m
	default:
		return nil, 0, fmt.Errorf("unknown metric %q (euclidean, network)", req.Metric)
	}
	return cca.NewDynamicMatcherOpts(providers, opts), capacity, nil
}

// attachWAL creates the session's log and writes its header record.
// Called for fresh sessions when persistence is on.
func (s *Server) attachWAL(sess *session, req client.SessionRequest) error {
	fs, err := storage.CreateFileStore(s.sessionWALPath(sess.id), storage.DefaultPageSize)
	if err != nil {
		return err
	}
	l, err := storage.NewLog(fs)
	if err != nil {
		fs.Close()
		return err
	}
	header := walEvent{
		Op:        walOpCreate,
		Providers: req.Providers,
		Metric:    req.Metric,
		NetGrid:   req.NetGrid,
		NetSeed:   req.NetSeed,
	}
	data, err := json.Marshal(header)
	if err != nil {
		l.Close()
		return err
	}
	if err := l.Append(data); err != nil {
		l.Close()
		return err
	}
	sess.log = l
	return nil
}

// logEvent makes one churn event durable: append + fsync, then count it
// toward the snapshot cadence. Called with sess.mu held, after the
// matcher accepted the event and before the response is written — an
// error here is reported to the client as 500 (the matcher did advance,
// but the client cannot assume the event will survive a restart).
func (s *Server) logEvent(sess *session, ev walEvent) error {
	if sess.log == nil {
		return nil
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("session persistence: %w", err)
	}
	begin := time.Now()
	if err := sess.log.Append(data); err != nil {
		return fmt.Errorf("session persistence: %w", err)
	}
	s.stats.walFsync.ObserveDuration(time.Since(begin))
	sess.events++
	if s.cfg.SnapshotEvery > 0 && sess.events%s.cfg.SnapshotEvery == 0 {
		if err := s.writeSnapshot(sess); err != nil {
			// A failed checkpoint is not a failed event: the WAL already
			// holds the record. Log and continue.
			log.Printf("ccad: session %s: snapshot: %v", sess.id, err)
		} else {
			s.stats.recordSnapshot()
		}
	}
	return nil
}

// writeSnapshot checkpoints the session's live set, as the matcher
// holds it, and its matching summary. Called with sess.mu held.
func (s *Server) writeSnapshot(sess *session) error {
	present := sess.m.LiveCustomers()
	live := make([]client.Customer, len(present))
	for i, c := range present {
		live[i] = client.Customer{ID: c.ID, X: c.Pt.X, Y: c.Pt.Y}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	snap := sessionSnapshot{
		ID:       sess.id,
		Events:   sess.events,
		Arrivals: sess.arrivals,
		Size:     sess.m.Size(),
		Cost:     sess.m.Cost(),
		Capacity: sess.m.Capacity(),
		Live:     live,
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return storage.WriteSnapshot(s.sessionSnapPath(sess.id), data)
}

// snapshotCostTolerance is the relative gap a replayed cost may keep
// from a current snapshot's. An equally optimal matching that ties
// exactly on a road network can sum its distances a few ulps apart,
// which is far below 1e-9 relative; a real divergence is far above it.
const snapshotCostTolerance = 1e-9

// replaySession rebuilds one session from its WAL, feeding every record
// through the same DynamicMatcher event API the live handlers use.
// Replay is lenient the way recovery must be: a torn final record was
// truncated by the log layer (the event was never acknowledged), and a
// per-event sentinel error (duplicate arrive / unknown depart) can only
// mean the WAL and matcher disagree — that is corruption, reported as
// an error rather than papered over.
func (s *Server) replaySession(id string) (*session, error) {
	fs, err := storage.OpenFileStore(s.sessionWALPath(id), storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	sess := &session{id: id}
	replayed := 0
	l, err := storage.OpenLog(fs, func(payload []byte) error {
		var ev walEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("record %d: %w", replayed, err)
		}
		switch ev.Op {
		case walOpCreate:
			if sess.m != nil {
				return fmt.Errorf("record %d: duplicate create", replayed)
			}
			req := client.SessionRequest{
				Providers: ev.Providers,
				Metric:    ev.Metric,
				NetGrid:   ev.NetGrid,
				NetSeed:   ev.NetSeed,
			}
			m, _, err := s.buildMatcher(req)
			if err != nil {
				return fmt.Errorf("create: %w", err)
			}
			sess.m = m
		case walOpArrive:
			if sess.m == nil {
				return fmt.Errorf("record %d: arrive before create", replayed)
			}
			if _, err := sess.m.Arrive(cca.Point{X: ev.X, Y: ev.Y}, ev.ID); err != nil {
				return fmt.Errorf("record %d: arrive %d: %w", replayed, ev.ID, err)
			}
			sess.arrivals++
			sess.events++
		case walOpDepart:
			if sess.m == nil {
				return fmt.Errorf("record %d: depart before create", replayed)
			}
			if _, err := sess.m.Depart(ev.ID); err != nil {
				return fmt.Errorf("record %d: depart %d: %w", replayed, ev.ID, err)
			}
			sess.events++
		case walOpResize:
			if sess.m == nil {
				return fmt.Errorf("record %d: resize before create", replayed)
			}
			if err := sess.m.ResizeProvider(ev.Provider, ev.Cap); err != nil {
				return fmt.Errorf("record %d: resize provider %d: %w", replayed, ev.Provider, err)
			}
			sess.events++
		default:
			return fmt.Errorf("record %d: unknown op %q", replayed, ev.Op)
		}
		replayed++
		return nil
	})
	if err != nil {
		fs.Close()
		return nil, fmt.Errorf("session %s: replay: %w", id, err)
	}
	if sess.m == nil {
		l.Close()
		return nil, fmt.Errorf("session %s: empty WAL", id)
	}
	sess.log = l
	sess.touch()
	// Cross-check against the latest checkpoint when it is current: a
	// replay that caught up to the snapshot's event count must agree on
	// the matching summary, or the state diverged (corruption): the size
	// exactly, the cost within snapshotCostTolerance.
	if data, err := storage.ReadSnapshot(s.sessionSnapPath(id)); err == nil {
		var snap sessionSnapshot
		if json.Unmarshal(data, &snap) == nil && snap.Events == sess.events {
			cost := sess.m.Cost()
			if snap.Size != sess.m.Size() ||
				math.Abs(snap.Cost-cost) > snapshotCostTolerance*math.Max(1, math.Abs(snap.Cost)) {
				l.Close()
				return nil, fmt.Errorf("session %s: replay diverged from snapshot (size %d/%d, cost %v/%v)",
					id, sess.m.Size(), snap.Size, cost, snap.Cost)
			}
		}
	}
	return sess, nil
}

// recoverSessions replays every session WAL under the state directory
// at boot. A session that fails to replay is left on disk (for post-
// mortem) but not served; recovery of the rest proceeds.
func (s *Server) recoverSessions() (int, error) {
	dir := s.sessionsDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("sessions dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("sessions dir: %w", err)
	}
	recovered := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		id := strings.TrimSuffix(e.Name(), ".wal")
		sess, err := s.replaySession(id)
		if err != nil {
			log.Printf("ccad: %v (session left on disk, not served)", err)
			continue
		}
		if err := s.sessions.put(id, sess); err != nil {
			sess.log.Close()
			log.Printf("ccad: session %s: %v", id, err)
			continue
		}
		recovered++
	}
	s.recovered = recovered
	s.stats.recordRecovered(recovered)
	return recovered, nil
}

// loadSession reloads one session from its WAL on demand — the reload
// half of the TTL sweeper's unload. Reloads are serialized (cold replay
// is expensive; two goroutines racing it would double the work and race
// the put), and the map is re-checked under that serialization.
func (s *Server) loadSession(id string) (*session, error) {
	if !s.persistEnabled() || !validSessionID(id) {
		return nil, os.ErrNotExist
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if sess, ok := s.sessions.get(id); ok {
		return sess, nil
	}
	sess, err := s.replaySession(id)
	if err != nil {
		return nil, err
	}
	if err := s.sessions.put(id, sess); err != nil {
		sess.log.Close()
		return nil, err
	}
	s.stats.recordReloaded()
	return sess, nil
}

// validSessionID mirrors newID's output: 16 lowercase hex characters.
// Path traversal through a session id is impossible by construction.
func validSessionID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// removeSessionFiles deletes a session's WAL and snapshot. Used by
// DELETE (a deleted session is gone permanently, unlike a swept one).
func (s *Server) removeSessionFiles(id string) {
	if !s.persistEnabled() || !validSessionID(id) {
		return
	}
	os.Remove(s.sessionWALPath(id))
	os.Remove(s.sessionSnapPath(id))
}

// sweepLoop runs the session TTL sweeper until stop closes.
func (s *Server) sweepLoop() {
	interval := s.cfg.SessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sweepIdleSessions()
		}
	}
}

// sweepIdleSessions checkpoints and unloads every session idle past the
// TTL. With persistence on, an unloaded session's state lives entirely
// in its WAL + snapshot and a later touch reloads it; without a state
// directory, expiry is deletion (documented: -session-ttl without
// -state-dir discards idle sessions).
func (s *Server) sweepIdleSessions() int {
	cutoff := time.Now().Add(-s.cfg.SessionTTL).UnixNano()
	swept := 0
	for id, sess := range s.sessions.snapshot() {
		if sess.lastTouch.Load() > cutoff {
			continue
		}
		sess.mu.Lock()
		// Re-check under the session lock: a handler may have touched it
		// between the snapshot and here, or a concurrent delete won.
		if sess.gone || sess.lastTouch.Load() > cutoff {
			sess.mu.Unlock()
			continue
		}
		if sess.log != nil {
			if err := s.writeSnapshot(sess); err != nil {
				log.Printf("ccad: session %s: checkpoint on unload: %v", id, err)
			}
			sess.log.Close()
			sess.log = nil
		}
		sess.gone = true
		sess.mu.Unlock()
		s.sessions.removeIfSame(id, sess)
		s.stats.recordExpired()
		swept++
	}
	return swept
}
