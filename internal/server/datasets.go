package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/dataio"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// datasetStore serves named customer datasets from a directory of
// <name>.csv files (dataio's id,x,y format). Each dataset is read and
// R-tree-indexed once, on first use, then shared across requests — the
// engine clones a cold buffer handle per solve, so sharing is safe, and
// because every request resolves to the same *cca.Customers (same
// dataset identity), repeated solves hit the engine's result cache.
//
// With a state directory configured, the index pages live in a
// storage.FileStore behind the paper's 1% LRU buffer instead of the
// heap: the buffer's frames are the only resident pages, so cold
// datasets page out instead of pinning memory, and DELETE
// /v1/datasets/{name} evicts the whole index (the CSV stays; the next
// query reloads it cold, with its faults visible in /metrics under the
// paper's 10 ms-per-fault accounting).
//
// Loading runs outside the store lock (per-entry sync.Once), so one
// cold multi-million-row load never stalls requests for already-loaded
// datasets, listings, or metrics scrapes. Eviction is refcounted
// against in-flight solves: a solve holds its entry from prepare to
// collect, and an evicted entry's page store closes only after the last
// holder releases it.
type datasetStore struct {
	dir      string
	pagesDir string     // page-file directory; "" = in-memory page stores
	mu       sync.Mutex // guards the maps only, never a load
	loaded   map[string]*dsEntry
	io       map[string]*dsIO // per-name fault accounting, survives evictions
	evicted  uint64
	uploads  uint64
}

// dsEntry is one named dataset's lazily computed load result.
type dsEntry struct {
	once sync.Once
	done atomic.Bool // set after once ran; guards c/err for non-waiters
	c    *cca.Customers
	err  error

	mu       sync.Mutex // guards refs / gone
	refs     int        // in-flight solves holding this entry
	gone     bool       // evicted; close the store when refs drains to 0
	closeErr error
}

// dsIO accumulates the paper's fault accounting for one dataset name
// across loads (the entry itself dies on eviction, the counters do not).
type dsIO struct {
	faults uint64
	hits   uint64
	ioTime time.Duration
}

func (d *datasetStore) init(dir, stateDir string) error {
	d.dir = dir
	d.loaded = make(map[string]*dsEntry)
	d.io = make(map[string]*dsIO)
	if stateDir != "" {
		d.pagesDir = filepath.Join(stateDir, "datasets")
		if err := os.MkdirAll(d.pagesDir, 0o755); err != nil {
			return fmt.Errorf("dataset pages dir: %w", err)
		}
	}
	return nil
}

// validName guards against path traversal: a dataset name is a bare
// file stem, no separators, no leading dot.
func validName(name string) bool {
	if name == "" || strings.HasPrefix(name, ".") {
		return false
	}
	return !strings.ContainsAny(name, `/\`)
}

// acquire returns the named dataset with a reference held, loading and
// indexing it on first use. The caller must release() the entry when its
// solve finishes; eviction defers the store close until then.
// Concurrent callers of the same cold name share one load; a failed
// load is forgotten so the name can be retried (e.g. after the file
// appears).
func (d *datasetStore) acquire(name string) (*dsEntry, error) {
	if d.dir == "" {
		return nil, fmt.Errorf("no dataset directory configured (ccad -data)")
	}
	if !validName(name) {
		return nil, fmt.Errorf("invalid dataset name %q", name)
	}
	for {
		d.mu.Lock()
		e, ok := d.loaded[name]
		if !ok {
			e = &dsEntry{}
			d.loaded[name] = e
		}
		d.mu.Unlock()

		e.once.Do(func() {
			defer e.done.Store(true)
			items, err := dataio.ReadCustomersFile(filepath.Join(d.dir, name+".csv"))
			if err != nil {
				if os.IsNotExist(err) {
					e.err = fmt.Errorf("unknown dataset %q", name)
				} else {
					e.err = fmt.Errorf("dataset %q: %w", name, err)
				}
				return
			}
			c, err := d.index(name, items)
			if err != nil {
				e.err = fmt.Errorf("dataset %q: index: %w", name, err)
				return
			}
			e.c = c
		})
		if e.err != nil {
			d.mu.Lock()
			if d.loaded[name] == e {
				delete(d.loaded, name)
			}
			d.mu.Unlock()
			return nil, e.err
		}
		e.mu.Lock()
		if e.gone {
			// Evicted between lookup and ref — retry against the fresh map
			// state (a new entry reloads the dataset).
			e.mu.Unlock()
			continue
		}
		e.refs++
		e.mu.Unlock()
		return e, nil
	}
}

// index bulk-loads items into a page store: in memory, or under a
// state directory as <name>.pages. The file is written under a fresh
// temporary name and renamed into place, because an evicted entry's
// in-flight solves still read the <name>.pages they opened, and
// truncating it in place would cut their pages from under them.
func (d *datasetStore) index(name string, items []rtree.Item) (*cca.Customers, error) {
	if d.pagesDir == "" {
		return cca.IndexItems(items, cca.IndexConfig{})
	}
	tmp, err := os.CreateTemp(d.pagesDir, name+".pages.tmp*")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	c, err := cca.IndexItems(items, cca.IndexConfig{Path: tmp.Name()})
	if err == nil {
		if err = os.Rename(tmp.Name(), filepath.Join(d.pagesDir, name+".pages")); err != nil {
			c.Close()
		}
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	return c, nil
}

// release drops one in-flight reference; the last release after an
// eviction closes the entry's page store.
func (e *dsEntry) release() {
	e.mu.Lock()
	e.refs--
	closeNow := e.gone && e.refs == 0 && e.c != nil
	e.mu.Unlock()
	if closeNow {
		e.closeErr = e.c.Close()
	}
}

// evict drops the named dataset's in-memory index. The files stay on
// disk; the page store closes once no in-flight solve holds the entry.
// It reports whether an index was resident.
func (d *datasetStore) evict(name string) bool {
	d.mu.Lock()
	e, ok := d.loaded[name]
	if ok {
		delete(d.loaded, name)
		d.evicted++
	}
	d.mu.Unlock()
	if !ok || !e.done.Load() || e.err != nil {
		return false
	}
	e.mu.Lock()
	e.gone = true
	closeNow := e.refs == 0 && e.c != nil
	e.mu.Unlock()
	if closeNow {
		e.closeErr = e.c.Close()
	}
	return true
}

// upload validates r as dataio CSV and commits it as <name>.csv,
// atomically replacing any existing dataset of that name (whose index,
// if resident, is evicted so the next query sees the new rows). It
// returns the row count.
func (d *datasetStore) upload(name string, r io.Reader) (int, error) {
	if d.dir == "" {
		return 0, fmt.Errorf("no dataset directory configured (ccad -data)")
	}
	if !validName(name) {
		return 0, fmt.Errorf("invalid dataset name %q", name)
	}
	items, err := dataio.ReadCustomers(r)
	if err != nil {
		return 0, fmt.Errorf("dataset %q: %w", name, err)
	}
	if len(items) == 0 {
		return 0, fmt.Errorf("dataset %q: no rows", name)
	}
	// Write normalized rows to a temp file in the same directory, then
	// rename over the final path so a crashed upload never leaves a
	// half-written CSV behind.
	tmp, err := os.CreateTemp(d.dir, name+".csv.tmp*")
	if err != nil {
		return 0, fmt.Errorf("dataset %q: %w", name, err)
	}
	defer os.Remove(tmp.Name())
	if err := dataio.WriteCustomers(tmp, items); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("dataset %q: write: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("dataset %q: sync: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("dataset %q: close: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(d.dir, name+".csv")); err != nil {
		return 0, fmt.Errorf("dataset %q: commit: %w", name, err)
	}
	d.evict(name)
	d.mu.Lock()
	d.uploads++
	d.mu.Unlock()
	return len(items), nil
}

// recordIO folds one non-cached solve's buffer stats into the dataset's
// lifetime fault accounting.
func (d *datasetStore) recordIO(name string, st storage.Stats) {
	d.mu.Lock()
	agg := d.io[name]
	if agg == nil {
		agg = &dsIO{}
		d.io[name] = agg
	}
	agg.faults += uint64(st.Faults)
	agg.hits += uint64(st.Hits)
	agg.ioTime += st.IOTime()
	d.mu.Unlock()
}

// ioSnapshot returns the per-dataset fault accounting, sorted by name.
func (d *datasetStore) ioSnapshot() (names []string, aggs []dsIO) {
	d.mu.Lock()
	for name, agg := range d.io {
		names = append(names, name)
		aggs = append(aggs, *agg)
	}
	d.mu.Unlock()
	sort.Sort(&ioByName{names, aggs})
	return names, aggs
}

type ioByName struct {
	names []string
	aggs  []dsIO
}

func (s *ioByName) Len() int           { return len(s.names) }
func (s *ioByName) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *ioByName) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.aggs[i], s.aggs[j] = s.aggs[j], s.aggs[i]
}

// list scans the directory for datasets; resident ones report their
// index and residency stats, unloaded ones -1 customers.
func (d *datasetStore) list() ([]client.DatasetInfo, error) {
	out := []client.DatasetInfo{}
	if d.dir == "" {
		return out, nil
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("dataset directory: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".csv")
		if !validName(name) {
			continue
		}
		info := client.DatasetInfo{Name: name, Customers: -1}
		if le, ok := d.loaded[name]; ok && le.done.Load() && le.err == nil {
			info.Customers = le.c.Len()
			info.Resident = true
			info.Pages = le.c.Pages()
			info.PageSize = le.c.PageSize()
			info.Bytes = int64(info.Pages) * int64(info.PageSize)
			info.ResidentPages = le.c.BufferResident()
			info.BufferPages = le.c.BufferFrames()
		}
		if agg, ok := d.io[name]; ok {
			info.Faults = agg.faults
			info.IONS = int64(agg.ioTime)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// residentInfos returns stats for the currently resident datasets (for
// /metrics gauges), sorted by name.
func (d *datasetStore) residentInfos() []client.DatasetInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := []client.DatasetInfo{}
	for name, e := range d.loaded {
		if e.done.Load() && e.err == nil {
			out = append(out, client.DatasetInfo{
				Name:          name,
				Pages:         e.c.Pages(),
				ResidentPages: e.c.BufferResident(),
				BufferPages:   e.c.BufferFrames(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// loadedCount returns how many datasets are currently indexed.
func (d *datasetStore) loadedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, e := range d.loaded {
		if e.done.Load() && e.err == nil {
			n++
		}
	}
	return n
}

// counts returns the lifetime upload and eviction counters.
func (d *datasetStore) counts() (uploads, evicted uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.uploads, d.evicted
}

// maxDatasetBody bounds an uploaded CSV — the same ceiling as a solve
// body (room for roughly two million rows).
const maxDatasetBody = maxSolveBody

// handleDatasetUpload serves POST /v1/datasets/{name}: the body is a
// dataio CSV (id,x,y per line); the server validates it fully before
// committing, so a malformed upload never replaces a good dataset.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	releaseRead, ok := s.admitRead(w)
	if !ok {
		return
	}
	defer releaseRead()
	name := r.PathValue("name")
	n, err := s.datasets.upload(name, http.MaxBytesReader(w, r.Body, maxDatasetBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, client.DatasetInfo{Name: name, Customers: n})
}

// handleDatasetEvict serves DELETE /v1/datasets/{name}: drop the
// in-memory index (refcounted against in-flight solves). The CSV stays;
// deletion of the data itself is an operator action on the directory,
// not an API surface.
func (s *Server) handleDatasetEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid dataset name %q", name))
		return
	}
	if s.cfg.DataDir == "" {
		writeError(w, http.StatusBadRequest, "no dataset directory configured (ccad -data)")
		return
	}
	if _, err := os.Stat(filepath.Join(s.cfg.DataDir, name+".csv")); err != nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name))
		return
	}
	was := s.datasets.evict(name)
	writeJSON(w, http.StatusOK, client.DatasetEvictResponse{Name: name, WasResident: was})
}
