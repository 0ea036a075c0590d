// Package cca is a Go implementation of Capacity Constrained Assignment
// in spatial databases, reproducing "Capacity Constrained Assignment in
// Spatial Databases" (Leong Hou U, Man Lung Yiu, Kyriakos Mouratidis,
// Nikos Mamoulis; SIGMOD 2008).
//
// Given a large set of customers P (points, disk-resident, R-tree
// indexed) and a small set of service providers Q (points with
// capacities), CCA computes the maximum-size matching M ⊆ Q×P that
// respects every provider's capacity, assigns each customer at most
// once, and minimizes the total Euclidean distance Ψ(M).
//
// The package exposes:
//
//   - one solve entry point, Solve (and SolveContext), that runs any
//     registered solver by name: the exact algorithms "ida" (the
//     paper's best), "nia", "ria", the classical baselines "sspa" and
//     "hungarian", the greedy spatial-matching join "greedy", and the
//     approximate "sa" and "ca", whose results carry their Theorem 3/4
//     error bound (Solvers lists them all);
//   - Engine, which runs many solves concurrently through the same
//     registry, and DynamicMatcher, which keeps a matching optimal under
//     customer arrivals, departures and capacity resizes;
//   - a Customers dataset type wrapping the paged, LRU-buffered R-tree,
//     with in-memory and on-disk backends and I/O accounting under the
//     paper's 10 ms/page-fault cost model.
//
// A minimal end-to-end use:
//
//	customers, _ := cca.IndexCustomers(points)
//	providers := []cca.Provider{{Pt: cca.Point{X: 10, Y: 20}, Cap: 3}}
//	result, _ := cca.Solve("ida", providers, customers, nil)
//	for _, pair := range result.Pairs { ... }
package cca

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Point is a location in the plane.
type Point = geo.Point

// Rect is an axis-aligned rectangle (used for data-space hints).
type Rect = geo.Rect

// Provider is a capacitated service provider (q with capacity q.k).
type Provider = core.Provider

// Pair is one (provider, customer) assignment in a matching.
type Pair = core.Pair

// Result is a computed matching with its cost Ψ(M) and run metrics.
type Result = core.Result

// Metrics describes the work an algorithm performed (subgraph size, CPU
// time, simulated I/O time, ...).
type Metrics = core.Metrics

// Options tunes the exact algorithms; nil selects the paper's defaults.
type Options = core.Options

// IOStats aggregates buffer-manager activity.
type IOStats = storage.Stats

// Customer is a point with an identifier, as stored in the R-tree.
type Customer = rtree.Item

// Customers is the customer dataset: an R-tree over paged storage with
// an LRU buffer, as the paper's setting prescribes (§5.1).
type Customers struct {
	tree  *rtree.Tree
	buf   *storage.Buffer
	store storage.Store
	owner bool // this handle owns (and Close closes) the page store
	// id identifies the underlying dataset across handles: clones share
	// it, distinct datasets never do. The engine's cross-instance result
	// cache keys on it, so a recycled pointer can never alias a stale
	// cache entry the way a raw *Customers key could.
	id uint64
}

// datasetIDs hands out process-unique dataset identities.
var datasetIDs atomic.Uint64

// IndexConfig controls how a customer dataset is indexed.
type IndexConfig struct {
	// PageSize is the R-tree page size in bytes (default 1024, the
	// paper's setting).
	PageSize int
	// BufferFraction sizes the LRU buffer as a fraction of the tree
	// (default 0.01, the paper's 1%). Ignored when BufferPages > 0.
	BufferFraction float64
	// BufferPages sizes the LRU buffer in pages directly.
	BufferPages int
	// Path, when non-empty, stores the R-tree in a page file on disk;
	// otherwise an in-memory page store simulates the disk.
	Path string
}

func (c IndexConfig) withDefaults() IndexConfig {
	if c.PageSize <= 0 {
		c.PageSize = storage.DefaultPageSize
	}
	if c.BufferFraction <= 0 {
		c.BufferFraction = 0.01
	}
	return c
}

// IndexCustomers bulk-loads points into a fresh R-tree using the default
// configuration (1 KB pages, in-memory store, 1% LRU buffer).
func IndexCustomers(points []Point) (*Customers, error) {
	return IndexCustomersConfig(points, IndexConfig{})
}

// IndexCustomersConfig bulk-loads points into a fresh R-tree.
func IndexCustomersConfig(points []Point, cfg IndexConfig) (*Customers, error) {
	cfg = cfg.withDefaults()
	items := make([]rtree.Item, len(points))
	for i, p := range points {
		items[i] = rtree.Item{ID: int64(i), Pt: p}
	}
	return IndexItems(items, cfg)
}

// IndexItems bulk-loads pre-identified items into a fresh R-tree.
func IndexItems(items []rtree.Item, cfg IndexConfig) (*Customers, error) {
	cfg = cfg.withDefaults()
	var store storage.Store
	if cfg.Path != "" {
		fs, err := storage.CreateFileStore(cfg.Path, cfg.PageSize)
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		store = storage.NewMemStore(cfg.PageSize)
	}
	// Bulk-load through a large temporary buffer, then rewrap with the
	// experiment-sized buffer so loading does not distort query stats.
	loadBuf := storage.NewBuffer(store, 1<<20)
	tree, err := rtree.Bulk(loadBuf, items)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := tree.Flush(); err != nil {
		store.Close()
		return nil, err
	}
	buf := storage.NewBuffer(store, cfg.frames(store))
	reopened, err := rtree.Open(buf)
	if err != nil {
		store.Close()
		return nil, err
	}
	return &Customers{tree: reopened, buf: buf, store: store, owner: true, id: datasetIDs.Add(1)}, nil
}

// frames computes the effective LRU buffer size in pages, clamped to at
// least one frame: a fractional buffer over a small store truncates to
// zero, and relying on storage.NewBuffer's hidden clamp would leave the
// effective size unobservable. Callers can read the result back through
// Customers.BufferFrames.
func (c IndexConfig) frames(store storage.Store) int {
	frames := c.BufferPages
	if frames <= 0 {
		frames = int(c.BufferFraction * float64(store.NumPages()))
	}
	if frames < 1 {
		frames = 1
	}
	return frames
}

// OpenCustomers opens a customer R-tree previously persisted to a page
// file by IndexItems/IndexCustomersConfig with a non-empty Path.
func OpenCustomers(path string, cfg IndexConfig) (*Customers, error) {
	cfg = cfg.withDefaults()
	fs, err := storage.OpenFileStore(path, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	buf := storage.NewBuffer(fs, cfg.frames(fs))
	tree, err := rtree.Open(buf)
	if err != nil {
		fs.Close()
		return nil, err
	}
	return &Customers{tree: tree, buf: buf, store: fs, owner: true, id: datasetIDs.Add(1)}, nil
}

// Clone returns an independent handle onto the same customer data: a
// fresh (cold) LRU buffer of the same capacity over the shared page
// store, with its own I/O counters. Handles never share mutable state,
// so distinct handles can serve queries from distinct goroutines
// concurrently — the batch engine gives each in-flight solve its own
// handle for exactly this reason. Closing a clone does not close the
// shared store; only the original handle's Close does.
func (c *Customers) Clone() (*Customers, error) {
	buf := storage.NewBuffer(c.store, c.buf.Frames())
	tree, err := rtree.Open(buf)
	if err != nil {
		return nil, err
	}
	return &Customers{tree: tree, buf: buf, store: c.store, owner: false, id: c.id}, nil
}

// Len returns the number of indexed customers.
func (c *Customers) Len() int { return c.tree.Size() }

// Pages returns the number of pages in the dataset's page store.
func (c *Customers) Pages() int { return c.store.NumPages() }

// PageSize returns the dataset's page size in bytes.
func (c *Customers) PageSize() int { return c.store.PageSize() }

// BufferResident returns the number of pages currently cached in this
// handle's LRU buffer.
func (c *Customers) BufferResident() int { return c.buf.Resident() }

// BufferFrames returns the effective LRU buffer capacity in pages — the
// explicitly clamped size computed at indexing time.
func (c *Customers) BufferFrames() int { return c.buf.Frames() }

// Tree exposes the underlying R-tree (for advanced use and experiments).
func (c *Customers) Tree() *rtree.Tree { return c.tree }

// IOStats returns the buffer-manager counters accumulated so far.
func (c *Customers) IOStats() IOStats { return c.buf.Stats() }

// ResetIOStats zeroes the I/O counters (the cache content is kept).
func (c *Customers) ResetIOStats() { c.buf.ResetStats() }

// DropCache evicts all buffered pages, forcing a cold start.
func (c *Customers) DropCache() { c.buf.DropCache() }

// All returns every indexed customer.
func (c *Customers) All() ([]Customer, error) { return c.tree.All() }

// RangeSearch returns the customers within Euclidean distance r of
// center (the r-range query of §2.3).
func (c *Customers) RangeSearch(center Point, r float64) ([]Customer, error) {
	return c.tree.RangeSearch(center, r)
}

// KNN returns the k customers closest to q in ascending distance order
// (the K-nearest-neighbor query of §2.3, via best-first search [7]).
func (c *Customers) KNN(q Point, k int) ([]Customer, error) {
	return c.tree.KNN(q, k)
}

// Close releases the underlying page store. On a handle produced by
// Clone it is a no-op: the original handle owns the store.
func (c *Customers) Close() error {
	if !c.owner {
		return nil
	}
	return c.store.Close()
}

// Validate checks a result against the problem definition: every
// provider within capacity, every customer at most once, pair distances
// consistent, the reported size equal to the number of pairs, and
// |M| = min(|P|, Σ q.k). It returns nil for a valid
// optimal-size matching.
func Validate(providers []Provider, customers *Customers, res *Result) error {
	used := make([]int, len(providers))
	seen := make(map[int64]bool, len(res.Pairs))
	sum := 0.0
	for _, p := range res.Pairs {
		if p.Provider < 0 || p.Provider >= len(providers) {
			return fmt.Errorf("cca: pair references provider %d of %d", p.Provider, len(providers))
		}
		if seen[p.CustomerID] {
			return fmt.Errorf("cca: customer %d assigned twice", p.CustomerID)
		}
		seen[p.CustomerID] = true
		used[p.Provider]++
		sum += p.Dist
	}
	for q, u := range used {
		if u > providers[q].Cap {
			return fmt.Errorf("cca: provider %d over capacity (%d > %d)", q, u, providers[q].Cap)
		}
	}
	gamma := 0
	for _, p := range providers {
		gamma += p.Cap
	}
	if n := customers.Len(); n < gamma {
		gamma = n
	}
	if res.Size != len(res.Pairs) {
		return fmt.Errorf("cca: matching size %d, but %d pairs listed", res.Size, len(res.Pairs))
	}
	if res.Size != gamma {
		return fmt.Errorf("cca: matching size %d, want γ = %d", res.Size, gamma)
	}
	// Inverted so that NaN and ±Inf fail too: every comparison with NaN
	// is false, and an infinite cost leaves d infinite or NaN.
	if d := math.Abs(sum - res.Cost); !(d <= 1e-6) {
		return fmt.Errorf("cca: cost %v does not match pair sum %v", res.Cost, sum)
	}
	return nil
}
