package cca

import "repro/internal/core"

// Sentinel errors of the dynamic event API, for errors.Is branching.
// The ccad session endpoints map them to HTTP 409 and 404.
var (
	// ErrDuplicateID rejects an arrival whose customer id was ever seen
	// before in the session, including ids that have already departed.
	ErrDuplicateID = core.ErrDuplicateID
	// ErrUnknownID rejects a departure of an id that is not currently
	// present, and a resize of a provider index out of range.
	ErrUnknownID = core.ErrUnknownID
)

// DynamicOptions configures a DynamicMatcher beyond the zero-value
// behavior (Euclidean metric, no periodic oracle).
type DynamicOptions = core.DynamicOptions

// ChurnStats counts a matcher's event history, the repairs it ran and
// the drift its periodic oracle measured.
type ChurnStats = core.ChurnStats

// DynamicMatcher maintains a minimum-cost maximum matching under the
// full churn model — customer arrivals and departures plus provider
// capacity resizes — the incremental-assignment extension referenced
// by the paper's related work ([11]) and future-work section. The
// matching after every event is exactly what the batch solver would
// compute on the live instance, at the cost of one reduced-cost
// Dijkstra per unit of capacity or demand the event changes.
//
// It holds the bipartite graph in memory and is meant for online,
// moderate-|Q| workloads; use Solve for the disk-resident batch
// setting.
type DynamicMatcher = core.DynamicMatcher

// NewDynamicMatcher starts an empty matching over the given providers
// with default options (Euclidean).
func NewDynamicMatcher(providers []Provider) *DynamicMatcher {
	return core.NewDynamicMatcher(providers)
}

// NewDynamicMatcherOpts starts an empty matching with explicit
// options. The provider slice is copied: ResizeProvider mutates the
// matcher's view, never the caller's.
func NewDynamicMatcherOpts(providers []Provider, opts DynamicOptions) *DynamicMatcher {
	return core.NewDynamicMatcherOpts(providers, opts)
}
