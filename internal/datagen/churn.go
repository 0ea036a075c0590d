package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geo"
	"repro/internal/pqueue"
)

// Churn workloads: named, seeded generators of online event streams
// (arrive / depart / resize) for the dynamic matcher. Each scenario
// models a workload family from the ROADMAP's online-matching item —
// ride-hailing, delivery dispatch, disaster evacuation, diurnal load —
// and every stream is valid by construction: ids are unique, departs
// reference live customers, resize targets are in range with
// non-negative capacities. The expr harness, ccabench -serve, the ccad
// session wire format, and the fuzz/conformance suites all replay
// these streams.

// EventKind discriminates churn events.
type EventKind uint8

const (
	// EventArrive adds customer ID at Pt.
	EventArrive EventKind = iota
	// EventDepart removes customer ID.
	EventDepart
	// EventResize sets provider Provider's capacity to NewCap.
	EventResize
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventArrive:
		return "arrive"
	case EventDepart:
		return "depart"
	case EventResize:
		return "resize"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one step of a churn stream.
type Event struct {
	Kind     EventKind
	ID       int64     // customer id (arrive / depart)
	Pt       geo.Point // arrival location, on the network
	Provider int       // resize target index
	NewCap   int       // resize capacity (>= 0; 0 is a full shock)
}

// ProviderSpec is a provider's initial placement and capacity.
type ProviderSpec struct {
	Pt  geo.Point
	Cap int
}

// ChurnWorkload is a generated scenario instance.
type ChurnWorkload struct {
	Scenario  string
	Providers []ProviderSpec
	Events    []Event
}

// ChurnConfig sizes a scenario.
type ChurnConfig struct {
	Events    int   // total events (default 1000)
	Providers int   // |Q| (default 32)
	Seed      int64 // deterministic: same config, same stream
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Events <= 0 {
		c.Events = 1000
	}
	if c.Providers <= 0 {
		c.Providers = 32
	}
	return c
}

// churnScenario is a registry entry.
type churnScenario struct {
	desc string
	gen  func(n *Network, cfg ChurnConfig) *ChurnWorkload
}

var churnScenarios = map[string]churnScenario{
	"ridehail": {
		desc: "bursty arrivals, short-lived customers, steady provider fleet",
		gen:  genRidehail,
	},
	"delivery": {
		desc: "depot-skewed capacities: few large depots, many small couriers",
		gen:  genDelivery,
	},
	"evacuation": {
		desc: "capacity shocks: shelters drop to zero and recover via resize",
		gen:  genEvacuation,
	},
	"diurnal": {
		desc: "sinusoidal arrival rate over two simulated days",
		gen:  genDiurnal,
	},
}

// ChurnScenarios lists the registered scenario names, sorted.
func ChurnScenarios() []string {
	out := make([]string, 0, len(churnScenarios))
	for name := range churnScenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ChurnScenarioDescription returns the one-line description of a
// scenario ("" when unknown).
func ChurnScenarioDescription(name string) string {
	return churnScenarios[name].desc
}

// NewChurn generates the named scenario's workload on the given
// network.
func NewChurn(name string, n *Network, cfg ChurnConfig) (*ChurnWorkload, error) {
	s, ok := churnScenarios[name]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown churn scenario %q (available: %v)", name, ChurnScenarios())
	}
	w := s.gen(n, cfg.withDefaults())
	w.Scenario = name
	return w, nil
}

// churnBuilder accumulates a valid event stream: arrivals get unique
// ids and scheduled lifetimes; due departures are emitted before new
// work.
type churnBuilder struct {
	events []Event
	lives  pqueue.Heap // scheduled departures: handle = customer id, key = due event index
	nextID int64
}

func (b *churnBuilder) len() int { return len(b.events) }

// arrive emits an arrival at pt whose departure falls due `lifetime`
// events from now (0 = never departs within the stream).
func (b *churnBuilder) arrive(pt geo.Point, lifetime int) {
	id := b.nextID
	b.nextID++
	b.events = append(b.events, Event{Kind: EventArrive, ID: id, Pt: pt})
	if lifetime > 0 {
		b.lives.Push(int32(id), float64(len(b.events)+lifetime))
	}
}

// departDue emits at most one due departure; reports whether it did.
func (b *churnBuilder) departDue() bool {
	if b.lives.Len() == 0 || b.lives.Peek().Key > float64(len(b.events)) {
		return false
	}
	b.departNext()
	return true
}

// departNext emits the departure of the customer scheduled to leave
// first, due or not. At least one departure must be scheduled.
func (b *churnBuilder) departNext() {
	b.events = append(b.events, Event{Kind: EventDepart, ID: int64(b.lives.Pop().H)})
}

func (b *churnBuilder) resize(provider, newCap int) {
	b.events = append(b.events, Event{Kind: EventResize, Provider: provider, NewCap: newCap})
}

// genRidehail models a ride-hailing floor: a steady fleet (capacities
// 2–5), arrivals in Poisson-like bursts (a burst state multiplies the
// arrival probability), and short customer lifetimes so the live set
// turns over constantly.
func genRidehail(n *Network, cfg ChurnConfig) *ChurnWorkload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	providers := uniformProviders(n, rng, cfg.Providers, 2, 5)
	b := &churnBuilder{}
	burst := false
	for b.len() < cfg.Events {
		if rng.Float64() < 0.08 {
			burst = !burst
		}
		if b.departDue() {
			continue
		}
		pArrive := 0.55
		if burst {
			pArrive = 0.95
		}
		if rng.Float64() < pArrive {
			// Rides last 12–60 events.
			b.arrive(n.randomEdgePoint(rng), 12+rng.Intn(49))
		} else if b.lives.Len() > 0 {
			// Early cancellation of the next-scheduled rider.
			b.departNext()
		}
	}
	return &ChurnWorkload{Providers: providers, Events: b.events}
}

// genDelivery models dispatch from depots: a handful of high-capacity
// depots at cluster hubs plus many capacity-1 couriers, arrivals
// clustered near the depots, medium lifetimes, and occasional ±1
// courier resizes as trucks return or leave.
func genDelivery(n *Network, cfg ChurnConfig) *ChurnWorkload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nDepots := cfg.Providers / 8
	if nDepots < 1 {
		nDepots = 1
	}
	providers := make([]ProviderSpec, cfg.Providers)
	for i := range providers {
		cap := 1 + rng.Intn(2)
		if i < nDepots {
			cap = 8 + rng.Intn(9) // depot-skewed: one depot ~ many couriers
		}
		providers[i] = ProviderSpec{Pt: n.randomEdgePoint(rng), Cap: cap}
	}
	// The spec reports initial state; a working copy tracks the ±1
	// resize walk so successive resizes stay a plausible random walk.
	working := make([]int, len(providers))
	for i, p := range providers {
		working[i] = p.Cap
	}
	// Orders arrive clustered around the depots' neighborhoods.
	pts := n.Points(Config{N: cfg.Events, Dist: Clustered, Clusters: nDepots + 2, Seed: cfg.Seed + 1})
	next := 0
	b := &churnBuilder{}
	for b.len() < cfg.Events {
		if b.departDue() {
			continue
		}
		switch {
		case rng.Float64() < 0.06:
			// A courier's truck returns (or leaves): bump a non-depot
			// provider by ±1, floor 0.
			i := nDepots + rng.Intn(cfg.Providers-nDepots)
			delta := 1
			if rng.Float64() < 0.5 {
				delta = -1
			}
			if working[i]+delta < 0 {
				delta = 1
			}
			working[i] += delta
			b.resize(i, working[i])
		default:
			b.arrive(pts[next%len(pts)], 20+rng.Intn(60))
			next++
		}
	}
	return &ChurnWorkload{Providers: providers, Events: b.events}
}

// genEvacuation models shelters under a disaster: clustered arrivals
// (population fleeing), very few departures, and capacity shocks — a
// shelter abruptly drops to zero (flooded, closed) and later recovers
// to its original capacity.
func genEvacuation(n *Network, cfg ChurnConfig) *ChurnWorkload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	providers := uniformProviders(n, rng, cfg.Providers, 4, 10)
	initial := make([]int, len(providers))
	for i, p := range providers {
		initial[i] = p.Cap
	}
	down := map[int]int{} // shelter index → events until recovery
	pts := n.Points(Config{N: cfg.Events, Dist: Clustered, Clusters: 4, Seed: cfg.Seed + 1})
	next := 0
	b := &churnBuilder{}
	for b.len() < cfg.Events {
		// Recover shelters whose outage elapsed (index order: the down
		// set is a map, and streams must be deterministic by seed).
		recovered := -1
		for i := range providers {
			if until, isDown := down[i]; isDown && until <= b.len() {
				recovered = i
				break
			}
		}
		if recovered >= 0 {
			delete(down, recovered)
			b.resize(recovered, initial[recovered])
			continue
		}
		if b.departDue() {
			continue
		}
		switch {
		case rng.Float64() < 0.04 && len(down) < len(providers)/2:
			i := rng.Intn(len(providers))
			if _, isDown := down[i]; !isDown {
				down[i] = b.len() + 30 + rng.Intn(60)
				b.resize(i, 0)
				continue
			}
			fallthrough
		default:
			// Evacuees stay long; a few leave (found other arrangements).
			life := 0
			if rng.Float64() < 0.25 {
				life = 40 + rng.Intn(80)
			}
			b.arrive(pts[next%len(pts)], life)
			next++
		}
	}
	return &ChurnWorkload{Providers: providers, Events: b.events}
}

// genDiurnal modulates the arrival rate sinusoidally over two
// simulated days, with lifetimes long enough that the live population
// follows the curve.
func genDiurnal(n *Network, cfg ChurnConfig) *ChurnWorkload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	providers := uniformProviders(n, rng, cfg.Providers, 2, 4)
	b := &churnBuilder{}
	for b.len() < cfg.Events {
		if b.departDue() {
			continue
		}
		// Two full cycles across the stream; rate swings 0.15..0.95.
		phase := 2 * math.Pi * 2 * float64(b.len()) / float64(cfg.Events)
		rate := 0.55 + 0.40*math.Sin(phase)
		if rng.Float64() < rate {
			b.arrive(n.randomEdgePoint(rng), 15+rng.Intn(40))
		} else {
			// Off-peak idle tick: emit the soonest scheduled departure
			// early so the pool drains when arrivals ebb.
			if b.lives.Len() > 0 {
				b.departNext()
			} else {
				b.arrive(n.randomEdgePoint(rng), 15+rng.Intn(40))
			}
		}
	}
	return &ChurnWorkload{Providers: providers, Events: b.events}
}

func uniformProviders(n *Network, rng *rand.Rand, count, lo, hi int) []ProviderSpec {
	out := make([]ProviderSpec, count)
	for i := range out {
		out[i] = ProviderSpec{
			Pt:  n.randomEdgePoint(rng),
			Cap: lo + rng.Intn(hi-lo+1),
		}
	}
	return out
}
