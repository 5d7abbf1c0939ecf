package slimnoc

import (
	"fmt"
	"strings"

	"repro/internal/routing"
	"repro/internal/sim"
)

// Transfer is one point-to-point message for latency estimation; see
// sim.Transfer. Aliased here so serve-layer callers never import
// internal/sim.
type Transfer = sim.Transfer

// MaxTransferFlits is the largest transfer an estimate accepts: the engine
// indexes a packet's flits with 16 bits.
const MaxTransferFlits = sim.MaxPacketFlits

// EstimateResult is the latency answer for one transfer of an estimate
// episode. All fields are deterministic functions of the estimator spec and
// the episode's transfer batch, which is what makes responses cacheable and
// byte-stable across reruns.
type EstimateResult struct {
	// LatencyCycles is the end-to-end delivery latency in router cycles:
	// injection at cycle 0 on an idle network through tail-flit ejection.
	LatencyCycles int64 `json:"latency_cycles"`
	// LatencyNs converts LatencyCycles at the network's cycle time.
	LatencyNs float64 `json:"latency_ns"`
	// Hops is the router-path hop count of the transfer's compiled route.
	Hops int `json:"hops"`
	// Flits is the transfer size the episode actually simulated.
	Flits int `json:"flits"`
}

// Estimator answers cycle-accurate per-transfer latency queries on a warm
// engine: the network is built and the static route table compiled once at
// construction, then every Estimate call runs one isolated engine episode
// (all transfers injected at cycle 0 on an idle network, stepped until the
// last tail flit ejects). An Estimator is immutable after NewEstimator and
// safe for any number of concurrent Estimate calls — episodes share the
// network and route table strictly read-only, the same contract campaign
// workers rely on (pinned under -race by TestEstimatorConcurrentIdentity).
//
// Estimates need compiled routes, so the spec must name a static routing
// algorithm; adaptive algorithms (which route per packet from live state
// that an isolated episode does not have) are rejected by NewEstimator.
type Estimator struct {
	spec  RunSpec
	net   *Network
	kind  routing.Kind
	table *routing.RouteTable
	cfg   sim.Config // template: Net/Table/VCs/scheme fields set, Traffic nil
	// MaxCycles bounds one episode (0 = the engine default); exceeding it
	// means an undeliverable transfer and fails the episode.
	MaxCycles int64
	// EngineJobs steps each episode's engine across that many parallel
	// spatial domains (0 or 1 = serial; see sim.Config.EngineJobs).
	// Latencies are byte-identical at every value, so it is not part of the
	// estimator's cache identity. Like MaxCycles, set it before the
	// estimator is shared across goroutines.
	EngineJobs int
}

// EstimatorSpec canonicalizes a RunSpec to the fields an estimate episode
// actually reads: the expanded network, static routing, buffering and the
// SMART hop factor. Name, the whole traffic axis and the simulation phases
// are cleared — an episode has no background traffic, no phases and (with
// static routing) no RNG draws — so every spec that estimates identically
// shares one canonical form. That form is the estimator's warm-engine pool
// key and the serve layer's response-cache identity (salted with the
// engine version, like PointKey).
func EstimatorSpec(spec RunSpec) (RunSpec, error) {
	n := spec.Normalized()
	n.Name = ""
	n.Traffic = TrafficSpec{}
	n.Sim = SimSpec{}
	expanded, err := ExpandNetwork(n.Network)
	if err != nil {
		return RunSpec{}, err
	}
	n.Network = expanded
	return n, nil
}

// NewEstimator builds the warm engine for the spec: network constructed,
// static routes compiled into an immutable shared table, buffering scheme
// resolved. The traffic and sim sections of the spec are ignored (see
// EstimatorSpec).
func NewEstimator(spec RunSpec) (*Estimator, error) {
	canon, err := EstimatorSpec(spec)
	if err != nil {
		return nil, err
	}
	re, ok := routings.lookup(canon.Routing.Algorithm)
	if !ok {
		return nil, fmt.Errorf("slimnoc: unknown routing algorithm %q (have %s)",
			canon.Routing.Algorithm, strings.Join(Routings(), ", "))
	}
	if re.Adaptive {
		return nil, fmt.Errorf("slimnoc: estimator requires compiled (static) routes; adaptive algorithm %q routes per packet",
			canon.Routing.Algorithm)
	}
	net, kind, err := BuildNetwork(canon.Network)
	if err != nil {
		return nil, err
	}
	vcs := canon.Routing.VCs
	table, err := CompileRouteTable(net, kind, canon.Routing.Algorithm, vcs)
	if err != nil {
		return nil, err
	}
	h := canon.HopsPerCycle()
	se, ok := schemes.lookup(canon.Buffering.Scheme)
	if !ok {
		return nil, fmt.Errorf("slimnoc: unknown buffer scheme %q (have %s)",
			canon.Buffering.Scheme, strings.Join(Schemes(), ", "))
	}
	sc, err := se.New(canon.Buffering, h, vcs)
	if err != nil {
		return nil, err
	}
	return &Estimator{
		spec:  canon,
		net:   net,
		kind:  kind,
		table: table,
		cfg: sim.Config{
			Net:        net,
			Table:      table,
			VCs:        vcs,
			Scheme:     sc.Scheme,
			EdgeBufCap: sc.BufCap,
			CBCap:      sc.CBCap,
			H:          h,
		},
	}, nil
}

// Spec returns the estimator's canonical spec (see EstimatorSpec) — the
// identity under which its answers may be cached or pooled.
func (e *Estimator) Spec() RunSpec { return e.spec }

// Network summarises the estimator's network.
func (e *Estimator) Network() NetworkInfo { return networkInfo(e.net) }

// Nodes returns the endpoint count: valid transfer endpoints are
// [0, Nodes).
func (e *Estimator) Nodes() int { return e.net.N() }

// CycleTimeNs returns the router cycle time used for ns conversion.
func (e *Estimator) CycleTimeNs() float64 { return e.net.CycleTimeNs }

// RouterPath returns the compiled router path a transfer from node src to
// node dst follows (len >= 1; consecutive elements are the directed links
// the transfer occupies). The slice is a fresh copy owned by the caller.
func (e *Estimator) RouterPath(src, dst int) ([]int, error) {
	n := e.net.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("slimnoc: transfer endpoints (%d -> %d) out of node range [0, %d)", src, dst, n)
	}
	return e.table.AppendPath(nil, e.net.NodeRouter(src), e.net.NodeRouter(dst)), nil
}

// Estimate runs one isolated episode: every transfer of the batch is
// injected at cycle 0 into an idle network and simulated cycle-accurately
// until delivery. A one-transfer batch measures zero-load route latency; a
// larger batch measures a concurrent burst, contention included. Episodes
// are deterministic and independent, so concurrent calls return the same
// results as serial ones.
func (e *Estimator) Estimate(transfers []Transfer) ([]EstimateResult, error) {
	cfg := e.cfg
	cfg.EngineJobs = e.EngineJobs
	lats, err := sim.EstimateLatencies(cfg, transfers, e.MaxCycles)
	if err != nil {
		return nil, err
	}
	out := make([]EstimateResult, len(transfers))
	var next []uint32
	for i, tr := range transfers {
		next = e.table.AppendNext(next[:0], e.net.NodeRouter(tr.Src), e.net.NodeRouter(tr.Dst))
		out[i] = EstimateResult{
			LatencyCycles: lats[i],
			LatencyNs:     float64(lats[i]) * e.net.CycleTimeNs,
			Hops:          len(next) - 1,
			Flits:         tr.Flits,
		}
	}
	return out, nil
}
