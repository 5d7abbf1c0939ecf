// The latency-query entry point for co-simulation serving: instead of a
// statistical run over warmup/measure/drain phases, EstimateLatencies
// answers "how many cycles does this transfer take?" by injecting a batch
// of packets into an otherwise idle network at cycle 0 and stepping the
// engine until the last tail flit ejects. Execution-driven platforms (in
// the uPIMulator x BookSim2 style) call this through the slimnoc/serve
// service layer, which owns the warm-engine pooling and response caching.

package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Transfer is one point-to-point message whose delivery latency an
// estimate episode measures: Flits flits from node Src to node Dst.
type Transfer struct {
	Src   int `json:"src"`
	Dst   int `json:"dst"`
	Flits int `json:"flits"`
}

// DefaultEstimateCap bounds an estimate episode when the caller passes
// maxCycles <= 0: generous enough for any deliverable batch on any
// supported topology, small enough to fail fast on a misconfigured one.
const DefaultEstimateCap = 1 << 20

// oneshotSource is the Source behind EstimateLatencies: it emits every
// transfer at cycle 0 (tagged by batch index via the class field) and
// records each tail-flit ejection cycle, which on an idle network with
// genTime 0 is the transfer's end-to-end latency.
type oneshotSource struct {
	transfers []Transfer
	lat       []int64
	delivered int
}

var _ Source = (*oneshotSource)(nil)
var _ NextFirer = (*oneshotSource)(nil)

// Generate implements Source: the whole batch enters at cycle 0, so
// transfers within one episode contend for links and buffers exactly like
// simultaneously issued DMAs.
func (o *oneshotSource) Generate(t int64, _ *rand.Rand, emit func(src, dst, flits, class int)) {
	if t != 0 {
		return
	}
	for i, tr := range o.transfers {
		emit(tr.Src, tr.Dst, tr.Flits, i)
	}
}

// NextFire implements NextFirer: after cycle 0 Generate never acts again
// (and draws no RNG), so the event calendar may skip every dead cycle of an
// episode — the bulk of an estimate against a mostly idle network.
func (o *oneshotSource) NextFire(t int64) int64 {
	if t < 0 {
		return 0
	}
	return math.MaxInt64
}

// OnDelivered implements Source: the ejection cycle of transfer `class` is
// its latency (injection happened at cycle 0). Emit is never called — an
// estimate episode has no replies.
func (o *oneshotSource) OnDelivered(t int64, _, _, _, class int, _ func(src, dst, flits, class int)) {
	if class >= 0 && class < len(o.lat) && o.lat[class] < 0 {
		o.lat[class] = t
		o.delivered++
	}
}

// EstimateLatencies runs one isolated estimate episode: the transfers are
// injected at cycle 0 into an idle network built from cfg (whose Traffic
// must be nil — the episode supplies its own source) and the engine steps
// until every tail flit has ejected. The returned slice holds each
// transfer's delivery latency in cycles, in batch order.
//
// A single-transfer batch measures the pure zero-load latency of that
// route; a multi-transfer batch measures a concurrent burst, contention
// included. Episodes are deterministic: the same cfg and batch always
// yield the same latencies, independent of wall-clock or scheduling (the
// engine RNG is only consulted by adaptive policies, which seed from
// cfg.Seed as usual).
//
// maxCycles bounds the episode (<= 0 selects DefaultEstimateCap); hitting
// the bound reports an error naming the undelivered transfers, the
// estimate-mode analogue of the run loop's deadlock watchdog.
//
// The expensive inputs — cfg.Net and cfg.Table — are read-only here like
// everywhere else in the engine, so any number of concurrent episodes may
// share one network and one compiled route table (the slimnoc/serve engine
// pool relies on this, under the same contract as campaign workers).
func EstimateLatencies(cfg Config, transfers []Transfer, maxCycles int64) ([]int64, error) {
	if cfg.Traffic != nil {
		return nil, fmt.Errorf("sim: estimate: cfg.Traffic must be nil (the episode supplies its own source)")
	}
	if len(transfers) == 0 {
		return nil, fmt.Errorf("sim: estimate: empty transfer batch")
	}
	if cfg.Net == nil {
		return nil, fmt.Errorf("sim: estimate: cfg.Net is required")
	}
	n := cfg.Net.N()
	for i, tr := range transfers {
		if tr.Src < 0 || tr.Src >= n || tr.Dst < 0 || tr.Dst >= n {
			return nil, fmt.Errorf("sim: estimate: transfer %d endpoints (%d -> %d) out of node range [0, %d)",
				i, tr.Src, tr.Dst, n)
		}
		if tr.Flits < 1 || tr.Flits > MaxPacketFlits {
			return nil, fmt.Errorf("sim: estimate: transfer %d has %d flits, want 1..%d (flit indices are 16-bit)",
				i, tr.Flits, MaxPacketFlits)
		}
	}
	src := &oneshotSource{transfers: transfers, lat: make([]int64, len(transfers))}
	for i := range src.lat {
		src.lat[i] = -1
	}
	cfg.Traffic = src
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if maxCycles <= 0 {
		maxCycles = DefaultEstimateCap
	}
	// Drive the cycle loop directly: unlike Run there are no phases — the
	// episode ends the moment the batch is fully delivered. Delayed
	// ejections ride the ejection wheel and complete inside step, so no
	// final flush is needed. Domain workers (cfg.EngineJobs > 1) run for
	// the episode like they do for a full run.
	s.startWorkers()
	defer s.stopWorkers()
	for s.now = 0; src.delivered < len(transfers); s.now++ {
		if s.now >= maxCycles {
			return nil, fmt.Errorf("sim: estimate: %d of %d transfers undelivered after %d cycles (deadlock or unreachable destination)",
				len(transfers)-src.delivered, len(transfers), maxCycles)
		}
		s.step()
		if s.calendar {
			// Skipping is bounded by the episode cap, so a stuck batch hits
			// the watchdog above at the identical cycle count either way.
			s.skipAhead(maxCycles)
		}
	}
	return src.lat, nil
}
