// Event-calendar time advancement. The engine's active sets already know
// which routers and NICs have work this cycle; its timing wheels and link
// lanes already know the cycle every delayed event fires. The calendar
// unifies those views: when the active sets are empty, nothing can happen
// until the earliest of (a) the traffic source's next declared fire, (b) the
// next credit-wheel event, (c) the next ejection-wheel event, or (d) the
// next flit arrival on any active link — so the stepping loop jumps `now`
// straight there instead of visiting each dead cycle.
//
// The jump is exact-equivalent, not approximate: a skipped cycle is one the
// classic loop would have stepped with zero state change (no generation — by
// the NextFirer contract or because the generation phases are over — no
// credit returns, no ejections, no link deliveries, no router or NIC work),
// so Results, the RNG stream, and EngineStats all come out byte-identical to
// cycle-stepping (pinned by diff_test.go and testdata/golden_idle.json,
// including under EngineJobs domain-parallel stepping — skip decisions are
// taken on the main goroutine between cycles, where the per-cycle barrier
// already holds). The only observable additions are the CyclesSkipped /
// CalendarPeak telemetry fields, which are zero under Config.CycleStep.
//
// Each domain keeps its own calendar horizon (domain.calArrive/calPending):
// the earliest front-flit arrival over its active links and their pending
// backlog, recomputed only when the domain's link population or lane fronts
// changed since the last skip decision (domain.calDirty, maintained by
// stepLinksDomain, sendFlit and the merge). A busy region therefore no
// longer forces skipAhead to rescan the idle regions' lanes at every
// quiet-period transition: the skip decision is O(domains + wheel horizon)
// plus the dirty domains' own links — the hotspot-with-idle-background
// specs in diff_test.go pin the equivalence.
package sim

import "math"

// skipAhead jumps the clock over cycles that provably change nothing. limit
// is exclusive-of-skipping: the first cycle the caller must step normally
// (a context-poll boundary, the run's total, or an estimate episode's cycle
// cap), so cancellation latency and progress cadence are unchanged. After a
// skip of k cycles the clock sits at wake-1 and the caller's s.now++ lands
// exactly on the first cycle with work. Allocation-free: the wheel scans and
// lane peeks reuse existing storage (pinned by TestSteadyStateZeroAllocs).
//
//sim:hot
func (s *Sim) skipAhead(limit int64) {
	if limit <= s.now+1 {
		return
	}
	// Anything resident at a router or NIC can act next cycle.
	if s.activeNICs.size() != 0 {
		return
	}
	for di := range s.doms {
		if len(s.doms[di].routerList) != 0 {
			return
		}
	}
	wake := limit
	// Source generation: during the warmup+measurement phases the source is
	// called every cycle, so skipping needs its NextFirer declaration that
	// the calls are no-ops (no emission, zero RNG draws). A hint at or
	// beyond the generation phases is moot — Generate is not called there.
	genEnd := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	if s.now+1 < genEnd {
		if s.nextFire == nil {
			return
		}
		nf := s.nextFire.NextFire(s.now)
		if nf <= s.now+1 {
			return
		}
		if nf < genEnd && nf < wake {
			wake = nf
		}
	}
	if d := s.creditWheel.nextDue(s.now); d < wake {
		wake = d
	}
	if d := s.ejectWheel.nextDue(s.now); d < wake {
		wake = d
	}
	// Link deliveries: each active lane's front flit bounds that wire's next
	// arrival (lanes drain in FIFO order, so nothing behind the front can
	// deliver earlier). Each domain's horizon is cached and recomputed only
	// when dirty. backlog doubles as the calendar-depth sample.
	backlog := s.creditWheel.pending + s.ejectWheel.pending
	al := 0
	for di := range s.doms {
		d := &s.doms[di]
		al += len(d.linkList)
		if d.calDirty {
			s.refreshDomainHorizon(d)
		}
		backlog += d.calPending
		if d.calArrive < wake {
			wake = d.calArrive
		}
	}
	if wake <= s.now+1 {
		return
	}
	// The skipped cycles still elapse for every statistic: the classic loop
	// would have counted k more cycles with zero active routers and NICs and
	// an unchanged active-link population (links only retire by draining,
	// and no lane delivers before wake).
	k := wake - s.now - 1
	s.eng.cycles += k
	s.eng.cyclesSkipped += k
	s.eng.linkSum += k * int64(al)
	if backlog > s.eng.calendarPeak {
		s.eng.calendarPeak = backlog
	}
	s.now = wake - 1
}

// refreshDomainHorizon rebuilds one domain's cached calendar view: the
// minimum front-flit arrival over its active links (MaxInt64 when none) and
// their total pending flits. Only called from skip decisions on the main
// goroutine, and only for domains whose link state changed since the last
// decision.
//
//sim:hot
func (s *Sim) refreshDomainHorizon(d *domain) {
	arrive := int64(math.MaxInt64)
	pend := 0
	for _, li := range d.linkList {
		l := &s.links[li]
		pend += l.pending
		for vc := range l.lanes {
			if l.lanes[vc].len() == 0 {
				continue
			}
			if a := l.lanes[vc].front().arrive; a < arrive {
				arrive = a
			}
		}
	}
	d.calArrive, d.calPending = arrive, pend
	d.calDirty = false
}

// memEstimate predicts the engine's resident footprint in bytes for the
// MemBudgetBytes guard: the SoA router arrays, per-link lanes, NICs, and the
// compiled route table (measured exactly when supplied, bounded above when
// New would compile one). Deliberately computed from the same geometry New
// allocates from, before it allocates.
func (c *Config) memEstimate(stride int) int64 {
	nr := int64(c.Net.Nr)
	n := int64(c.Net.N())
	var edges int64
	for r := 0; r < c.Net.Nr; r++ {
		edges += int64(len(c.Net.Adj[r]))
	}
	vcs := int64(c.VCs)
	np := nr * int64(stride)
	nv := np * vcs
	const ringBytes = 40                                  // ring[T]: slice header + head + count
	const flitBytes = 16                                  // flit: pointer + idx + hop + next
	b := np * (3 * 4)                                     // outLink/inLink/revPort
	b += nv * (ringBytes + 4 + 8 + 4 + 4 + 4 + flitBytes) // inQ + inCap + outOwner + space + inLen + inNext + inFront
	if c.Scheme == CentralBuffer {
		b += nv * ringBytes // cbq
	}
	b += edges * (88 + vcs*ringBytes) // link structs + lanes
	b += n * (2*ringBytes + 16 + 8)   // nics (srcQ+injQ+ints) + ejUsedAt
	b += nr * (4 + 4 + 4 + 4 + 1)     // kp/cbFree/work/domOf/routerIn
	if c.Adaptive == nil {
		if c.Table != nil {
			b += c.Table.MemBytes()
		} else {
			// The table New would compile takes at most one byte per
			// ordered router pair (the compact form; grid routes take
			// far less).
			b += nr * nr
		}
	}
	return b
}
