// Deterministic domain-parallel stepping. The routers are partitioned into
// contiguous index ranges ("domains"); each cycle the link-delivery phase
// and the router phase run once per domain — on a pool of worker goroutines
// with a per-cycle spin barrier when EngineJobs > 1, inline in ascending
// domain order otherwise. Everything a domain writes is either exclusively
// owned by it:
//
//   - SoA router state of routers in [rlo, rhi), the NIC injection queues of
//     their attached nodes, and the per-node ejection budget of those nodes
//     (a node ejects only at its own router);
//   - the receiver side of links into the domain (lane pops, pending, the
//     sender's space readiness words) during the link phase;
//   - the sender side of links out of the domain (lane pushes, pending,
//     space decrements, occupancy increments) during the router phase — a
//     directed link has exactly one sending router, and the phase barrier
//     separates sender-phase writes from receiver-phase writes;
//
// or staged in per-domain buffers (credit-wheel events, delayed ejections,
// occupancy decrements, cross-domain link wakes, counter deltas) and
// replayed by mergeDomains on the main goroutine in ascending domain order.
// Domains are contiguous ascending router ranges and each domain appends its
// staged events in its own ascending-router visit order, so the ascending-
// domain replay reproduces the serial engine's ascending-router-index event
// order exactly — which is why results are byte-identical at every domain
// count (pinned by TestDomainParallelIdentity and the golden fixtures). The
// serial engine is the 1-domain instance of the same code, not a separate
// path.

package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// stagedCredit is a credit-wheel event recorded by a domain during the
// router phase and replayed into the shared wheel at merge time.
type stagedCredit struct {
	at int64
	ev creditEvent
}

// domain is one contiguous router-index range stepped as a unit.
type domain struct {
	di       int32 // own index in Sim.doms
	rlo, rhi int32 // router range [rlo, rhi)
	// Active lists owned by this domain: routers in the range with pending
	// work, links whose receiving router lies in the range. The membership
	// flags live in Sim.routerIn/linkIn — flag elements are only ever
	// written by the entity's owning (or, for linkIn, sending) domain
	// within a phase, so the shared arrays need no synchronisation.
	routerList []int32
	linkList   []int32
	// outMask is the per-cycle output-conflict bitmask scratch: while
	// stepRouter visits a router, bit p of outMask[p/64] means output port p
	// was claimed this cycle. One router is stepped at a time per domain, so
	// a single stride-wide mask per domain replaces the epoch-marked
	// outUsedAt/inUsedAt arrays (and their per-probe int64 loads).
	outMask []uint64
	// cbPool is the domain-local central-buffer freelist (a cbPacket lives
	// and dies at one router, so pools never cross domains).
	cbPool []*cbPacket
	// Staging of effects that target shared engine state — appended during
	// the parallel phases, replayed serially by mergeDomains. The 1-domain
	// engine bypasses these (Sim.single) and applies effects directly.
	credits  []stagedCredit // credit-wheel schedules (upstream may be foreign)
	ejects   []flit         // delayed ejections (order observable)
	occDecs  []int32        // link occupancy decrements (sender may be foreign)
	linkActs []int32        // link wakes (receiver may be foreign)
	// Per-domain calendar cache (see calendar.go): the earliest front-flit
	// arrival over the domain's active links and their total pending-flit
	// backlog, recomputed by skipAhead only when calDirty. A domain dirties
	// itself on its own link activity; pushes onto another domain's links
	// are staged in touched/touchedList and merged like the other effects.
	calDirty    bool
	calArrive   int64
	calPending  int
	touched     []bool  // [domain] staged dirty marks, cleared at merge
	touchedList []int32 // domains marked in touched, in first-touch order
	// Counter deltas folded into the Sim totals at merge.
	forwarded int64
	bypass    int64
	buffered  int64
	// pad keeps adjacent domains' hot fields on distinct cache lines.
	_ [64]byte
}

// normalizeJobs clamps a Config.EngineJobs value to a valid domain count.
func normalizeJobs(jobs, nr int) int {
	if jobs > nr {
		jobs = nr
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// buildDomains splits the routers into nd contiguous ranges and sizes the
// ownership lookups. Called once from New.
func (s *Sim) buildDomains(nd int) {
	nr := s.net.Nr
	s.doms = make([]domain, nd)
	s.domOf = make([]int32, nr)
	maskW := (s.stride + 63) / 64
	if maskW < 1 {
		maskW = 1
	}
	for di := 0; di < nd; di++ {
		lo, hi := di*nr/nd, (di+1)*nr/nd
		d := &s.doms[di]
		d.di = int32(di)
		d.rlo, d.rhi = int32(lo), int32(hi)
		d.outMask = make([]uint64, maskW)
		d.touched = make([]bool, nd)
		d.calDirty = true
		for r := lo; r < hi; r++ {
			s.domOf[r] = int32(di)
		}
	}
	s.single = nd == 1
	s.linkDom = make([]int32, len(s.links))
	for lid := range s.links {
		s.linkDom[lid] = s.domOf[s.links[lid].to]
	}
	s.routerIn = make([]bool, nr)
	s.linkIn = make([]bool, len(s.links))
	if nd > 1 {
		s.par = &parRunner{workers: make([]workerSlot, nd-1)}
	}
}

// stepLinksDomain delivers arrived flits on the domain's active links. The
// list is deliberately not sorted: links do not interact within the phase —
// each delivers into its own (router, port) input queues and wakes only its
// own receiver — so iteration order cannot affect any state the engine
// observes (the router phase re-sorts its list before stepping).
//
//sim:hot
//sim:domain
func (s *Sim) stepLinksDomain(d *domain) {
	if len(d.linkList) == 0 {
		return
	}
	// Any lane pop or list retirement changes this domain's calendar horizon;
	// one flag set per phase is cheaper than tracking which one did.
	//detlint:allow sharedread own-domain calendar cache: d is this goroutine's domain, no other domain reads or writes it during the phase
	d.calDirty = true
	keep := d.linkList[:0]
	for _, li := range d.linkList {
		if s.stepLink(int(li)) {
			keep = append(keep, li)
		} else {
			s.linkIn[li] = false
		}
	}
	d.linkList = keep
}

// stepLink delivers the arrived flits of one link into its receiver's input
// buffers (or CB staging), one VC lane at a time (ElastiStore-style
// independent per-VC handshakes). Reports whether the link still carries
// flits.
//
//sim:hot
//sim:domain
func (s *Sim) stepLink(li int) bool {
	l := &s.links[li]
	now := s.now
	if l.nextArrive > now {
		// Every flit on the wire is still in flight: nothing to deliver, the
		// per-lane peeks would all fail. (The classic scan would find the
		// same, so skipping it is an iteration shortcut, not a behaviour
		// change.)
		return l.pending > 0
	}
	to := l.to
	vb := (to*s.stride + l.toPort) * s.vcs
	elastic := s.scheme != EdgeBuffers
	inLen, inCap := s.inLen, s.inCap
	na := int64(math.MaxInt64)
	for vc := range l.lanes {
		lane := &l.lanes[vc]
		for lane.len() > 0 {
			lf := lane.front()
			if lf.arrive > now {
				if lf.arrive < na {
					na = lf.arrive
				}
				break
			}
			if elastic && inLen[vb+vc] >= inCap[vb+vc] {
				na = now + 1 // elastic backpressure: flit waits in the pipeline
				break
			}
			q := &s.inQ[vb+vc]
			q.push(lf.f)
			if inLen[vb+vc] == 0 {
				s.inFront[vb+vc] = lf.f
				s.inNext[vb+vc] = lf.f.next
				b := l.toPort*s.vcs + vc
				//detlint:allow sharedread receiver-exclusive: one receiving router per directed link, the occupancy bit belongs to the receiving router
				s.occIn[to*s.occW+b>>6] |= 1 << uint(b&63)
			}
			inLen[vb+vc]++
			lane.pop()
			//detlint:allow sharedread receiver-exclusive: one receiving router per directed link, sender writes only after the phase barrier
			l.pending--
			if elastic {
				// Return the pipeline slot to the sender's readiness word.
				//detlint:allow sharedread receiver-exclusive: one receiving router per directed link, the sending domain reads space only after the phase barrier
				s.space[int(l.sendVB)+vc]++
			}
			s.routerGainsFlit(to)
		}
	}
	//detlint:allow sharedread receiver-exclusive: one receiving router per directed link, the sender's refresh happens in the barrier-separated router phase
	l.nextArrive = na
	return l.pending > 0
}

// mergeDomains replays every domain's staged effects into the shared engine
// state, in ascending domain order, on the main goroutine after the router
// phase. This is the serialisation point that makes the parallel engine
// byte-identical to the serial one.
//
//sim:hot
func (s *Sim) mergeDomains() {
	for di := range s.doms {
		d := &s.doms[di]
		for _, lid := range d.linkActs {
			//detlint:allow hotalloc amortised active-list growth; capacity is retained across cycles
			s.doms[s.linkDom[lid]].linkList = append(s.doms[s.linkDom[lid]].linkList, lid)
		}
		d.linkActs = d.linkActs[:0]
		for _, sc := range d.credits {
			s.creditWheel.schedule(s.now, sc.at, sc.ev)
		}
		d.credits = d.credits[:0]
		for _, f := range d.ejects {
			s.ejectWheel.schedule(s.now, s.now+routerDelayDirect, f)
		}
		clear(d.ejects) // release packet references before truncating
		d.ejects = d.ejects[:0]
		for _, lid := range d.occDecs {
			s.links[lid].occupancy--
		}
		d.occDecs = d.occDecs[:0]
		for _, td := range d.touchedList {
			s.doms[td].calDirty = true
			d.touched[td] = false
		}
		d.touchedList = d.touchedList[:0]
		s.forwardedFlits += d.forwarded
		s.bypassFlits += d.bypass
		s.bufferedFlits += d.buffered
		d.forwarded, d.bypass, d.buffered = 0, 0, 0
	}
}

// Worker commands, published through parRunner.cmd.
const (
	cmdLinks uint32 = iota + 1
	cmdRouters
	cmdStop
)

// workerSlot is one worker's acknowledgement cell, padded so the spinning
// main goroutine and the worker never share a cache line with a neighbour.
type workerSlot struct {
	_   [64]byte
	ack atomic.Uint32
	_   [64]byte
}

// parRunner is the per-cycle barrier for EngineJobs > 1: the main goroutine
// publishes a command by incrementing epoch (workers spin on it), steps
// domain 0 itself, then spins until every worker has acknowledged the epoch.
// cmd is written strictly before the epoch increment and read after the
// epoch load, so the two atomics carry all ordering (and give the race
// detector its happens-before edges).
type parRunner struct {
	cmd     uint32
	epoch   atomic.Uint32
	workers []workerSlot
	started bool
	wg      sync.WaitGroup
}

// startWorkers launches one goroutine per extra domain for the duration of a
// run. Idempotent; a Sim with one domain has no runner and stays serial.
// When the workers are not running (tests driving step directly), step falls
// back to stepping the domains inline in the same ascending order — same
// code, same results.
func (s *Sim) startWorkers() {
	if s.par == nil || s.par.started {
		return
	}
	s.par.started = true
	e0 := s.par.epoch.Load()
	s.par.wg.Add(len(s.par.workers))
	for w := range s.par.workers {
		go s.domainWorker(w, e0)
	}
}

// stopWorkers shuts the pool down and waits for it; safe to call when no
// pool is running. The runner stays reusable, so Run-after-Run works.
func (s *Sim) stopWorkers() {
	if s.par == nil || !s.par.started {
		return
	}
	s.par.cmd = cmdStop
	e := s.par.epoch.Add(1)
	for w := range s.par.workers {
		awaitAck(&s.par.workers[w].ack, e)
	}
	s.par.wg.Wait()
	s.par.started = false
}

// parPhase runs one phase across all domains: publish the command, step
// domain 0 on the calling (main) goroutine, then wait for every worker.
//
//sim:hot
func (s *Sim) parPhase(cmd uint32) {
	pr := s.par
	pr.cmd = cmd
	e := pr.epoch.Add(1)
	if cmd == cmdLinks {
		s.stepLinksDomain(&s.doms[0])
	} else {
		s.stepRoutersDomain(&s.doms[0])
	}
	for w := range pr.workers {
		awaitAck(&pr.workers[w].ack, e)
	}
}

// domainWorker is the steady loop of one worker goroutine: wait for an
// epoch, run the commanded phase on its domain, acknowledge.
//
//sim:domain
func (s *Sim) domainWorker(w int, last uint32) {
	defer s.par.wg.Done()
	d := &s.doms[w+1]
	for {
		e := awaitEpoch(&s.par.epoch, last)
		last = e
		cmd := s.par.cmd
		switch cmd {
		case cmdLinks:
			s.stepLinksDomain(d)
		case cmdRouters:
			s.stepRoutersDomain(d)
		}
		s.par.workers[w].ack.Store(e)
		if cmd == cmdStop {
			return
		}
	}
}

// awaitEpoch spins until the epoch moves past last, yielding the scheduler
// once the phases stop arriving back-to-back (oversubscribed boxes).
//
//sim:hot
func awaitEpoch(v *atomic.Uint32, last uint32) uint32 {
	for spins := 0; ; spins++ {
		if e := v.Load(); e != last {
			return e
		}
		if spins > 128 {
			runtime.Gosched()
		}
	}
}

// awaitAck spins until a worker acknowledges the given epoch.
//
//sim:hot
func awaitAck(v *atomic.Uint32, want uint32) {
	for spins := 0; ; spins++ {
		if v.Load() == want {
			return
		}
		if spins > 128 {
			runtime.Gosched()
		}
	}
}
