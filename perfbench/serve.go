package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"repro/slimnoc"
	"repro/slimnoc/serve"
	"repro/slimnoc/store"
)

// The serve stream is the request shape of the repository's co-simulation
// client, examples/serve: a host runs four-stage pipelines of dependent DMA
// transfers through Occupy, each stage starting when its input transfer
// has finished. One session runs the pipelines cold, so each new transfer
// is an engine episode and a durable store append; a second, fresh session
// replays them warm against the same store, so each is a cache read, as the
// example's second pass does. The seed picks each pipeline's nodes; the
// sizes and dependencies are the example's.
const (
	servePipelines   = 200
	serveSampleEvery = 25 // every n-th reply is rechecked against a direct estimate
)

// serveSpec is the SN-S engine the sessions negotiate.
var serveSpec = slimnoc.RunSpec{Network: slimnoc.NetworkSpec{Preset: "sn_subgr_200"}, SMART: true}

// stage is one transfer of a pipeline: between two of the pipeline's nodes,
// of a size in bytes, starting when the stage `after` finishes (-1: when
// the pipeline starts).
type stage struct {
	from, to int
	bytes    int64
	after    int
}

// pipelineStages is the pipeline of examples/serve: a load A -> B, two
// compute stages B -> C and B -> C' that read the loaded buffer, and a
// store C -> D that drains the first stage's output.
var pipelineStages = []stage{
	{from: 0, to: 1, bytes: 4096, after: -1},
	{from: 1, to: 2, bytes: 2048, after: 0},
	{from: 1, to: 3, bytes: 2048, after: 0},
	{from: 2, to: 4, bytes: 1024, after: 1},
}

// pipeline holds the nodes A, B, C, C' and D of one pipeline.
type pipeline [5]int

// servePipelinesFor draws the pipelines' distinct nodes from the seed.
func servePipelinesFor(seed int64, nodes int) []pipeline {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]pipeline, servePipelines)
	for i := range ps {
		copy(ps[i][:], rng.Perm(nodes))
	}
	return ps
}

// serveSession is an in-process server on a store with two connected
// sessions: the snserve path with a store-backed response cache.
type serveSession struct {
	st         *store.Store // the cache's store, owned by the caller
	pool       *serve.Pool
	srv        *serve.Server
	cold, warm *serve.Client
	pipelines  []pipeline
	hello      time.Duration // the first hello, which builds the engine
	cancel     context.CancelFunc
	served     chan error // each ServeConn's result
	conns      int
}

// startServe starts a server whose response cache is st and opens both
// sessions. The first hello builds the engine; the second finds it in the
// pool.
func startServe(e *env, st *store.Store) (*serveSession, error) {
	s := &serveSession{st: st, served: make(chan error, 2)}
	s.pool = serve.NewPool(0)
	s.srv = serve.NewServer(serve.WithPool(s.pool), serve.WithCache(serve.NewCache(st)))
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	connect := func() (*serve.Client, error) {
		cli, srvSide := net.Pipe()
		s.conns++
		go func() {
			defer srvSide.Close()
			s.served <- s.srv.ServeConn(ctx, srvSide)
		}()
		c, err := serve.NewClient(cli, serveSpec)
		if err != nil {
			cli.Close()
		}
		return c, err
	}
	var err error
	start := time.Now()
	s.cold, err = connect()
	end := time.Now()
	e.tr.add("serve.hello", 0, 0, start, end)
	s.hello = end.Sub(start)
	if err == nil {
		s.warm, err = connect()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.pipelines = servePipelinesFor(e.seed, s.cold.Network().Nodes)
	return s, nil
}

// close ends the sessions and waits for the server side of each to return.
func (s *serveSession) close() error {
	var errs []error
	for _, c := range []*serve.Client{s.cold, s.warm} {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	s.cancel()
	for ; s.conns > 0; s.conns-- {
		errs = append(errs, <-s.served)
	}
	return errors.Join(errs...)
}

// reply is the outcome of one occupy request.
type reply struct {
	transfer slimnoc.Transfer
	start    time.Time
	ms       float64
	grant    serve.Grant
	err      error
}

// runPipelines sends the pipelines on one session, closed-loop: each
// request after the previous reply, each stage starting at the granted
// finish of the stage it waits for, each pipeline at the previous one's
// makespan.
func runPipelines(c *serve.Client, ps []pipeline) []reply {
	replies := make([]reply, 0, len(ps)*len(pipelineStages))
	finish := make([]int64, len(pipelineStages))
	var at int64
	for _, p := range ps {
		makespan := at
		for i, st := range pipelineStages {
			start := at
			if st.after >= 0 {
				start = finish[st.after]
			}
			src, dst := p[st.from], p[st.to]
			rp := reply{start: time.Now()}
			rp.grant, rp.err = c.Occupy(src, dst, st.bytes, start)
			rp.ms = float64(time.Since(rp.start).Nanoseconds()) / 1e6
			flits, err := serve.FlitsFor(serve.WireTransfer{Src: src, Dst: dst, Bytes: st.bytes}, c.FlitBytes())
			if rp.err == nil {
				rp.err = err
			}
			rp.transfer = slimnoc.Transfer{Src: src, Dst: dst, Flits: flits}
			finish[i] = rp.grant.Finish
			makespan = max(makespan, rp.grant.Finish)
			replies = append(replies, rp)
		}
		at = makespan
	}
	return replies
}

// serveRun is what the two sessions produced.
type serveRun struct {
	cold, warm []reply
	coldSim    int64 // engine episodes after the cold session
	dur        time.Duration
}

// send runs the pipelines cold on the first session, then warm on the
// second. With marks, each session ends a CPU-time segment.
func (s *serveSession) send(marks *cpuMarks) serveRun {
	start := time.Now()
	run := serveRun{cold: runPipelines(s.cold, s.pipelines)}
	marks.mark()
	run.coldSim = s.srv.Stats().Simulated
	run.warm = runPipelines(s.warm, s.pipelines)
	marks.mark()
	run.dur = time.Since(start)
	return run
}

// account records the replies in the pass: their spans, the checks and, in
// a traced pass, the replayed layer calls.
func (s *serveSession) account(e *env, p *pass, run serveRun) error {
	for i, rp := range append(run.cold, run.warm...) {
		e.tr.add("serve.request", 0, int64(i), rp.start, rp.start.Add(time.Duration(rp.ms*1e6)))
	}
	if err := s.check(p, run); err != nil {
		return err
	}
	if e.tr != nil {
		return s.replay(e, p, run)
	}
	return nil
}

// check accounts every reply. A refused or failed request, a reply that
// differs from a direct estimate of its transfer (every serveSampleEvery-th
// request), and a warm grant that differs from the cold one are failed
// operations; so is a warm session that simulated.
func (s *serveSession) check(p *pass, run serveRun) error {
	est, err := slimnoc.NewEstimator(serveSpec)
	if err != nil {
		return err
	}
	for i, rp := range append(run.cold, run.warm...) {
		p.attempted++
		p.opMs["req"] = append(p.opMs["req"], rp.ms)
		if rp.err != nil {
			p.fail("request %d: %v", i, rp.err)
			p.digests = append(p.digests, "error")
			continue
		}
		p.digests = append(p.digests, digest(rp.grant))
		if i%serveSampleEvery != 0 {
			continue
		}
		direct, err := est.Estimate([]slimnoc.Transfer{rp.transfer})
		if err != nil {
			p.fail("request %d: direct estimate: %v", i, err)
			continue
		}
		if rp.grant.LatencyCycles != direct[0].LatencyCycles || rp.grant.Hops != direct[0].Hops {
			p.fail("request %d: grant differs from a direct estimate", i)
		}
	}
	for i := range run.cold {
		if i < len(run.warm) && run.warm[i].grant != run.cold[i].grant {
			p.fail("warm request %d: grant differs from the cold session's", i)
		}
	}
	st := s.srv.Stats()
	if st.Simulated != run.coldSim {
		p.fail("warm session simulated %d episodes, want 0", st.Simulated-run.coldSim)
	}
	p.opTime["req"] = run.dur
	p.counts["serve.requests"] = st.Requests
	p.counts["serve.simulated"] = st.Simulated
	p.counts["serve.cache_hits"] = st.CacheHits
	p.counts["store.hits"] += st.CacheHits
	p.counts["store.misses"] += st.Simulated
	return nil
}

// replay times, outside the measured wall time, the calls the server makes
// inside each request and that cannot be spanned from outside it: the
// engine episode of every request that simulated, on the pool's warm
// engine, with its durable append (into a scratch store on the same disk),
// and the cache read of every other one. From those it derives the serve
// layer's own time and the time simulating requests waited.
func (s *serveSession) replay(e *env, p *pass, run serveRun) error {
	est, err := s.pool.Engine(serveSpec)
	if err != nil {
		return err
	}
	scratchPath := e.scratchFile("serve-replay.jsonl")
	scratch, err := store.Open(scratchPath)
	if err != nil {
		return err
	}
	defer os.Remove(scratchPath)
	defer scratch.Close()
	cache, scratchCache := serve.NewCache(s.st), serve.NewCache(scratch)
	timed := func(name string, op int64, f func() error) (float64, error) {
		start := time.Now()
		err := f()
		end := time.Now()
		e.tr.add(name, 0, op, start, end)
		return end.Sub(start).Seconds(), err
	}
	var reqs, inner float64
	var hitMs []float64
	type missCost struct{ req, work float64 }
	var misses []missCost
	// The first request of a transfer simulated; every later one, in either
	// session, was a cache read.
	seen := map[store.Key]bool{}
	for i, rp := range append(run.cold, run.warm...) {
		if rp.err != nil {
			continue
		}
		id := int64(i)
		reqs += rp.ms / 1e3
		transfers := []slimnoc.Transfer{rp.transfer}
		key, err := cache.Key(est.Spec(), transfers)
		if err != nil {
			return err
		}
		if seen[key] {
			d, err := timed("store.get", id, func() error {
				if _, ok := cache.Get(key); !ok {
					return fmt.Errorf("transfer %v not cached", rp.transfer)
				}
				return nil
			})
			if err != nil {
				return err
			}
			inner += d
			hitMs = append(hitMs, rp.ms)
			continue
		}
		seen[key] = true
		var results []slimnoc.EstimateResult
		dEst, err := timed("sim.estimate", id, func() (err error) {
			results, err = est.Estimate(transfers)
			return err
		})
		if err != nil {
			return err
		}
		dPut, err := timed("store.put", id, func() error { return scratchCache.Put(key, results) })
		if err != nil {
			return err
		}
		inner += dEst + dPut
		misses = append(misses, missCost{rp.ms / 1e3, dEst + dPut})
	}
	// A simulating request's time beyond its own episode, append and the
	// median cache-read request's protocol cost is time it waited: for a
	// pool slot, a CPU or the store's lock.
	protocol := median(hitMs) / 1e3
	var wait float64
	for _, m := range misses {
		wait += max(0, m.req-m.work-protocol)
	}
	p.layer["serve.self_s"] = max(0, reqs-inner)
	p.layer["serve.pool_wait_s"] = wait
	p.layer["serve.engine_build_s"] = s.hello.Seconds()
	return nil
}
