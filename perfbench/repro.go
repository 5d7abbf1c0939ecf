package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
	"repro/slimnoc"
	"repro/slimnoc/store"
)

// reproFigures is the snrepro user's path at quick size: latency-vs-load
// grids (fig12), the adaptive-routing grids with UGAL (fig20) and
// saturation searches over the buffering schemes (sat-schemes).
var reproFigures = []string{"fig12", "fig20", "sat-schemes"}

// reproRep is one set-up instance of repro-quick: the expanded figures, a
// fresh result store, and two snserve sessions whose response cache is the
// same store.
type reproRep struct {
	opts    exp.Options
	figures []exp.Figure
	st      *store.Store
	path    string
	sv      *serveSession
}

func setupRepro(e *env) (rep, error) {
	opts := exp.Options{Quick: true, Seed: e.seed, Jobs: 1}
	r := &reproRep{opts: opts}
	for _, id := range reproFigures {
		f, err := exp.FigureByID(id, opts)
		if err != nil {
			return nil, err
		}
		r.figures = append(r.figures, f)
	}
	r.path = e.scratchFile("repro.jsonl")
	start := time.Now()
	st, err := store.Open(r.path)
	e.tr.add("store.open", 0, 0, start, time.Now())
	if err != nil {
		return nil, err
	}
	r.st = st
	if r.sv, err = startServe(e, st); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *reproRep) close() error {
	var errs []error
	if r.sv != nil {
		errs = append(errs, r.sv.close())
	}
	errs = append(errs, r.st.Close(), os.Remove(r.path))
	return errors.Join(errs...)
}

// figurePass is one pass over the figures against the store.
type figurePass struct {
	runs    []exp.FigureRun
	reports []string    // Markdown then CSV of each figure
	done    []donePoint // the points in completion order
	dur     time.Duration
}

// donePoint is one point as it completed.
type donePoint struct {
	spec   slimnoc.RunSpec
	cached bool
	ms     float64 // host ms since the previous completion
}

// runFigures runs every figure through exp.RunFigure with the store. With
// one campaign worker the points complete one after another, so the time
// between two completions is the later point's host time, recorded as a
// campaign.point span: its key, store lookup, for a fresh point its
// simulation and append, and the first use of a network's build and route
// compilation. A traced pass replays those inner calls afterwards.
// With marks, each figure ends a CPU-time segment.
func (r *reproRep) runFigures(e *env, marks *cpuMarks) (*figurePass, error) {
	fp := &figurePass{}
	start := time.Now()
	for _, f := range r.figures {
		e.opID++
		op := e.opID
		fs := e.tr.begin("campaign.figure", 0, op)
		last := time.Now()
		onPoint := func(p slimnoc.PointResult) {
			now := time.Now()
			e.tr.add("campaign.point", fs, op, last, now)
			fp.done = append(fp.done, donePoint{p.Spec, p.Cached, float64(now.Sub(last).Nanoseconds()) / 1e6})
			last = now
		}
		run, err := exp.RunFigure(context.Background(), f, r.opts, slimnoc.WithStore(r.st), slimnoc.WithOnPoint(onPoint))
		e.tr.end(fs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.ID, err)
		}
		fp.runs = append(fp.runs, run)
		marks.mark()
	}
	fp.dur = time.Since(start)
	for _, run := range fp.runs {
		rs := e.tr.begin("exp.render", 0, 0)
		fp.reports = append(fp.reports, run.Markdown(), run.CSV())
		e.tr.end(rs)
	}
	return fp, nil
}

// fresh returns the host ms of each freshly simulated point.
func (fp *figurePass) fresh() []float64 {
	var ms []float64
	for _, d := range fp.done {
		if !d.cached {
			ms = append(ms, d.ms)
		}
	}
	return ms
}

// points lists a pass's point results in a fixed order: every sweep point,
// then every saturation probe, figure by figure.
func (fp *figurePass) points() (pts []slimnoc.PointResult, probes int) {
	for _, run := range fp.runs {
		for _, sweep := range run.Results {
			pts = append(pts, sweep...)
		}
		for _, sat := range run.Sats {
			pts = append(pts, sat.Probes...)
			probes += len(sat.Probes)
		}
	}
	return pts, probes
}

// work runs the cold pass, renders it, runs the warm pass against the same
// store and renders again, then runs the serve stream cold and warm. The
// warm reports must equal the cold ones byte for byte and the warm pass
// must simulate nothing. The CPU-time segments are each cold figure, the
// rest of the figure work, and each serve session.
func (r *reproRep) work(e *env) (*pass, error) {
	start := time.Now()
	marks := startMarks()
	cold, err := r.runFigures(e, marks)
	if err != nil {
		return nil, err
	}
	warm, err := r.runFigures(e, nil)
	if err != nil {
		return nil, err
	}
	marks.mark()
	served := r.sv.send(marks)
	p := newPass()
	p.wall, p.segCPU, p.peakHeap = time.Since(start), marks.segs, marks.peakMiB()
	p.opMs["point"], p.opTime["point"] = cold.fresh(), cold.dur

	pts, probes := cold.points()
	var routerCycles float64
	for i, pt := range pts {
		checkPoint(p, fmt.Sprintf("cold point %d (%s)", i, pt.Spec.Name), pt.Result, pt.Err, !pt.Cached, &routerCycles)
		if pt.Cached {
			p.counts["store.hits"]++
		} else {
			p.counts["store.misses"]++
		}
	}
	p.counts["sim.router_cycles"] = roundCount(routerCycles)
	p.counts["campaign.points"] = int64(len(pts) - probes)
	p.counts["campaign.probes"] = int64(probes)

	warmPts, _ := warm.points()
	for i, pt := range warmPts {
		p.attempted++
		switch {
		case pt.Err != nil:
			p.fail("warm point %d (%s): %v", i, pt.Spec.Name, pt.Err)
		case !pt.Cached:
			p.fail("warm point %d (%s) was simulated, want served from the store", i, pt.Spec.Name)
		default:
			p.counts["store.hits"]++
		}
	}
	if len(warmPts) != len(pts) {
		p.fail("warm pass has %d points, cold pass %d", len(warmPts), len(pts))
	}
	for i := range cold.reports {
		p.attempted++
		if i >= len(warm.reports) || warm.reports[i] != cold.reports[i] {
			p.fail("report %d (%s): warm rerun differs from the cold run", i, r.figures[i/2].ID)
		}
	}
	if err := r.sv.account(e, p, served); err != nil {
		return nil, err
	}
	p.counts["store.puts"] = int64(r.st.Len())
	fi, err := os.Stat(r.path)
	if err != nil {
		return nil, err
	}
	p.counts["store.file_bytes"] = fi.Size()

	if e.tr != nil {
		if err := r.replay(e, p, cold, warm); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// replay times, outside the measured wall time, the layer calls that run
// inside exp.RunFigure and cannot be spanned from outside it: every point's
// key and store lookup (with the decode of a stored result), the append of
// every fresh result (into a scratch store on the same disk), and the
// network builds and route compilations of the distinct networks. The
// simulation time of the fresh points, sim.run_s, is their point time
// minus those replayed calls. It still holds the campaign's own per-point
// work, which cannot be told apart from outside.
func (r *reproRep) replay(e *env, p *pass, cold, warm *figurePass) error {
	scratchPath := r.path + ".replay"
	scratch, err := store.Open(scratchPath)
	if err != nil {
		return err
	}
	defer os.Remove(scratchPath)
	defer scratch.Close()
	timed := func(name string, op int64, f func() error) (float64, error) {
		start := time.Now()
		err := f()
		end := time.Now()
		e.tr.add(name, 0, op, start, end)
		return end.Sub(start).Seconds(), err
	}
	type tableKey struct {
		net     string
		alg     string
		vcs     int
		network slimnoc.NetworkSpec
	}
	var tables []tableKey
	seen := map[string]bool{}
	var simS float64 // fresh point time, less the replayed calls inside it
	runs := 0
	for i, d := range append(append([]donePoint(nil), cold.done...), warm.done...) {
		id := int64(i)
		var key store.Key
		dKey, err := timed("campaign.pointkey", id, func() (err error) {
			key, err = slimnoc.PointKey(d.spec)
			return err
		})
		if err != nil {
			return err
		}
		var raw json.RawMessage
		dGet, err := timed("store.get", id, func() error {
			var ok bool
			if raw, ok = r.st.Get(key); ok && d.cached {
				var res slimnoc.Result
				return json.Unmarshal(raw, &res)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if d.cached {
			continue
		}
		// The real store holds the point now, so the lookup that missed is
		// timed above as a hit without decode; the append goes to the
		// scratch store.
		dPut, err := timed("store.put", id, func() error { return scratch.Put(key, raw) })
		if err != nil {
			return err
		}
		simS += d.ms/1e3 - dKey - dGet - dPut
		runs++
		spec := d.spec.Normalized()
		netKey, err := json.Marshal(spec.Network)
		if err != nil {
			return err
		}
		tableID := fmt.Sprintf("%s|%s|%d", netKey, spec.Routing.Algorithm, spec.Routing.VCs)
		if !seen[tableID] {
			seen[tableID] = true
			tables = append(tables, tableKey{string(netKey), spec.Routing.Algorithm, spec.Routing.VCs, spec.Network})
		}
	}
	type builtNet struct {
		net  *slimnoc.Network
		kind slimnoc.Kind
	}
	built := map[string]builtNet{}
	for _, t := range tables {
		b, ok := built[t.net]
		if !ok {
			d, err := timed("topo.build", 0, func() (err error) {
				b.net, b.kind, err = slimnoc.BuildNetwork(t.network)
				return err
			})
			if err != nil {
				return err
			}
			simS -= d
			built[t.net] = b
		}
		start := time.Now()
		// Adaptive algorithms route per packet and have no compiled form;
		// the campaign skips them the same way.
		if _, err := slimnoc.CompileRouteTable(b.net, b.kind, t.alg, t.vcs); err == nil {
			end := time.Now()
			e.tr.add("routing.compile", 0, 0, start, end)
			simS -= end.Sub(start).Seconds()
		}
	}
	p.layer["sim.run_s"] = max(0, simS)
	p.layer["sim.runs"] = float64(runs)
	return nil
}
