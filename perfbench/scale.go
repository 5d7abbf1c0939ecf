package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/slimnoc"
)

// scaleNets are the 10k-endpoint networks of the scale family, one seeded
// point each per rep: the Slim NoC, whose minimal routes compile to the
// compact one-byte-per-pair table, and the torus, whose long dense DOR
// table dominates set-up time and memory.
var scaleNets = []string{"sn_subgr_10000", "t2d10k"}

// scaleBudget is the scale family's per-point memory budget (512 MiB).
const scaleBudget = int64(1) << 29

type scaleNet struct {
	net   *slimnoc.Network
	kind  slimnoc.Kind
	table *slimnoc.RouteTable
	spec  slimnoc.RunSpec
}

type scaleRep struct {
	nets      []scaleNet
	tableHeap float64 // MiB the route tables added to the heap; traced reps only
}

// setupScale builds both networks and compiles their route tables, as the
// campaign's network cache would before the first point.
func setupScale(e *env) (rep, error) {
	sim := exp.Options{Quick: true, Seed: e.seed}.SimSpec()
	r := &scaleRep{}
	for i, preset := range scaleNets {
		spec := slimnoc.RunSpec{
			Name:    "scale-10k/" + preset,
			Network: slimnoc.NetworkSpec{Preset: preset},
			Traffic: slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.008},
			SMART:   true,
			Sim:     sim,
		}
		spec.Sim.Seed = slimnoc.DeriveSeed(e.seed, i)
		spec = spec.Normalized()
		sn := scaleNet{spec: spec}
		start := time.Now()
		net, kind, err := slimnoc.BuildNetwork(spec.Network)
		e.tr.add("topo.build", 0, 0, start, time.Now())
		if err != nil {
			return nil, err
		}
		sn.net, sn.kind = net, kind
		var before runtime.MemStats
		if e.tr != nil {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		start = time.Now()
		tab, err := slimnoc.CompileRouteTable(net, kind, spec.Routing.Algorithm, spec.Routing.VCs)
		e.tr.add("routing.compile", 0, 0, start, time.Now())
		if err != nil {
			return nil, err
		}
		sn.table = tab
		if e.tr != nil {
			var after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&after)
			r.tableHeap += float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
		}
		r.nets = append(r.nets, sn)
	}
	return r, nil
}

func (r *scaleRep) close() error { return nil }

// work runs every point on its prebuilt network and table. Each point is a
// CPU-time segment.
func (r *scaleRep) work(e *env) (*pass, error) {
	p := newPass()
	var routerCycles float64
	start := time.Now()
	marks := startMarks()
	for _, sn := range r.nets {
		e.opID++
		t0 := time.Now()
		res, err := slimnoc.NewRunner(sn.spec, slimnoc.WithNetwork(sn.net, sn.kind),
			slimnoc.WithRouteTable(sn.table), slimnoc.WithMemBudget(scaleBudget)).Run(context.Background())
		t1 := time.Now()
		e.tr.add("sim.run", 0, e.opID, t0, t1)
		p.opMs["point"] = append(p.opMs["point"], float64(t1.Sub(t0).Nanoseconds())/1e6)
		checkPoint(p, sn.spec.Name, res, err, true, &routerCycles)
		marks.mark()
	}
	p.wall, p.segCPU, p.peakHeap = time.Since(start), marks.segs, marks.peakMiB()
	p.opTime["point"] = p.wall
	p.counts["sim.router_cycles"] = roundCount(routerCycles)
	if e.tr != nil {
		p.layer["routing.table_heap_mib"] = r.tableHeap
	}
	return p, nil
}
