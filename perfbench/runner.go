package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/slimnoc"
)

// runMeasured is the untraced run that gives the end-to-end metrics. It
// repeats reps of setup, fixed work and teardown until the work has taken
// the given seconds and it has at least minReps reps. After each rep it
// sets up again until that rep's set-ups have taken setupSeconds/minReps,
// and at the end until it has minSetups set-up samples.
//
// The gated metrics are process CPU seconds, not wall seconds: on a shared
// VM, time a hypervisor gives this VM's vCPUs to other guests (steal)
// stretches wall time by up to 2.5x for minutes at a time, and CPU time,
// which the kernel accounts apart from steal, stretches less. Wall time and
// request latency are printed beside them, ungated.
func runMeasured(w workload, e *env, seconds float64) (*result, error) {
	var setupCPU, setupWall []float64
	var passes []*pass
	var work time.Duration
	addSetup := func(work bool) (*pass, float64, error) {
		setup, p, err := runRep(w, e, work)
		if err != nil {
			return nil, 0, err
		}
		setupWall, setupCPU = append(setupWall, setup.wall.Seconds()), append(setupCPU, setup.cpu.Seconds())
		return p, setup.wall.Seconds(), nil
	}
	for len(passes) < minReps || work.Seconds() < seconds {
		p, batch, err := addSetup(true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		work += p.wall
		// Short set-ups are repeated after each rep, so that their samples
		// come from the whole run, like the work's, not from one moment.
		for batch < setupSeconds/minReps {
			_, d, err := addSetup(false)
			if err != nil {
				return nil, err
			}
			batch += d
		}
	}
	for len(setupCPU) < minSetups {
		if _, _, err := addSetup(false); err != nil {
			return nil, err
		}
	}

	res := newResult(w, passes)
	var walls, heap, rss []float64
	opMs := map[string][]float64{}
	opTime := map[string]time.Duration{}
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		heap = append(heap, p.peakHeap)
		rss = append(rss, p.peakRSS)
		for kind, ms := range p.opMs {
			opMs[kind] = append(opMs[kind], ms...)
			opTime[kind] += p.opTime[kind]
		}
	}
	cpu, err := segmentMedianSum(passes)
	if err != nil {
		return nil, err
	}
	res.metrics = map[string]metric{
		"setup_s":       {value: median(setupCPU), unit: "s", samples: len(setupCPU), note: "median CPU time"},
		"cpu_s":         {value: cpu, unit: "s", samples: len(passes), note: "CPU time of the fixed work: sum of its segments' medians"},
		"peak_heap_mib": {value: median(heap), unit: "MiB", samples: len(heap), note: "median of the reps' largest retained heaps"},
	}
	res.info = map[string]metric{
		"setup_wall_s": {value: median(setupWall), unit: "s", samples: len(setupWall), note: "median"},
		"wall_s":       {value: median(walls), unit: "s", samples: len(walls), note: "median"},
		"peak_rss_mib": {value: median(rss), unit: "MiB", samples: len(rss), note: "median of the reps' peaks"},
	}
	for kind, ms := range opMs {
		tp, tv, n := tail(ms)
		res.info[rateNames[kind]] = metric{value: float64(len(ms)) / opTime[kind].Seconds(), unit: "1/s", samples: len(ms)}
		res.info[kind+"_p50_ms"] = metric{value: median(ms), unit: "ms", samples: len(ms)}
		res.info[kind+"_"+percentileName(tp)+"_ms"] = metric{value: tv, unit: "ms", samples: n}
	}
	return res, nil
}

// segmentMedianSum is the fixed work's CPU time in seconds, robust to
// slow spells of the host: each segment's median over the passes, summed. A
// spell that slows one rep's segment does not move the segment's median.
func segmentMedianSum(passes []*pass) (float64, error) {
	var total float64
	for i := range passes[0].segCPU {
		var xs []float64
		for _, p := range passes {
			if len(p.segCPU) != len(passes[0].segCPU) {
				return 0, fmt.Errorf("reps differ in their number of segments")
			}
			xs = append(xs, p.segCPU[i].Seconds())
		}
		total += median(xs)
	}
	return total, nil
}

// rateNames names the throughput metric of each kind of operation.
var rateNames = map[string]string{"point": "points_per_s", "req": "req_per_s"}

// interval is the wall and process CPU time of one timed section.
type interval struct{ wall, cpu time.Duration }

// stopwatch starts timing a section in wall and process CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) elapsed() interval {
	return interval{time.Since(s.wall), processCPU() - s.cpu}
}

// processCPU is the CPU time all the process's threads have used. With
// paravirtual steal accounting the kernel leaves out the steal it sees: time
// other guests held this VM's vCPUs.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRep sets up one rep and, when work is set, runs its fixed work. It
// returns the set-up interval and the pass.
func runRep(w workload, e *env, work bool) (interval, *pass, error) {
	// Collect the previous rep's garbage and hand its pages back outside the
	// timed sections, so a rep neither pays for nor inherits the memory of
	// its predecessor.
	debug.FreeOSMemory()
	sw := startWatch()
	r, err := w.setup(e)
	setup := sw.elapsed()
	if err != nil {
		return interval{}, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	var p *pass
	if work {
		// The peak is taken over the fixed work alone, with the set-up's
		// garbage handed back first. Set-up's own transient peak depends on
		// when the collector happens to run: scale-10k's t2d10k compilation
		// peaks anywhere from 600 to 790 MiB for the same work.
		debug.FreeOSMemory()
		if err = resetPeakRSS(); err == nil {
			p, err = r.work(e)
		}
		if err == nil {
			p.peakRSS, err = peakRSSMiB()
		}
	}
	if cerr := r.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s teardown: %w", w.name, cerr)
	}
	if err != nil {
		return interval{}, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return setup, p, nil
}

// newResult merges the passes' outcomes. Every pass of one run does the same
// work on the same inputs, so each must reproduce the first pass's digests
// and work counts exactly; a difference is a failed operation.
func newResult(w workload, passes []*pass) *result {
	first := passes[0]
	res := &result{workload: w.name, digests: first.digests, counts: first.counts}
	for i, p := range passes {
		res.attempted += p.attempted
		res.failed += p.failed
		res.problems = append(res.problems, p.problems...)
		if i == 0 {
			continue
		}
		compareRuns(res, fmt.Sprintf("rep %d", i+1), p.digests, p.counts, first.digests, first.counts)
	}
	return res
}

// compareRuns counts every operation digest and work count that differs
// from the reference as a failure.
func compareRuns(res *result, what string, digests []string, counts map[string]int64, refDigests []string, refCounts map[string]int64) {
	if len(digests) != len(refDigests) {
		res.fail("%s: %d operations, reference has %d", what, len(digests), len(refDigests))
	}
	for i := 0; i < len(digests) && i < len(refDigests); i++ {
		if digests[i] != refDigests[i] {
			res.fail("%s: operation %d digest %s, reference %s", what, i, digests[i], refDigests[i])
		}
	}
	keys := make([]string, 0, len(refCounts))
	for k := range refCounts {
		keys = append(keys, k)
	}
	for k := range counts {
		if _, ok := refCounts[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok1 := counts[k]
		want, ok2 := refCounts[k]
		if got != want || ok1 != ok2 {
			res.fail("%s: work count %s = %d, reference %d", what, k, got, want)
		}
	}
}

// runTraced is the traced run that gives the per-layer metrics: one
// untraced rep, then the same rep with spans recorded around every call the
// benchmark makes into the program. The difference of their wall times is
// the tracing overhead.
func runTraced(w workload, e *env, spanPath string) (*result, error) {
	_, plain, err := runRep(w, e, true)
	if err != nil {
		return nil, err
	}
	e.tr = newTracer()
	_, traced, err := runRep(w, e, true)
	if err != nil {
		return nil, err
	}
	spans, err := e.tr.snapshot()
	if err != nil {
		return nil, err
	}
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res := newResult(w, []*pass{plain, traced})
	res.metrics = layerMetrics(spans, traced, (traced.wall - plain.wall).Seconds())
	layers := layerTimes(spans)
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		lt := layers[l]
		res.extra = append(res.extra, fmt.Sprintf("%s  layer %-9s busy %.6f s  self %.6f s  spans %d",
			w.name, l, lt.busy.Seconds(), lt.self.Seconds(), lt.count))
	}
	res.extra = append(res.extra, fmt.Sprintf("%s  spans %d written to %s", w.name, len(spans), spanPath))
	return res, nil
}

// layerMetricUnits lists the per-layer metrics of a traced run.
var layerMetricUnits = []struct{ name, unit string }{
	{"topo.build_s", "s"}, {"topo.builds", "count"},
	{"routing.compile_s", "s"}, {"routing.tables", "count"}, {"routing.table_heap_mib", "MiB"},
	{"sim.run_s", "s"}, {"sim.runs", "count"}, {"sim.cycles", "count"}, {"sim.cycles_skipped", "count"},
	{"sim.skip_ratio", "ratio"}, {"sim.router_cycles", "count"}, {"sim.ns_per_router_cycle", "ns"},
	{"sim.delivered_packets", "count"}, {"sim.freelist_hit_ratio", "ratio"},
	{"sim.estimate_s", "s"}, {"sim.estimates", "count"},
	{"campaign.self_s", "s"}, {"campaign.pointkey_s", "s"}, {"campaign.points", "count"}, {"campaign.probes", "count"},
	{"store.open_s", "s"}, {"store.get_s", "s"}, {"store.gets", "count"}, {"store.hit_ratio", "ratio"},
	{"store.put_s", "s"}, {"store.puts", "count"}, {"store.file_bytes", "bytes"},
	{"exp.render_s", "s"},
	{"serve.self_s", "s"}, {"serve.pool_wait_s", "s"}, {"serve.engine_build_s", "s"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.simulated", "count"}, {"serve.requests", "count"},
	{"trace.overhead_s", "s"},
}

// layerMetrics derives the per-layer metrics from the traced pass: times
// from the spans, counts from the pass's work counts, and the values a
// workload derives itself (pass.layer), which take precedence.
func layerMetrics(spans []span, p *pass, overhead float64) map[string]metric {
	v := map[string]float64{}
	spanMetric := func(name, timeKey, countKey string) {
		d, n := spanTotals(spans, name)
		v[timeKey] = d.Seconds()
		if countKey != "" {
			v[countKey] = float64(n)
		}
	}
	spanMetric("topo.build", "topo.build_s", "topo.builds")
	spanMetric("routing.compile", "routing.compile_s", "routing.tables")
	spanMetric("sim.run", "sim.run_s", "sim.runs")
	spanMetric("sim.estimate", "sim.estimate_s", "sim.estimates")
	spanMetric("campaign.pointkey", "campaign.pointkey_s", "")
	spanMetric("store.open", "store.open_s", "")
	spanMetric("store.get", "store.get_s", "store.gets")
	spanMetric("store.put", "store.put_s", "")
	spanMetric("exp.render", "exp.render_s", "")
	// A figure's self time is the campaign's work outside its points.
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == "campaign.figure" {
			v["campaign.self_s"] += self[s.ID].Seconds()
		}
	}

	c := func(k string) float64 { return float64(p.counts[k]) }
	for _, k := range []string{"sim.cycles", "sim.cycles_skipped", "sim.router_cycles", "sim.delivered_packets",
		"campaign.points", "campaign.probes", "store.puts", "store.file_bytes", "serve.simulated", "serve.requests"} {
		v[k] = c(k)
	}
	for k, x := range p.layer {
		v[k] = x
	}
	v["sim.skip_ratio"] = ratio(c("sim.cycles_skipped"), c("sim.cycles"))
	v["sim.freelist_hit_ratio"] = ratio(c("sim.packet_reuses"), c("sim.packet_reuses")+c("sim.packet_allocs"))
	v["sim.ns_per_router_cycle"] = ratio(v["sim.run_s"]*1e9, c("sim.router_cycles"))
	v["store.hit_ratio"] = ratio(c("store.hits"), c("store.hits")+c("store.misses"))
	v["serve.cache_hit_ratio"] = ratio(c("serve.cache_hits"), c("serve.cache_hits")+c("serve.simulated"))
	v["trace.overhead_s"] = overhead

	out := make(map[string]metric, len(layerMetricUnits))
	for _, m := range layerMetricUnits {
		out[m.name] = metric{value: v[m.name], unit: m.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pin is the recorded outcome of one workload at one seed: the digest of
// every operation, in order, and the work counts.
type pin struct {
	Digests []string         `json:"digests"`
	Counts  map[string]int64 `json:"counts"`
}

//go:embed golden.json
var goldenFS embed.FS

// checkPins compares the run with its pin in golden, when the seed has
// one. Any other seed is compared with the ledger: the first correct run of
// the seed by the same build, which the check writes when absent. The
// ledger is keyed by the build, so a change of results by a later build
// starts a ledger of its own.
func checkPins(golden map[string]pin, workload string, seed int64, res *result, ledgerDir, build string) error {
	key := fmt.Sprintf("%s/%d", workload, seed)
	if g, ok := golden[key]; ok {
		compareRuns(res, "golden "+key, res.digests, res.counts, g.Digests, g.Counts)
		return nil
	}
	path := filepath.Join(ledgerDir, fmt.Sprintf("ledger-%s-%d-%s.json", workload, seed, build))
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		var l pin
		if err := json.Unmarshal(b, &l); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
		compareRuns(res, "ledger "+key, res.digests, res.counts, l.Digests, l.Counts)
	case errors.Is(err, fs.ErrNotExist):
		if res.failed == 0 {
			b, _ := json.Marshal(pin{Digests: res.digests, Counts: res.counts}) // plain data always marshals
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return err
			}
		}
	default:
		return err
	}
	return nil
}

// buildID identifies the running binary by the SHA-256 of its file.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

func loadGolden() (map[string]pin, error) {
	b, err := goldenFS.ReadFile("golden.json")
	if err != nil {
		return nil, err
	}
	return parseGolden(b)
}

func parseGolden(b []byte) (map[string]pin, error) {
	var g map[string]pin
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// writePin records a correct run's digests and counts in the golden file
// and returns the pins the file now holds.
func writePin(path, workload string, seed int64, res *result) (map[string]pin, error) {
	if res.failed > 0 {
		return nil, fmt.Errorf("pin: the run failed %d operations; not recording it", res.failed)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := parseGolden(b)
	if err != nil {
		return nil, err
	}
	g[fmt.Sprintf("%s/%d", workload, seed)] = pin{Digests: res.digests, Counts: res.counts}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return nil, err
	}
	return g, os.WriteFile(path, append(out, '\n'), 0o644)
}

// checkPoint records one finished point in the pass: its digest (of
// Result.Metrics and Result.Engine), a failure if it errored or suspects a
// deadlock, and, when it was simulated rather than served from a store, its
// engine's work counts. routerCycles accumulates Σ AvgActiveRouters ×
// Cycles until the caller rounds it.
func checkPoint(p *pass, name string, res *slimnoc.Result, err error, simulated bool, routerCycles *float64) {
	p.attempted++
	if err != nil || res == nil {
		p.fail("%s: %v", name, err)
		p.digests = append(p.digests, "error")
		return
	}
	m, eng := res.Metrics, res.Engine
	p.digests = append(p.digests, digest(struct {
		Metrics slimnoc.Metrics
		Engine  slimnoc.EngineStats
	}{m, eng}))
	if m.DeadlockSuspected {
		p.fail("%s: deadlock suspected", name)
	}
	if !simulated {
		return
	}
	p.counts["sim.cycles"] += eng.Cycles
	p.counts["sim.cycles_skipped"] += eng.CyclesSkipped
	p.counts["sim.delivered_packets"] += m.Delivered
	p.counts["sim.packet_allocs"] += eng.PacketAllocs
	p.counts["sim.packet_reuses"] += eng.PacketReuses
	*routerCycles += eng.AvgActiveRouters * float64(eng.Cycles)
}

// roundCount turns an exactly reproducible float sum into a count.
func roundCount(x float64) int64 { return int64(math.Round(x)) }
