// Command perfbench is the repository's end-to-end benchmark. It drives the
// public functions of slimnoc, slimnoc/store, slimnoc/serve and internal/exp
// from outside, measures host time, and checks every simulated result for
// exact identity. See README.md for the workloads, the metrics and the
// layer map.
//
// Usage:
//
//	bash perfbench/run.sh --workload repro-quick --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer metrics
// of a traced run, whose spans are written to
// .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Recorded seeds: DefaultSeed is the one later claims are measured on,
// HeldOutSeed the one they are rechecked on. Both have pinned digests and
// work counts in golden.json.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// workload is one set of inputs the benchmark runs. A run repeats reps of
// setup, fixed work and teardown until the work has taken --seconds.
type workload struct {
	name string
	// setup builds everything the fixed work needs; its CPU time is
	// setup_s.
	setup func(e *env) (rep, error)
}

// rep is one set-up instance of a workload.
type rep interface {
	// work runs the workload's fixed work once and reports it.
	work(e *env) (*pass, error)
	close() error
}

// pass is what one rep's fixed work produced.
type pass struct {
	wall time.Duration // host wall time of the fixed work
	// segCPU holds the process CPU time of each segment of the fixed work,
	// in a fixed order: a figure, a serve session, a point.
	segCPU []time.Duration
	// peakHeap is the largest heap, in MiB, that a full collection at the
	// end of a segment leaves; peakRSS is the peak resident set size, in
	// MiB, during the fixed work.
	peakHeap, peakRSS float64
	// opMs holds, per kind of operation ("point", "req"), the host
	// milliseconds of each operation; opTime holds the host time the kind's
	// operations took in all, for their rate.
	opMs   map[string][]float64
	opTime map[string]time.Duration
	// digests holds one digest per operation, in a fixed order.
	digests []string
	// counts holds the deterministic work counts of the pass.
	counts map[string]int64
	// layer holds per-layer metrics the workload derives itself in a
	// traced pass.
	layer map[string]float64
	// failed counts operations that errored, were refused or failed a
	// correctness check; attempted counts all operations.
	attempted, failed int
	problems          []string
}

func newPass() *pass {
	return &pass{
		opMs: map[string][]float64{}, opTime: map[string]time.Duration{},
		counts: map[string]int64{}, layer: map[string]float64{},
	}
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// env is what a workload sees of one benchmark invocation.
type env struct {
	seed  int64
	dir   string  // scratch directory inside the checkout
	tr    *tracer // nil when untraced
	opID  int64   // the last operation id given to a span
	files int     // scratch files handed out
}

// scratchFile returns a fresh path in the run's scratch directory.
func (e *env) scratchFile(name string) string {
	e.files++
	return filepath.Join(e.dir, fmt.Sprintf("%d-%s", e.files, name))
}

var workloads = map[string]workload{
	"repro-quick": {name: "repro-quick", setup: setupRepro},
	"scale-10k":   {name: "scale-10k", setup: setupScale},
}

// A run makes at least minReps reps, and at least minSetups set-ups that
// take about setupSeconds in all, so that every gated metric is a median of
// several samples: a few for scale-10k's long set-ups, hundreds for
// repro-quick's short ones.
const (
	minReps      = 3
	minSetups    = 3
	setupSeconds = 2
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: repro-quick or scale-10k")
		seed    = flag.Int64("seed", DefaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 15, "host seconds of fixed work to measure")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		pinTo   = flag.String("pin", "", "record this run's digests and work counts in the given golden file (maintainers, after a deliberate change of results)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := run(w, *seed, *seconds, *trace == 1, *pinTo); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its result.
func run(w workload, seed int64, seconds float64, traced bool, pinTo string) error {
	state := os.Getenv("CARGO_TARGET_DIR")
	if state == "" {
		state = ".bench_build"
	}
	state = filepath.Join(state, "perfbench")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(state, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, dir: dir}

	var res *result
	if traced {
		res, err = runTraced(w, e, filepath.Join(state, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed)))
	} else {
		res, err = runMeasured(w, e, seconds)
	}
	if err != nil {
		return err
	}
	res.extra = append(res.extra, fmt.Sprintf("%s  store directory filesystem: %s", w.name, fsType(dir)))
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	// A pinning run is checked against what it records: the binary embeds
	// the pins it was built with, and those are what the run replaces.
	if pinTo != "" {
		if golden, err = writePin(pinTo, w.name, seed, res); err != nil {
			return err
		}
	}
	build, err := buildID()
	if err != nil {
		return err
	}
	if err := checkPins(golden, w.name, seed, res, state, build); err != nil {
		return err
	}
	res.print(os.Stdout)
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported number with its unit and sample count.
type metric struct {
	value   float64
	unit    string
	samples int    // 0 = not a sampled statistic
	note    string // e.g. which percentile a tail metric is
}

// result is the outcome of one invocation.
type result struct {
	workload          string
	attempted, failed int
	problems          []string
	metrics           map[string]metric // the JSON metrics
	info              map[string]metric // printed, not gated
	// digests and counts of the first rep, checked against the pins.
	digests []string
	counts  map[string]int64
	extra   []string // further report lines
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// errorRate is failed operations over attempted ones. A check that is not
// about one operation, such as a work count, also counts as a failure, so
// the count is capped at the operations attempted.
func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(min(r.failed, r.attempted)) / float64(r.attempted)
}

// printMetrics writes one line per metric, sorted by name.
func printMetrics(w io.Writer, workload string, ms map[string]metric, suffix string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		detail := ""
		if m.samples > 0 {
			detail = fmt.Sprintf(" (n=%d)", m.samples)
		}
		if m.note != "" {
			detail += " " + m.note
		}
		fmt.Fprintf(w, "%s  %-26s %14s %s%s%s\n", workload, n, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, detail, suffix)
	}
}

// print writes the human-readable report and, last, the JSON result line.
func (r *result) print(f *os.File) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	const shown = 20
	for i, p := range r.problems {
		if i == shown {
			fmt.Fprintf(w, "FAIL ... and %d more\n", len(r.problems)-shown)
			break
		}
		fmt.Fprintln(w, "FAIL", p)
	}
	fmt.Fprintf(w, "%s  %-26s %14.6g (%d failed of %d attempted)\n", r.workload, "error_rate", r.errorRate(),
		min(r.failed, r.attempted), r.attempted)
	printMetrics(w, r.workload, r.metrics, "")
	printMetrics(w, r.workload, r.info, " [not gated]")
	keys := make([]string, 0, len(r.counts))
	for k := range r.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s  count %-20s %d\n", r.workload, k, r.counts[k])
	}
	for _, l := range r.extra {
		fmt.Fprintln(w, l)
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{r.failed == 0, r.attempted, min(r.failed, r.attempted), map[string]json.RawMessage{}}
	for n, m := range r.metrics {
		out.Metrics[n] = json.RawMessage(`{"value":` + strconv.FormatFloat(m.value, 'g', -1, 64) +
			`,"unit":` + strconv.Quote(m.unit) + `}`)
	}
	line, _ := json.Marshal(out) // maps of RawMessage always marshal
	fmt.Fprintln(w, string(line))
}
