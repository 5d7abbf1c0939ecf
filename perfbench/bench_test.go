package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/slimnoc/store"
)

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		wantP  float64
		wantV  float64
		reason string
	}{
		{1000, 99, 990, "1000 samples leave 10 beyond p99"},
		{999, 95, 950, "p99 of 999 leaves only 9 beyond"},
		{200, 95, 190, "p99 of 200 leaves 2 beyond, p95 exactly 10"},
		{100, 90, 90, "p95 of 100 leaves 5 beyond"},
		{20, 50, 10, "the median of 20 leaves 10 beyond"},
		{5, 100, 5, "no percentile has 10 beyond: the maximum"},
	} {
		p, v, n := tail(samples(tc.n))
		if p != tc.wantP || v != tc.wantV || n != tc.n {
			t.Errorf("n=%d: got %s=%v (n=%d), want %s=%v: %s",
				tc.n, percentileName(p), v, n, percentileName(tc.wantP), tc.wantV, tc.reason)
		}
	}
	if p, _, _ := tail(samples(100000)); p != 99 {
		t.Errorf("the tail is capped at p99, got %s", percentileName(p))
	}
}

func TestSelfTimeWithNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign.figure", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "sim.step", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "store.get", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30} {
		if got := int64(self[id]); got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
	layers := layerTimes(spans)
	// The nested sim.step lies inside a sim span, so it adds self time but
	// not busy time to the sim layer.
	if lt := layers["sim"]; lt.busy != 60 || lt.self != 25+30+5 || lt.count != 3 {
		t.Errorf("sim layer = %+v, want busy 60, self 60, count 3", lt)
	}
	if lt := layers["campaign"]; lt.busy != 100 || lt.self != 40 {
		t.Errorf("campaign layer = %+v, want busy 100, self 40", lt)
	}
}

func unitResult() *result {
	return &result{
		workload: "unit", attempted: 3,
		digests: []string{"aaaa0001", "aaaa0002", "aaaa0003"},
		counts:  map[string]int64{"sim.cycles": 1000},
	}
}

func TestPerturbedDigestCountsAsError(t *testing.T) {
	state := t.TempDir()
	// The first run of an unpinned seed writes the ledger; a second
	// identical run matches it.
	for i := 0; i < 2; i++ {
		res := unitResult()
		if err := checkPins(nil, "unit", 99, res, state, "b1"); err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("identical run %d failed: %v", i, res.problems)
		}
	}
	res := unitResult()
	res.digests[1] = "bbbb0002"
	if err := checkPins(nil, "unit", 99, res, state, "b1"); err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || res.errorRate() <= 0 {
		t.Errorf("perturbed digest: failed=%d error_rate=%v, want 1 failure and a positive rate", res.failed, res.errorRate())
	}
	res = unitResult()
	res.counts["sim.cycles"]++
	if err := checkPins(nil, "unit", 99, res, state, "b1"); err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Errorf("changed work count: failed=%d, want 1", res.failed)
	}
	// The same perturbation against a golden pin fails too.
	golden := map[string]pin{"unit/1": {Digests: unitResult().digests, Counts: unitResult().counts}}
	res = unitResult()
	res.digests[2] = "bbbb0003"
	if err := checkPins(golden, "unit", 1, res, state, "b1"); err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || res.errorRate() <= 0 {
		t.Errorf("perturbed digest against a pin: failed=%d error_rate=%v", res.failed, res.errorRate())
	}
}

func TestRepinAfterChangedResultsLeavesNextRunCorrect(t *testing.T) {
	state := t.TempDir()
	path := filepath.Join(state, "golden.json")
	old := unitResult()
	if err := os.WriteFile(path, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := writePin(path, "unit", 1, old); err != nil {
		t.Fatal(err)
	}
	// The old build also ran an unpinned seed, which wrote its ledger.
	if err := checkPins(nil, "unit", 5, unitResult(), state, "old"); err != nil {
		t.Fatal(err)
	}

	changed := func() *result {
		res := unitResult()
		res.digests[0] = "cccc0001"
		res.counts["sim.cycles"] = 1200
		return res
	}
	golden, err := writePin(path, "unit", 1, changed())
	if err != nil {
		t.Fatal(err)
	}
	// The next run, built with the re-pinned file, reads the file back.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := parseGolden(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []map[string]pin{golden, rebuilt} {
		res := changed()
		if err := checkPins(g, "unit", 1, res, state, "new"); err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("re-pinned seed: %v", res.problems)
		}
	}
	// The new build's unpinned seed starts a ledger of its own.
	for i := 0; i < 2; i++ {
		res := changed()
		if err := checkPins(rebuilt, "unit", 5, res, state, "new"); err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("unpinned seed, run %d of the new build: %v", i, res.problems)
		}
	}
}

func TestGoldenPinsParse(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, seed := range []int{DefaultSeed, HeldOutSeed} {
			p, ok := g[fmt.Sprintf("%s/%d", w, seed)]
			if !ok || len(p.Digests) == 0 || len(p.Counts) == 0 {
				t.Errorf("golden.json lacks a pin for %s seed %d", w, seed)
			}
		}
	}
}

func TestRefusedRequestsCountAsFailures(t *testing.T) {
	e := &env{seed: DefaultSeed, dir: t.TempDir()}
	st, err := store.Open(e.scratchFile("serve.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sv, err := startServe(e, st)
	if err != nil {
		t.Fatal(err)
	}
	// Node B does not exist: the load into it and both stages out of it
	// are refused; the store C -> D is served. Both sessions run it.
	sv.pipelines = []pipeline{{0, 1 << 20, 2, 3, 4}}
	p := newPass()
	err = sv.account(e, p, sv.send(nil))
	if cerr := sv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted != 8 || p.failed != 6 {
		t.Errorf("attempted=%d failed=%d, want 8 attempted and the 6 refused requests failed: %v",
			p.attempted, p.failed, p.problems)
	}
}

func TestCPUSumsSegmentMedians(t *testing.T) {
	rep := func(segs ...time.Duration) *pass { return &pass{segCPU: segs} }
	// A slow spell hits the first segment of rep 1 and the second of rep 2;
	// neither moves its segment's median.
	passes := []*pass{rep(10, 20), rep(3000, 21), rep(11, 4000)}
	got, err := segmentMedianSum(passes)
	if err != nil {
		t.Fatal(err)
	}
	if want := (11 + 21) * 1e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("cpu = %g s, want %g s", got, want)
	}
	if _, err := segmentMedianSum([]*pass{rep(1, 2), rep(1)}); err == nil {
		t.Error("reps with different segment counts: no error")
	}
}
