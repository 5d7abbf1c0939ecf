package slimnoc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// wideRouterCase is one pinned run of a router whose input slots
// (network ports x VCs) span more than one 64-bit occupancy word.
type wideRouterCase struct {
	preset string
	vcs    int
	scheme string
	rate   float64
	sim    SimSpec
	long   bool   // skipped under -short
	digest string // SHA-256 prefix of the Metrics+Engine JSON
}

// wideRouterCases pins the arbitration walk on multi-word routers:
// sn_subgr_200 has 7 network ports, so 10 VCs take 2 words and 20 VCs
// take 3; sn_basic_1296 (13 ports) at 6 VCs takes 2 words and fbf10k
// (69 ports) at 2 VCs takes 3. The digests were recorded with the
// slot-by-slot probe loop that served these routers before the occupancy
// walk covered every width, so they prove the walk visits the same slots
// in the same order.
var wideRouterCases = []wideRouterCase{
	{preset: "sn_subgr_200", vcs: 10, scheme: "eb", rate: 0.3, sim: QuickSim(), digest: "a69763102a3f3be0"},
	{preset: "sn_subgr_200", vcs: 10, scheme: "el", rate: 0.3, sim: QuickSim(), digest: "34c066c5ad90768d"},
	{preset: "sn_subgr_200", vcs: 10, scheme: "cbr", rate: 0.3, sim: QuickSim(), digest: "73e9bc4da2835496"},
	{preset: "sn_subgr_200", vcs: 20, scheme: "eb", rate: 0.3, sim: QuickSim(), digest: "a69763102a3f3be0"},
	{preset: "sn_subgr_200", vcs: 20, scheme: "el", rate: 0.3, sim: QuickSim(), digest: "34c066c5ad90768d"},
	{preset: "sn_subgr_200", vcs: 20, scheme: "cbr", rate: 0.3, sim: QuickSim(), digest: "da37cfbb6321b699"},
	{preset: "sn_basic_1296", vcs: 6, scheme: "eb", rate: 0.2, long: true,
		sim: SimSpec{WarmupCycles: 500, MeasureCycles: 1500, DrainCycles: 2000}, digest: "63b3f19d8a0cbd18"},
	{preset: "fbf10k", vcs: 2, scheme: "eb", rate: 0.1, long: true,
		sim: SimSpec{WarmupCycles: 200, MeasureCycles: 600, DrainCycles: 1200}, digest: "f545d7120cf9cc12"},
}

// TestWideRouterDigests replays every wide-router case serially and on four
// engine domains and compares the Metrics+Engine digest with the recorded
// one.
func TestWideRouterDigests(t *testing.T) {
	for _, c := range wideRouterCases {
		c := c
		name := fmt.Sprintf("%s/vcs%d/%s", c.preset, c.vcs, c.scheme)
		t.Run(name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("large network; runs without -short")
			}
			spec := RunSpec{
				Network:   NetworkSpec{Preset: c.preset},
				Routing:   RoutingSpec{VCs: c.vcs},
				Buffering: BufferingSpec{Scheme: c.scheme},
				Traffic:   TrafficSpec{Pattern: "rnd", Rate: c.rate},
				Sim:       c.sim,
			}
			spec.Sim.Seed = 17
			for _, jobs := range []int{1, 4} {
				res, err := Run(context.Background(), spec, WithEngineJobs(jobs))
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(struct {
					Metrics Metrics
					Engine  EngineStats
				}{res.Metrics, res.Engine})
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:8]); got != c.digest {
					t.Errorf("jobs=%d: digest %s, want %s\n%s", jobs, got, c.digest, data)
				}
			}
		})
	}
}
