package sim_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The base golden replays compile their compact route table inside sim.New
// from the path builder. The replays below instead supply ONE precompiled
// compact table through Config.Table and share it across every case of a
// fixture, run concurrently — the campaign and estimator contract — so the
// fixtures also pin that a shared table is read-only and that supplying it
// changes nothing.

// sharedCompact returns the config template of the shared replays: the
// golden network with one precompiled compact table.
func sharedCompact(t *testing.T) sim.Config {
	t.Helper()
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	tab, err := routing.CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{Net: net, Table: tab, VCs: 2, Seed: 107}
}

// readFixture loads one golden fixture.
func readFixture(t *testing.T, path string) map[string]sim.Result {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture %s: %v", path, err)
	}
	var want map[string]sim.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenMetricsCompactTable replays the static-routing golden cases on
// one shared compact table. (The UGAL case routes per packet and has no
// compiled table; the base golden tests cover it.)
func TestGoldenMetricsCompactTable(t *testing.T) {
	want := readFixture(t, goldenPath)
	base := sharedCompact(t)
	for _, c := range goldenCases() {
		if c.UGAL {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.Scheme, cfg.H, cfg.Seed = c.Scheme, c.H, c.Seed
			cfg.Traffic = &traffic.Synthetic{N: cfg.Net.N(), Rate: c.Rate, PacketFlits: 6,
				Pattern: traffic.Uniform{N: cfg.Net.N()}}
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1000, 3000, 3000
			if _, got := runCfg(t, cfg); got != want[c.Name] {
				t.Errorf("shared-table Result drifted from golden fixture\n got %+v\nwant %+v", got, want[c.Name])
			}
		})
	}
}

// TestGoldenWorkloadsCompactTable replays the composable-workload fixture
// (bursty, MMPP, hotspot, bimodal, request-reply) on one shared compact
// table.
func TestGoldenWorkloadsCompactTable(t *testing.T) {
	want := readFixture(t, workloadsPath)
	base := sharedCompact(t)
	for name, src := range workloadSources(base.Net.N()) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.Scheme, cfg.Traffic = sim.EdgeBuffers, src
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1000, 3000, 3000
			if _, got := runCfg(t, cfg); got != want[name] {
				t.Errorf("shared-table Result drifted from workloads fixture\n got %+v\nwant %+v", got, want[name])
			}
		})
	}
}

// TestGoldenIdleCompactTable replays the idle-skip fixture on one shared
// compact table, calendar active: routes are appended at enqueue time, so
// they must not disturb the calendar's exact-skip bookkeeping.
func TestGoldenIdleCompactTable(t *testing.T) {
	want := readFixture(t, goldenIdlePath)
	base := sharedCompact(t)
	for _, c := range goldenIdleCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.Scheme, cfg.H = c.Scheme, 1
			cfg.Traffic = idleSource(t, cfg.Net.N(), c.Shape)
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 1500, 3000
			if _, got := runCfg(t, cfg); got != want[c.Name] {
				t.Errorf("shared-table Result drifted from idle fixture\n got %+v\nwant %+v", got, want[c.Name])
			}
		})
	}
}
