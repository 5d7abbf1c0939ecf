package slimnoc

import (
	"context"
	"encoding/json"
	"runtime"
	"sort"
	"testing"

	"repro/internal/routing"
)

// TestRunnerWithRouteTable pins that a precompiled shared table changes
// nothing about the results: metrics are byte-identical to a run that
// builds its own routes.
func TestRunnerWithRouteTable(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.06},
		Sim:     SimSpec{WarmupCycles: 200, MeasureCycles: 600, DrainCycles: 1200, Seed: 5},
	}.Normalized()
	tab, err := CompileRouteTable(net, kind, spec.Routing.Algorithm, spec.Routing.VCs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...Option) string {
		t.Helper()
		res, err := Run(context.Background(), spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return string(m)
	}
	plain := run(WithNetwork(net, kind))
	shared := run(WithNetwork(net, kind), WithRouteTable(tab))
	if plain != shared {
		t.Errorf("shared route table changed metrics:\nplain  %s\nshared %s", plain, shared)
	}
}

// TestRouteTableNetworkMismatch: a table compiled for one network must not
// silently route a different one — the simulator rejects mismatched
// dimensions, and a campaign point whose options swap the network drops
// the cached table and recompiles instead of failing.
func TestRouteTableNetworkMismatch(t *testing.T) {
	netA, kindA, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	tabA, err := CompileRouteTable(netA, kindA, "auto", 2)
	if err != nil {
		t.Fatal(err)
	}
	netB, kindB, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 400, Seed: 7},
	}
	if _, err := Run(t.Context(), spec, WithNetwork(netB, kindB), WithRouteTable(tabA)); err == nil {
		t.Fatal("running network B with a table compiled for network A must fail")
	}
	// The campaign path: the internal cache attaches a table for the
	// spec's network, then point options substitute another network. The
	// stale table must be dropped, not applied.
	spec.Network = NetworkSpec{Preset: "sn_subgr_200"}
	results, err := RunCampaign(t.Context(), []RunSpec{spec},
		WithJobs(1),
		WithPointOptions(func(int, RunSpec) []Option {
			return []Option{WithNetwork(netB, kindB)}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("network override alongside a cached table must recompile, got %v", results[0].Err)
	}
	if got := results[0].Result.Network.Name; got != netB.Name {
		t.Fatalf("point ran on %q, want the overriding network %q", got, netB.Name)
	}
}

// TestCompileRouteTableAdaptiveRejected: adaptive algorithms route per
// packet and must refuse compilation rather than freeze a misleading table.
func TestCompileRouteTableAdaptiveRejected(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileRouteTable(net, kind, "ugal-l", 4); err == nil {
		t.Fatal("compiling an adaptive algorithm must fail")
	}
	if _, err := CompileRouteTable(net, kind, "no-such-algo", 2); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

// TestCampaignSharedRouteTableRace runs many concurrent simulations that
// all read one compiled route table — both the campaign's internal
// per-(network, routing, VCs) cache and an explicitly shared table via
// WithRouteTable. Under -race this pins the contract that compiled tables
// are immutable.
func TestCampaignSharedRouteTableRace(t *testing.T) {
	net, kind, err := BuildNetwork(NetworkSpec{Preset: "sn_subgr_200"})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := CompileRouteTable(net, kind, "auto", 2)
	if err != nil {
		t.Fatal(err)
	}
	var points []RunSpec
	for i := 0; i < 12; i++ {
		points = append(points, RunSpec{
			Network: NetworkSpec{Preset: "sn_subgr_200"},
			Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.02 + 0.005*float64(i)},
			Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 600, Seed: int64(i + 1)},
		})
	}
	// First half rides the campaign's internal table cache; second half
	// shares the explicitly compiled table.
	results, err := RunCampaign(t.Context(), points,
		WithJobs(runtime.NumCPU()),
		WithPointOptions(func(i int, _ RunSpec) []Option {
			if i%2 == 0 {
				return nil
			}
			return []Option{WithNetwork(net, kind), WithRouteTable(tab)}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range results {
		if p.Err != nil {
			t.Errorf("point %d: %v", i, p.Err)
		}
	}
}

// TestGridRoutesMatchReference is the all-pairs equivalence proof of the
// closed-form grid routes: on every Table 4 grid preset (N in {54, 192,
// 200, 1296}) and, outside -short, the 10k-endpoint grids, the compiled
// table's next-hop words equal the words derived from the reference
// builder's Route() — each hop's port being the next router's position in
// the sender's sorted adjacency row — for every router pair.
func TestGridRoutesMatchReference(t *testing.T) {
	presets := []string{
		"t2d54", "fbf54", "pfbf54",
		"cm3", "cm4", "t2d3", "t2d4", "fbf3", "fbf4", "pfbf3", "pfbf4",
		"cm9", "cm8", "t2d9", "t2d8", "fbf9", "fbf8", "pfbf9", "pfbf8",
	}
	if !testing.Short() {
		presets = append(presets, "cm10k", "t2d10k", "fbf10k")
	}
	for _, preset := range presets {
		t.Run(preset, func(t *testing.T) {
			net, kind, err := BuildNetwork(NetworkSpec{Preset: preset})
			if err != nil {
				t.Fatal(err)
			}
			const vcs = 2
			tab, err := CompileRouteTable(net, kind, "auto", vcs)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Compact() {
				t.Fatal("grid preset compiled to the compact form")
			}
			ref, err := routing.NewRoutingFor(net, kind, vcs)
			if err != nil {
				t.Fatal(err)
			}
			var next, want []uint32
			for src := 0; src < net.Nr; src++ {
				for dst := 0; dst < net.Nr; dst++ {
					path, hopVCs := ref.Route(src, dst)
					want = want[:0]
					for i := 0; i+1 < len(path); i++ {
						row := net.Adj[path[i]]
						port := sort.SearchInts(row, path[i+1])
						if port == len(row) || row[port] != path[i+1] {
							t.Fatalf("reference route %d->%d uses missing link %d->%d", src, dst, path[i], path[i+1])
						}
						want = append(want, routing.NextWord(port, hopVCs[i], vcs))
					}
					want = append(want, routing.NextEject)
					next = tab.AppendNext(next[:0], src, dst)
					if len(next) != len(want) {
						t.Fatalf("%d->%d: %d next words, want %d", src, dst, len(next), len(want))
					}
					for i := range next {
						if next[i] != want[i] {
							t.Fatalf("%d->%d: next[%d] = %#x, want %#x", src, dst, i, next[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestRouteTableMemBytesAtScale pins the footprint of the scale family's
// route tables: the 10k-endpoint SN's compact table and the 10k torus's
// closed-form routes each stay within 2 MiB.
func TestRouteTableMemBytesAtScale(t *testing.T) {
	for _, preset := range []string{"sn_subgr_10000", "t2d10k"} {
		net, kind, err := BuildNetwork(NetworkSpec{Preset: preset})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := CompileRouteTable(net, kind, "auto", 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.MemBytes(); got > 2<<20 {
			t.Errorf("%s: route table MemBytes = %d, want <= 2 MiB", preset, got)
		}
	}
}
