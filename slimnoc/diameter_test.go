package slimnoc

import (
	"strings"
	"testing"

	"repro/internal/topo"
)

// allPairsDiameter is the reference for topo.Network.Diameter: one
// queue-based BFS from every router, -1 as soon as one search leaves a
// router unreached.
func allPairsDiameter(n *topo.Network) int {
	diam := 0
	dist := make([]int, n.Nr)
	queue := make([]int, 0, n.Nr)
	for s := 0; s < n.Nr; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range n.Adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					diam = max(diam, dist[v])
					queue = append(queue, v)
				}
			}
		}
		if len(queue) < n.Nr {
			return -1
		}
	}
	return diam
}

// diameterPresets lists every Table 4 network (the static presets and the
// Slim NoCs of every layout at N = 200 and 1296); outside -short it adds
// the 10k-endpoint scale presets.
func diameterPresets() []string {
	var out []string
	for _, p := range Presets() {
		if strings.HasSuffix(p, "100k") || (strings.HasSuffix(p, "10k") && testing.Short()) {
			continue
		}
		out = append(out, p)
	}
	for _, l := range Layouts() {
		out = append(out, "sn_"+l+"_200", "sn_"+l+"_1296")
	}
	if !testing.Short() {
		out = append(out, "sn_subgr_10000")
	}
	return out
}

// TestDiameterMatchesAllPairsBFS checks the bit-parallel diameter against
// the all-pairs BFS on every Table 4 network, on the Dragonfly and Clos
// examples, and on link-failure-damaged copies, some of them disconnected.
func TestDiameterMatchesAllPairsBFS(t *testing.T) {
	check := func(t *testing.T, net *topo.Network) int {
		t.Helper()
		want := allPairsDiameter(net)
		if got := net.Diameter(); got != want {
			t.Errorf("%s (%d routers): Diameter %d, all-pairs BFS %d", net.Name, net.Nr, got, want)
		}
		return want
	}
	var nets []*topo.Network
	for _, preset := range diameterPresets() {
		net, _, err := BuildNetwork(NetworkSpec{Preset: preset})
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		nets = append(nets, net)
	}
	for _, topology := range []string{"dragonfly", "clos"} {
		e, ok := TopologyByName(topology)
		if !ok {
			t.Fatalf("topology %s not registered", topology)
		}
		net, _, err := BuildNetwork(e.Example)
		if err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		nets = append(nets, net)
	}
	for _, net := range nets {
		if check(t, net) < 1 {
			t.Errorf("%s: intact network has diameter %d", net.Name, net.Diameter())
		}
	}

	disconnected := 0
	for _, preset := range []string{"sn_subgr_200", "t2d3", "fbf4", "pfbf54", "sn_basic_1296"} {
		net, _, err := BuildNetwork(NetworkSpec{Preset: preset})
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.8} {
			for seed := int64(1); seed <= 3; seed++ {
				if check(t, net.RemoveRandomLinks(frac, seed)) == -1 {
					disconnected++
				}
			}
		}
	}
	if disconnected == 0 {
		t.Error("no damaged network was disconnected; the -1 path went untested")
	}
}
