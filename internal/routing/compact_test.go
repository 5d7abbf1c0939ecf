package routing

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// compactNets returns the networks the compact form must reproduce exactly:
// an SN instance (the topology class the auto-selection targets) and an FBF
// grid (generic minimal routes over a different structure).
func compactNets(t *testing.T) map[string]*topo.Network {
	t.Helper()
	return map[string]*topo.Network{
		"sn":  snNet(t, 5, 4, core.LayoutSubgroup),
		"fbf": topo.FBF(4, 4, 1),
	}
}

// TestCompactMatchesDense verifies, for every (src,dst) pair, that the
// compact table reproduces the dense reference — the next-hop words and
// router path derived pair by pair from MinimalRouting.Route over the
// all-pairs Paths matrix — element for element: the equivalence the
// simulator's byte-identity under compact tables rests on.
func TestCompactMatchesDense(t *testing.T) {
	const vcs = 2
	for name, net := range compactNets(t) {
		net := net
		t.Run(name, func(t *testing.T) {
			compact, err := CompileCompact(net, vcs)
			if err != nil {
				t.Fatal(err)
			}
			if !compact.Compact() {
				t.Fatal("CompileCompact built a non-compact table")
			}
			checkTable(t, net, &MinimalRouting{P: NewMinimal(net), VCs: vcs}, compact)
		})
	}
}

// TestCompactPathHelpers pins the AppendPath/AppendPathTail walks on a
// compact table against the reference minimal paths.
func TestCompactPathHelpers(t *testing.T) {
	net := snNet(t, 5, 4, core.LayoutSubgroup)
	p := NewMinimal(net)
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < net.Nr; src += 7 {
		for dst := 0; dst < net.Nr; dst += 5 {
			want := p.MinPath(src, dst)
			got := compact.AppendPath(nil, src, dst)
			gotTail := compact.AppendPathTail([]int{-7}, src, dst)
			if len(got) != len(want) || len(gotTail) != len(want) {
				t.Fatalf("%d->%d: path lens %d/%d, want %d", src, dst, len(got), len(gotTail), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d->%d: AppendPath[%d] = %d, want %d", src, dst, i, got[i], want[i])
				}
			}
			if gotTail[0] != -7 {
				t.Fatalf("%d->%d: AppendPathTail clobbered the prefix: %v", src, dst, gotTail)
			}
			for i := 1; i < len(gotTail); i++ {
				if gotTail[i] != want[i] {
					t.Fatalf("%d->%d: AppendPathTail[%d] = %d, want %d", src, dst, i, gotTail[i], want[i])
				}
			}
		}
	}
}

// TestCompactMemBytes pins the compact footprint at one byte per pair (plus
// nothing else that scales with nr^2) — the compression that brings the
// paper's 100k-endpoint tables under a 256 MiB budget.
func TestCompactMemBytes(t *testing.T) {
	net := snNet(t, 5, 4, core.LayoutSubgroup)
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := int64(net.Nr) * int64(net.Nr)
	if got := compact.MemBytes(); got != pairs {
		t.Fatalf("compact MemBytes = %d, want %d (one byte per pair)", got, pairs)
	}
	// The acceptance arithmetic for the 100k-endpoint preset (q=79 SN:
	// 2*79^2 = 12482 routers): compact under 256 MiB.
	const nr100k = 12482
	if compactSize := int64(nr100k) * int64(nr100k); compactSize >= 256<<20 {
		t.Fatalf("compact size %d not under 256 MiB", compactSize)
	}
}

// TestCompactSelfAndBounds pins the degenerate pairs: src == dst appends an
// immediate eject word and a single-router path.
func TestCompactSelfAndBounds(t *testing.T) {
	net := topo.FBF(3, 3, 1)
	compact, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if next := compact.AppendNext(nil, 4, 4); len(next) != 1 || next[0] != NextEject {
		t.Fatalf("self route next = %v, want [NextEject]", next)
	}
	if path := compact.AppendPath(nil, 4, 4); len(path) != 1 || path[0] != 4 {
		t.Fatalf("self route path = %v, want [4]", path)
	}
	if NextEject != math.MaxUint32 {
		t.Fatalf("NextEject = %#x", uint32(NextEject))
	}
}
