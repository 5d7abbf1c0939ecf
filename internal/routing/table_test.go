package routing

import (
	"errors"
	"testing"

	"repro/internal/topo"
)

// refWords derives the reference next-hop words of one route from a
// builder's Route(): each hop's port is the next router's position in the
// sender's sorted adjacency row, its VC the builder's, and NextEject ends
// the sequence.
func refWords(t testing.TB, net *topo.Network, pb PathBuilder, src, dst int) ([]int, []uint32) {
	t.Helper()
	path, vcs := pb.Route(src, dst)
	var next []uint32
	for i := 0; i+1 < len(path); i++ {
		port, ok := searchAdj(net.Adj[path[i]], path[i+1])
		if !ok {
			t.Fatalf("reference route %d->%d uses missing link %d->%d", src, dst, path[i], path[i+1])
		}
		next = append(next, NextWord(port, vcs[i], pb.NumVCs()))
	}
	return path, append(next, NextEject)
}

// checkTable compares a compiled table with its reference builder over
// every (src,dst) pair: AppendNext must equal the words derived from
// Route(), and AppendPath must equal Route()'s path.
func checkTable(t *testing.T, net *topo.Network, pb PathBuilder, tab *RouteTable) {
	t.Helper()
	if tab.Nr() != net.Nr || tab.NumVCs() != pb.NumVCs() {
		t.Fatalf("table dims %d/%d, want %d/%d", tab.Nr(), tab.NumVCs(), net.Nr, pb.NumVCs())
	}
	var next []uint32
	var path []int
	for src := 0; src < net.Nr; src++ {
		for dst := 0; dst < net.Nr; dst++ {
			wantPath, wantNext := refWords(t, net, pb, src, dst)
			next = tab.AppendNext(next[:0], src, dst)
			if len(next) != len(wantNext) {
				t.Fatalf("%d->%d: %d next words, want %d", src, dst, len(next), len(wantNext))
			}
			for i := range next {
				if next[i] != wantNext[i] {
					t.Fatalf("%d->%d: next[%d] = %#x, want %#x", src, dst, i, next[i], wantNext[i])
				}
			}
			path = tab.AppendPath(path[:0], src, dst)
			if len(path) != len(wantPath) {
				t.Fatalf("%d->%d: path %v, want %v", src, dst, path, wantPath)
			}
			for i := range path {
				if path[i] != wantPath[i] {
					t.Fatalf("%d->%d: path %v, want %v", src, dst, path, wantPath)
				}
			}
		}
	}
}

// tableBuilders returns representative PathBuilders over small networks,
// including rings of 2 and 3 (the torus dateline's edge cases) and a PFBF
// with one partition along Y.
func tableBuilders(t *testing.T) map[string]struct {
	net *topo.Network
	pb  PathBuilder
} {
	t.Helper()
	type tc = struct {
		net *topo.Network
		pb  PathBuilder
	}
	out := map[string]tc{}
	add := func(name string, net *topo.Network, pb PathBuilder, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tc{net, pb}
	}
	mesh := topo.Mesh2D(4, 5, 1)
	pb, err := NewDORMesh(mesh, 4, 5, 3)
	add("dor-mesh", mesh, pb, err)
	torus := topo.Torus2D(4, 4, 1)
	pb, err = NewDORTorus(torus, 4, 4, 2)
	add("dor-torus", torus, pb, err)
	torus23 := topo.Torus2D(2, 3, 1)
	pb, err = NewDORTorus(torus23, 2, 3, 3)
	add("dor-torus-2x3", torus23, pb, err)
	torus5 := topo.Torus2D(5, 6, 1)
	pb, err = NewDORTorus(torus5, 5, 6, 2)
	add("dor-torus-5x6", torus5, pb, err)
	fbf := topo.FBF(4, 3, 1)
	pb, err = NewXYFBF(fbf, 4, 3, 1)
	add("xy-fbf-1vc", fbf, pb, err)
	pb, err = NewXYFBF(fbf, 4, 3, 2)
	add("xy-fbf", fbf, pb, err)
	pfbf := topo.PFBF(3, 2, 3, 2, 1)
	pb, err = NewXYPFBF(pfbf, 3, 2, 3, 2, 2)
	add("xy-pfbf", pfbf, pb, err)
	pfbf4 := topo.PFBF(2, 1, 3, 3, 1)
	pb, err = NewXYPFBF(pfbf4, 2, 1, 3, 3, 2)
	add("xy-pfbf-1y", pfbf4, pb, err)
	fbf44 := topo.FBF(4, 4, 1)
	add("minimal", fbf44, &MinimalRouting{P: NewMinimal(fbf44), VCs: 3}, nil)
	return out
}

// TestCompileMatchesBuilder verifies that NewTable compiles every builder
// of this package to a table that reproduces the builder's routes — next
// words and router paths — for every pair.
func TestCompileMatchesBuilder(t *testing.T) {
	for name, tc := range tableBuilders(t) {
		tc := tc
		t.Run(name, func(t *testing.T) {
			tab, err := NewTable(tc.net, tc.pb)
			if err != nil {
				t.Fatal(err)
			}
			_, isMinimal := tc.pb.(*MinimalRouting)
			if tab.Compact() != isMinimal {
				t.Fatalf("Compact() = %v for %T", tab.Compact(), tc.pb)
			}
			checkTable(t, tc.net, tc.pb, tab)
		})
	}
}

// foreignBuilder is a PathBuilder outside this package's compiled forms.
type foreignBuilder struct{ MinimalRouting }

// TestNewTableRejectsForeignBuilder pins the ErrNoTable contract callers
// rely on to route such builders per packet.
func TestNewTableRejectsForeignBuilder(t *testing.T) {
	net := topo.FBF(3, 3, 1)
	_, err := NewTable(net, &foreignBuilder{MinimalRouting{P: NewMinimal(net), VCs: 2}})
	if !errors.Is(err, ErrNoTable) {
		t.Fatalf("NewTable(foreign) error = %v, want ErrNoTable", err)
	}
}

// TestCompileGridRejects checks the grid constructor's refusals: a kind
// whose moves the network lacks (torus routes on a mesh), a grid whose size
// disagrees with the network, too few VCs for the dateline, and a generic
// class with no grid routes.
func TestCompileGridRejects(t *testing.T) {
	mesh := topo.Mesh2D(4, 4, 1)
	torus := topo.Torus2D(4, 4, 1)
	for name, c := range map[string]struct {
		net  *topo.Network
		kind Kind
		vcs  int
	}{
		"missing-wrap-link": {mesh, Kind{Class: ClassTorus, RX: 4, RY: 4}, 2},
		"size-mismatch":     {mesh, Kind{Class: ClassMesh, RX: 4, RY: 3}, 2},
		"torus-one-vc":      {torus, Kind{Class: ClassTorus, RX: 4, RY: 4}, 1},
		"generic":           {torus, Kind{Class: ClassGeneric}, 2},
	} {
		if _, err := CompileGrid(c.net, c.kind, c.vcs); err == nil {
			t.Errorf("%s: CompileGrid accepted %+v with %d VCs", name, c.kind, c.vcs)
		}
	}
}

// TestTableBorrowIsolation pins the buffer contract: AppendNext and
// AppendPath write only past the caller's prefix, and the table hands out
// no storage of its own, so two routes appended into one buffer read back
// exactly as when each is appended alone.
func TestTableBorrowIsolation(t *testing.T) {
	net := topo.Mesh2D(3, 3, 1)
	tab, err := CompileGrid(net, Kind{Class: ClassMesh, RX: 3, RY: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := tab.AppendNext(nil, 0, 8)
	b := tab.AppendNext(nil, 2, 6)
	both := tab.AppendNext(append([]uint32(nil), a...), 2, 6)
	if len(both) != len(a)+len(b) {
		t.Fatalf("appended routes %v, want %v then %v", both, a, b)
	}
	for i, w := range append(append([]uint32(nil), a...), b...) {
		if both[i] != w {
			t.Fatalf("appended routes %v, want %v then %v", both, a, b)
		}
	}
	path := tab.AppendPath([]int{-7}, 0, 8)
	if path[0] != -7 || path[1] != 0 || path[len(path)-1] != 8 {
		t.Fatalf("AppendPath onto prefix = %v", path)
	}
}

func TestAppendPathHelpers(t *testing.T) {
	net := topo.FBF(4, 4, 1)
	p := NewMinimal(net)
	tab, err := CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	buf = tab.AppendPath(buf[:0], 0, 15)
	want := p.MinPath(0, 15)
	if len(buf) != len(want) {
		t.Fatalf("AppendPath %v, want %v", buf, want)
	}
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("AppendPath %v, want %v", buf, want)
		}
	}
	// Valiant-style concatenation: src->mid then tail of mid->dst equals
	// Paths.ValiantPath.
	val := tab.AppendPath(nil, 0, 5)
	val = tab.AppendPathTail(val, 5, 15)
	wantVal := p.ValiantPath(0, 5, 15)
	if len(val) != len(wantVal) {
		t.Fatalf("valiant concat %v, want %v", val, wantVal)
	}
	for i := range val {
		if val[i] != wantVal[i] {
			t.Fatalf("valiant concat %v, want %v", val, wantVal)
		}
	}
}

func TestAppendAscendingVCs(t *testing.T) {
	got := AppendAscendingVCs(nil, 5, 3)
	want := AscendingVCs(5, 3)
	if len(got) != len(want) {
		t.Fatalf("%v != %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v != %v", got, want)
		}
	}
	if out := AppendAscendingVCs([]int{9}, 2, 4); len(out) != 3 || out[0] != 9 || out[1] != 0 || out[2] != 1 {
		t.Fatalf("append onto prefix = %v", out)
	}
}
