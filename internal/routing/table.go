// Compiled route tables. A RouteTable is the compiled form of a static
// routing algorithm, in exactly one of two forms behind one contract:
//
//   - compact (compact.go): one next-hop port byte per (src,dst) router
//     pair, for deterministic minimal routing with ascending VCs — SN, Clos
//     and Dragonfly under "auto", and "minimal" on any topology;
//   - grid (grid.go): closed-form dimension-order and XY routes computed
//     from router coordinates — meshes, tori and (partitioned) flattened
//     butterflies — with per-router port lookups of O(radix) bytes.
//
// Either form appends a route's next-hop words into a caller-owned buffer
// (AppendNext), which is the only route data the simulator's cycle loop
// reads, and its router path (AppendPath) for adaptive candidates and the
// latency estimator. Tables are immutable after construction and safe to
// share across any number of concurrent simulations — the campaign engine
// builds one per distinct (network, routing, VCs) combination and reuses it
// for every point.

package routing

import (
	"errors"
	"fmt"

	"repro/internal/topo"
)

// RouteTable is an immutable compiled route source for one network, static
// routing algorithm and VC count. Build it with CompileCompact, CompileGrid
// or NewTable.
type RouteTable struct {
	nr  int
	vcs int
	// adj is the network's sorted adjacency, borrowed (not copied): a hop's
	// output port indexes its router's row. It must not be mutated
	// afterwards — the same immutability contract WithNetwork demands.
	adj [][]int

	// nh is the compact form's storage: [src*nr+dst] the output port at src
	// toward dst, or nhNone. Nil for grid tables.
	nh []uint8
	// grid is the grid form's geometry and port lookups (grid.go); unused
	// when nh is set.
	grid gridRoutes
}

// NextEject is the next-hop word of a route's final hop: the router visit is
// an ejection, not a traversal. Real encodings never collide with it (or
// with any sentinel down to NextEject-255: ports are at most 254 and slots
// at most 254*63+62, so a real word is at most 0x00fe3efe).
const NextEject = ^uint32(0)

// NextWord encodes one hop's switch-allocation decision: the output port in
// bits 16..23 (for output-conflict masking) and the port*vcs+vc slot offset
// in bits 0..15 (the per-VC output index relative to the router's block in
// the simulator's flattened state).
//
//sim:hot
func NextWord(port, vc, vcs int) uint32 {
	return uint32(port)<<16 | uint32(port*vcs+vc)
}

// maxPorts bounds router radix in a compiled table: ports are stored as
// uint8 with 0xff reserved as the "no port" sentinel.
const maxPorts = 254

// ErrNoTable reports a PathBuilder that has no compiled form: its routes
// are neither the deterministic minimal routes of the compact form nor one
// of this package's grid builders. Callers route such builders per packet.
var ErrNoTable = errors.New("routing: path builder has no compiled route table")

// NewTable compiles a PathBuilder constructed by this package into the
// route table that reproduces its routes exactly: MinimalRouting compiles
// to the compact form, the DOR/XY builders to the grid form. Any other
// builder yields an error wrapping ErrNoTable.
func NewTable(net *topo.Network, pb PathBuilder) (*RouteTable, error) {
	switch b := pb.(type) {
	case *MinimalRouting:
		return CompileCompact(net, b.VCs)
	case *dorMesh:
		return CompileGrid(net, Kind{Class: ClassMesh, RX: b.rx, RY: b.ry}, b.vcs)
	case *dorTorus:
		return CompileGrid(net, Kind{Class: ClassTorus, RX: b.rx, RY: b.ry}, b.vcs)
	case *xyFBF:
		return CompileGrid(net, Kind{Class: ClassFBF, RX: b.cx, RY: b.cy}, b.vcs)
	case *xyPFBF:
		return CompileGrid(net, Kind{Class: ClassPFBF, PX: b.px, PY: b.py, RX: b.sx, RY: b.sy}, b.vcs)
	}
	return nil, fmt.Errorf("%w (%T)", ErrNoTable, pb)
}

// checkRadix rejects networks whose router radix does not fit the tables'
// one-byte ports.
func checkRadix(net *topo.Network) error {
	for r := 0; r < net.Nr; r++ {
		if len(net.Adj[r]) > maxPorts {
			return fmt.Errorf("routing: router %d radix %d exceeds the route table's %d-port limit", r, len(net.Adj[r]), maxPorts)
		}
	}
	return nil
}

// AppendNext appends the src->dst route's next-hop words to next and
// returns it: one NextWord per hop (the output port at the hop's router and
// the hop's VC), terminated by NextEject at the destination router. src ==
// dst appends just NextEject; an unreachable pair (possible only on a
// disconnected network) appends nothing. Allocation-free once next has
// reached the route's length.
//
//sim:hot
func (t *RouteTable) AppendNext(next []uint32, src, dst int) []uint32 {
	if t.nh != nil {
		return t.appendNextCompact(next, src, dst)
	}
	return t.appendNextGrid(next, src, dst)
}

// AppendPath appends the src->dst router path (inclusive of both endpoints)
// to buf and returns it. The path follows AppendNext's output ports through
// the adjacency, so it is exactly the route packets take. An unreachable
// pair appends nothing.
func (t *RouteTable) AppendPath(buf []int, src, dst int) []int {
	var scratch [64]uint32
	next := t.AppendNext(scratch[:0], src, dst)
	if len(next) == 0 {
		return buf
	}
	cur := src
	buf = append(buf, cur)
	for _, w := range next[:len(next)-1] {
		cur = t.adj[cur][w>>16&0xff]
		buf = append(buf, cur)
	}
	return buf
}

// AppendPathTail appends the src->dst path without its first router (used to
// concatenate Valiant segments without duplicating the intermediate).
func (t *RouteTable) AppendPathTail(buf []int, src, dst int) []int {
	n := len(buf)
	buf = t.AppendPath(buf, src, dst)
	if len(buf) > n {
		copy(buf[n:], buf[n+1:])
		buf = buf[:len(buf)-1]
	}
	return buf
}

// Compact reports whether this is a compact next-hop table (as opposed to
// closed-form grid routes).
func (t *RouteTable) Compact() bool { return t.nh != nil }

// NumVCs returns the VC count the routes are assigned over.
func (t *RouteTable) NumVCs() int { return t.vcs }

// Nr returns the router count the table was compiled for.
func (t *RouteTable) Nr() int { return t.nr }

// MemBytes returns the table's resident footprint: one byte per router pair
// for the compact form, the per-router port lookups for the grid form. The
// borrowed adjacency belongs to the network and is not counted. Memory-budget
// enforcement (sim.Config.MemBudgetBytes) uses it to account a shared
// compiled table against a run's budget.
func (t *RouteTable) MemBytes() int64 {
	return int64(len(t.nh)) + int64(len(t.grid.port))
}

// validate walks every (src,dst) route through the adjacency and checks
// that each hop leaves by a real port, carries a VC in range, and that the
// walk ends at dst. It allocates nothing beyond one word buffer.
func (t *RouteTable) validate() error {
	next := make([]uint32, 0, 64)
	for src := 0; src < t.nr; src++ {
		for dst := 0; dst < t.nr; dst++ {
			next = t.AppendNext(next[:0], src, dst)
			n := len(next)
			if n == 0 || next[n-1] != NextEject {
				return fmt.Errorf("routing: route %d->%d is not NextEject-terminated", src, dst)
			}
			cur := src
			for i, w := range next[:n-1] {
				port := int(w >> 16 & 0xff)
				if port >= len(t.adj[cur]) || int(w&0xffff)-port*t.vcs >= t.vcs {
					return fmt.Errorf("routing: route %d->%d hop %d at router %d: word %#x names a missing port or VC",
						src, dst, i, cur, w)
				}
				cur = t.adj[cur][port]
			}
			if cur != dst {
				return fmt.Errorf("routing: route %d->%d ends at router %d", src, dst, cur)
			}
		}
	}
	return nil
}

// searchAdj binary-searches a sorted adjacency row for nxt, returning its
// position (the output-port index).
func searchAdj(adj []int, nxt int) (int, bool) {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < nxt {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(adj) || adj[lo] != nxt {
		return 0, false
	}
	return lo, true
}

// AppendAscendingVCs appends the paper's ascending VC assignment for the
// given hop count to buf — the allocation-free form of AscendingVCs.
func AppendAscendingVCs(buf []int, hops, numVCs int) []int {
	for i := 0; i < hops; i++ {
		vc := i
		if vc >= numVCs {
			vc = numVCs - 1
		}
		buf = append(buf, vc)
	}
	return buf
}
