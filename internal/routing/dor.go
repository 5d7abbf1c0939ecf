// Dimension-ordered routing for meshes, tori (with dateline VCs) and the
// XY-phase routing used by flattened butterflies and their partitioned
// variant. These builders are the reference definition of the grid routes:
// CompileGrid (grid.go) computes the same routes in closed form, validating
// every route against the adjacency, and the equivalence tests pin the two
// hop for hop.

package routing

import (
	"fmt"

	"repro/internal/topo"
)

// dorMesh routes XY on an rx x ry mesh with row-major router indices.
type dorMesh struct {
	net    *topo.Network
	rx, ry int
	vcs    int
}

// NewDORMesh builds XY dimension-order routing for a mesh built by
// topo.Mesh2D. XY routing on a mesh is deadlock-free with any VC count.
func NewDORMesh(net *topo.Network, rx, ry, vcs int) (PathBuilder, error) {
	return &dorMesh{net: net, rx: rx, ry: ry, vcs: vcs}, nil
}

func (d *dorMesh) Route(src, dst int) ([]int, []int) {
	x, y := src%d.rx, src/d.rx
	dx, dy := dst%d.rx, dst/d.rx
	path := []int{src}
	for x != dx {
		x += sign(dx - x)
		path = append(path, y*d.rx+x)
	}
	for y != dy {
		y += sign(dy - y)
		path = append(path, y*d.rx+x)
	}
	// XY on a mesh is acyclic; spread hops across VCs round-robin.
	vcs := make([]int, len(path)-1)
	for i := range vcs {
		vcs[i] = i % d.vcs
	}
	return path, vcs
}

func (d *dorMesh) NumVCs() int { return d.vcs }

// dorTorus routes XY on a torus, taking the ring direction with the fewest
// hops (forward on ties). The dateline rule is per dimension and per move,
// not per hop: move() walks a dimension's whole move before its hops are
// tagged, so when that move crosses the dateline (the wrap link between
// ring positions n-1 and 0) every hop of the dimension rides VC 1, including
// the hops before the crossing; a move that does not wrap rides VC 0. On a
// ring of 2 every hop joins positions 0 and n-1, so every move counts as
// crossing.
type dorTorus struct {
	net    *topo.Network
	rx, ry int
	vcs    int
}

// NewDORTorus builds dateline XY routing for a torus built by topo.Torus2D.
// It requires at least 2 VCs.
func NewDORTorus(net *topo.Network, rx, ry, vcs int) (PathBuilder, error) {
	if vcs < 2 {
		return nil, fmt.Errorf("routing: torus dateline routing needs >= 2 VCs, got %d", vcs)
	}
	return &dorTorus{net: net, rx: rx, ry: ry, vcs: vcs}, nil
}

func (d *dorTorus) Route(src, dst int) ([]int, []int) {
	x, y := src%d.rx, src/d.rx
	dx, dy := dst%d.rx, dst/d.rx
	path := []int{src}
	var wrapped []bool // per hop: does its dimension's move cross the dateline
	crossed := false
	move := func(cur, target, n int) []int {
		// Shortest ring direction; positive wins ties.
		var steps []int
		fwd := ((target-cur)%n + n) % n
		bwd := n - fwd
		dir := 1
		count := fwd
		if bwd < fwd {
			dir = -1
			count = bwd
		}
		for i := 0; i < count; i++ {
			next := ((cur+dir)%n + n) % n
			if (cur == n-1 && next == 0) || (cur == 0 && next == n-1) {
				crossed = true
			}
			cur = next
			steps = append(steps, cur)
		}
		return steps
	}
	for _, nx := range move(x, dx, d.rx) {
		x = nx
		path = append(path, y*d.rx+x)
		wrapped = append(wrapped, crossed)
	}
	// X and Y channels are disjoint resources, so each dimension has its own
	// dateline; reset the crossing flag for the Y phase.
	crossed = false
	for _, ny := range move(y, dy, d.ry) {
		y = ny
		path = append(path, y*d.rx+x)
		wrapped = append(wrapped, crossed)
	}
	vcs := make([]int, len(path)-1)
	for i := range vcs {
		if wrapped[i] {
			vcs[i] = 1
		}
	}
	return path, vcs
}

func (d *dorTorus) NumVCs() int { return d.vcs }

// xyFBF routes row-first on a flattened butterfly: one hop to the
// destination column, one hop to the destination row.
type xyFBF struct {
	net    *topo.Network
	cx, cy int
	vcs    int
}

// NewXYFBF builds XY routing for an FBF built by topo.FBF.
func NewXYFBF(net *topo.Network, cx, cy, vcs int) (PathBuilder, error) {
	return &xyFBF{net: net, cx: cx, cy: cy, vcs: vcs}, nil
}

func (d *xyFBF) Route(src, dst int) ([]int, []int) {
	x, y := src%d.cx, src/d.cx
	dx, dy := dst%d.cx, dst/d.cx
	path := []int{src}
	if x != dx {
		path = append(path, y*d.cx+dx)
	}
	if y != dy {
		path = append(path, dy*d.cx+dx)
	}
	return path, AscendingVCs(len(path)-1, d.vcs)
}

func (d *xyFBF) NumVCs() int { return d.vcs }

// xyPFBF routes the partitioned FBF hierarchically: X phase (local column
// adjust, then partition crossing), then Y phase (local row adjust, then
// partition crossing). VC class 0 covers the X phase and 1 the Y phase,
// which keeps the dependency graph acyclic.
type xyPFBF struct {
	net            *topo.Network
	px, py, sx, sy int
	vcs            int
}

// NewXYPFBF builds hierarchical XY routing for a PFBF built by topo.PFBF.
// It requires at least 2 VCs.
func NewXYPFBF(net *topo.Network, px, py, sx, sy, vcs int) (PathBuilder, error) {
	if vcs < 2 {
		return nil, fmt.Errorf("routing: pfbf routing needs >= 2 VCs, got %d", vcs)
	}
	return &xyPFBF{net: net, px: px, py: py, sx: sx, sy: sy, vcs: vcs}, nil
}

func (d *xyPFBF) id(gx, gy, lx, ly int) int {
	return ((gy*d.px+gx)*d.sy+ly)*d.sx + lx
}

func (d *xyPFBF) split(r int) (gx, gy, lx, ly int) {
	lx = r % d.sx
	r /= d.sx
	ly = r % d.sy
	r /= d.sy
	gx = r % d.px
	gy = r / d.px
	return
}

func (d *xyPFBF) Route(src, dst int) ([]int, []int) {
	gx, gy, lx, ly := d.split(src)
	tgx, tgy, tlx, tly := d.split(dst)
	path := []int{src}
	var phases []int // 0 for X phase hops, 1 for Y phase hops
	// X phase: local column, then ring of partitions along X.
	if lx != tlx {
		lx = tlx
		path = append(path, d.id(gx, gy, lx, ly))
		phases = append(phases, 0)
	}
	for gx != tgx {
		gx = (gx + 1) % d.px
		path = append(path, d.id(gx, gy, lx, ly))
		phases = append(phases, 0)
	}
	// Y phase.
	if ly != tly {
		ly = tly
		path = append(path, d.id(gx, gy, lx, ly))
		phases = append(phases, 1)
	}
	for gy != tgy {
		gy = (gy + 1) % d.py
		path = append(path, d.id(gx, gy, lx, ly))
		phases = append(phases, 1)
	}
	vcs := make([]int, len(path)-1)
	copy(vcs, phases)
	return path, vcs
}

func (d *xyPFBF) NumVCs() int { return d.vcs }

func sign(x int) int {
	if x > 0 {
		return 1
	}
	if x < 0 {
		return -1
	}
	return 0
}
