// Closed-form grid routes. The paper's grid baselines (§5.1) route by
// dimension order — XY on meshes and tori, row-first on flattened
// butterflies, hierarchical XY on the partitioned FBF — so every route is a
// function of the endpoints' coordinates. A grid RouteTable computes each
// route at the moment it is asked for, reproducing the reference builders'
// Route() (dor.go) hop for hop and VC for VC, and stores only a per-router
// lookup from each move a route can make to its output port: O(nr·radix)
// bytes where an interned table needs O(nr²·diameter).

package routing

import (
	"fmt"

	"repro/internal/topo"
)

// gridRoutes is the grid form's geometry and port lookups.
type gridRoutes struct {
	class  Class
	rx, ry int // router grid; one partition's local grid for PFBF
	px, py int // partition grid (PFBF only)
	// width is the number of moves per router in port:
	//   - mesh, torus: 4, indexed by the mv* constants;
	//   - FBF: rx+ry, [x'] to column x' of the router's row, [rx+y'] to
	//     row y' of its column;
	//   - PFBF: rx+ry+2, [lx'] to local column lx', [rx] to the next
	//     partition along X, [rx+1+ly'] to local row ly', [rx+1+ry] to the
	//     next partition along Y.
	width int
	// port is [r*width+move]: r's output port for the move, or nhNone where
	// the move leaves the grid or stays put (routes never take those).
	port []uint8
}

// Mesh and torus moves; each backward move directly follows its forward
// move, so mv+1 reverses mv.
const (
	mvXPlus = iota
	mvXMinus
	mvYPlus
	mvYMinus
)

// CompileGrid builds the closed-form route table for a grid topology built
// by topo.Mesh2D, Torus2D, FBF or PFBF: the routes of NewDORMesh,
// NewDORTorus, NewXYFBF and NewXYPFBF for the same kind and VC count. It
// resolves every move to a port (failing if a move has no link) and then
// walks all pairs once, checking each route's links and endpoint.
func CompileGrid(net *topo.Network, kind Kind, vcs int) (*RouteTable, error) {
	g := gridRoutes{class: kind.Class, rx: kind.RX, ry: kind.RY, px: kind.PX, py: kind.PY}
	nr := kind.RX * kind.RY
	minVCs := 1
	switch kind.Class {
	case ClassMesh, ClassTorus:
		g.width = 4
	case ClassFBF:
		g.width = kind.RX + kind.RY
	case ClassPFBF:
		g.width = kind.RX + kind.RY + 2
		nr *= kind.PX * kind.PY
	default:
		return nil, fmt.Errorf("routing: topology class %v has no grid routes", kind.Class)
	}
	if kind.Class == ClassTorus || kind.Class == ClassPFBF {
		// The dateline (torus) and the Y phase (PFBF) ride VC 1.
		minVCs = 2
	}
	if vcs < minVCs {
		return nil, fmt.Errorf("routing: %v grid routes need >= %d VCs, got %d", kind.Class, minVCs, vcs)
	}
	if kind.RX < 1 || kind.RY < 1 || nr != net.Nr {
		return nil, fmt.Errorf("routing: %v grid %+v does not match the network's %d routers", kind.Class, kind, net.Nr)
	}
	if err := checkRadix(net); err != nil {
		return nil, err
	}
	g.port = make([]uint8, nr*g.width)
	for r := 0; r < nr; r++ {
		for mv := 0; mv < g.width; mv++ {
			e := nhNone
			if to, ok := g.moveTarget(r, mv); ok {
				pos, found := searchAdj(net.Adj[r], to)
				if !found {
					return nil, fmt.Errorf("routing: %v grid move %d->%d is not a link", kind.Class, r, to)
				}
				e = pos
			}
			g.port[r*g.width+mv] = uint8(e)
		}
	}
	t := &RouteTable{nr: nr, vcs: vcs, adj: net.Adj, grid: g}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// moveTarget returns the router that move mv from r reaches, and false when
// the move leaves the grid or stays at r.
func (g *gridRoutes) moveTarget(r, mv int) (int, bool) {
	to := -1
	switch g.class {
	case ClassMesh, ClassTorus:
		x, y := r%g.rx, r/g.rx
		switch mv {
		case mvXPlus:
			x++
		case mvXMinus:
			x--
		case mvYPlus:
			y++
		case mvYMinus:
			y--
		}
		if g.class == ClassTorus {
			x, y = (x+g.rx)%g.rx, (y+g.ry)%g.ry
		}
		if x >= 0 && x < g.rx && y >= 0 && y < g.ry {
			to = y*g.rx + x
		}
	case ClassFBF:
		x, y := r%g.rx, r/g.rx
		if mv < g.rx {
			to = y*g.rx + mv
		} else {
			to = (mv-g.rx)*g.rx + x
		}
	case ClassPFBF:
		gx, gy, lx, ly := g.split(r)
		switch {
		case mv < g.rx:
			lx = mv
		case mv == g.rx:
			gx = (gx + 1) % g.px
		case mv <= g.rx+g.ry:
			ly = mv - g.rx - 1
		default:
			gy = (gy + 1) % g.py
		}
		to = g.id(gx, gy, lx, ly)
	}
	return to, to >= 0 && to != r
}

// split decomposes a PFBF router index into partition and local coordinates
// (the layout of topo.PFBF).
//
//sim:hot
func (g *gridRoutes) split(r int) (gx, gy, lx, ly int) {
	lx = r % g.rx
	r /= g.rx
	ly = r % g.ry
	r /= g.ry
	gx = r % g.px
	gy = r / g.px
	return
}

// id is the inverse of split.
//
//sim:hot
func (g *gridRoutes) id(gx, gy, lx, ly int) int {
	return ((gy*g.px+gx)*g.ry+ly)*g.rx + lx
}

// ringMove returns the dateline-DOR move from cur to target (cur != target)
// on a ring of n, as dorTorus.Route takes it: the move (forward, or
// backward when strictly shorter), its hop count, and the VC every hop of
// the move rides. That VC is 1 when the move crosses the dateline between
// n-1 and 0 — on a ring of 2, where every hop joins 0 and n-1, any move —
// and 0 otherwise.
//
//sim:hot
func ringMove(cur, target, n int) (back bool, count, vc int) {
	fwd := target - cur
	if fwd < 0 {
		fwd += n
	}
	bwd := n - fwd
	if bwd < fwd {
		if n == 2 || cur-bwd < 0 {
			vc = 1
		}
		return true, bwd, vc
	}
	if n == 2 || cur+fwd >= n {
		vc = 1
	}
	return false, fwd, vc
}

// appendNextGrid is AppendNext for grid tables.
//
//sim:hot
func (t *RouteTable) appendNextGrid(next []uint32, src, dst int) []uint32 {
	g := &t.grid
	switch g.class {
	case ClassMesh:
		next = g.meshNext(next, src, dst, t.vcs)
	case ClassTorus:
		next = g.torusNext(next, src, dst, t.vcs)
	case ClassFBF:
		next = g.fbfNext(next, src, dst, t.vcs)
	case ClassPFBF:
		next = g.pfbfNext(next, src, dst, t.vcs)
	}
	//detlint:allow hotalloc amortised append into a caller-owned buffer whose capacity the packet freelist retains across cycles
	return append(next, NextEject)
}

// meshNext walks XY on a mesh; hops take VCs round-robin (hop i on VC
// i mod vcs), as dorMesh.Route assigns them.
//
//sim:hot
func (g *gridRoutes) meshNext(next []uint32, src, dst, vcs int) []uint32 {
	rx, n0 := g.rx, len(next)
	next, r := g.meshDim(next, src, src%rx, dst%rx, 1, mvXPlus, 0, vcs)
	next, _ = g.meshDim(next, r, src/rx, dst/rx, rx, mvYPlus, len(next)-n0, vcs)
	return next
}

// meshDim appends one dimension's hops from coordinate cur to target at
// router r, where mv is the dimension's forward move, neighbours along it
// are stride router indices apart, and hop0 is the route's hop count so
// far. It returns next and the router reached.
//
//sim:hot
func (g *gridRoutes) meshDim(next []uint32, r, cur, target, stride, mv, hop0, vcs int) ([]uint32, int) {
	step := 1
	if target < cur {
		mv, step = mv+1, -1
	}
	for hop := hop0; cur != target; hop++ {
		next = append(next, NextWord(int(g.port[r*4+mv]), hop%vcs, vcs))
		cur += step
		r += step * stride
	}
	return next, r
}

// torusNext walks dateline XY on a torus: each dimension moves the shorter
// way round its ring, and every hop of a dimension whose move crosses the
// dateline rides VC 1 (see ringMove).
//
//sim:hot
func (g *gridRoutes) torusNext(next []uint32, src, dst, vcs int) []uint32 {
	rx := g.rx
	next, r := g.torusDim(next, src, src%rx, dst%rx, rx, 1, mvXPlus, vcs)
	next, _ = g.torusDim(next, r, src/rx, dst/rx, g.ry, rx, mvYPlus, vcs)
	return next
}

// torusDim appends one dimension's hops from coordinate cur to target on a
// ring of n at router r, where mv is the dimension's forward move and ring
// neighbours are stride router indices apart. It returns next and the
// router reached.
//
//sim:hot
func (g *gridRoutes) torusDim(next []uint32, r, cur, target, n, stride, mv, vcs int) ([]uint32, int) {
	if cur == target {
		return next, r
	}
	back, count, vc := ringMove(cur, target, n)
	step := 1
	if back {
		mv, step = mv+1, -1
	}
	for i := 0; i < count; i++ {
		next = append(next, NextWord(int(g.port[r*4+mv]), vc, vcs))
		cur += step
		switch cur {
		case n:
			cur, r = 0, r-(n-1)*stride
		case -1:
			cur, r = n-1, r+(n-1)*stride
		default:
			r += step * stride
		}
	}
	return next, r
}

// fbfNext routes row-first on a flattened butterfly: one hop to the
// destination column, one to the destination row, with ascending VCs.
//
//sim:hot
func (g *gridRoutes) fbfNext(next []uint32, src, dst, vcs int) []uint32 {
	rx := g.rx
	x, y := src%rx, src/rx
	dx, dy := dst%rx, dst/rx
	r, vc := src, 0
	if x != dx {
		next = append(next, NextWord(int(g.port[r*g.width+dx]), 0, vcs))
		r = y*rx + dx
		if vcs > 1 {
			vc = 1
		}
	}
	if y != dy {
		next = append(next, NextWord(int(g.port[r*g.width+rx+dy]), vc, vcs))
	}
	return next
}

// pfbfNext routes the partitioned FBF hierarchically: the X phase (local
// column, then partition steps along X) on VC 0, then the Y phase (local
// row, then partition steps along Y) on VC 1.
//
//sim:hot
func (g *gridRoutes) pfbfNext(next []uint32, src, dst, vcs int) []uint32 {
	gx, gy, lx, ly := g.split(src)
	tgx, tgy, tlx, tly := g.split(dst)
	w, sx, sy := g.width, g.rx, g.ry
	r := src
	if lx != tlx {
		next = append(next, NextWord(int(g.port[r*w+tlx]), 0, vcs))
		r += tlx - lx
	}
	for gx != tgx {
		next = append(next, NextWord(int(g.port[r*w+sx]), 0, vcs))
		if gx++; gx == g.px {
			gx = 0
		}
		r = g.id(gx, gy, tlx, ly)
	}
	if ly != tly {
		next = append(next, NextWord(int(g.port[r*w+sx+1+tly]), 1, vcs))
		r += (tly - ly) * sx
	}
	for gy != tgy {
		next = append(next, NextWord(int(g.port[r*w+sx+1+sy]), 1, vcs))
		if gy++; gy == g.py {
			gy = 0
		}
		r = g.id(gx, gy, tlx, tly)
	}
	return next
}
