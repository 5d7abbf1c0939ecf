// Package topo defines the router-graph abstraction shared by every network
// in the reproduction, together with the baseline topologies the paper
// compares against (§5.1, Table 4): 2D torus (T2D), concentrated mesh (CM),
// flattened butterfly (FBF), partitioned flattened butterfly (PFBF),
// Dragonfly (DF), and a folded Clos (§5.5). The Slim NoC topology itself is
// built in internal/core on top of this package.
package topo

import (
	"fmt"
	"sort"
)

// Coord is a router position on the 2D placement grid (1-indexed like the
// paper's placement model in §3.2.1).
type Coord struct {
	X, Y int
}

// ManhattanDist returns the Manhattan distance |x1-x2| + |y1-y2|.
func ManhattanDist(a, b Coord) int {
	return absInt(a.X-b.X) + absInt(a.Y-b.Y)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Network is a direct network: Nr routers, each concentrating P nodes.
// Nodes are numbered 0..N-1; node v attaches to router v/P. Adjacency lists
// are sorted and symmetric. Coords give the placement used for wire-length
// and buffer-size models; they may be nil for networks analysed only
// abstractly.
type Network struct {
	Name   string
	Nr     int
	P      int
	Adj    [][]int
	Coords []Coord

	// NodeMap optionally maps node -> router for indirect networks whose
	// routers concentrate unequal node counts (e.g. folded Clos, where
	// spines attach none). When nil, node v attaches to router v/P.
	NodeMap []int

	// CycleTimeNs is the router clock cycle time used by the paper to
	// account for crossbar size differences (§5.1): 0.5 ns for SN and
	// PFBF, 0.4 ns for T2D and CM, 0.6 ns for FBF.
	CycleTimeNs float64
}

// N returns the number of attached nodes.
func (n *Network) N() int {
	if n.NodeMap != nil {
		return len(n.NodeMap)
	}
	return n.Nr * n.P
}

// NodeRouter returns the router that node v attaches to.
func (n *Network) NodeRouter(v int) int {
	if n.NodeMap != nil {
		return n.NodeMap[v]
	}
	return v / n.P
}

// RouterNodes returns the node IDs attached to router r.
func (n *Network) RouterNodes(r int) []int {
	if n.NodeMap != nil {
		var out []int
		for v, rr := range n.NodeMap {
			if rr == r {
				out = append(out, v)
			}
		}
		return out
	}
	out := make([]int, n.P)
	for i := range out {
		out[i] = r*n.P + i
	}
	return out
}

// NetworkRadix returns k', the maximum number of router-router channels at
// any router.
func (n *Network) NetworkRadix() int {
	max := 0
	for _, a := range n.Adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// RouterRadix returns k = k' + p.
func (n *Network) RouterRadix() int { return n.NetworkRadix() + n.P }

// MinNetworkRadix returns the minimum router-router degree; for the regular
// networks in the paper it equals NetworkRadix.
func (n *Network) MinNetworkRadix() int {
	if n.Nr == 0 {
		return 0
	}
	min := len(n.Adj[0])
	for _, a := range n.Adj {
		if len(a) < min {
			min = len(a)
		}
	}
	return min
}

// Links returns the number of undirected router-router links.
func (n *Network) Links() int {
	total := 0
	for _, a := range n.Adj {
		total += len(a)
	}
	return total / 2
}

// Connected reports whether routers i and j share a link.
func (n *Network) Connected(i, j int) bool {
	a := n.Adj[i]
	k := sort.SearchInts(a, j)
	return k < len(a) && a[k] == j
}

// Diameter returns the maximum over all router pairs of the shortest-path
// hop count, or -1 when some router cannot reach another. It runs a
// bit-parallel BFS from 64 sources per pass: bit i of a router's words
// stands for source base+i, and each level ORs the neighbours' frontier
// words, so one sweep of the adjacency advances all 64 searches. Levels
// follow in-edges, which for the symmetric adjacency of a Network are the
// out-edges; the maximum over all pairs is the same either way.
func (n *Network) Diameter() int {
	nr := n.Nr
	seen := make([]uint64, nr)
	front := make([]uint64, nr)
	next := make([]uint64, nr)
	diam := 0
	for base := 0; base < nr; base += 64 {
		k := min(64, nr-base)
		all := ^uint64(0) >> (64 - k)
		clear(seen)
		clear(front)
		for i := 0; i < k; i++ {
			seen[base+i] = 1 << i
			front[base+i] = 1 << i
		}
		for level := 1; ; level++ {
			grew := false
			for v, adj := range n.Adj[:nr] {
				var m uint64
				for _, u := range adj {
					m |= front[u]
				}
				m &^= seen[v]
				next[v] = m
				if m != 0 {
					seen[v] |= m
					grew = true
				}
			}
			if !grew {
				break
			}
			diam = max(diam, level)
			front, next = next, front
		}
		for _, m := range seen {
			if m != all {
				return -1 // disconnected
			}
		}
	}
	return diam
}

// AvgShortestPath returns the mean router-router shortest path length over
// all ordered pairs of distinct routers.
func (n *Network) AvgShortestPath() float64 {
	total, pairs := 0, 0
	dist := make([]int, n.Nr)
	queue := make([]int, 0, n.Nr)
	for s := 0; s < n.Nr; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range n.Adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for v, d := range dist {
			if v != s && d > 0 {
				total += d
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(total) / float64(pairs)
}

// AvgWireLength returns M (Eq. 4): the mean Manhattan distance between
// connected routers, using the network's coordinates.
func (n *Network) AvgWireLength() float64 {
	if n.Coords == nil {
		return 0
	}
	total, links := 0, 0
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			if j > i {
				total += ManhattanDist(n.Coords[i], n.Coords[j])
				links++
			}
		}
	}
	if links == 0 {
		return 0
	}
	return float64(total) / float64(links)
}

// TotalWireLength returns the sum of Manhattan wire lengths over all links,
// in grid hops.
func (n *Network) TotalWireLength() int {
	total := 0
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			if j > i {
				total += ManhattanDist(n.Coords[i], n.Coords[j])
			}
		}
	}
	return total
}

// BisectionLinks counts links crossing a vertical cut through the middle of
// the placement grid — the paper's bisection-bandwidth proxy for comparing
// FBF variants against SN. Networks without coordinates return 0.
func (n *Network) BisectionLinks() int {
	if n.Coords == nil {
		return 0
	}
	maxX := 0
	for _, c := range n.Coords {
		if c.X > maxX {
			maxX = c.X
		}
	}
	cut := maxX / 2
	count := 0
	for i := 0; i < n.Nr; i++ {
		for _, j := range n.Adj[i] {
			if j > i {
				xi, xj := n.Coords[i].X, n.Coords[j].X
				if (xi <= cut) != (xj <= cut) {
					count++
				}
			}
		}
	}
	return count
}

// GridDims returns the extent (maxX, maxY) of the placement grid.
func (n *Network) GridDims() (int, int) {
	mx, my := 0, 0
	for _, c := range n.Coords {
		if c.X > mx {
			mx = c.X
		}
		if c.Y > my {
			my = c.Y
		}
	}
	return mx, my
}

// Validate checks structural invariants: symmetric sorted adjacency, no
// self-loops, no duplicate edges, coordinates (when present) matching Nr.
func (n *Network) Validate() error {
	if len(n.Adj) != n.Nr {
		return fmt.Errorf("topo: %s: adjacency has %d rows, Nr=%d", n.Name, len(n.Adj), n.Nr)
	}
	if n.Coords != nil && len(n.Coords) != n.Nr {
		return fmt.Errorf("topo: %s: %d coords, Nr=%d", n.Name, len(n.Coords), n.Nr)
	}
	for i, a := range n.Adj {
		if !sort.IntsAreSorted(a) {
			return fmt.Errorf("topo: %s: adjacency of router %d not sorted", n.Name, i)
		}
		for k, j := range a {
			if j == i {
				return fmt.Errorf("topo: %s: self-loop at router %d", n.Name, i)
			}
			if j < 0 || j >= n.Nr {
				return fmt.Errorf("topo: %s: router %d links to out-of-range %d", n.Name, i, j)
			}
			if k > 0 && a[k-1] == j {
				return fmt.Errorf("topo: %s: duplicate edge %d-%d", n.Name, i, j)
			}
			if !n.Connected(j, i) {
				return fmt.Errorf("topo: %s: edge %d->%d not symmetric", n.Name, i, j)
			}
		}
	}
	return nil
}

// edgeSet accumulates undirected edges and produces sorted adjacency lists.
type edgeSet struct {
	nr  int
	adj []map[int]bool
}

func newEdgeSet(nr int) *edgeSet {
	e := &edgeSet{nr: nr, adj: make([]map[int]bool, nr)}
	for i := range e.adj {
		e.adj[i] = make(map[int]bool)
	}
	return e
}

func (e *edgeSet) add(i, j int) {
	if i == j {
		return
	}
	e.adj[i][j] = true
	e.adj[j][i] = true
}

func (e *edgeSet) lists() [][]int {
	out := make([][]int, e.nr)
	for i, m := range e.adj {
		l := make([]int, 0, len(m))
		for j := range m {
			l = append(l, j)
		}
		sort.Ints(l)
		out[i] = l
	}
	return out
}
