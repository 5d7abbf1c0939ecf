// Compact (next-hop-only) route tables. The deterministic minimal routes
// generic networks use (MinimalRouting / NewMinimal) are next-hop-consistent
// by construction: the path from src is src followed by the path from
// next[src][dst], because MinPath itself walks the per-pair next-hop
// function. The whole route set therefore compresses to ONE byte per pair —
// the output-port index at src toward dst — and a route's ascending VCs and
// next-hop words are reconstructed on the fly by walking the next-hop bytes
// through the adjacency, identical to what MinimalRouting.Route produces.
//
// CompileCompact builds that form directly with one BFS per destination and
// O(nr) scratch, never materialising the all-pairs Paths matrix (whose
// dist+next arrays are 6 bytes per pair).

package routing

import (
	"fmt"

	"repro/internal/topo"
)

// nhNone marks a pair with no next hop: src == dst or dst unreachable.
// Compiled tables cap the radix at maxPorts so the sentinel can never be a
// real port.
const nhNone = 0xff

// CompileCompact builds the compact next-hop form of deterministic minimal
// routing with ascending VCs — the same routes MinimalRouting{NewMinimal(net)}
// produces, from one byte per (src,dst) pair. The adjacency is retained (not
// copied) and must not be mutated afterwards.
func CompileCompact(net *topo.Network, vcs int) (*RouteTable, error) {
	nr := net.Nr
	if vcs < 1 {
		return nil, fmt.Errorf("routing: CompileCompact needs vcs >= 1, got %d", vcs)
	}
	if err := checkRadix(net); err != nil {
		return nil, err
	}
	t := &RouteTable{
		nr:  nr,
		vcs: vcs,
		adj: net.Adj,
		nh:  make([]uint8, nr*nr),
	}
	// One BFS per destination, O(nr) scratch. The BFS layers reproduce
	// NewMinimal's dist exactly; the next hop is NewMinimal's deterministic
	// tie-break — the first (lowest-index, rows are sorted) neighbour strictly
	// closer to the destination — recorded as its port position.
	// The queue is one nr-slot array read from a head index: every router
	// enters it at most once per destination.
	dist := make([]int32, nr)
	queue := make([]int32, nr)
	for dst := 0; dst < nr; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue[0] = int32(dst)
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			for _, v := range net.Adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue[tail] = int32(v)
					tail++
				}
			}
		}
		for r := 0; r < nr; r++ {
			e := nhNone
			if r != dst && dist[r] > 0 {
				for pos, v := range net.Adj[r] {
					if dist[v] == dist[r]-1 {
						e = pos
						break
					}
				}
			}
			t.nh[r*nr+dst] = uint8(e)
		}
	}
	return t, nil
}

// appendNextCompact is AppendNext for compact tables: walk the next-hop
// bytes from src, assigning ascending VCs capped at vcs-1.
//
//sim:hot
func (t *RouteTable) appendNextCompact(next []uint32, src, dst int) []uint32 {
	if src != dst {
		if t.nh[src*t.nr+dst] == nhNone {
			return next // unreachable
		}
		cur := src
		for hop := 0; cur != dst; hop++ {
			if hop >= t.nr {
				panic("routing: compact next-hop walk does not terminate (corrupt table or mutated adjacency)")
			}
			p := t.nh[cur*t.nr+dst]
			vc := hop
			if vc >= t.vcs {
				vc = t.vcs - 1
			}
			next = append(next, NextWord(int(p), vc, t.vcs))
			cur = t.adj[cur][p]
		}
	}
	//detlint:allow hotalloc amortised append into a caller-owned buffer whose capacity the packet freelist retains across cycles
	return append(next, NextEject)
}
