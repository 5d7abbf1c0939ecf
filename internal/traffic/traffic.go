// Package traffic implements the simulator's workload layer as three
// orthogonal axes composed by the Synthetic source:
//
//   - Pattern (the "where"): the spatial destination distributions of §5.1 —
//     uniform random (RND), bit shuffle (SHF), bit reversal (REV), the two
//     adversarial patterns (ADV1, ADV2), the asymmetric pattern of the
//     Fig. 20 adaptive routing study — plus the Hotspot overlay that
//     concentrates a fraction of any base pattern's traffic on a few hot
//     nodes.
//   - Process (the "when"): the temporal injection process — the paper's
//     open-loop Bernoulli default, the OnOff bursty process with geometric
//     burst lengths, and the MMPP-style Modulated process.
//   - Sizer (the "how much"): the packet-length model — Fixed (the paper's
//     6-flit packets) or the Bimodal short-control/long-data mix.
//
// The ReqReply source sits outside the open-loop composition: it is a
// closed-loop request-reply workload where each node keeps a bounded window
// of outstanding requests, so load self-throttles to delivered bandwidth.
//
// Every component is a deterministic function of the run's RNG stream, and
// the default composition (nil Process, nil Sizer) consumes RNG draws in
// exactly the order the pre-decomposition monolithic source did, so existing
// specs reproduce byte-identical results.
package traffic

import (
	"math/rand"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Pattern maps a source node to a destination node.
type Pattern interface {
	Name() string
	Dest(rng *rand.Rand, src int) int
}

// Uniform is RND: a uniformly random destination other than the source.
type Uniform struct {
	N int
}

// Name implements Pattern.
func (Uniform) Name() string { return "RND" }

// Dest implements Pattern.
//
//sim:hot
func (u Uniform) Dest(rng *rand.Rand, src int) int {
	if u.N < 2 {
		return src
	}
	for {
		d := rng.Intn(u.N)
		if d != src {
			return d
		}
	}
}

// nodeBits returns the number of bits needed to index n nodes.
//
//sim:hot
func nodeBits(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}

// Shuffle is SHF: the destination ID is the source ID with its bits rotated
// left by one position; out-of-range results wrap modulo N.
//
// Non-power-of-two wrap semantics (deliberate, pinned by
// TestShuffleNonPowerOfTwoWrap): the rotation operates on
// ceil(log2(N))-bit IDs, so for N that is not a power of two it can produce
// values in [N, 2^b). Those are folded back with a plain `% N` rather than
// being rejected or re-rotated. The fold keeps Dest total (every source
// has a destination), cheap, and deterministic, at the cost of the folded
// destinations receiving up to twice the uniform share — an acceptable,
// documented skew for a pattern whose purpose is structured (non-uniform)
// stress, and the convention the paper's own simulator inherits from
// classic k-ary n-cube toolkits. The self-avoidance rule (d == src maps to
// d+1 mod N) runs after the fold.
type Shuffle struct {
	N int
}

// Name implements Pattern.
func (Shuffle) Name() string { return "SHF" }

// Dest implements Pattern.
//
//sim:hot
func (s Shuffle) Dest(rng *rand.Rand, src int) int {
	b := nodeBits(s.N)
	if b == 0 {
		return src
	}
	d := ((src << 1) | (src >> (b - 1))) & ((1 << b) - 1)
	d %= s.N
	if d == src {
		d = (d + 1) % s.N
	}
	return d
}

// Reversal is REV: the destination ID is the bit-reversed source ID.
//
// Non-power-of-two N uses the same deliberate `% N` fold as Shuffle (see
// there for the rationale); pinned by TestReversalNonPowerOfTwoWrap.
type Reversal struct {
	N int
}

// Name implements Pattern.
func (Reversal) Name() string { return "REV" }

// Dest implements Pattern.
//
//sim:hot
func (r Reversal) Dest(rng *rand.Rand, src int) int {
	b := nodeBits(r.N)
	d := 0
	for i := 0; i < b; i++ {
		if src&(1<<i) != 0 {
			d |= 1 << (b - 1 - i)
		}
	}
	d %= r.N
	if d == src {
		d = (d + 1) % r.N
	}
	return d
}

// Adversarial pairs every router with a maximally distant partner router;
// all nodes of a router send to the same slot at the partner. Variant 1
// (ADV1) uses the topologically farthest router, concentrating load on the
// deterministic minimal paths between pairs; variant 2 (ADV2) sends across
// the die to router (r + Nr/2) mod Nr, loading many multi-link paths that
// share intermediate links.
type Adversarial struct {
	Variant int // 1 or 2
	net     *topo.Network
	partner []int
}

// NewAdversarial builds ADV1 (variant 1) or ADV2 (variant 2) for a placed
// network.
func NewAdversarial(net *topo.Network, variant int) *Adversarial {
	a := &Adversarial{Variant: variant, net: net, partner: make([]int, net.Nr)}
	switch variant {
	case 1:
		// Greedy maximum-distance matching: a permutation, so ejection
		// bandwidth stays balanced while minimal paths are maximally long
		// and deterministic tie-breaking concentrates them on few links.
		p := routing.NewMinimal(net)
		taken := make([]bool, net.Nr)
		for r := 0; r < net.Nr; r++ {
			best, bestD := -1, -1
			for o := 0; o < net.Nr; o++ {
				if o == r || taken[o] {
					continue
				}
				if d := p.Dist(r, o); d > bestD {
					best, bestD = o, d
				}
			}
			if best < 0 {
				best = r // odd leftover: self maps identity, filtered in Dest
			}
			taken[best] = true
			a.partner[r] = best
		}
	default:
		for r := 0; r < net.Nr; r++ {
			a.partner[r] = (r + net.Nr/2) % net.Nr
		}
	}
	return a
}

// Name implements Pattern.
func (a *Adversarial) Name() string {
	if a.Variant == 1 {
		return "ADV1"
	}
	return "ADV2"
}

// Dest implements Pattern.
//
//sim:hot
func (a *Adversarial) Dest(rng *rand.Rand, src int) int {
	p := a.net.P
	r := a.net.NodeRouter(src)
	slot := src - r*p
	d := a.partner[r]*p + slot
	if d == src {
		d = (d + 1) % a.net.N()
	}
	return d
}

// Asymmetric is the Fig. 20 pattern: with equal probability, destination
// (s mod N/2) + N/2 or (s mod N/2).
type Asymmetric struct {
	N int
}

// Name implements Pattern.
func (Asymmetric) Name() string { return "ASYM" }

// Dest implements Pattern.
//
//sim:hot
func (a Asymmetric) Dest(rng *rand.Rand, src int) int {
	half := a.N / 2
	d := src % half
	if rng.Intn(2) == 1 {
		d += half
	}
	if d == src {
		d = (d + 1) % a.N
	}
	return d
}

// Hotspot overlays any spatial pattern with hot-node concentration: with
// probability Frac the destination is drawn uniformly from the K hot nodes
// (nodes 0..K-1, the convention shared with the trace package's "home
// nodes"), otherwise the base pattern decides — modelling directory homes,
// locks and reduction roots that focus a share of all traffic on a few
// endpoints.
type Hotspot struct {
	// Frac is the probability a packet targets a hot node, in [0, 1].
	Frac float64
	// K is the hot-node count (destinations 0..K-1), >= 1.
	K int
	// N is the total node count (self-avoidance wrap bound).
	N int
	// Base decides the destinations of the remaining 1-Frac share.
	Base Pattern
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "HOT+" + h.Base.Name() }

// Dest implements Pattern.
//
//sim:hot
func (h Hotspot) Dest(rng *rand.Rand, src int) int {
	if rng.Float64() >= h.Frac {
		return h.Base.Dest(rng, src)
	}
	d := rng.Intn(h.K)
	if d == src {
		d = (d + 1) % h.N
	}
	return d
}

// Synthetic is the open-loop composition of the three workload axes: each
// cycle the temporal Process decides which nodes start a packet at the
// configured mean load of Rate flits/node/cycle, the spatial Pattern picks
// each packet's destination, and the Sizer its length. A nil Process is
// Bernoulli and a nil Sizer is Fixed{PacketFlits} — the paper's §5.1 setup,
// with the identical RNG draw sequence as the pre-decomposition source.
type Synthetic struct {
	N           int
	Rate        float64 // flits/node/cycle, mean over the run
	PacketFlits int
	Pattern     Pattern
	// Process reshapes arrivals in time (nil = Bernoulli).
	Process Process
	// Sizer draws per-packet lengths (nil = Fixed{PacketFlits}).
	Sizer Sizer

	// The current cycle's RNG and emit sink, read by start (a method value
	// bound once, so the per-cycle Process call allocates nothing).
	rng   *rand.Rand
	emit  func(src, dst, flits, class int)
	start func(node int)
}

var _ sim.Source = (*Synthetic)(nil)

// Generate implements sim.Source.
//
//sim:hot
func (s *Synthetic) Generate(t int64, rng *rand.Rand, emit func(src, dst, flits, class int)) {
	// Defaults and the start callback are pinned on first use (not per
	// cycle) so the interface conversions and the method value never
	// allocate inside the steady-state loop.
	if s.Process == nil {
		//detlint:allow hotalloc one-time default pinning on first use; never reassigned in steady state
		s.Process = Bernoulli{}
	}
	if s.Sizer == nil {
		//detlint:allow hotalloc one-time default pinning on first use; never reassigned in steady state
		s.Sizer = Fixed{Flits: s.PacketFlits}
	}
	if s.start == nil {
		//detlint:allow hotalloc one-time method value on first use; never reassigned in steady state
		s.start = s.startPacket
	}
	s.rng, s.emit = rng, emit
	s.Process.Cycle(t, rng, s.N, s.Rate/s.Sizer.Mean(), s.start)
}

// startPacket draws the destination and size of the packet node starts
// this cycle and emits it.
//
//sim:hot
func (s *Synthetic) startPacket(node int) {
	s.emit(node, s.Pattern.Dest(s.rng, node), s.Sizer.Draw(s.rng), 0)
}

// OnDelivered implements sim.Source (synthetic traffic has no replies).
//
//sim:hot
func (s *Synthetic) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
}

// PatternByName builds one of the paper's patterns for a placed network.
func PatternByName(name string, net *topo.Network) Pattern {
	switch name {
	case "RND":
		return Uniform{N: net.N()}
	case "SHF":
		return Shuffle{N: net.N()}
	case "REV":
		return Reversal{N: net.N()}
	case "ADV1":
		return NewAdversarial(net, 1)
	case "ADV2":
		return NewAdversarial(net, 2)
	case "ASYM":
		return Asymmetric{N: net.N()}
	}
	return nil
}
