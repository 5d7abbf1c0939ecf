// Temporal injection processes: the "when" axis of the Pattern x Process x
// Sizer decomposition. A Process decides, per node per cycle, whether the
// node starts a packet; the spatial Pattern then picks the destination and
// the Sizer the length. All processes are deterministic functions of the
// run's RNG stream: each cycle a process takes its per-cycle draws first,
// then one node at a time (ascending) takes that node's draws and, when the
// node fires, hands it to the start callback before the next node draws, so
// the destination and size draws interleave with the injection draws and a
// fixed seed always produces the identical injection sequence.

package traffic

import "math/rand"

// Process is the temporal injection process of a Synthetic source. prob is
// the per-cycle packet-start probability that realises the configured mean
// offered load (Rate divided by the sizer's mean packet length); processes
// reshape arrivals around that mean without changing it.
//
// Implementations must be deterministic given the RNG stream and must not
// allocate after their first Generate cycle: the simulator's steady-state
// loop is zero-allocation, and sources are part of it (pinned by
// TestSteadyStateZeroAllocsWorkloads in internal/sim).
type Process interface {
	Name() string
	// Cycle advances the process by cycle t for nodes 0..n-1 and calls
	// start(node) for every node that starts a packet, nodes ascending.
	// start draws the packet's destination and size from rng, so a node's
	// call must come after that node's own draws and before the next
	// node's.
	Cycle(t int64, rng *rand.Rand, n int, prob float64, start func(node int))
}

// Bernoulli is the paper's open-loop memoryless process (§5.1): every node
// independently starts a packet with probability prob each cycle. It is the
// default when Synthetic.Process is nil and consumes exactly one RNG draw
// per node per cycle — the draw sequence of the original monolithic source,
// so pre-decomposition specs reproduce byte-identical results (pinned by
// the golden fixtures in internal/sim).
type Bernoulli struct{}

// Name implements Process.
func (Bernoulli) Name() string { return "bernoulli" }

// Cycle implements Process (memoryless: no per-cycle state or draw).
//
//sim:hot
func (Bernoulli) Cycle(t int64, rng *rand.Rand, n int, prob float64, start func(node int)) {
	for node := 0; node < n; node++ {
		if rng.Float64() < prob {
			start(node)
		}
	}
}

// OnOff is a two-state bursty process: each node alternates independently
// between an "on" state, where it injects at prob/Duty, and a silent "off"
// state. Dwell times are geometric — the mean on-period is BurstLen cycles
// and the off-period is sized so the long-run on-fraction is Duty — so the
// mean offered load equals the configured rate while arrivals cluster into
// bursts. When prob/Duty exceeds 1 the on-state probability saturates at 1
// and the realised load falls below the nominal rate (inherent to bursty
// traffic near the injection bound).
type OnOff struct {
	// BurstLen is the mean on-period in cycles (>= 1).
	BurstLen float64
	// Duty is the long-run fraction of time a node spends on, in (0, 1].
	// Duty 1 degenerates to Bernoulli.
	Duty float64

	exitOn  float64 // per-cycle probability of ending a burst
	exitOff float64 // per-cycle probability of starting a burst
	on      []bool  // per-node state; all nodes start off
}

// NewOnOff builds the bursty process for n nodes, clamping BurstLen to
// >= 1 and Duty to (0, 1].
func NewOnOff(n int, burstLen, duty float64) *OnOff {
	if burstLen < 1 {
		burstLen = 1
	}
	if duty <= 0 || duty > 1 {
		duty = 1
	}
	o := &OnOff{BurstLen: burstLen, Duty: duty, on: make([]bool, n)}
	o.exitOn = 1 / burstLen
	if duty < 1 {
		// Mean off-period BurstLen*(1-Duty)/Duty makes the stationary
		// on-fraction exactly Duty.
		o.exitOff = duty / ((1 - duty) * burstLen)
	} else {
		o.exitOff = 1
	}
	return o
}

// Name implements Process.
func (o *OnOff) Name() string { return "burst" }

// Cycle implements Process: advance each node's two-state chain, then draw
// the injection decision while it is on.
//
//sim:hot
func (o *OnOff) Cycle(t int64, rng *rand.Rand, n int, prob float64, start func(node int)) {
	onProb := prob / o.Duty
	on := o.on
	for node := 0; node < n; node++ {
		if on[node] {
			if rng.Float64() < o.exitOn {
				on[node] = false
			}
		} else if rng.Float64() < o.exitOff {
			on[node] = true
		}
		if on[node] && rng.Float64() < onProb {
			start(node)
		}
	}
}

// Modulated is an MMPP-style process: one global two-state Markov chain
// modulates every node's injection probability between a high state
// (prob * Factor) and a low state (prob * (2 - Factor)). Both states have
// the same geometric mean dwell time (Period cycles), so the long-run mean
// offered load equals the configured rate while the network sees
// alternating epochs of elevated and depressed pressure.
type Modulated struct {
	// Factor is the high-state rate multiplier, in [1, 2]; the low state
	// uses 2 - Factor so the mean is preserved. Factor 1 degenerates to
	// Bernoulli.
	Factor float64
	// Period is the mean dwell time per state in cycles (>= 1).
	Period float64

	flip float64 // per-cycle state-flip probability (1/Period)
	high bool    // current state; starts low
}

// NewModulated builds the modulated process, clamping Factor to [1, 2] and
// Period to >= 1.
func NewModulated(factor, period float64) *Modulated {
	if factor < 1 {
		factor = 1
	}
	if factor > 2 {
		factor = 2
	}
	if period < 1 {
		period = 1
	}
	return &Modulated{Factor: factor, Period: period, flip: 1 / period}
}

// Name implements Process.
func (m *Modulated) Name() string { return "mmpp" }

// Cycle implements Process: one global state-transition draw, then one
// injection draw per node at the state's probability.
//
//sim:hot
func (m *Modulated) Cycle(t int64, rng *rand.Rand, n int, prob float64, start func(node int)) {
	if rng.Float64() < m.flip {
		m.high = !m.high
	}
	if m.high {
		prob *= m.Factor
	} else {
		prob *= 2 - m.Factor
	}
	for node := 0; node < n; node++ {
		if rng.Float64() < prob {
			start(node)
		}
	}
}

// Sizer is the packet-length axis of the decomposition: it draws the flit
// count of each generated packet. Mean reports the expected length, which
// the Synthetic source divides into the flit rate to obtain the per-cycle
// packet probability — so the offered load in flits/node/cycle is preserved
// whatever the mix. Like Process implementations, sizers must be
// deterministic and allocation-free after warm-up.
type Sizer interface {
	Name() string
	Mean() float64
	// Draw returns the flit count of one packet.
	Draw(rng *rand.Rand) int
}

// Fixed sizes every packet at Flits (the paper's 6-flit data packet). It
// consumes no RNG draws, preserving the pre-decomposition draw sequence.
type Fixed struct {
	Flits int
}

// Name implements Sizer.
func (Fixed) Name() string { return "fixed" }

// Mean implements Sizer.
//
//sim:hot
func (f Fixed) Mean() float64 { return float64(f.Flits) }

// Draw implements Sizer.
//
//sim:hot
func (f Fixed) Draw(rng *rand.Rand) int { return f.Flits }

// Bimodal mixes short control packets with long data packets: a packet is
// Short flits with probability ShortFrac and Long flits otherwise — the
// read-request/data-reply length mix of coherence traffic (§5.1 "Real
// Traffic" uses 2- and 6-flit messages).
type Bimodal struct {
	Short, Long int
	// ShortFrac is the probability a packet is short, in [0, 1].
	ShortFrac float64
}

// Name implements Sizer.
func (Bimodal) Name() string { return "bimodal" }

// Mean implements Sizer.
//
//sim:hot
func (b Bimodal) Mean() float64 {
	return b.ShortFrac*float64(b.Short) + (1-b.ShortFrac)*float64(b.Long)
}

// Draw implements Sizer.
//
//sim:hot
func (b Bimodal) Draw(rng *rand.Rand) int {
	if rng.Float64() < b.ShortFrac {
		return b.Short
	}
	return b.Long
}
