package traffic

import (
	"math/rand"
	"slices"
	"testing"
)

// refProcess is the per-node process interface the per-cycle Cycle method
// replaced: Begin once per cycle, then Inject once per node, ascending. The
// reference implementations below replay that call sequence so the test
// can prove Cycle consumes the RNG stream in exactly the same order.
type refProcess interface {
	begin(rng *rand.Rand)
	inject(rng *rand.Rand, node int, prob float64) bool
}

type refBernoulli struct{}

func (refBernoulli) begin(*rand.Rand) {}

func (refBernoulli) inject(rng *rand.Rand, node int, prob float64) bool {
	return rng.Float64() < prob
}

type refOnOff struct {
	duty, exitOn, exitOff float64
	on                    []bool
}

func (*refOnOff) begin(*rand.Rand) {}

func (o *refOnOff) inject(rng *rand.Rand, node int, prob float64) bool {
	if o.on[node] {
		if rng.Float64() < o.exitOn {
			o.on[node] = false
		}
	} else if rng.Float64() < o.exitOff {
		o.on[node] = true
	}
	if !o.on[node] {
		return false
	}
	return rng.Float64() < prob/o.duty
}

type refModulated struct {
	factor, flip float64
	high         bool
}

func (m *refModulated) begin(rng *rand.Rand) {
	if rng.Float64() < m.flip {
		m.high = !m.high
	}
}

func (m *refModulated) inject(rng *rand.Rand, node int, prob float64) bool {
	if m.high {
		prob *= m.factor
	} else {
		prob *= 2 - m.factor
	}
	return rng.Float64() < prob
}

type emitted struct {
	t                int64
	node, dst, flits int
}

// TestProcessCycleMatchesPerNodeReplay runs every process through
// Synthetic.Generate and through the per-node Begin/Inject replay, from the
// same seed, and requires identical (cycle, node, dst, flits) emits over
// 1,000 cycles. The hotspot pattern and the bimodal sizer both draw from
// the RNG, so any reordering of the injection, destination and size draws
// shows up as a divergence.
func TestProcessCycleMatchesPerNodeReplay(t *testing.T) {
	const n, cycles = 64, 1000
	for _, tc := range []struct {
		name string
		proc func() (Process, refProcess)
	}{
		{"bernoulli", func() (Process, refProcess) { return Bernoulli{}, refBernoulli{} }},
		{"burst", func() (Process, refProcess) {
			o := NewOnOff(n, 8, 0.25)
			return o, &refOnOff{duty: o.Duty, exitOn: o.exitOn, exitOff: o.exitOff, on: make([]bool, n)}
		}},
		{"mmpp", func() (Process, refProcess) {
			m := NewModulated(1.8, 20)
			return m, &refModulated{factor: m.Factor, flip: m.flip}
		}},
	} {
		// The high rate drives the burst process's on-state probability
		// past 1.
		for _, rate := range []float64{0.05, 1.5} {
			proc, ref := tc.proc()
			pattern := Hotspot{Frac: 0.3, K: 4, N: n, Base: Uniform{N: n}}
			sizer := Bimodal{Short: 2, Long: 6, ShortFrac: 0.5}
			syn := &Synthetic{N: n, Rate: rate, PacketFlits: 6, Pattern: pattern, Process: proc, Sizer: sizer}

			var got, want []emitted
			rng := rand.New(rand.NewSource(99))
			for c := int64(0); c < cycles; c++ {
				syn.Generate(c, rng, func(src, dst, flits, class int) {
					got = append(got, emitted{c, src, dst, flits})
				})
			}
			rng = rand.New(rand.NewSource(99))
			prob := rate / sizer.Mean()
			for c := int64(0); c < cycles; c++ {
				ref.begin(rng)
				for node := 0; node < n; node++ {
					if ref.inject(rng, node, prob) {
						want = append(want, emitted{c, node, pattern.Dest(rng, node), sizer.Draw(rng)})
					}
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s at rate %g: reference emitted nothing", tc.name, rate)
			}
			if !slices.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Errorf("%s at rate %g: %d emits vs %d in the per-node replay; first divergence at emit %d",
					tc.name, rate, len(got), len(want), i)
			}
		}
	}
}
