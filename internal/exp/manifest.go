// The reproduction manifest: a machine-readable registry mapping every
// figure and table of the paper's evaluation to the declarative SweepSpecs
// that generate its simulation grid. cmd/snrepro consumes it to run any
// subset of the evaluation against a content-addressed result store
// (resumable, deduplicated across figures); the classic Experiment registry
// (registry.go) remains the path that post-processes raw results into the
// paper's exact derived tables (power models, EDP, gain percentages).

package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/slimnoc"
)

// Figure is one manifest entry: a paper artifact and the declarative sweeps
// that reproduce its simulation grid.
type Figure struct {
	// ID matches the Experiment registry ID (fig12, tab5, abl-vcs, ...).
	ID string
	// Title names the artifact as the paper does.
	Title string
	// Section cites the paper section the artifact appears in.
	Section string
	// Sweeps are the figure's simulation grids. A figure spanning several
	// panels or base-spec variations (buffer capacities, SMART on/off,
	// trace benchmarks, routing algorithms) carries one sweep per
	// variation; points identical across sweeps and figures share one
	// result-store entry (slimnoc.PointKey ignores labels).
	Sweeps []slimnoc.SweepSpec
	// Sats are the figure's saturation-load searches (the sat-* family):
	// each binary-searches the offered load where the configuration's mean
	// latency crosses the threshold, reusing the result store so probes are
	// cached, resumable, and shared with grid sweeps over the same loads.
	Sats []slimnoc.SaturationSpec
	// MemBudget declares the per-point engine memory budget in bytes for
	// figures whose instances are large enough to need one (the scale-*
	// family). RunFigure enforces it via slimnoc.WithPointMemBudget unless
	// Options.MemBudget overrides; 0 means unbudgeted.
	MemBudget int64
	// Analytic marks artifacts computed entirely from the analytical
	// area/power/layout models: they have no simulation grid, and snrepro
	// defers to `snexp -exp <id>` for them.
	Analytic bool
	// Notes records what the declarative grids do not capture (derived
	// post-processing, non-declarative network surgery), and how to get it.
	Notes string
}

// loadsAxis is the shared offered-load axis for the mode.
func loadsAxis(o Options) []float64 { return o.Loads() }

// simBase returns the base RunSpec every manifest sweep starts from.
func simBase(o Options) slimnoc.RunSpec {
	return slimnoc.RunSpec{Sim: o.SimSpec()}
}

// latencyGrid builds the standard latency-vs-load sweep: one network axis,
// one or more patterns, the mode's loads.
func latencyGrid(o Options, name string, presets, patterns []string, smart bool) slimnoc.SweepSpec {
	base := simBase(o)
	base.SMART = smart
	return slimnoc.SweepSpec{
		Name: name,
		Base: base,
		Axes: slimnoc.SweepAxes{
			Presets:  presets,
			Patterns: patterns,
			Loads:    loadsAxis(o),
		},
	}
}

// activityGrid builds the saturating-RND sweep feeding the power models:
// every network once, RND at the paper's 0.24 comparison load, SMART.
func activityGrid(o Options, name string, presets []string) slimnoc.SweepSpec {
	base := simBase(o)
	base.SMART = true
	base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.24}
	return slimnoc.SweepSpec{
		Name: name,
		Base: base,
		Axes: slimnoc.SweepAxes{Presets: presets},
	}
}

// traceGrids builds one sweep per PARSEC/SPLASH benchmark over the given
// networks (the traces axis: sources are stateful, so each benchmark is a
// base-spec variation rather than a sweep axis).
func traceGrids(o Options, name string, presets []string, smart bool) []slimnoc.SweepSpec {
	var out []slimnoc.SweepSpec
	for _, b := range benchList(o) {
		base := simBase(o)
		base.SMART = smart
		base.Traffic = slimnoc.TrafficSpec{Pattern: "trace", Trace: b.Name}
		out = append(out, slimnoc.SweepSpec{
			Name: fmt.Sprintf("%s/%s", name, b.Name),
			Base: base,
			Axes: slimnoc.SweepAxes{Presets: presets},
		})
	}
	return out
}

// Manifest returns the full reproduction manifest for the mode. Every entry
// with sweeps expands to concrete, validated RunSpecs whose per-point seeds
// derive from o.Seed, so two invocations with equal Options produce
// identical grids — the property that makes a shared result store serve
// them byte-identically.
func Manifest(o Options) []Figure {
	loads := loadsAxis(o)
	smallNets := []string{"cm3", "t2d3", "pfbf3", "pfbf4", "sn_subgr_200", "fbf3"}
	patterns := []string{"adv1", "rev", "rnd", "shf"}

	var figs []Figure
	add := func(f Figure) { figs = append(figs, f) }

	add(Figure{
		ID: "fig1a", Title: "Latency under adversarial traffic, N=1296", Section: "Fig. 1a",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig1a", []string{"cm9", "t2d9", "fbf9", "sn_gr_1296"}, []string{"adv1"}, true),
		},
	})
	add(Figure{
		ID: "fig10a", Title: "SN layouts on synthetic traffic, N=200, no SMART", Section: "Fig. 10a",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig10a",
				[]string{"sn_basic_200", "sn_rand_200", "sn_gr_200", "sn_subgr_200"},
				[]string{"rev", "rnd", "shf"}, false),
		},
	})
	add(Figure{
		ID: "fig10b", Title: "SN layouts on PARSEC/SPLASH, N=200, no SMART", Section: "Fig. 10b",
		Sweeps: traceGrids(o, "fig10b",
			[]string{"sn_basic_200", "sn_gr_200", "sn_subgr_200"}, false),
	})
	add(fig11Manifest(o, loads))
	add(Figure{
		ID: "fig12", Title: "Synthetic traffic, small networks (N in {192,200}), SMART", Section: "Fig. 12",
		Sweeps: []slimnoc.SweepSpec{latencyGrid(o, "fig12", smallNets, patterns, true)},
	})
	add(Figure{
		ID: "fig13", Title: "Synthetic traffic, N=1296, SMART", Section: "Fig. 13",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig13", []string{"cm9", "t2d9", "pfbf9", "sn_gr_1296", "fbf9"}, patterns, true),
		},
	})
	add(Figure{
		ID: "fig14", Title: "Synthetic traffic, small networks, no SMART", Section: "Fig. 14",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig14", []string{"cm3", "t2d3", "pfbf3", "sn_subgr_200", "fbf3"}, patterns, false),
		},
	})
	add(Figure{
		ID: "fig15", Title: "Area and static power, N=200, no SMART", Section: "Fig. 15",
		Analytic: true,
		Notes:    "Computed entirely from the analytical area/power models; run `snexp -exp fig15`.",
	})
	add(Figure{
		ID: "fig16", Title: "Area/power per node, small networks, SMART, 45+22nm", Section: "Fig. 16",
		Sweeps: []slimnoc.SweepSpec{
			activityGrid(o, "fig16", []string{"fbf3", "fbf4", "pfbf3", "sn_subgr_200", "t2d4", "cm4"}),
		},
		Notes: "The grid provides the dynamic-power activity runs; area and static power are analytical. `snexp -exp fig16` renders the full per-node tables.",
	})
	add(Figure{
		ID: "fig17", Title: "Area/power per node, N=1296, SMART, 45+22nm", Section: "Fig. 17",
		Sweeps: []slimnoc.SweepSpec{
			activityGrid(o, "fig17", []string{"fbf8", "fbf9", "pfbf9", "sn_gr_1296", "t2d9", "cm9"}),
		},
		Notes: "As fig16; `snexp -exp fig17` renders the derived tables.",
	})
	add(Figure{
		ID: "fig18", Title: "Energy-delay product on PARSEC/SPLASH, SMART", Section: "Fig. 18",
		Sweeps: traceGrids(o, "fig18", []string{"fbf3", "pfbf3", "cm3", "sn_subgr_200"}, true),
		Notes:  "EDP normalisation against FBF is derived post-processing; `snexp -exp fig18` renders it from the same runs.",
	})
	add(Figure{
		ID: "fig19", Title: "Small-scale analysis, N=54", Section: "Fig. 19",
		Sweeps: []slimnoc.SweepSpec{
			latencyGrid(o, "fig19a", []string{"fbf54", "pfbf54", "sn_subgr_54", "t2d54"}, []string{"rnd"}, true),
			activityGrid(o, "fig19bc", []string{"sn_subgr_54", "fbf54", "pfbf54", "t2d54"}),
		},
		Notes: "fig19a is the latency panel; fig19bc feeds the area/power panels (`snexp -exp fig19` for the derived tables).",
	})
	add(fig20Manifest(o, loads))
	add(Figure{
		ID: "tab5", Title: "SN throughput/power advantage (RND)", Section: "Table 5",
		Sweeps: []slimnoc.SweepSpec{
			activityGrid(o, "tab5", []string{
				"sn_subgr_200", "t2d4", "cm4", "pfbf3", "fbf3", "fbf4",
				"sn_gr_1296", "t2d9", "cm9", "pfbf9", "fbf8", "fbf9",
			}),
		},
		Notes: "Gain percentages divide throughput/power pairs per tech node; `snexp -exp tab5` renders them from the same runs.",
	})
	add(tab6Manifest(o))
	add(sensSizesManifest(o))
	add(Figure{
		ID: "sens-conc", Title: "Concentration sweep, SN q=8", Section: "§5.5 / §2.1",
		Sweeps: []slimnoc.SweepSpec{sensConcSweep(o)},
	})
	add(Figure{
		ID: "sens-cycle", Title: "Cycle-time sensitivity, N in {192,200}", Section: "§5.1",
		Sweeps: []slimnoc.SweepSpec{func() slimnoc.SweepSpec {
			base := simBase(o)
			base.SMART = true
			base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06}
			return slimnoc.SweepSpec{
				Name: "sens-cycle",
				Base: base,
				Axes: slimnoc.SweepAxes{Presets: []string{"cm3", "t2d3", "pfbf3", "sn_subgr_200", "fbf3"}},
			}
		}()},
		Notes: "Nanosecond conversions under per-topology vs uniform clocks are derived; `snexp -exp sens-cycle` renders them.",
	})
	add(Figure{
		ID: "resil", Title: "Link-failure resilience, N=200-class networks", Section: "§2.1",
		Sweeps: []slimnoc.SweepSpec{func() slimnoc.SweepSpec {
			base := simBase(o)
			base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06}
			return slimnoc.SweepSpec{
				Name: "resil",
				Base: base,
				Axes: slimnoc.SweepAxes{Presets: []string{"sn_subgr_200", "fbf4", "t2d4"}},
			}
		}()},
		Notes: "The declarative grid covers the undamaged baselines. Failed-link variants surgically remove links from built networks (not expressible as specs); `snexp -exp resil` runs the full study.",
	})
	add(ablCBSizeManifest(o))
	add(Figure{
		ID: "abl-vcs", Title: "Virtual-channel count ablation, sn_subgr_200", Section: "§4.3",
		Sweeps: []slimnoc.SweepSpec{func() slimnoc.SweepSpec {
			base := simBase(o)
			base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd"}
			return slimnoc.SweepSpec{
				Name: "abl-vcs",
				Base: base,
				Axes: slimnoc.SweepAxes{
					Presets: []string{"sn_subgr_200"},
					VCs:     []int{2, 3, 4},
					Loads:   []float64{0.06, 0.30},
				},
			}
		}()},
	})
	add(ablSmartHManifest(o))
	for _, f := range satManifest(o) {
		add(f)
	}
	for _, f := range scaleManifest(o) {
		add(f)
	}
	return figs
}

// scaleManifest builds the scale-* family: the event-calendar engine at
// 10k-endpoint scale, SN against its Table 4 baseline siblings, under a
// declared per-point memory budget. scale-nets searches each topology's
// saturation load — where its throughput collapses — while scale-smoke is
// the CI-sized single point proving a 10k-endpoint SN builds and runs
// inside the budget.
func scaleManifest(o Options) []Figure {
	base := func(preset, pattern string) slimnoc.RunSpec {
		b := simBase(o)
		b.SMART = true
		b.Network = slimnoc.NetworkSpec{Preset: preset}
		b.Traffic = slimnoc.TrafficSpec{Pattern: pattern}
		return b
	}
	const budget = int64(1) << 28 // 256 MiB per point

	nets := []string{"sn_subgr_10000", "cm10k", "t2d10k", "fbf10k"}
	patterns := []string{"rnd", "adv1"}
	if o.Quick {
		patterns = []string{"rnd"}
	}
	var sats []slimnoc.SaturationSpec
	for _, net := range nets {
		for _, pat := range patterns {
			sats = append(sats, satSearch(o, fmt.Sprintf("scale-nets/%s/%s", net, pat), base(net, pat)))
		}
	}

	smoke := base("sn_subgr_10000", "rnd")
	return []Figure{
		{
			ID: "scale-nets", Title: "Saturation collapse at N=10080, SN vs Table 4 baselines", Section: "§5.5 scale-out",
			Sats:      sats,
			MemBudget: budget,
			Notes: "Each search brackets the load where the topology's throughput collapses. " +
				"The cm100k/t2d100k/fbf100k presets and sn_subgr_99856 extend the family to ~100k endpoints " +
				"but are deliberately absent: one saturated probe on 12k routers is hours of engine work. " +
				"Their routes fit the budget (the SN's next-hop table is 12482^2 bytes ~ 149 MiB, the grids' " +
				"closed-form routes a few hundred KiB), but compiling a 100k grid validates all 157M router pairs, " +
				"which takes minutes; run them explicitly with patience.",
		},
		{
			ID: "scale-smoke", Title: "10k-endpoint smoke point under memory budget", Section: "CI",
			Sweeps: []slimnoc.SweepSpec{{
				Name: "scale-smoke",
				Base: smoke,
				Axes: slimnoc.SweepAxes{
					Presets: []string{"sn_subgr_10000"},
					Loads:   []float64{0.008},
				},
			}},
			MemBudget: budget,
			Notes:     "One low-load point on the q=25 subgroup SN (1250 routers, 10000 endpoints): the idle-heavy regime the event calendar accelerates, run inside a 256 MiB budget the SN's table never strains.",
		},
	}
}

// satSearch builds one saturation search with the mode's grid resolution:
// quick mode coarsens the step and lowers the ceiling so CI-sized runs stay
// around half a dozen probes, full mode matches the paper's load range.
func satSearch(o Options, name string, base slimnoc.RunSpec) slimnoc.SaturationSpec {
	s := slimnoc.SaturationSpec{
		Name:          name,
		Base:          base,
		MinLoad:       0.04,
		MaxLoad:       0.6,
		Step:          0.02,
		LatencyFactor: 3,
	}
	if o.Quick {
		s.MaxLoad, s.Step = 0.44, 0.04
	}
	return s
}

// satManifest builds the sat-* family: saturation load per network, per
// buffering scheme, and per temporal process, for the Slim NoC against the
// Table 4 baselines. Searches have no fixed grid to sweep — snrepro runs
// them through Campaign.SaturationSearch — but their probes live in the same
// result store as every other point, so a sat figure warms the latency-vs-
// load figures (and vice versa) wherever loads coincide.
func satManifest(o Options) []Figure {
	base := func(preset, pattern string) slimnoc.RunSpec {
		b := simBase(o)
		b.SMART = true
		b.Network = slimnoc.NetworkSpec{Preset: preset}
		b.Traffic = slimnoc.TrafficSpec{Pattern: pattern}
		return b
	}

	var figs []Figure

	nets := []string{"cm3", "t2d3", "fbf3", "pfbf3", "sn_subgr_200"}
	patterns := []string{"rnd", "adv1"}
	if o.Quick {
		patterns = []string{"rnd"}
	}
	var netSats []slimnoc.SaturationSpec
	for _, net := range nets {
		for _, pat := range patterns {
			netSats = append(netSats, satSearch(o, fmt.Sprintf("sat-nets/%s/%s", net, pat), base(net, pat)))
		}
	}
	figs = append(figs, Figure{
		ID: "sat-nets", Title: "Saturation load per network, SN vs Table 4 baselines", Section: "§5.1 / Table 4",
		Sats:  netSats,
		Notes: "Threshold: mean latency 3x the zero-load baseline (or the run's own saturation flag).",
	})

	var schemeSats []slimnoc.SaturationSpec
	for _, scheme := range []string{"eb", "eb-large", "el", "cbr"} {
		b := base("sn_subgr_200", "rnd")
		b.Buffering = slimnoc.BufferingSpec{Scheme: scheme}
		schemeSats = append(schemeSats, satSearch(o, "sat-schemes/"+scheme, b))
	}
	figs = append(figs, Figure{
		ID: "sat-schemes", Title: "Saturation load per buffering scheme, sn_subgr_200", Section: "§4 / Fig. 11",
		Sats: schemeSats,
	})

	var procSats []slimnoc.SaturationSpec
	for _, proc := range []string{"bernoulli", "burst", "mmpp"} {
		b := base("sn_subgr_200", "rnd")
		b.Traffic.Process = proc
		procSats = append(procSats, satSearch(o, "sat-process/"+proc, b))
	}
	figs = append(figs, Figure{
		ID: "sat-process", Title: "Saturation load per temporal process, sn_subgr_200", Section: "workload decomposition",
		Sats:  procSats,
		Notes: "Open-loop processes only: the request-reply closed loop self-throttles and has no load knob to search.",
	})

	return figs
}

// fig11Manifest builds the buffering-strategy grids: the registry schemes
// sweep as an axis; the two central-buffer capacities are base variations.
func fig11Manifest(o Options, loads []float64) Figure {
	var sweeps []slimnoc.SweepSpec
	for _, net := range []string{"sn_subgr_200", "sn_gr_1296"} {
		for _, smart := range []bool{false, true} {
			label := "nosmart"
			if smart {
				label = "smart"
			}
			base := simBase(o)
			base.SMART = smart
			sweeps = append(sweeps, slimnoc.SweepSpec{
				Name: fmt.Sprintf("fig11/%s/%s", net, label),
				Base: base,
				Axes: slimnoc.SweepAxes{
					Presets:  []string{net},
					Patterns: []string{"rnd"},
					Schemes:  []string{"eb", "eb-var", "eb-large", "el"},
					Loads:    loads,
				},
			})
			for _, cb := range []int{40, 6} {
				cbBase := base
				cbBase.Buffering = slimnoc.BufferingSpec{Scheme: "cbr", CBCap: cb}
				cbBase.Traffic = slimnoc.TrafficSpec{Pattern: "rnd"}
				sweeps = append(sweeps, slimnoc.SweepSpec{
					Name: fmt.Sprintf("fig11/%s/%s/cbr%d", net, label, cb),
					Base: cbBase,
					Axes: slimnoc.SweepAxes{Presets: []string{net}, Loads: loads},
				})
			}
		}
	}
	return Figure{
		ID: "fig11", Title: "Buffering strategies, N in {200, 1296}", Section: "Fig. 11",
		Sweeps: sweeps,
		Notes:  "CBR capacities 40 and 6 are base-spec variations (capacity is not a sweep axis).",
	}
}

// fig20Manifest builds the adaptive-routing grids: one sweep per
// (network, registered algorithm) pair, matching the Fig. 20 variants.
func fig20Manifest(o Options, loads []float64) Figure {
	variants := []struct {
		net, alg string
	}{
		{"sn_subgr_200", "auto"},
		{"sn_subgr_200", "ugal-l"},
		{"sn_subgr_200", "ugal-g"},
		{"fbf4", "auto"},
		{"fbf4", "ugal-l"},
		{"fbf4", "min-adapt"},
	}
	var sweeps []slimnoc.SweepSpec
	for _, v := range variants {
		base := simBase(o)
		base.Routing = slimnoc.RoutingSpec{Algorithm: v.alg, VCs: 4}
		sweeps = append(sweeps, slimnoc.SweepSpec{
			Name: fmt.Sprintf("fig20/%s/%s", v.net, v.alg),
			Base: base,
			Axes: slimnoc.SweepAxes{
				Presets:  []string{v.net},
				Patterns: []string{"rnd", "asym"},
				Loads:    loads,
			},
		})
	}
	return Figure{
		ID: "fig20", Title: "Adaptive routing study, N=200, input-queued routers", Section: "Fig. 20 / §6",
		Sweeps: sweeps,
		Notes:  "`auto` is the static minimal baseline the figure labels MIN.",
	}
}

// tab6Manifest pairs SMART-off and SMART-on trace runs per benchmark.
func tab6Manifest(o Options) Figure {
	nets := []string{"fbf3", "pfbf3", "cm3", "sn_subgr_200"}
	sweeps := traceGrids(o, "tab6/nosmart", nets, false)
	sweeps = append(sweeps, traceGrids(o, "tab6/smart", nets, true)...)
	return Figure{
		ID: "tab6", Title: "Latency decrease from SMART, PARSEC/SPLASH", Section: "Table 6",
		Sweeps: sweeps,
		Notes:  "The percentage gain pairs each benchmark's SMART and no-SMART runs; `snexp -exp tab6` renders it.",
	}
}

// sensSizesManifest mixes preset SNs with explicitly parameterised torus
// and FBF networks at the §5.5 sizes.
func sensSizesManifest(o Options) Figure {
	type size struct {
		n          int
		sn         string
		x, y, conc int
	}
	sizes := []size{
		{588, "sn_subgr_588", 14, 7, 6},
		{686, "sn_subgr_686", 14, 7, 7},
		{1024, "sn_subgr_1024", 16, 8, 8},
	}
	if o.Quick {
		sizes = sizes[2:]
	}
	var sweeps []slimnoc.SweepSpec
	for _, s := range sizes {
		base := simBase(o)
		base.SMART = true
		base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06}
		sweeps = append(sweeps, slimnoc.SweepSpec{
			Name: fmt.Sprintf("sens-sizes/%d", s.n),
			Base: base,
			Axes: slimnoc.SweepAxes{
				Presets: []string{s.sn},
				Networks: []slimnoc.NetworkSpec{
					{Topology: "torus", X: s.x, Y: s.y, Conc: s.conc},
					{Topology: "flatfly", X: s.x, Y: s.y, Conc: s.conc},
				},
			},
		})
	}
	return Figure{
		ID: "sens-sizes", Title: "Other network sizes: N in {588, 686, 1024}", Section: "§5.5",
		Sweeps: sweeps,
		Notes:  "Area columns are analytical; `snexp -exp sens-sizes` renders them alongside the latencies.",
	}
}

// sensConcSweep sweeps SN concentration p at fixed q=8 via explicit
// NetworkSpecs (p is a construction parameter, not a sweep axis).
func sensConcSweep(o Options) slimnoc.SweepSpec {
	ps := []int{4, 5, 6, 7, 8}
	if o.Quick {
		ps = []int{4, 6, 8}
	}
	nets := make([]slimnoc.NetworkSpec, len(ps))
	for i, p := range ps {
		nets[i] = slimnoc.NetworkSpec{Topology: "sn", Q: 8, Conc: p, Layout: "subgr"}
	}
	base := simBase(o)
	base.SMART = true
	base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.24}
	return slimnoc.SweepSpec{
		Name: "sens-conc",
		Base: base,
		Axes: slimnoc.SweepAxes{Networks: nets},
	}
}

// ablCBSizeManifest builds one sweep per central-buffer capacity and
// network (capacity is a base-spec variation).
func ablCBSizeManifest(o Options) Figure {
	sizes := []int{6, 10, 20, 40, 70, 100}
	if o.Quick {
		sizes = []int{6, 20, 40, 100}
	}
	var sweeps []slimnoc.SweepSpec
	for _, net := range []string{"sn_subgr_200", "sn_gr_1296"} {
		for _, cb := range sizes {
			base := simBase(o)
			base.Buffering = slimnoc.BufferingSpec{Scheme: "cbr", CBCap: cb}
			base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd"}
			sweeps = append(sweeps, slimnoc.SweepSpec{
				Name: fmt.Sprintf("abl-cbsize/%s/cb%d", net, cb),
				Base: base,
				Axes: slimnoc.SweepAxes{
					Presets: []string{net},
					Loads:   []float64{0.06, 0.30},
				},
			})
		}
	}
	return Figure{
		ID: "abl-cbsize", Title: "Central-buffer capacity ablation", Section: "§5.2.1",
		Sweeps: sweeps,
	}
}

// ablSmartHManifest sweeps the SMART hop factor H as base-spec variations.
func ablSmartHManifest(o Options) Figure {
	hs := []int{1, 3, 9, 11}
	if o.Quick {
		hs = []int{1, 9}
	}
	var sweeps []slimnoc.SweepSpec
	for _, h := range hs {
		base := simBase(o)
		base.HopFactor = h
		base.Traffic = slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.06}
		sweeps = append(sweeps, slimnoc.SweepSpec{
			Name: fmt.Sprintf("abl-smarth/h%d", h),
			Base: base,
			Axes: slimnoc.SweepAxes{Presets: []string{"sn_basic_1296"}},
		})
	}
	return Figure{
		ID: "abl-smarth", Title: "SMART hop-factor ablation, sn_basic_1296", Section: "§3.2.2",
		Sweeps: sweeps,
	}
}

// FigureByID finds one manifest entry.
func FigureByID(id string, o Options) (Figure, error) {
	id = strings.ToLower(id)
	for _, f := range Manifest(o) {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("exp: unknown manifest figure %q (have %s)",
		id, strings.Join(FigureIDs(), ", "))
}

// FigureIDs lists the manifest IDs, sorted.
func FigureIDs() []string {
	var out []string
	for _, f := range Manifest(Options{Quick: true}) {
		out = append(out, f.ID)
	}
	sort.Strings(out)
	return out
}
