package slimnoc

import (
	"context"
	"strings"
	"testing"
)

// budgetSpec is a small run both budget and cycle-step tests reuse.
func budgetSpec() RunSpec {
	return RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 300, MeasureCycles: 900, DrainCycles: 1500, Seed: 9},
	}
}

// TestWithCycleStepIdentity pins the facade half of the event calendar's
// exact-equivalence contract: a run with WithCycleStep must produce the
// same Result as the default calendar engine (the engine-level proof lives
// in internal/sim's differential and golden-idle suites).
func TestWithCycleStepIdentity(t *testing.T) {
	cal, err := Run(context.Background(), budgetSpec())
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := Run(context.Background(), budgetSpec(), WithCycleStep())
	if err != nil {
		t.Fatal(err)
	}
	if cal.Raw != cyc.Raw {
		t.Errorf("calendar result %+v != cycle-stepped %+v", cal.Raw, cyc.Raw)
	}
	if cyc.Engine.CyclesSkipped != 0 || cyc.Engine.CalendarPeak != 0 {
		t.Errorf("cycle-stepped run reported skip telemetry: %+v", cyc.Engine)
	}
}

// TestWithMemBudget checks both sides of the budget: an absurdly small cap
// rejects the run with a sizing error before the engine allocates, and a
// generous cap changes nothing about the result.
func TestWithMemBudget(t *testing.T) {
	_, err := Run(context.Background(), budgetSpec(), WithMemBudget(1024))
	if err == nil {
		t.Fatal("1 KiB budget accepted a t2d54 engine")
	}
	if !strings.Contains(err.Error(), "MemBudgetBytes") {
		t.Errorf("budget error %q does not name MemBudgetBytes", err)
	}

	capped, err := Run(context.Background(), budgetSpec(), WithMemBudget(1<<28))
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run(context.Background(), budgetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if capped.Raw != free.Raw {
		t.Errorf("budgeted result %+v != unbudgeted %+v", capped.Raw, free.Raw)
	}
}

// TestCampaignMemBudget checks the campaign plumbing: with a tiny per-point
// budget every point fails with the sizing error.
func TestCampaignMemBudget(t *testing.T) {
	results, err := RunCampaign(context.Background(),
		[]RunSpec{budgetSpec()}, WithJobs(1), WithPointMemBudget(1024))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("tiny budget did not fail the point: %+v", results)
	}
	if !strings.Contains(results[0].Err.Error(), "MemBudgetBytes") {
		t.Errorf("point error %q does not name MemBudgetBytes", results[0].Err)
	}
}

// TestScalePresets pins the 10k/100k Table 4 siblings added for the scale-*
// family: the presets resolve and their node counts land in the declared
// regimes.
func TestScalePresets(t *testing.T) {
	for name, want := range map[string]int{
		"cm10k": 10080, "t2d10k": 10080, "fbf10k": 10080,
		"cm100k": 100352, "t2d100k": 100352, "fbf100k": 100352,
	} {
		ns, err := ResolvePreset(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if n := ns.X * ns.Y * ns.Conc; n != want {
			t.Errorf("%s: %d nodes, want %d", name, n, want)
		}
	}
}
