package core

import (
	"context"
	"errors"
	"testing"
)

// baselines names the four comparison methods as in the paper's tables.
var baselines = []struct {
	name string
	run  func(*Optimizer, context.Context) (*Result, error)
}{
	{"VECBEE-S", (*Optimizer).VecbeeSasimi},
	{"VaACS", (*Optimizer).VaACS},
	{"HEDALS", (*Optimizer).HEDALS},
	{"GWO (single-chase)", (*Optimizer).SingleChaseGWO},
}

func baselineConfig(m Metric, budget float64) Config {
	cfg := DefaultConfig(m, budget)
	cfg.MaxIter = 5
	cfg.PopulationSize = 8
	cfg.Vectors = 1024
	cfg.Seed = 5
	return cfg
}

// runBaseline sets up a fresh Optimizer on adder8 and runs one method.
func runBaseline(t *testing.T, ctx context.Context, run func(*Optimizer, context.Context) (*Result, error), cfg Config) (*Result, error) {
	t.Helper()
	opt, err := New(adder8(), lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run(opt, ctx)
}

func TestAllBaselinesRespectBudget(t *testing.T) {
	for _, m := range baselines {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			res, err := runBaseline(t, context.Background(), m.run, baselineConfig(MetricNMED, 0.0244))
			if err != nil {
				t.Fatal(err)
			}
			if res.Best == nil {
				t.Fatal("no result")
			}
			if res.Best.Err > 0.0244 {
				t.Errorf("error %v exceeds budget", res.Best.Err)
			}
			if err := res.Best.Circuit.Validate(); err != nil {
				t.Errorf("best circuit invalid: %v", err)
			}
			if res.Evaluations == 0 {
				t.Error("no evaluations recorded")
			}
			if len(res.History) == 0 || res.History[len(res.History)-1].Evaluations != res.Evaluations {
				t.Errorf("history %+v does not end at the run's %d evaluations", res.History, res.Evaluations)
			}
		})
	}
}

func TestGreedySasimiReducesArea(t *testing.T) {
	res, err := runBaseline(t, context.Background(), (*Optimizer).VecbeeSasimi, baselineConfig(MetricNMED, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	accurateArea := adder8().Area(lib)
	if res.Best.Area > accurateArea {
		t.Errorf("area-driven greedy grew the area: %v > %v", res.Best.Area, accurateArea)
	}
}

func TestHedalsTargetsDelay(t *testing.T) {
	opt, err := New(adder8(), lib, baselineConfig(MetricER, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.HEDALS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// HEDALS must never return something slower than the exact circuit
	// (it only commits strict delay improvements).
	if res.Best.Delay > opt.RefDelay()+1e-9 {
		t.Errorf("HEDALS result slower than accurate: %v > %v", res.Best.Delay, opt.RefDelay())
	}
}

func TestZeroBudgetKeepsExact(t *testing.T) {
	for _, m := range baselines {
		res, err := runBaseline(t, context.Background(), m.run, baselineConfig(MetricER, 0))
		if err != nil {
			t.Fatalf("%v: %v", m.name, err)
		}
		if res.Best.Err != 0 {
			t.Errorf("%v: zero budget but error %v", m.name, res.Best.Err)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, m := range baselines {
		cfg := baselineConfig(MetricNMED, 0.0244)
		a, err := runBaseline(t, context.Background(), m.run, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runBaseline(t, context.Background(), m.run, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Best.Fit != b.Best.Fit {
			t.Errorf("%v: same seed, different fitness (%v vs %v)", m.name, a.Best.Fit, b.Best.Fit)
		}
	}
}

// TestRunContextCancelAllMethods checks every baseline stops at a round
// boundary when its context is cancelled, and that the progress hook
// fires once per round, mirrors History and never perturbs results.
func TestRunContextCancelAllMethods(t *testing.T) {
	for _, m := range baselines {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()

			// Reference run, no hooks.
			want, err := runBaseline(t, context.Background(), m.run, baselineConfig(MetricNMED, 0.0244))
			if err != nil {
				t.Fatal(err)
			}

			// Progress-hooked run must be bit-identical and report rounds.
			cfg := baselineConfig(MetricNMED, 0.0244)
			var seen []IterStats
			cfg.Progress = func(st IterStats) { seen = append(seen, st) }
			got, err := runBaseline(t, context.Background(), m.run, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Best.Fit != want.Best.Fit || got.Best.Err != want.Best.Err ||
				got.Evaluations != want.Evaluations {
				t.Errorf("hooked run = (%v %v %d), plain run = (%v %v %d)",
					got.Best.Fit, got.Best.Err, got.Evaluations,
					want.Best.Fit, want.Best.Err, want.Evaluations)
			}
			if len(seen) == 0 || len(seen) != len(got.History) {
				t.Fatalf("progress fired %d times, history has %d entries", len(seen), len(got.History))
			}
			for i, st := range seen {
				if st.Iter != i+1 || st.Evaluations == 0 || st != got.History[i] {
					t.Errorf("progress[%d] = %+v, history %+v", i, st, got.History[i])
				}
			}

			// Cancel after the first round via the progress hook.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg2 := baselineConfig(MetricNMED, 0.0244)
			cfg2.Progress = func(IterStats) { cancel() }
			if _, err := runBaseline(t, ctx, m.run, cfg2); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run err = %v, want context.Canceled", err)
			}

			// Cancellation must not leak into a later identical run.
			again, err := runBaseline(t, context.Background(), m.run, baselineConfig(MetricNMED, 0.0244))
			if err != nil {
				t.Fatal(err)
			}
			if again.Best.Fit != want.Best.Fit || again.Evaluations != want.Evaluations {
				t.Errorf("rerun after cancel diverged: (%v %d) vs (%v %d)",
					again.Best.Fit, again.Evaluations, want.Best.Fit, want.Evaluations)
			}
		})
	}
}
