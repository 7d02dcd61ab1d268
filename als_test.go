package als_test

import (
	"strings"
	"testing"

	als "repro"
)

func quickCfg(metric als.Metric, budget float64) als.FlowConfig {
	return als.FlowConfig{
		Metric:      metric,
		ErrorBudget: budget,
		Scale:       als.ScaleQuick,
		Population:  6,
		Iterations:  4,
		Vectors:     1024,
		Seed:        9,
	}
}

func TestFlowEveryMethod(t *testing.T) {
	lib := als.NewLibrary()
	for _, method := range als.AllMethods() {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			cfg := quickCfg(als.MetricER, 0.05)
			cfg.Method = method
			res, err := als.Flow(als.Benchmark("c880"), lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.RatioCPD <= 0 || res.RatioCPD > 1.2 {
				t.Errorf("implausible Ratio_cpd %v", res.RatioCPD)
			}
			if res.Err > 0.05 {
				t.Errorf("error %v exceeds budget", res.Err)
			}
			if res.AreaFinal > res.AreaCon+1e-9 {
				t.Errorf("final area %v exceeds constraint %v", res.AreaFinal, res.AreaCon)
			}
			if err := res.Final.Validate(); err != nil {
				t.Errorf("final netlist invalid: %v", err)
			}
		})
	}
}

func TestFlowVerilogRoundTrip(t *testing.T) {
	lib := als.NewLibrary()
	res, err := als.Flow(als.Benchmark("Max16"), lib, quickCfg(als.MetricNMED, 0.0244))
	if err != nil {
		t.Fatal(err)
	}
	src := als.WriteVerilog(res.Final)
	back, err := als.ParseVerilog(src)
	if err != nil {
		t.Fatalf("final netlist does not round-trip: %v", err)
	}
	if len(back.POs) != len(res.Final.POs) || len(back.PIs) != len(res.Final.PIs) {
		t.Error("round trip changed the interface")
	}
	if !strings.Contains(src, "module Max16") {
		t.Error("module name lost")
	}
}

func TestFlowDeterministic(t *testing.T) {
	lib := als.NewLibrary()
	run := func() float64 {
		res, err := als.Flow(als.Benchmark("Adder16"), lib, quickCfg(als.MetricNMED, 0.0244))
		if err != nil {
			t.Fatal(err)
		}
		return res.RatioCPD
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different ratios: %v vs %v", a, b)
	}
}

// TestFlowHistoryRecordsEveryRound checks that History holds one entry per
// round the optimizer ran, numbered from 1, for DCGWO (which always runs
// every iteration) and for HEDALS (which may converge early).
func TestFlowHistoryRecordsEveryRound(t *testing.T) {
	lib := als.NewLibrary()
	for _, method := range []als.Method{als.MethodDCGWO, als.MethodHEDALS} {
		cfg := quickCfg(als.MetricER, 0.05)
		cfg.Method = method
		rounds := 0
		cfg.Progress = func(als.FlowProgress) { rounds++ }
		res, err := als.Flow(als.Benchmark("c880"), lib, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if method == als.MethodDCGWO && rounds != cfg.Iterations {
			t.Errorf("DCGWO ran %d rounds, want %d", rounds, cfg.Iterations)
		}
		if rounds == 0 || len(res.History) != rounds {
			t.Errorf("%v: history has %d entries for %d rounds", method, len(res.History), rounds)
		}
		for i, h := range res.History {
			if h.Iter != i+1 {
				t.Errorf("%v: history[%d].Iter = %d, want %d", method, i, h.Iter, i+1)
			}
		}
	}
}

// TestFlowProgressReachesFinalRound checks that every method reports its
// last round: the final progress event carries the run's full evaluation
// count, and there is one event per History entry.
func TestFlowProgressReachesFinalRound(t *testing.T) {
	lib := als.NewLibrary()
	for _, method := range als.AllMethods() {
		t.Run(method.String(), func(t *testing.T) {
			cfg := quickCfg(als.MetricER, 0.05)
			cfg.Method = method
			var events []als.FlowProgress
			cfg.Progress = func(p als.FlowProgress) { events = append(events, p) }
			res, err := als.Flow(als.Benchmark("c880"), lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			if last := events[len(events)-1]; last.Evaluations != res.Evaluations || last.Iter != len(events) {
				t.Errorf("last progress event %+v, want Iter %d and %d evaluations", last, len(events), res.Evaluations)
			}
			if len(events) != len(res.History) {
				t.Errorf("%d progress events, %d history entries", len(events), len(res.History))
			}
		})
	}
}

// TestFlowUnknownMethod checks that a FlowConfig naming no optimizer
// fails instead of running one.
func TestFlowUnknownMethod(t *testing.T) {
	cfg := quickCfg(als.MetricER, 0.05)
	cfg.Method = als.Method(99)
	res, err := als.Flow(als.Benchmark("c880"), als.NewLibrary(), cfg)
	if err == nil || !strings.Contains(err.Error(), "Method(99)") {
		t.Fatalf("Flow with Method(99) = (%v, %v), want an error naming the method", res, err)
	}
}

func TestBenchmarkNamesMatchTable1(t *testing.T) {
	names := als.BenchmarkNames()
	if len(names) != 15 {
		t.Fatalf("got %d benchmarks, want 15", len(names))
	}
	if names[0] != "Cavlc" || names[len(names)-1] != "Sqrt" {
		t.Error("benchmark order must follow TABLE I")
	}
}

func TestMethodStrings(t *testing.T) {
	if als.MethodDCGWO.String() != "Ours" {
		t.Error("DCGWO is the paper's 'Ours' column")
	}
	if als.MethodHEDALS.String() != "HEDALS" {
		t.Error("HEDALS name")
	}
}

func TestFlowEvalWorkersDoesNotChangeResults(t *testing.T) {
	lib := als.NewLibrary()
	var ref *als.FlowResult
	for _, w := range []int{0, 1, 3} {
		cfg := quickCfg(als.MetricNMED, 0.0244)
		cfg.Seed = 5
		cfg.EvalWorkers = w
		res, err := als.Flow(als.Benchmark("Adder16"), lib, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.RatioCPD != ref.RatioCPD || res.Err != ref.Err || res.Evaluations != ref.Evaluations {
			t.Fatalf("EvalWorkers=%d changed results: %v/%v/%d vs %v/%v/%d",
				w, res.RatioCPD, res.Err, res.Evaluations, ref.RatioCPD, ref.Err, ref.Evaluations)
		}
	}
}

// TestMethodNames pins every optimizer's name to its Table II column
// heading and checks that AllMethods lists each of them.
func TestMethodNames(t *testing.T) {
	want := map[als.Method]string{
		als.MethodDCGWO:          "Ours",
		als.MethodVecbeeSasimi:   "VECBEE-S",
		als.MethodVaACS:          "VaACS",
		als.MethodHEDALS:         "HEDALS",
		als.MethodSingleChaseGWO: "GWO (single-chase)",
	}
	if len(als.AllMethods()) != len(want) {
		t.Errorf("AllMethods() lists %d methods, want %d", len(als.AllMethods()), len(want))
	}
	for _, m := range als.AllMethods() {
		if m.String() != want[m] {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want[m])
		}
	}
	if als.Method(99).String() != "Method(99)" {
		t.Errorf("Method(99).String() = %q", als.Method(99).String())
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range als.AllMethods() {
		got, err := als.ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := als.ParseMethod("nope"); err == nil {
		t.Error("unknown method name must error")
	}
}

func TestParseMetricRoundTrip(t *testing.T) {
	for _, m := range []als.Metric{als.MetricER, als.MetricNMED} {
		got, err := als.ParseMetric(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := als.ParseMetric("MAE"); err == nil {
		t.Error("unknown metric name must error")
	}
}

func TestParseScaleRoundTrip(t *testing.T) {
	for _, s := range []als.Scale{als.ScaleQuick, als.ScalePaper} {
		got, err := als.ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := als.ParseScale("huge"); err == nil {
		t.Error("unknown scale name must error")
	}
}

func TestFlowAreaConstraintSweepMonotone(t *testing.T) {
	lib := als.NewLibrary()
	prev := 10.0
	for _, ratio := range []float64{0.9, 1.0, 1.2} {
		cfg := quickCfg(als.MetricNMED, 0.0244)
		cfg.AreaConRatio = ratio
		res, err := als.Flow(als.Benchmark("Max16"), lib, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.AreaFinal > res.AreaCon+1e-9 {
			t.Errorf("ratio %v: area %v exceeds budget %v", ratio, res.AreaFinal, res.AreaCon)
		}
		if res.RatioCPD > prev+0.05 {
			t.Errorf("more area headroom made timing clearly worse at ratio %v", ratio)
		}
		prev = res.RatioCPD
	}
}

// TestParseCaseInsensitive covers the serving-API requirement: method,
// metric and scale names arrive as untrusted client input and must parse
// case-insensitively, with the common informal method spellings accepted
// as aliases of the canonical table names.
func TestParseCaseInsensitive(t *testing.T) {
	methodCases := map[string]als.Method{
		"ours":               als.MethodDCGWO,
		"OURS":               als.MethodDCGWO,
		"dcgwo":              als.MethodDCGWO,
		"DCGWO":              als.MethodDCGWO,
		"hedals":             als.MethodHEDALS,
		"HeDaLs":             als.MethodHEDALS,
		" HEDALS ":           als.MethodHEDALS,
		"vecbee-s":           als.MethodVecbeeSasimi,
		"vecbee-sasimi":      als.MethodVecbeeSasimi,
		"sasimi":             als.MethodVecbeeSasimi,
		"vaacs":              als.MethodVaACS,
		"gwo":                als.MethodSingleChaseGWO,
		"gwo (single-chase)": als.MethodSingleChaseGWO,
		"single-chase-gwo":   als.MethodSingleChaseGWO,
	}
	for name, want := range methodCases {
		if got, err := als.ParseMethod(name); err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "annealing", "ours2", "gwo single-chase"} {
		if _, err := als.ParseMethod(bad); err == nil {
			t.Errorf("ParseMethod(%q) must fail", bad)
		}
	}

	for name, want := range map[string]als.Metric{
		"er": als.MetricER, "ER": als.MetricER, "Er": als.MetricER,
		"nmed": als.MetricNMED, "NMED": als.MetricNMED, "NMed ": als.MetricNMED,
	} {
		if got, err := als.ParseMetric(name); err != nil || got != want {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := als.ParseMetric("mae"); err == nil {
		t.Error("ParseMetric must reject unknown metrics case-insensitively too")
	}

	for name, want := range map[string]als.Scale{
		"quick": als.ScaleQuick, "QUICK": als.ScaleQuick,
		"paper": als.ScalePaper, "Paper": als.ScalePaper,
	} {
		if got, err := als.ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := als.ParseScale("huge"); err == nil {
		t.Error("ParseScale must reject unknown scales")
	}
}
