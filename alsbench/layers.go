package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/store"
	"repro/internal/trace"
)

// artifact is what a workload's own flow produced: the layer probes time
// each layer's public functions on it.
type artifact struct {
	accurate *netlist.Circuit // the benchmark circuit as built
	lib      *cell.Library
	metric   core.Metric
	budget   float64
	vectors  int
	seed     int64            // the flow seed: it also drew the flow's vectors
	approx   *netlist.Circuit // the optimizer's best, in the base ID space
	areaCon  float64
}

// probeLayers times the public functions of every optimizer layer on the
// artifact, each call inside a span named after it, under parent.
func probeLayers(parent *trace.Span, a artifact) error {
	sp := parent.StartChild("bench.probe_layers")
	defer sp.End()
	sp.SetAttr("circuit", a.accurate.Name)
	sp.SetAttr("vectors", a.vectors)

	// The optimizer's base: the accurate circuit with its constants
	// materialized, and the vectors its seed draws first.
	base := a.accurate.Clone()
	base.Const0()
	base.Const1()
	v := sim.Random(rand.New(rand.NewSource(a.seed)), len(base.PIs), a.vectors)

	var simr *sim.Simulator
	err := repeat(sp, "sim.NewSimulator", 3, func(int) (err error) {
		simr, err = sim.NewSimulator(base, v, nil)
		return err
	})
	if err != nil {
		return err
	}
	est, err := errest.New(base, v)
	if err != nil {
		return err
	}
	changed := a.approx.DiffGates(base)
	var inc *sim.Result
	if err := repeat(sp, "sim.IncrementalRun", 5, func(int) (err error) {
		inc, err = simr.IncrementalRun(a.approx, changed)
		return err
	}); err != nil {
		return err
	}
	if err := repeat(sp, "errest.MetricsFromResult", 5, func(int) error {
		_, err := est.MetricsFromResult(a.approx, inc)
		return err
	}); err != nil {
		return err
	}
	var rep *sta.Report
	if err := repeat(sp, "sta.Analyze", 10, func(int) (err error) {
		rep, err = sta.Analyze(a.approx, a.lib)
		return err
	}); err != nil {
		return err
	}
	if err := repeat(sp, "netlist.Clone", 20, func(int) error {
		a.approx.Clone()
		return nil
	}); err != nil {
		return err
	}

	// Searching actions, each on its own copy; the mutated copies are the
	// candidates evaluated below.
	full, err := sim.Run(a.approx, v)
	if err != nil {
		return err
	}
	ccfg := core.DefaultConfig(a.metric, a.budget)
	cands := []*netlist.Circuit{a.approx}
	if err := repeat(sp, "lac.SearchN", 10, func(i int) error {
		c := a.approx.Clone()
		rng := rand.New(rand.NewSource(a.seed + int64(i)))
		if _, ok := lac.SearchN(c, full, rep, rng, ccfg.CritMargin, ccfg.SearchTries); ok && len(cands) < 4 {
			cands = append(cands, c)
		}
		return nil
	}); err != nil {
		return err
	}

	ev, err := core.NewEvaluator(base, a.lib, a.metric, ccfg.DepthWeight, v)
	if err != nil {
		return err
	}
	var inds []*core.Individual
	if err := repeat(sp, "core.EvaluateBatch", 3, func(int) (err error) {
		ev.BeginGeneration() // cold cache: every candidate is evaluated
		inds, err = ev.EvaluateBatch(cands)
		return err
	}); err != nil {
		return err
	}
	sp.SetAttr("candidates", len(cands))
	if len(inds) >= 2 {
		if err := repeat(sp, "core.Reproduce", 10, func(int) error {
			core.Reproduce(inds[0], inds[1], 0.9*ev.RefDelay(), ccfg.WeightErr)
			return nil
		}); err != nil {
			return err
		}
	}
	return repeat(sp, "sizing.PostOptimize", 3, func(int) error {
		_, err := sizing.PostOptimize(a.approx, a.lib, sizing.Options{AreaCon: a.areaCon})
		return err
	})
}

// probeDurability times the service's write-ahead log and result store on
// scratch files under dir: one fsynced WAL accept, one store lookup.
func probeDurability(parent *trace.Span, dir string) error {
	sp := parent.StartChild("bench.probe_durability")
	defer sp.End()
	tmp, err := os.MkdirTemp(dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	w, err := service.OpenWAL(filepath.Join(tmp, "submit.wal"))
	if err != nil {
		return err
	}
	err = repeat(sp, "service.WAL.Accept", 40, func(i int) error {
		req := service.Request{Circuit: "Adder16", Metric: "NMED", Budget: 0.0244, Seed: int64(i + 1)}
		return w.Accept(fmt.Sprintf("%064x", i+1), req)
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	st, err := store.OpenJSONL(filepath.Join(tmp, "results.jsonl"))
	if err != nil {
		return err
	}
	defer st.Close()
	const records = 200
	for i := range records {
		if err := st.Put(fmt.Sprintf("%064x", i), map[string]any{"ratio_cpd": 0.75, "evaluations": i}); err != nil {
			return err
		}
	}
	return repeat(sp, "store.Store.Get", records, func(i int) error {
		if _, ok := st.Get(fmt.Sprintf("%064x", i)); !ok {
			return fmt.Errorf("record %d missing", i)
		}
		return nil
	})
}

// setLayerMetrics derives the probe metrics from the run's spans.
func setLayerMetrics(rep *report, recs []trace.SpanRecord) {
	ms := func(name string) float64 { return median(durations(recs, name, time.Millisecond)) }
	rep.set("sim.golden_ms", ms("sim.NewSimulator"), "")
	rep.set("sim.incremental_ms", ms("sim.IncrementalRun"), "")
	rep.set("errest.metrics_ms", ms("errest.MetricsFromResult"), "")
	rep.set("sta.analyze_ms", ms("sta.Analyze"), "")
	rep.set("netlist.clone_ms", ms("netlist.Clone"), "")
	rep.set("lac.search_ms", ms("lac.SearchN"), "")
	rep.set("core.reproduce_ms", ms("core.Reproduce"), "")
	rep.set("sizing.postopt_ms", ms("sizing.PostOptimize"), "")
	for _, r := range recs {
		if r.Name == "bench.probe_layers" {
			if n, ok := r.Attrs["candidates"].(int64); ok && n > 0 {
				rep.set("core.evaluate_ms", ms("core.EvaluateBatch")/float64(n), fmt.Sprintf("per candidate, batches of %d", n))
			}
		}
	}
	rep.set("wal.accept_us", median(durations(recs, "service.WAL.Accept", time.Microsecond)), "fsynced")
	rep.set("store.get_us", median(durations(recs, "store.Store.Get", time.Microsecond)), "")
}
