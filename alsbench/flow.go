package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	als "repro"
	"repro/internal/errest"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
	"repro/internal/trace"
)

// flowShape is one closed-loop flow configuration.
type flowShape struct {
	circuit string
	metric  als.Metric
	budget  float64
	scale   als.Scale
}

// The paper shape: c6288 (the 16x16 multiplier) under NMED <= 2.44%,
// N=30, Imax=20, 131072 vectors. The tiny shape only smoke-tests the code.
var (
	paperFlow = flowShape{"c6288", als.MetricNMED, 0.0244, als.ScalePaper}
	tinyFlow  = flowShape{"Adder16", als.MetricNMED, 0.0244, als.ScaleQuick}
)

// defaultSeed is the seed at which the recorded outputs were taken.
const defaultSeed = 1

// flowRecord is the recorded outcome of the paper-shape flow at the
// default seed.
type flowRecord struct {
	RatioCPD    float64 `json:"ratio_cpd"`
	Err         float64 `json:"err"`
	Evaluations int     `json:"evaluations"`
}

//go:embed testdata/flow_paper_seed1.json
var flowPaperRecorded []byte

// flowRun is one session run as seen from its event stream.
type flowRun struct {
	res      *als.FlowResult
	first    time.Duration   // Run start → first progress event
	progress []time.Duration // Run start → each progress event
	done     time.Duration   // Run start → EventDone
	use      usageDelta
}

// options maps a shape and seed onto session options.
func (s flowShape) options(seed int64) []als.Option {
	return []als.Option{
		als.WithMetric(s.metric), als.WithErrorBudget(s.budget),
		als.WithScale(s.scale), als.WithSeed(seed),
	}
}

// vectors is the Monte-Carlo sample size the shape's scale selects.
func (s flowShape) vectors() int {
	if s.scale == als.ScalePaper {
		return 1 << 17
	}
	return 2048
}

// newSession builds the circuit and the session: the set-up a user pays
// before a flow starts.
func newSession(s flowShape, seed int64) (*als.Session, *netlist.Circuit, time.Duration, error) {
	t0 := time.Now()
	c, err := als.BenchmarkByName(s.circuit)
	if err != nil {
		return nil, nil, 0, err
	}
	sess, err := als.NewSession(c, als.NewLibrary(), s.options(seed)...)
	return sess, c, time.Since(t0), err
}

// runSession drains a session's event stream, timing each event.
func runSession(ctx context.Context, sess *als.Session) (flowRun, error) {
	var fr flowRun
	u0 := snapshot()
	t0 := time.Now()
	for ev, err := range sess.Run(ctx) {
		if err != nil {
			return fr, err
		}
		now := time.Since(t0)
		switch ev.Kind {
		case als.EventProgress:
			if len(fr.progress) == 0 {
				fr.first = now
			}
			fr.progress = append(fr.progress, now)
		case als.EventDone:
			fr.done, fr.res = now, ev.Result
		}
	}
	fr.use = since(u0)
	if fr.res == nil {
		return fr, fmt.Errorf("session ended without a result")
	}
	return fr, nil
}

// fits reports whether one more operation, taking the mean of the n done
// since start, still ends within the run's measured time.
func fits(start time.Time, n int, seconds float64) bool {
	el := time.Since(start).Seconds()
	return el+el/float64(n) <= seconds
}

// iterGaps are the gaps between consecutive progress events, in ms: one
// optimizer iteration each.
func (fr flowRun) iterGaps() []float64 {
	var gaps []float64
	for i := 1; i < len(fr.progress); i++ {
		gaps = append(gaps, float64(fr.progress[i]-fr.progress[i-1])/float64(time.Millisecond))
	}
	return gaps
}

// setFlowLayers records the als, flow and core per-layer metrics of one
// in-process flow.
func setFlowLayers(rep *report, fr flowRun, note string) {
	last := fr.first
	if n := len(fr.progress); n > 0 {
		last = fr.progress[n-1]
	}
	rep.set("als.init_s", fr.first.Seconds(), note)
	rep.set("als.iter_ms", median(fr.iterGaps()), note)
	rep.set("als.post_s", (fr.done - last).Seconds(), note)
	rep.set("flow.cpu_cores", fr.use.cores, note)
	rep.set("flow.gc_cpu_frac", fr.use.gcCPUFrac, note)
	rep.set("flow.alloc_mb", fr.use.allocMB, note)
	rep.set("flow.mallocs", fr.use.mallocs, note)
	rep.set("core.evals", float64(fr.res.Evaluations), note)
	rep.set("core.cache_hit_ratio", fr.res.Cache.HitRatio(), note)
	rep.set("core.cache_lookups", float64(fr.res.Cache.Lookups), note)
	rep.set("core.composed", float64(fr.res.Cache.Composed), note)
}

// flowSeed is the seed of the j-th flow of a run: the workload seed
// itself, then seeds no other workload seed's run shares.
func flowSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// runFlowPaper is the flow_paper workload: one client runs paper-shape
// flows back to back (a closed loop) for the measured time, each at its
// own seed, so a run's figures average over several inputs.
func runFlowPaper(ctx context.Context, cfg config, rep *report) error {
	shape := paperFlow
	if cfg.tiny {
		shape = tinyFlow
	}
	var setups []float64
	setup := func(seed int64) (*als.Session, *netlist.Circuit, error) {
		sess, c, d, err := newSession(shape, seed)
		setups = append(setups, d.Seconds())
		return sess, c, err
	}
	// Set up several times so setup_s is a median over half a second of
	// set-ups, not one sample.
	for range 40 {
		if _, _, err := setup(cfg.seed); err != nil {
			return err
		}
	}

	var (
		flows  []flowRun
		traced flowRun
		tr     *trace.Tracer
		root   *trace.Span
	)
	rss := sampleRSS(0)
	defer rss.Stop()
	start := time.Now()
	for len(flows) == 0 || (!cfg.trace && fits(start, len(flows), cfg.seconds)) {
		sess, _, err := setup(flowSeed(cfg.seed, len(flows)))
		if err != nil {
			return err
		}
		rep.attempted++
		fr, err := runSession(ctx, sess)
		if err != nil {
			rep.failed++
			return fmt.Errorf("flow: %w", err)
		}
		flows = append(flows, fr)
	}
	rssP90 := percentile(rss.Stop(), 0.90)
	peak, err := vmHWM(0)
	if err != nil {
		return err
	}
	if cfg.trace {
		// The first flow again, traced: the program's own als.generation
		// and als.post_optimize spans hang under the benchmark's flow span.
		tr = newTracer()
		root = tr.StartRoot("bench.flow_paper")
		sess, _, err := setup(cfg.seed)
		if err != nil {
			return err
		}
		sp := root.StartChild("als.Session.Run")
		rep.attempted++
		traced, err = runSession(trace.ContextWith(ctx, sp), sess)
		sp.End()
		if err != nil {
			rep.failed++
			return fmt.Errorf("traced flow: %w", err)
		}
	}

	first := flows[0]
	c, err := als.BenchmarkByName(shape.circuit)
	if err != nil {
		return err
	}
	var doneMS, iterMS, ratios []float64
	for j, fr := range flows {
		checkFlow(rep, shape, flowSeed(cfg.seed, j), c, fr.res)
		doneMS = append(doneMS, float64(fr.done)/float64(time.Millisecond))
		iterMS = append(iterMS, fr.iterGaps()...)
		ratios = append(ratios, fr.res.RatioCPD)
	}
	if err := rep.setRSS(rssP90, cfg.tiny); err != nil {
		return err
	}
	if cfg.trace {
		checkSame(rep, first.res, traced.res, "the traced flow")
	}
	n := fmt.Sprintf("median of %d flows", len(flows))
	ratio := sum(ratios) / float64(len(ratios))
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d", len(setups)))
	rep.set("work_ms", median(doneMS), n)
	rep.set("step_ms", sum(iterMS)/float64(len(iterMS)), fmt.Sprintf("mean of %d iterations", len(iterMS)))
	rep.set("ratio_cpd", ratio, fmt.Sprintf("mean of %d flows", len(flows)))
	rep.line("setup_s", median(setups), "s", "")
	rep.line("flow_s", median(doneMS)/1000, "s", fmt.Sprintf("%s: %.4g ms", n, doneMS))
	rep.line("flow_ratio_cpd", ratio, "ratio", fmt.Sprintf("mean of %d flows: %.4f", len(flows), ratios))
	rep.line("peak_rss_mb", peak, "MB", "")
	rep.line("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio", "")

	if !cfg.trace {
		return nil
	}
	setFlowLayers(rep, first, "")
	rep.set("fail_ratio", float64(rep.failed)/float64(rep.attempted), "")
	rep.set("trace.overhead_pct", overheadPct(traced.done.Seconds(), first.done.Seconds()), "flow_s, one traced vs one untraced flow")
	err = probeLayers(root, artifact{
		accurate: c, lib: als.NewLibrary(), metric: shape.metric, budget: shape.budget,
		vectors: shape.vectors(), seed: cfg.seed, approx: first.res.Approx, areaCon: first.res.AreaCon,
	})
	if err == nil {
		err = probeDurability(root, cfg.out)
	}
	root.End()
	if err != nil {
		return err
	}
	recs := tr.Snapshot()
	setLayerMetrics(rep, recs)
	return writeSpans(spanFile(cfg), recs)
}

// checkSame verifies that two flows at one seed gave one result: a flow
// is deterministic at its seed, traced or not.
func checkSame(rep *report, a, b *als.FlowResult, what string) {
	rep.check(a.RatioCPD == b.RatioCPD && a.Err == b.Err && a.Evaluations == b.Evaluations && a.CPDFac == b.CPDFac,
		"%s differs from the untraced flow at its seed: ratio %v/%v err %v/%v evals %d/%d",
		what, b.RatioCPD, a.RatioCPD, b.Err, a.Err, b.Evaluations, a.Evaluations)
}

// checkFlow verifies one flow's outputs: the final netlist meets the
// error budget on a fresh simulation and estimator, STA of the final
// netlist reproduces the reported CPD, and at the default seed the
// paper-shape result matches the recorded one.
func checkFlow(rep *report, shape flowShape, seed int64, accurate *netlist.Circuit, res *als.FlowResult) {
	checkFinal(rep, shape, seed, accurate, res)
	if shape == paperFlow && seed == defaultSeed {
		var want flowRecord
		if err := json.Unmarshal(flowPaperRecorded, &want); err != nil {
			rep.check(false, "recorded flow: %v", err)
			return
		}
		got := flowRecord{res.RatioCPD, res.Err, res.Evaluations}
		rep.check(got == want, "flow at the default seed: got %+v, recorded %+v", got, want)
	}
}

// checkFinal re-derives a flow's error and delay from its final netlist
// with the layers' public functions, independently of the optimizer.
func checkFinal(rep *report, shape flowShape, seed int64, accurate *netlist.Circuit, res *als.FlowResult) {
	v := sim.Random(rand.New(rand.NewSource(seed)), len(accurate.PIs), shape.vectors())
	est, err := errest.New(accurate, v)
	if !rep.check(err == nil, "estimator: %v", err) {
		return
	}
	simRes, err := sim.Run(res.Final, v)
	if !rep.check(err == nil, "simulating the final netlist: %v", err) {
		return
	}
	m, err := est.MetricsFromResult(res.Final, simRes)
	if !rep.check(err == nil, "error of the final netlist: %v", err) {
		return
	}
	e := m.ER
	if shape.metric == als.MetricNMED {
		e = m.NMED
	}
	rep.check(e <= shape.budget, "final netlist error %v exceeds the budget %v", e, shape.budget)
	sr, err := sta.Analyze(res.Final, als.NewLibrary())
	if rep.check(err == nil, "STA of the final netlist: %v", err) {
		rep.check(sr.CPD == res.CPDFac, "STA of the final netlist gives CPD %v, the flow reported %v", sr.CPD, res.CPDFac)
	}
}
