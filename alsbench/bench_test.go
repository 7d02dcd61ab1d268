package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	als "repro"
	"repro/internal/exp"
	"repro/internal/trace"
)

// bins holds alsd and tracecat, built once for the smoke tests.
var bins string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "alsbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bins = dir
	cmd := exec.Command("go", "build", "-o", dir, "repro/cmd/alsd", "repro/cmd/tracecat")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building alsd and tracecat:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false}, // one sample short of the rule
		{100, 0.50, 50, 50, true},
		{19, 0.50, 10, 9, false},
		{20, 0.50, 10, 10, true},
		{1, 0.50, 1, 0, false},
	} {
		p := percentile(seq(tc.n), tc.q)
		if p.Value != tc.value || p.N != tc.n || p.Beyond != tc.beyond || p.OK() != tc.ok {
			t.Errorf("p%g of 1..%d = %+v ok=%v, want value %v beyond %d ok=%v",
				tc.q*100, tc.n, p, p.OK(), tc.value, tc.beyond, tc.ok)
		}
	}
	// Ties at the percentile do not count as beyond it.
	xs := append(make([]float64, 95), 1, 1, 1, 1, 1)
	if p := percentile(xs, 0.5); p.Value != 0 || p.Beyond != 5 || p.OK() {
		t.Errorf("p50 with ties = %+v", p)
	}
	if p := percentile(nil, 0.5); p.OK() || p.N != 0 {
		t.Errorf("p50 of nothing = %+v", p)
	}

	// A resident-set level flat at its top still has a p90.
	flat := append(seq(50), make([]float64, 150)...)
	for i := 50; i < len(flat); i++ {
		flat[i] = 200
	}
	rss := newReport(config{})
	if err := rss.setRSS(percentile(flat, 0.90), false); err != nil || rss.values["rss_p90_mb"] != 200 {
		t.Errorf("plateaued RSS: %v, value %v", err, rss.values["rss_p90_mb"])
	}
	if err := rss.setRSS(percentile(seq(50), 0.90), false); err == nil {
		t.Error("half a second of RSS samples accepted")
	}

	// A suppressed percentile reports 0 and says why.
	rep := newReport(config{workload: "service_v2"})
	rep.setPct("x", percentile(seq(999), 0.99))
	if rep.values["x"] != 0 || !strings.Contains(rep.notes["x"], "n=999 beyond=9") {
		t.Errorf("suppressed p99: value %v note %q", rep.values["x"], rep.notes["x"])
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether a metric or workload name is legal in
// BENCHMARK.json.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether a unit is legal in BENCHMARK.json.
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validName(m.Name) {
			t.Errorf("invalid metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if !validUnit(m.Unit) {
			t.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("invalid workload name %q", name)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p99%", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "9x", "wal.append_ms_p99", "a-b.c_d", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json, the metrics the
// command prints and the workloads it runs in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			metricSpec
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"alsbench"}) || doc.Command[1] != "alsbench/run.sh" {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command runs %d", names, len(workloads))
	}
	var e2e []metricSpec
	maxBound, setupBound := 0.0, 0.0
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the registry:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the registry")
	}
}

func TestParseMetrics(t *testing.T) {
	const text = `# HELP als_jobs_submitted_total Accepted submissions.
# TYPE als_jobs_submitted_total counter
als_jobs_submitted_total 12
als_wal_appends_total{op="accept"} 5
als_wal_appends_total{op="job"} 5
als_http_request_duration_seconds_sum 0.25
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]float64{`als_wal_appends_total{op="accept"}`: 1}
	if got := delta(before, m, "als_wal_appends_total"); got != 9 {
		t.Errorf("wal delta = %v, want 9", got)
	}
	if got := delta(nil, m, "als_jobs_submitted"); got != 0 {
		t.Errorf("a prefix of a name matched: %v", got)
	}
	if _, err := parseMetrics(strings.NewReader("no_value_line\n")); err == nil {
		t.Error("malformed exposition accepted")
	}
}

func TestScheduleIsSeededAndHalfRepeats(t *testing.T) {
	length := 20 * time.Second
	a, b := schedule(7, paperService, length), schedule(7, paperService, length)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, paperService, length)) {
		t.Fatal("two seeds gave one schedule")
	}
	rate := float64(len(a)) / length.Seconds()
	if rate < 0.9*paperService.rate || rate > 1.1*paperService.rate {
		t.Errorf("rate %v, want about %v", rate, paperService.rate)
	}
	repeats, seeds := 0, map[int64]bool{}
	for i, s := range a {
		if s.fresh() {
			if seeds[s.req.Seed] {
				t.Fatalf("fresh submit %d reuses seed %d", i, s.req.Seed)
			}
			seeds[s.req.Seed] = true
			continue
		}
		repeats++
		twin := a[s.twin]
		if !twin.fresh() || twin.req != s.req || s.due-twin.due < paperService.repeatAge {
			t.Fatalf("repeat %d: twin %d (%+v) is not an older fresh submit of the same spec", i, s.twin, twin)
		}
	}
	if share := float64(repeats) / float64(len(a)); share < 0.45 || share > 0.5 {
		t.Errorf("repeat share %v, want just under one half", share)
	}
}

// quickFlow runs one quick-scale Adder16 session in process.
func quickFlow(t *testing.T, seed int64) flowRun {
	t.Helper()
	sess, _, _, err := newSession(tinyFlow, seed)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := runSession(context.Background(), sess)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestCheckFlowCatchesPerturbedResults(t *testing.T) {
	c := als.Benchmark(tinyFlow.circuit)
	res := quickFlow(t, 3).res
	problems := func(shape flowShape, seed int64, r *als.FlowResult) []string {
		rep := newReport(config{})
		checkFlow(rep, shape, seed, c, r)
		return rep.problems
	}
	if p := problems(tinyFlow, 3, res); len(p) != 0 {
		t.Fatalf("clean flow flagged: %v", p)
	}
	perturb := func(f func(r *als.FlowResult)) *als.FlowResult {
		r := *res
		f(&r)
		return &r
	}
	if p := problems(tinyFlow, 3, perturb(func(r *als.FlowResult) { r.CPDFac *= 1.01 })); len(p) == 0 {
		t.Error("a reported CPD STA does not reproduce was not caught")
	}
	if p := problems(tinyFlow, 3, perturb(func(r *als.FlowResult) { r.Final = als.Benchmark("Max16") })); len(p) == 0 {
		t.Error("a final netlist of another circuit was not caught")
	}
	if res.Err > 0 {
		tight := tinyFlow
		tight.budget = res.Err / 2
		if p := problems(tight, 3, res); len(p) == 0 {
			t.Error("a final netlist over the budget was not caught")
		}
	}
	// At the default seed a paper-shape flow must match the recording;
	// any other result is caught.
	if p := problems(paperFlow, defaultSeed, res); len(p) == 0 {
		t.Error("a result other than the recorded one passed the default-seed check")
	}

	for name, other := range map[string]*als.FlowResult{
		"ratio": perturb(func(r *als.FlowResult) { r.RatioCPD += 1e-12 }),
		"error": perturb(func(r *als.FlowResult) { r.Err += 1e-12 }),
		"evals": perturb(func(r *als.FlowResult) { r.Evaluations++ }),
	} {
		rep := newReport(config{})
		if checkSame(rep, res, res, "same"); len(rep.problems) != 0 {
			t.Fatalf("identical flows flagged: %v", rep.problems)
		}
		if checkSame(rep, res, other, name); len(rep.problems) == 0 {
			t.Errorf("a traced flow with another %s was not caught", name)
		}
	}
}

func TestCheckSweepCatchesPerturbedResults(t *testing.T) {
	cfg := config{tiny: true, seed: 2}
	opts := sweepOpts(cfg)
	jobs := exp.Table2Jobs(opts)
	rs, _, err := exp.RunJobsContext(context.Background(), jobs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(cfg)
	avg := checkSweep(rep, cfg, opts, jobs, rs)
	if len(rep.problems) != 0 || len(avg) != 5 {
		t.Fatalf("clean sweep: problems %v, averages %v", rep.problems, avg)
	}
	h, _ := jobs[3].Hash()
	for name, mutate := range map[string]func(exp.ResultSet){
		"missing cell":       func(rs exp.ResultSet) { delete(rs, h) },
		"over budget":        func(rs exp.ResultSet) { r := rs[h]; r.Err = jobs[3].Budget * 1.5; rs[h] = r },
		"ratio above 1":      func(rs exp.ResultSet) { r := rs[h]; r.RatioCPD = 1.2; rs[h] = r },
		"ratio non-positive": func(rs exp.ResultSet) { r := rs[h]; r.RatioCPD = 0; rs[h] = r },
	} {
		bad := exp.ResultSet{}
		for k, v := range rs {
			bad[k] = v
		}
		mutate(bad)
		rep := newReport(cfg)
		checkSweep(rep, cfg, opts, jobs, bad)
		if len(rep.problems) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
	// The byte-exact report check applies at the default seed.
	full := config{seed: defaultSeed}
	rep = newReport(full)
	checkSweep(rep, full, opts, jobs, rs)
	if len(rep.problems) == 0 {
		t.Error("a report other than the recorded one passed the default-seed check")
	}

	if m, best := oursMargin(map[string]float64{"Ours": 0.79, "VECBEE-S": 0.80, "HEDALS": 0.86}); m <= 0 || best != "VECBEE-S" {
		t.Errorf("margin %v against %s", m, best)
	}
	if m, _ := oursMargin(map[string]float64{"Ours": 0.81, "GWO (single-chase)": 0.79}); m >= 0 {
		t.Errorf("a lost claim gave margin %v", m)
	}
}

func TestCheckServiceCatchesPerturbedResults(t *testing.T) {
	fresh := freshSpec(5, 0) // Adder16, quick
	res, err := als.Flow(als.Benchmark(fresh.Circuit), als.NewLibrary(), als.FlowConfig{
		Metric: als.MetricNMED, ErrorBudget: fresh.Budget, Scale: als.ScaleQuick, Seed: fresh.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	result, _ := json.Marshal(exp.JobResult{
		RatioCPD: res.RatioCPD, Err: res.Err, Evaluations: res.Evaluations, CPDOri: res.CPDOri,
		CPDFac: res.CPDFac, AreaCon: res.AreaCon, AreaFinal: res.AreaFinal, RuntimeNS: 123,
	})
	view := jobView{ID: "f000001", Status: "done", Result: result, Front: json.RawMessage(`[{"ratio_cpd":0.9}]`)}
	clean := func() *phase {
		return &phase{
			sched: []submit{{req: fresh, twin: -1}, {req: fresh, twin: 0}},
			out:   []outcome{{status: 202, view: jobView{ID: view.ID}}, {status: 200, view: view}},
			views: map[string]jobView{view.ID: view},
		}
	}
	problems := func(p *phase) []string {
		rep := newReport(config{})
		checkService(rep, p)
		checkSamples(rep, p)
		return rep.problems
	}
	if p := problems(clean()); len(p) != 0 {
		t.Fatalf("clean phase flagged: %v", p)
	}
	for name, mutate := range map[string]func(*phase){
		"job failed": func(p *phase) { v := p.views[view.ID]; v.Status = "failed"; p.views[view.ID] = v },
		"repeat result differs": func(p *phase) {
			p.out[1].view.Result = bytes.Replace(result, []byte(`"runtime_ns":123`), []byte(`"runtime_ns":124`), 1)
		},
		"repeat front differs":   func(p *phase) { p.out[1].view.Front = json.RawMessage(`[]`) },
		"repeat got another job": func(p *phase) { p.out[1].view.ID = "f000002" },
		"differs from in-process": func(p *phase) {
			v := p.views[view.ID]
			v.Result = bytes.Replace(result, []byte(`"evaluations":`), []byte(`"evaluations":1`), 1)
			p.views[view.ID] = v
		},
	} {
		p := clean()
		mutate(p)
		if len(problems(p)) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

// TestSmoke runs every workload end to end at its tiny shape, untraced
// and traced, and checks the result line, the metric sets and the span
// export.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace"+traced, func(t *testing.T) {
				out := t.TempDir()
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", name, "-seed", "4", "-seconds", "2", "-trace", traced, "-tiny",
					"-alsd", filepath.Join(bins, "alsd"), "-out", out}
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v; stderr %s", res, stderr.String())
				}
				specs := endToEnd
				if traced == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: %+v present=%v", m.Name, v, ok)
					}
					if traced == "0" && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v", m.Name, v.Value)
					}
				}
				if traced == "1" {
					checkSpanExport(t, spanFile(config{workload: name, seed: 4, out: out}), name)
				}
			})
		}
	}
}

// checkSpanExport reads a traced run's span file back, checks that every
// span's parent is in it, and that cmd/tracecat accepts it.
func checkSpanExport(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	names := map[string]bool{}
	for _, r := range recs {
		ids[r.SpanID] = true
		names[r.Name] = true
	}
	for _, r := range recs {
		if r.Parent != "" && !ids[r.Parent] {
			t.Errorf("span %s (%s) has a parent outside the export", r.Name, r.SpanID)
		}
	}
	want := []string{"sim.IncrementalRun", "errest.MetricsFromResult", "sta.Analyze", "lac.SearchN", "service.WAL.Accept"}
	switch workload {
	case "flow_paper":
		want = append(want, "als.generation", "als.post_optimize")
	case "sweep_table2":
		want = append(want, "job.run", "exp.RunJobsContext")
	case "service_v2":
		want = append(want, "bench.submit", "wal.append", "queue.wait", "job.run", "store.put")
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("no %s span in the export", n)
		}
	}
	out, err := exec.Command(filepath.Join(bins, "tracecat"), "-list", path).CombinedOutput()
	if err != nil {
		t.Errorf("tracecat -list: %v\n%s", err, out)
	}
}
