package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricSpec declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatchesRegistry keeps the
// two in step.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees, printed with -trace 0 by
// every workload. The names are shared by the three workloads; METRICS.md
// gives each one's meaning per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"work_ms", "ms", "lower"},
	{"step_ms", "ms", "lower"},
	{"ratio_cpd", "ratio", "lower"},
	{"rss_p90_mb", "MB", "lower"},
}

// perLayer is printed with -trace 1 by every workload. A metric of a
// layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"als.init_s", "s", "lower"},
	{"als.iter_ms", "ms", "lower"},
	{"als.post_s", "s", "lower"},
	{"flow.cpu_cores", "cores", "lower"},
	{"flow.gc_cpu_frac", "ratio", "lower"},
	{"flow.alloc_mb", "MB", "lower"},
	{"flow.mallocs", "count", "lower"},
	{"core.evals", "count", "lower"},
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"core.cache_lookups", "count", "lower"},
	{"core.composed", "count", "higher"},
	{"lac.search_ms", "ms", "lower"},
	{"sim.golden_ms", "ms", "lower"},
	{"sim.incremental_ms", "ms", "lower"},
	{"errest.metrics_ms", "ms", "lower"},
	{"core.evaluate_ms", "ms", "lower"},
	{"core.reproduce_ms", "ms", "lower"},
	{"sta.analyze_ms", "ms", "lower"},
	{"netlist.clone_ms", "ms", "lower"},
	{"sizing.postopt_ms", "ms", "lower"},
	{"exp.cell_sum_s", "s", "lower"},
	{"exp.straggler_s", "s", "lower"},
	{"exp.pool_util", "ratio", "higher"},
	{"baselines.vecbee_s", "s", "lower"},
	{"baselines.vaacs_s", "s", "lower"},
	{"baselines.hedals_s", "s", "lower"},
	{"baselines.gwo_s", "s", "lower"},
	{"core.ours_s", "s", "lower"},
	{"sweep.ours_margin", "ratio", "higher"},
	{"service.submit_p50_ms", "ms", "lower"},
	{"service.submit_p99_ms", "ms", "lower"},
	{"service.job_p99_ms", "ms", "lower"},
	{"service.hit_p50_ms", "ms", "lower"},
	{"service.hit_p99_ms", "ms", "lower"},
	{"service.slo_ok_ratio", "ratio", "higher"},
	{"service.queue_wait_ms_p50", "ms", "lower"},
	{"service.queue_wait_ms_p99", "ms", "lower"},
	{"service.run_ms_p50", "ms", "lower"},
	{"service.dedup_ratio", "ratio", "higher"},
	{"service.refused", "count", "lower"},
	{"http.submit_mean_ms", "ms", "lower"},
	{"wal.appends_per_job", "count", "lower"},
	{"wal.append_ms_p50", "ms", "lower"},
	{"wal.append_ms_p99", "ms", "lower"},
	{"wal.accept_us", "us", "lower"},
	{"store.puts_per_job", "count", "lower"},
	{"store.put_ms_p50", "ms", "lower"},
	{"store.get_us", "us", "lower"},
	{"alsd.cpu_cores", "cores", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"fail_ratio", "ratio", "lower"},
}

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie strictly above it.
const minBeyond = 10

// pct is one percentile of a sample, with the counts the rule needs.
type pct struct {
	Value  float64
	N      int // samples
	Beyond int // samples strictly greater than Value
}

// OK reports whether the percentile may be reported.
func (p pct) OK() bool { return p.N > 0 && p.Beyond >= minBeyond }

func (p pct) String() string {
	s := fmt.Sprintf("n=%d beyond=%d", p.N, p.Beyond)
	if !p.OK() {
		s += fmt.Sprintf(" (below the %d-beyond rule)", minBeyond)
	}
	return s
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) pct {
	if len(xs) == 0 {
		return pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	beyond := len(s) - sort.Search(len(s), func(k int) bool { return s[k] > s[i] })
	return pct{Value: s[i], N: len(s), Beyond: beyond}
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// report collects one run's metrics and check outcomes.
type report struct {
	cfg       config
	attempted int
	failed    int
	values    map[string]float64
	notes     map[string]string
	lines     []string // headline figures under the workload definitions' names
	problems  []string // failed output checks
}

func newReport(cfg config) *report {
	return &report{cfg: cfg, values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric value with an optional note (sample count, shape).
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// setPct records a percentile metric, or 0 with the reason when the
// sample breaks the percentile rule.
func (r *report) setPct(name string, p pct) {
	if !p.OK() {
		r.set(name, 0, "suppressed: "+p.String())
		return
	}
	r.set(name, p.Value, p.String())
}

// minRSSSamples is one second of resident-set samples.
const minRSSSamples = int(time.Second / rssEvery)

// setRSS records rss_p90_mb. The percentile rule is for latency tails; a
// sampled level sits at its plateau for long stretches, so ties at the
// p90 are the rule, and the p90 needs only enough samples. Outside the
// tiny shape too few samples fail the run: the end-to-end set has no
// gaps.
func (r *report) setRSS(p pct, tiny bool) error {
	if p.N < minRSSSamples && !tiny {
		return fmt.Errorf("too few resident-set samples: %v", p)
	}
	r.set("rss_p90_mb", p.Value, "p90 of VmRSS sampled every "+rssEvery.String()+", "+p.String())
	return nil
}

// line records one headline figure under the name the workload definition
// uses for it.
func (r *report) line(name string, v float64, unit, note string) {
	s := fmt.Sprintf("%s %s = %.6g %s", r.cfg.workload, name, v, unit)
	if note != "" {
		s += " (" + note + ")"
	}
	r.lines = append(r.lines, s)
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable figures, then the result line. With
// tracing off it reports the end-to-end set, every metric of which must
// have been measured; with tracing on it reports the per-layer set, where
// a layer the workload does not exercise reads 0.
func (r *report) write(stdout, stderr io.Writer) error {
	specs := endToEnd
	if r.cfg.trace {
		specs = perLayer
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	out := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultValue{},
	}
	for _, l := range r.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, m := range specs {
		v, ok := r.values[m.Name]
		note := r.notes[m.Name]
		if !ok {
			if !r.cfg.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			note = "layer not exercised by " + r.cfg.workload
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = resultValue{Value: v, Unit: m.Unit}
		line := fmt.Sprintf("metric %s = %.6g %s", m.Name, v, m.Unit)
		if note != "" {
			line += " (" + note + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "check failed: %s\n", p)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, strings.TrimSpace(string(raw)))
	return err
}
