package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	als "repro"
	"repro/internal/coord"
	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// testJobs is the cheapest real cross-experiment matrix: TABLE II on c880
// plus TABLE III on Adder16/Max16, five methods each, tiny budgets — 15
// cells, milliseconds apiece.
func testJobs(seed int64) []exp.Job {
	opts := exp.Opts{
		Scale: als.ScaleQuick, Seed: seed,
		Population: 6, Iterations: 3, Vectors: 512,
		Circuits: []string{"c880", "Adder16", "Max16"},
	}
	return append(exp.Table2Jobs(opts), exp.Table3Jobs(opts)...)
}

// newWorker boots an in-process alsd equivalent and returns its server
// and the service behind it.
func newWorker(t *testing.T, opts service.Options) (*httptest.Server, *service.Server) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	s := service.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

// fastOpts keeps retry/poll pacing test-friendly.
func fastOpts(o dispatch.Options) dispatch.Options {
	o.PollInterval = 2 * time.Millisecond
	o.Backoff = 2 * time.Millisecond
	o.MaxBackoff = 10 * time.Millisecond
	o.RetryBudget = 2
	return o
}

// wantResults computes the reference ResultSet on the local scheduler.
func wantResults(t *testing.T, jobs []exp.Job) exp.ResultSet {
	t.Helper()
	rs, _, err := exp.RunJobs(jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// assertSameMetrics requires got to hold exactly want's cells with
// identical deterministic metrics (RuntimeNS is wall clock and excluded).
func assertSameMetrics(t *testing.T, got, want exp.ResultSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result set has %d cells, want %d", len(got), len(want))
	}
	for h, w := range want {
		g, ok := got[h]
		if !ok {
			t.Fatalf("missing cell %.12s…", h)
		}
		if g.RatioCPD != w.RatioCPD || g.Err != w.Err || g.Evaluations != w.Evaluations {
			t.Fatalf("cell %.12s… = (%v, %v, %d), want (%v, %v, %d)",
				h, g.RatioCPD, g.Err, g.Evaluations, w.RatioCPD, w.Err, w.Evaluations)
		}
	}
}

// metricValue reads one unlabelled sample from reg's exposition (0 when
// absent).
func metricValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	return 0
}

// proxyTo forwards one request to the real worker and copies the answer.
func proxyTo(w http.ResponseWriter, r *http.Request, real string) {
	resp, err := http.Get(real + r.URL.Path)
	if r.Method == http.MethodPost {
		resp, err = http.Post(real+r.URL.Path, "application/json", r.Body)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck
}

// flakyWorker proxies a real worker but starts failing every request with
// 500 once allow requests have been served — a deterministic mid-run
// death.
func flakyWorker(t *testing.T, allow int64) *httptest.Server {
	t.Helper()
	real, _ := newWorker(t, service.Options{})
	var served atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > allow {
			http.Error(w, `{"error":"injected worker death"}`, http.StatusInternalServerError)
			return
		}
		proxyTo(w, r, real.URL)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

func deadURL() string {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // keep the URL, kill the listener
	return dead.URL
}

func TestDistributedMatchesLocalRun(t *testing.T) {
	jobs := testJobs(3)
	want := wantResults(t, jobs)

	w1, s1 := newWorker(t, service.Options{})
	w2, s2 := newWorker(t, service.Options{})
	reg := telemetry.NewRegistry()
	got, stats, err := coord.RunFleet(context.Background(), jobs, []string{w1.URL, w2.URL}, 0,
		fastOpts(dispatch.Options{Metrics: dispatch.NewMetrics(reg), Logf: t.Logf}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if stats.Executed != len(want) {
		t.Fatalf("executed = %d, want %d", stats.Executed, len(want))
	}
	if n := s1.Stats().Executed + s2.Stats().Executed; n != len(want) {
		t.Fatalf("workers executed %d cells in total, want %d", n, len(want))
	}
	for _, name := range []string{"als_dispatch_dead_lanes_total", "als_dispatch_failovers_total"} {
		if n := metricValue(t, reg, name); n != 0 {
			t.Fatalf("%s = %v on a healthy fleet, want 0", name, n)
		}
	}
	// Each worker keeps its own completion series, as with per-worker lanes.
	for _, w := range []struct {
		url string
		s   *service.Server
	}{{w1.URL, s1}, {w2.URL, s2}} {
		series := `als_dispatch_cells_completed_total{lane="` + w.url + `"}`
		if n := metricValue(t, reg, series); n != float64(w.s.Stats().Executed) {
			t.Fatalf("%s = %v, want the %d cells that worker ran", series, n, w.s.Stats().Executed)
		}
	}
}

func TestLocalShareOnlyMatchesLocalRun(t *testing.T) {
	jobs := testJobs(4)
	want := wantResults(t, jobs)
	got, stats, err := coord.RunFleet(context.Background(), jobs, nil, 3, fastOpts(dispatch.Options{Logf: t.Logf}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if stats.Executed != len(want) {
		t.Fatalf("local share ran %d cells, want %d", stats.Executed, len(want))
	}
}

func TestMixedWorkersAndLocalShare(t *testing.T) {
	jobs := testJobs(5)
	want := wantResults(t, jobs)
	w1, s1 := newWorker(t, service.Options{})
	got, stats, err := coord.RunFleet(context.Background(), jobs, []string{w1.URL}, 2, fastOpts(dispatch.Options{Logf: t.Logf}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if remote := s1.Stats().Executed; remote == 0 || remote == stats.Executed {
		t.Fatalf("both the worker and the local share must execute cells: worker %d of %d", remote, stats.Executed)
	}
}

// TestFailoverMidRun kills one of two workers after it has accepted work
// (one submit succeeds, then nothing but 500s): its lane dies, the
// coordinator requeues its cells, the survivor absorbs them, and the run
// still matches the local reference exactly.
func TestFailoverMidRun(t *testing.T) {
	jobs := testJobs(6)
	want := wantResults(t, jobs)
	healthy, _ := newWorker(t, service.Options{})
	flaky := flakyWorker(t, 1)
	reg := telemetry.NewRegistry()
	got, _, err := coord.RunFleet(context.Background(), jobs, []string{healthy.URL, flaky.URL}, 0, fastOpts(dispatch.Options{
		Metrics: dispatch.NewMetrics(reg),
		Logf:    t.Logf,
	}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if n := metricValue(t, reg, "als_cluster_workers_expired_total"); n != 1 {
		t.Fatalf("als_cluster_workers_expired_total = %v, want the flaky worker dropped", n)
	}
	if n := metricValue(t, reg, "als_dispatch_failovers_total"); n == 0 {
		t.Fatal("the dead lane held cells, so its failover count must be positive")
	}
	if n := metricValue(t, reg, "als_cluster_steals_total"); n == 0 {
		t.Fatal("the survivor must take over the dead lane's cells")
	}
}

// TestDeadAtStartWorkerFailsOver: a worker that never comes up (connection
// refused from the first request) loses its cells to the survivor.
func TestDeadAtStartWorkerFailsOver(t *testing.T) {
	jobs := testJobs(7)
	want := wantResults(t, jobs)
	healthy, _ := newWorker(t, service.Options{})
	reg := telemetry.NewRegistry()
	got, _, err := coord.RunFleet(context.Background(), jobs, []string{healthy.URL, deadURL()}, 0, fastOpts(dispatch.Options{
		Metrics: dispatch.NewMetrics(reg),
		Logf:    t.Logf,
	}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if n := metricValue(t, reg, "als_dispatch_dead_lanes_total"); n != 1 {
		t.Fatalf("als_dispatch_dead_lanes_total = %v, want the dead-at-start lane", n)
	}
}

// TestAllLanesDeadIsResumable: when every worker dies the run errors, but
// the store keeps what finished, and a local re-run with the same store
// completes the sweep — the distributed path never forfeits -resume.
func TestAllLanesDeadIsResumable(t *testing.T) {
	jobs := testJobs(8)
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	f1 := flakyWorker(t, 0) // dead at first submit
	f2 := flakyWorker(t, 0)
	reg := telemetry.NewRegistry()
	_, _, err = coord.RunFleet(context.Background(), jobs, []string{f1.URL, f2.URL}, 0, fastOpts(dispatch.Options{
		Store:   st,
		Metrics: dispatch.NewMetrics(reg),
		Logf:    t.Logf,
	}))
	if err == nil {
		t.Fatal("run with every lane dead must fail")
	}
	if !strings.Contains(err.Error(), "unfinished") || errors.Is(err, context.Canceled) {
		t.Fatalf("error must report unfinished cells, not an interruption: %v", err)
	}
	if n := metricValue(t, reg, "als_cluster_workers_expired_total"); n != 2 {
		t.Fatalf("als_cluster_workers_expired_total = %v, want both workers reported dead", n)
	}

	rs, runStats, err := exp.RunJobs(jobs, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	if runStats.Executed+runStats.Cached != len(rs) {
		t.Fatalf("resume accounting: %+v over %d cells", runStats, len(rs))
	}
	assertSameMetrics(t, rs, wantResults(t, jobs))
}

// TestUnreachableFleetWithoutLocalShareFailsFast: the client's readiness
// preflight turns a typo'd URL into an immediate, clear error.
func TestUnreachableFleetWithoutLocalShareFailsFast(t *testing.T) {
	_, _, err := dispatch.Run(context.Background(), deadURL(), testJobs(9), fastOpts(dispatch.Options{Logf: t.Logf}))
	if err == nil || !strings.Contains(err.Error(), "healthz") {
		t.Fatalf("unreachable URL must fail the preflight: %v", err)
	}
}

// TestOverCapOverrideFailsFastWithWorkers: a spec the worker API would
// 400 (here: a population override beyond the service resource cap)
// fails the run up front with the job named — before any worker is
// contacted.
func TestOverCapOverrideFailsFastWithWorkers(t *testing.T) {
	jobs := testJobs(13)
	jobs[0].Population = service.MaxPopulation + 1
	// Never contacted: validation precedes the preflight.
	_, _, err := dispatch.Run(context.Background(), deadURL(), jobs[:1], fastOpts(dispatch.Options{Logf: t.Logf}))
	if err == nil || !strings.Contains(err.Error(), "population") || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("over-cap spec must fail fast naming the cap: %v", err)
	}
}

func TestNoLanesConfiguredErrors(t *testing.T) {
	_, _, err := coord.RunFleet(context.Background(), testJobs(1), nil, 0, dispatch.Options{})
	if err == nil || !strings.Contains(err.Error(), "no workers") {
		t.Fatalf("lane-less fleet must error: %v", err)
	}
	if _, _, err := dispatch.Run(context.Background(), "", testJobs(1), dispatch.Options{}); err == nil || !strings.Contains(err.Error(), "no worker") {
		t.Fatalf("URL-less run must error: %v", err)
	}
}

// TestCachedRunNeedsNoWorkers: a fully cached sweep returns before any
// HTTP traffic — resubmitting a finished sweep costs nothing even when
// the worker is gone.
func TestCachedRunNeedsNoWorkers(t *testing.T) {
	jobs := testJobs(10)
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want, _, err := exp.RunJobs(jobs, 0, st)
	if err != nil {
		t.Fatal(err)
	}

	got, stats, err := dispatch.Run(context.Background(), deadURL(), jobs, fastOpts(dispatch.Options{
		Store: st,
		Logf:  t.Logf,
	}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if stats.Executed != 0 || stats.Cached != len(want) {
		t.Fatalf("cached run must not execute: %+v", stats.RunStats)
	}
}

// TestWorkerAmnesiaResubmits: a worker that 404s a submitted hash (table
// eviction, restart without store) gets the cell resubmitted rather than
// losing it.
func TestWorkerAmnesiaResubmits(t *testing.T) {
	jobs := testJobs(11)
	want := wantResults(t, jobs)
	real, _ := newWorker(t, service.Options{})
	var forgot atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && forgot.CompareAndSwap(false, true) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"service: unknown job hash"}`)) //nolint:errcheck
			return
		}
		proxyTo(w, r, real.URL)
	}))
	t.Cleanup(proxy.Close)

	got, _, err := dispatch.Run(context.Background(), proxy.URL, jobs, fastOpts(dispatch.Options{Logf: t.Logf}))
	if err != nil {
		t.Fatal(err)
	}
	if !forgot.Load() {
		t.Fatal("the injected 404 never triggered")
	}
	assertSameMetrics(t, got, want)
}

// TestCancelledRunWrapsContextCanceled mirrors the local scheduler's
// contract so cmd/experiments prints the same -resume hint either way.
func TestCancelledRunWrapsContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := coord.RunFleet(ctx, testJobs(12), nil, 2, fastOpts(dispatch.Options{Logf: t.Logf}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled wrap", err)
	}
}

// TestSlowCellDoesNotStallLane: the lane tops itself up every round
// instead of waiting for its whole batch, so one cell that stays running
// never idles the worker. The proxy holds the first submitted cell at
// "running" until every other cell has been submitted, which a lane that
// waits out each batch never does.
func TestSlowCellDoesNotStallLane(t *testing.T) {
	jobs := testJobs(14)
	want := wantResults(t, jobs)
	real, _ := newWorker(t, service.Options{})
	var submitted atomic.Int64
	var held atomic.Value // hash of the first submitted cell
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body)
			resp, err := http.Post(real.URL+r.URL.Path, "application/json", bytes.NewReader(body))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			var br service.BatchResponse
			if json.Unmarshal(raw, &br) == nil && len(br.Jobs) > 0 {
				held.CompareAndSwap(nil, br.Jobs[0].Hash)
				submitted.Add(int64(len(br.Jobs)))
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(raw) //nolint:errcheck
			return
		}
		if h, _ := held.Load().(string); h != "" && r.URL.Path == "/v1/jobs/"+h && submitted.Load() < int64(len(want)) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(service.JobView{Hash: h, Status: service.StatusRunning}) //nolint:errcheck
			return
		}
		proxyTo(w, r, real.URL)
	}))
	t.Cleanup(proxy.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, _, err := dispatch.Run(ctx, proxy.URL, jobs, fastOpts(dispatch.Options{SubmitBatch: 4, Logf: t.Logf}))
	if err != nil {
		t.Fatalf("lane stalled behind its slow cell: %v", err)
	}
	assertSameMetrics(t, got, want)
}
