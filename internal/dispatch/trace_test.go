package dispatch_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/coord"
	"repro/internal/dispatch"
	"repro/internal/service"
	"repro/internal/trace"
)

// A traced two-worker sweep through the embedded coordinator must produce
// ONE trace ID that spans the client's sweep/submit/poll spans, the
// coordinator's lane spans and, on every worker that executed jobs,
// remote-parent request spans with job.run children — the fleet-wide
// causal chain the tracing subsystem exists to provide. The results must
// stay bit-identical to the untraced local run.
func TestFleetTraceSpansCoordinatorAndWorkers(t *testing.T) {
	jobs := testJobs(5)
	want := wantResults(t, jobs)

	tracer := trace.New(trace.Options{Service: "experiments"})
	workerTracers := []*trace.Tracer{
		trace.New(trace.Options{Service: "w1"}),
		trace.New(trace.Options{Service: "w2"}),
	}
	w1, s1 := newWorker(t, service.Options{Tracer: workerTracers[0]})
	w2, s2 := newWorker(t, service.Options{Tracer: workerTracers[1]})

	// cmd/experiments roots one span per invocation; the sweep and the
	// coordinator's lanes hang off it.
	root := tracer.StartRoot("experiments.run")
	ctx := trace.ContextWith(context.Background(), root)
	got, stats, err := coord.RunFleet(ctx, jobs, []string{w1.URL, w2.URL}, 0, fastOpts(dispatch.Options{
		Tracer: tracer,
		Logf:   t.Logf,
	}))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)

	fleetID := stats.TraceID
	if fleetID != root.TraceID() {
		t.Fatalf("stats.TraceID = %q, want the caller's trace %q", fleetID, root.TraceID())
	}

	// Client and coordinator side: the sweep under the caller's root, at
	// least one submit and one poll span, and one lane span per worker,
	// all under the fleet trace.
	var sawSweep, sawSubmit, sawPoll bool
	lanes := 0
	for _, r := range tracer.Snapshot() {
		if r.TraceID != fleetID {
			t.Fatalf("span %q escaped the fleet trace: %s", r.Name, r.TraceID)
		}
		switch r.Name {
		case "dispatch.sweep":
			sawSweep = true
			if r.Parent != root.Context().SpanID.String() {
				t.Errorf("dispatch.sweep is not a child of the caller's root: %+v", r)
			}
		case "dispatch.submit":
			sawSubmit = true
		case "dispatch.poll":
			sawPoll = true
		case "coord.lane":
			lanes++
		}
	}
	if !sawSweep || !sawSubmit || !sawPoll || lanes != 2 {
		t.Fatalf("fleet trace incomplete: sweep=%v submit=%v poll=%v lanes=%d", sawSweep, sawSubmit, sawPoll, lanes)
	}

	// Worker side: each worker that executed jobs must carry the SAME
	// trace ID, stitched in via remote-parent request spans, with terminal
	// job.run spans underneath.
	for i, s := range []*service.Server{s1, s2} {
		if s.Stats().Executed == 0 {
			continue
		}
		var sawRemote, sawJobRun bool
		for _, r := range workerTracers[i].Snapshot() {
			if r.TraceID != fleetID {
				continue
			}
			if r.RemoteParent {
				sawRemote = true
			}
			if r.Name == "job.run" && r.Attrs["status"] != nil {
				sawJobRun = true
			}
		}
		if !sawRemote || !sawJobRun {
			t.Errorf("worker %d (%d jobs) missing fleet spans: remote=%v job.run=%v",
				i+1, s.Stats().Executed, sawRemote, sawJobRun)
		}
	}
}

// The embedded coordinator must see a full lane batch per worker, not
// one batch for the whole fleet: with three workers the client's first
// submission carries every cell of a 45-cell sweep (cap 3×16), so each
// worker's window can fill.
func TestFleetClientFeedsEveryWorker(t *testing.T) {
	jobs := append(append(testJobs(15), testJobs(16)...), testJobs(17)...)
	workers := map[string]bool{}
	var urls []string
	for range 3 {
		w, _ := newWorker(t, service.Options{})
		workers[w.URL] = true
		urls = append(urls, w.URL)
	}
	tracer := trace.New(trace.Options{Service: "experiments"})
	if _, _, err := coord.RunFleet(context.Background(), jobs, urls, 0, fastOpts(dispatch.Options{
		Tracer: tracer,
		Logf:   t.Logf,
	})); err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, r := range tracer.Snapshot() {
		if r.Name != "dispatch.submit" || workers[fmt.Sprint(r.Attrs["lane"])] {
			continue
		}
		n, _ := strconv.Atoi(fmt.Sprint(r.Attrs["jobs"]))
		largest = max(largest, n)
	}
	if largest != len(jobs) {
		t.Fatalf("largest client submission = %d cells, want all %d", largest, len(jobs))
	}
}
