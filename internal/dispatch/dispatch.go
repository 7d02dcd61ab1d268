// Package dispatch is the sweep client of the worker job API: it drives
// one base URL — an alsd worker, an alscoord control plane, or the
// coordinator `experiments -workers` embeds (internal/coord) — through
// batch submit and poll by hash, assembling the same ResultSet a
// single-machine run produces. Every cell is a pure function of its
// content hash, so where it runs cannot change what it returns; placing
// cells across a fleet is the coordinator's job, not this package's.
//
// The deduplicated, cache-filtered job set (exp.PendingJobs) feeds one
// Lane (lane.go). Each finished cell streams into the persistent store
// the moment the lane observes it, so an interrupted or failed run
// resumes exactly like a local one. Transient transport failures retry
// with capped exponential backoff; a lane that exhausts its retry budget
// ends the run with its unfinished cells counted, and a deterministic
// job failure ends it with the job named.
//
// Runs are observable two ways: Options.Logf receives lane events as
// text, and Options.Metrics (created once per telemetry.Registry with
// NewMetrics, shared across runs) exports per-lane throughput, retries
// and the remaining-cell gauge — what `experiments -metrics-addr` serves
// during a sweep.
package dispatch

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

// Options configures one run. The lane knobs (Client through MaxBackoff)
// take the Lane defaults when zero.
type Options struct {
	// Store persists finished cells as they stream back (nil disables
	// persistence; cached cells are skipped up front either way).
	Store        *store.Store
	Client       *http.Client
	PollInterval time.Duration
	SubmitBatch  int
	RetryBudget  int
	Backoff      time.Duration
	MaxBackoff   time.Duration
	// Logf, when non-nil, receives lane events.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, records per-lane throughput and retries
	// (create once with NewMetrics and share across runs).
	Metrics *Metrics
	// Tracer records the sweep as one trace: a dispatch.sweep span per
	// run (a child of the caller's span when ctx carries one) and a child
	// span per submit/poll round trip, each carrying a traceparent header
	// the worker's middleware continues, so the whole fleet shares one
	// trace ID. Nil disables tracing; the X-Request-Id run correlation
	// below works either way.
	Tracer *trace.Tracer
}

// Stats extends the scheduler's counters with the run's trace.
type Stats struct {
	exp.RunStats
	// TraceID is the fleet-wide trace of this run ("" without a Tracer):
	// every client span and every worker-side request span of the sweep
	// shares it, so one /debug/traces?trace= lookup per host reassembles
	// the whole run.
	TraceID string
}

// errPermanent marks failures that must abort the whole run rather than
// kill the lane: an invalid spec, a deterministic job failure, a store
// write error. The run error itself is recorded via LaneScheduler.Fatal.
var errPermanent = errors.New("dispatch: permanent failure")

// Run executes jobs through the worker job API at base and returns the
// ResultSet keyed by job hash — element-for-element identical to what
// exp.RunJobsContext computes for the same list, wall-clock fields aside.
// On cancellation the returned error wraps ctx.Err(), and the store holds
// every cell that finished, so the run is resumable.
func Run(ctx context.Context, base string, jobs []exp.Job, opts Options) (exp.ResultSet, Stats, error) {
	var stats Stats
	base = strings.TrimRight(base, "/")
	if base == "" {
		return nil, stats, errors.New("dispatch: no worker URL")
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}

	rs := exp.ResultSet{}
	pending, hashes, runStats, err := exp.PendingJobs(jobs, opts.Store, rs)
	if err != nil {
		return nil, stats, err
	}
	stats.RunStats = runStats
	if len(pending) == 0 {
		return rs, stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("dispatch: run cancelled: %w", err)
	}

	// The worker job API enforces the service's untrusted-input resource
	// caps; a spec beyond them (e.g. a -pop override over MaxPopulation)
	// would 400 the first batch that carries it. Check the whole set up
	// front so the run fails immediately with the offending job named,
	// instead of mid-sweep.
	for _, j := range pending {
		if err := service.ValidateJobSpec(j); err != nil {
			return nil, stats, fmt.Errorf("dispatch: job %s would be rejected by the worker API: %w (lower the override or run without -workers/-coord)", j, err)
		}
	}

	// One span roots the whole sweep — as a child when the caller already
	// carries one on ctx (cmd/experiments roots a per-invocation span),
	// fresh otherwise. Its trace ID doubles as the run's log-correlation
	// token; without a tracer a random tag fills that role.
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		span = parent.StartChild("dispatch.sweep")
	} else {
		span = opts.Tracer.StartRoot("dispatch.sweep")
	}
	span.SetAttr("jobs", len(jobs))
	span.SetAttr("pending", len(pending))
	span.SetAttr("url", base)
	runID := span.TraceID()
	stats.TraceID = runID
	if runID == "" {
		var b [8]byte
		crand.Read(b[:]) //nolint:errcheck // never fails on supported platforms
		runID = "sweep-" + hex.EncodeToString(b[:])
	}
	defer func() {
		span.SetAttr("executed", stats.Executed)
		span.End()
	}()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &sweep{ctx: runCtx, cancel: cancel, opts: opts, span: span, runID: runID, rs: rs}
	for i := range pending {
		s.queue = append(s.queue, &Task{Job: pending[i], Hash: hashes[i]})
	}
	l := &Lane{
		Name:         base,
		Base:         base,
		Client:       opts.Client,
		SubmitBatch:  opts.SubmitBatch,
		RetryBudget:  opts.RetryBudget,
		Backoff:      opts.Backoff,
		MaxBackoff:   opts.MaxBackoff,
		PollInterval: opts.PollInterval,
		Logf:         opts.Logf,
		Metrics:      opts.Metrics,
		Sched:        s,
	}
	l.fillDefaults()

	// Readiness preflight: a typo'd or dead URL fails in one short probe
	// instead of burning the lane's whole retry budget.
	if err := probeHealth(ctx, l.Client, base, runID); err != nil {
		return nil, stats, fmt.Errorf("dispatch: %s did not answer /healthz: %w", base, err)
	}

	opts.Metrics.runStarted(len(pending))
	_, cause := l.Run()
	stats.Executed = s.executed
	opts.Metrics.runEnded(int64(len(pending) - s.executed))
	switch unfinished := len(pending) - s.executed; {
	case s.err != nil:
		return nil, stats, s.err
	case ctx.Err() != nil:
		return nil, stats, fmt.Errorf("dispatch: run cancelled: %w", ctx.Err())
	case cause != nil:
		return nil, stats, fmt.Errorf("dispatch: %s dead with %d cell(s) unfinished: %w", base, unfinished, cause)
	case unfinished > 0:
		return nil, stats, fmt.Errorf("dispatch: %d cell(s) unfinished", unfinished)
	}
	opts.Logf("dispatch: %d cell(s) done via %s", s.executed, base)
	return s.rs, stats, nil
}

// probeHealth issues one short-deadline readiness probe, tagged with the
// run ID so even the preflight is greppable in worker logs.
func probeHealth(ctx context.Context, client *http.Client, base, runID string) error {
	probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-Id", runID)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// sweep is Run's LaneScheduler: the pending list feeds the lane in order,
// completions land in the ResultSet and the store, and any job failure
// ends the run. The lane calls it from Run's goroutine only, so it needs
// no locking.
type sweep struct {
	ctx    context.Context
	cancel context.CancelFunc
	opts   Options
	// span is the sweep span (nil without a Tracer); runID is the run's
	// log-correlation token — the trace ID when tracing, a random
	// "sweep-…" tag otherwise — forwarded as X-Request-Id on every worker
	// request so worker logs grep by run either way.
	span     *trace.Span
	runID    string
	queue    []*Task
	rs       exp.ResultSet
	executed int
	err      error
}

func (s *sweep) Next() (*Task, bool) {
	if len(s.queue) == 0 {
		return nil, false
	}
	t := s.queue[0]
	s.queue = s.queue[1:]
	return t, true
}

func (s *sweep) Fill(n int) []*Task {
	n = min(n, len(s.queue))
	out := s.queue[:n:n]
	s.queue = s.queue[n:]
	return out
}

func (s *sweep) Context() context.Context { return s.ctx }

// Offload keeps queue-full remainders on the lane: there is no other
// lane to steal them.
func (s *sweep) Offload([]*Task) bool { return false }

func (s *sweep) Sleep(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-s.ctx.Done():
	}
}

// Complete records one finished cell: persist first (a cell the store
// never saw must not count as done for -resume), then publish.
func (s *sweep) Complete(t *Task, r exp.JobResult) error {
	if s.opts.Store != nil {
		putSpan := s.span.StartChild("store.put")
		putSpan.SetAttr("hash", t.Hash)
		err := s.opts.Store.Put(t.Hash, r)
		putSpan.End()
		if err != nil {
			return err
		}
	}
	s.rs[t.Hash] = r
	s.executed++
	s.opts.Metrics.cellPublished()
	return nil
}

// JobFailed aborts the run: the failure is deterministic, so the cell
// would fail identically anywhere.
func (s *sweep) JobFailed(t *Task, msg string) error {
	err := fmt.Errorf("dispatch: job %s failed: %s", t.Job, msg)
	s.Fatal(err)
	return err
}

// Fatal records the run's first fatal error and stops the lane.
func (s *sweep) Fatal(err error) {
	if s.err == nil {
		s.err = err
	}
	s.cancel()
}

// Lookup consults the run's (possibly fleet-shared) store, so a cell a
// worker forgot is completed from persisted state instead of re-running
// when any other party already computed it.
func (s *sweep) Lookup(hash string) (exp.JobResult, bool) {
	if s.opts.Store == nil {
		return exp.JobResult{}, false
	}
	var res exp.JobResult
	if ok, err := s.opts.Store.Decode(hash, &res); err != nil || !ok {
		return exp.JobResult{}, false
	}
	return res, true
}

// Stamp adds the correlation headers every worker request carries: the
// run ID for log grepping (meaningful with tracing on or off) and, when
// sp is a live span, the traceparent the worker's middleware continues.
func (s *sweep) Stamp(req *http.Request, sp *trace.Span) {
	req.Header.Set("X-Request-Id", s.runID)
	if sc := sp.Context(); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
}

func (s *sweep) StartSpan(name string) *trace.Span { return s.span.StartChild(name) }

// errorBody extracts {"error": ...} from a response body for messages.
func errorBody(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(raw))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	if s == "" {
		return "(empty body)"
	}
	return s
}
