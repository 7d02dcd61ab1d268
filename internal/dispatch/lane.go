// The lane engine. A Lane drives one worker URL through the worker job
// API — submit batches of specs, poll results by content hash, retry
// transient transport failures with capped exponential backoff, requeue
// cells the worker forgot or cancelled. The scheduling policy sits behind
// LaneScheduler: Run feeds its one lane from the pending list, and the
// coordinator (internal/coord) feeds one lane per worker from its shared
// weighted-fair queue.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/trace"
)

// Task is one schedulable cell: its job spec and the content hash that
// keys its result everywhere (store, worker job table, ResultSet).
type Task struct {
	Job  exp.Job
	Hash string
}

// LaneScheduler is the scheduling half of a lane: it feeds tasks in,
// receives results out, and decides how failures propagate. One
// scheduler instance is bound to one lane, so implementations carry the
// lane's identity themselves.
type LaneScheduler interface {
	// Next blocks until a task is available for this lane; ok=false shuts
	// the lane down cleanly (run finished, worker drained, …).
	Next() (t *Task, ok bool)
	// Fill returns up to n more tasks without blocking. The lane calls it
	// every round to keep SubmitBatch cells in flight; an adaptive
	// scheduler caps it by the worker's observed throughput.
	Fill(n int) []*Task
	// Context governs the lane's lifetime: its cancellation stops the
	// lane between steps and aborts in-flight worker requests.
	Context() context.Context
	// Offload hands unsubmitted tasks back when the worker reports a full
	// queue. Returning false keeps them lane-local (Run's single lane);
	// returning true lets an idle lane steal them (the coordinator's
	// shared queue).
	Offload(tasks []*Task) bool
	// Sleep pauses between polls and backoffs, waking early on shutdown.
	Sleep(d time.Duration)
	// Complete publishes one finished cell; a non-nil error is fatal to
	// the lane's run (e.g. the result could not be persisted).
	Complete(t *Task, r exp.JobResult) error
	// JobFailed reports a deterministic job failure (the cell would fail
	// identically anywhere). A non-nil return aborts the lane without
	// failover; nil lets it continue with its other cells.
	JobFailed(t *Task, errMsg string) error
	// Fatal reports an error that poisons the whole run (incompatible
	// worker build, rejected batch, marshalling failure).
	Fatal(err error)
	// Lookup consults the shared result store before a 404 resubmission:
	// a worker that forgot a cell may still be beaten by another lane (or
	// another coordinator) that already persisted it.
	Lookup(hash string) (exp.JobResult, bool)
	// Stamp adds correlation headers to an outgoing worker request.
	Stamp(req *http.Request, sp *trace.Span)
	// StartSpan opens a child span for one worker round trip (nil is
	// fine; trace spans are nil-safe).
	StartSpan(name string) *trace.Span
}

// DefaultSubmitBatch is Lane.SubmitBatch when the field is zero.
const DefaultSubmitBatch = 16

// Lane drives one worker base URL. Configure the exported fields, then
// call Run from a single goroutine; all internal state is
// goroutine-local. Zero knobs take the defaults noted on each field when
// Run starts.
type Lane struct {
	Name   string       // label for logs and metrics (usually the URL)
	Base   string       // worker base URL, no trailing slash
	Client *http.Client // default: 30s timeout
	// SubmitBatch caps job specs per submission and cells in flight on
	// the lane (default 16, at most service.MaxBatchJobs), so a worker at
	// the default 64-deep queue absorbs several lanes' bursts.
	SubmitBatch int
	// RetryBudget is how many consecutive transport failures the lane
	// tolerates before it dies (default 4).
	RetryBudget int
	// Backoff is the first retry delay; it doubles per consecutive
	// failure up to MaxBackoff (defaults 100ms and 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// PollInterval spaces result polls (default 50ms).
	PollInterval time.Duration
	Logf         func(format string, args ...any)
	Metrics      *Metrics
	Sched        LaneScheduler

	// unsubmitted holds cells the worker has not accepted yet;
	// outstanding maps accepted cells by hash until a poll resolves them.
	unsubmitted []*Task
	outstanding map[string]*Task
	// failures counts consecutive transport-level failures; any success
	// resets it, exceeding the retry budget kills the lane.
	failures int
	// resubmits counts cells this lane requeued because the worker forgot
	// or cancelled them. Only the first one logs a line (a worker restart
	// typically forgets a whole batch at once, and per-cell lines buried
	// the interesting logs); the rest ride the als_dispatch_resubmits_total
	// counter and the lane's exit summary.
	resubmits int
}

// Run drives the lane until the scheduler shuts it down, the run is
// cancelled, or the lane dies. It returns every task the lane still
// owned and, when the lane died (retry budget exhausted, worker
// draining), the cause — nil means a clean exit whose leftovers need no
// failover (the run is ending anyway) unless the caller wants to
// requeue them.
func (l *Lane) Run() ([]*Task, error) {
	l.fillDefaults()
	l.outstanding = map[string]*Task{}
	defer func() {
		if l.resubmits > 1 {
			l.Logf("dispatch: lane %s resubmitted %d cells total", l.Name, l.resubmits)
		}
	}()
	for {
		if l.InFlight() == 0 {
			t, ok := l.Sched.Next()
			if !ok {
				return l.leftovers(), nil
			}
			l.unsubmitted = append(l.unsubmitted, t)
		}
		// Top the lane back up to a full batch every round, so the worker
		// never idles while one slow cell of the last batch finishes.
		if n := l.SubmitBatch - l.InFlight(); n > 0 {
			l.unsubmitted = append(l.unsubmitted, l.Sched.Fill(n)...)
		}
		if err := l.step(); err != nil {
			if errors.Is(err, errPermanent) {
				return l.leftovers(), nil // the run itself is failing; nothing to fail over to
			}
			left := l.leftovers()
			l.Metrics.laneDead(len(left))
			return left, err
		}
		if l.cancelled() {
			return l.leftovers(), nil
		}
	}
}

// InFlight is how many cells the lane holds, submitted or not. Run keeps
// it at SubmitBatch while the scheduler has cells; a scheduler may read
// it from Fill to cap the lane lower.
func (l *Lane) InFlight() int { return len(l.unsubmitted) + len(l.outstanding) }

// fillDefaults gives every zero knob its documented default.
func (l *Lane) fillDefaults() {
	if l.Client == nil {
		l.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if l.SubmitBatch <= 0 {
		l.SubmitBatch = DefaultSubmitBatch
	}
	l.SubmitBatch = min(l.SubmitBatch, service.MaxBatchJobs)
	if l.RetryBudget <= 0 {
		l.RetryBudget = 4
	}
	if l.Backoff <= 0 {
		l.Backoff = 100 * time.Millisecond
	}
	if l.MaxBackoff <= 0 {
		l.MaxBackoff = 2 * time.Second
	}
	if l.PollInterval <= 0 {
		l.PollInterval = 50 * time.Millisecond
	}
	if l.Logf == nil {
		l.Logf = func(string, ...any) {}
	}
}

// cancelled reports whether the scheduler's context has ended.
func (l *Lane) cancelled() bool { return l.Sched.Context().Err() != nil }

// leftovers collects everything the lane still owns, clearing its state.
func (l *Lane) leftovers() []*Task {
	out := append([]*Task(nil), l.unsubmitted...)
	for _, t := range l.outstanding {
		out = append(out, t)
	}
	l.unsubmitted = nil
	l.outstanding = map[string]*Task{}
	return out
}

// step advances the lane one round: submit what the worker will take,
// sweep outstanding results, pace the next poll.
func (l *Lane) step() error {
	if len(l.unsubmitted) > 0 {
		if err := l.submit(); err != nil {
			return err
		}
	}
	if len(l.outstanding) > 0 {
		if err := l.poll(); err != nil {
			return err
		}
		if len(l.outstanding) > 0 {
			l.Sched.Sleep(l.PollInterval)
		}
	}
	return nil
}

// transient handles one transport-level failure: back off and retry until
// the consecutive-failure budget is spent, then report the lane dead.
func (l *Lane) transient(op string, err error) error {
	l.failures++
	if l.failures > l.RetryBudget {
		return fmt.Errorf("%s failed %d consecutive time(s): %w", op, l.failures, err)
	}
	l.Metrics.retried(l.Name)
	backoff := l.Backoff << (l.failures - 1)
	if backoff > l.MaxBackoff {
		backoff = l.MaxBackoff
	}
	l.Logf("dispatch: lane %s: %s failed (attempt %d/%d, retrying in %v): %v",
		l.Name, op, l.failures, l.RetryBudget+1, backoff, err)
	l.Sched.Sleep(backoff)
	return nil
}

// complete publishes one finished cell through the scheduler, converting
// a publication failure into a run-fatal error, and counts it for the
// lane.
func (l *Lane) complete(t *Task, r exp.JobResult) error {
	if err := l.Sched.Complete(t, r); err != nil {
		l.Sched.Fatal(err)
		return errPermanent
	}
	l.Metrics.cellCompleted(l.Name)
	return nil
}

// submit offers the worker one batch of specs. The accepted prefix moves
// to outstanding; on queue-full the remainder waits for a later round or
// is offloaded back to the scheduler (the worker is alive, just
// saturated), while draining and validation failures are terminal for
// the lane and run respectively.
func (l *Lane) submit() error {
	n := min(len(l.unsubmitted), l.SubmitBatch)
	batch := l.unsubmitted[:n]
	jobs := make([]exp.Job, n)
	for i, t := range batch {
		jobs[i] = t.Job
	}
	body, err := json.Marshal(service.BatchRequest{Jobs: jobs})
	if err != nil {
		l.Sched.Fatal(fmt.Errorf("dispatch: marshal batch: %w", err))
		return errPermanent
	}
	req, err := http.NewRequestWithContext(l.Sched.Context(), http.MethodPost, l.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		l.Sched.Fatal(err)
		return errPermanent
	}
	req.Header.Set("Content-Type", "application/json")
	sp := l.Sched.StartSpan("dispatch.submit")
	sp.SetAttr("lane", l.Name)
	sp.SetAttr("jobs", n)
	l.Sched.Stamp(req, sp)
	resp, err := l.Client.Do(req)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		if l.cancelled() {
			return nil
		}
		return l.transient("submit", err)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	resp.Body.Close()
	sp.SetAttr("http.status", resp.StatusCode)
	sp.End()
	if err != nil {
		return l.transient("submit", err)
	}

	switch resp.StatusCode {
	case http.StatusOK, http.StatusServiceUnavailable:
		var br service.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			return l.transient("submit", fmt.Errorf("undecodable response: %w", err))
		}
		if len(br.Jobs) > len(batch) {
			return l.transient("submit", fmt.Errorf("worker accepted %d of %d jobs", len(br.Jobs), len(batch)))
		}
		for i, v := range br.Jobs {
			if v.Hash != batch[i].Hash {
				l.Sched.Fatal(fmt.Errorf("dispatch: %s: job %s hashed to %.12s… on the worker, %.12s… here — incompatible worker build",
					l.Name, batch[i].Job, v.Hash, batch[i].Hash))
				return errPermanent
			}
			l.outstanding[v.Hash] = batch[i]
		}
		l.unsubmitted = l.unsubmitted[len(br.Jobs):]
		if resp.StatusCode == http.StatusServiceUnavailable {
			if br.Reason == service.ReasonDraining {
				return fmt.Errorf("worker is draining: %s", br.Error)
			}
			// Queue full: not a failure — the worker is alive and will make
			// room as it finishes cells. Offer the remainder back to the
			// scheduler so an idle lane can steal it; otherwise let the
			// poll pace the next attempt.
			l.failures = 0
			if len(l.unsubmitted) > 0 && l.Sched.Offload(l.unsubmitted) {
				l.unsubmitted = nil
			}
			if len(l.outstanding) == 0 {
				l.Sched.Sleep(l.PollInterval)
			}
			return nil
		}
		l.failures = 0
		return nil
	case http.StatusBadRequest:
		l.Sched.Fatal(fmt.Errorf("dispatch: %s rejected batch: %s", l.Name, errorBody(raw)))
		return errPermanent
	default:
		return l.transient("submit", fmt.Errorf("HTTP %d: %s", resp.StatusCode, errorBody(raw)))
	}
}

// poll sweeps the outstanding set once. Finished cells complete, failed
// cells go through JobFailed (deterministic — the scheduler decides
// whether that aborts everything), a 404 — a worker restarted or evicted
// between submit and poll — first consults the shared store (another
// lane may have persisted the cell already) and only then requeues it
// for resubmission.
func (l *Lane) poll() error {
	for hash, t := range l.outstanding {
		if l.cancelled() {
			return nil
		}
		req, err := http.NewRequestWithContext(l.Sched.Context(), http.MethodGet, l.Base+"/v1/jobs/"+hash, nil)
		if err != nil {
			l.Sched.Fatal(err)
			return errPermanent
		}
		sp := l.Sched.StartSpan("dispatch.poll")
		sp.SetAttr("lane", l.Name)
		sp.SetAttr("hash", hash)
		l.Sched.Stamp(req, sp)
		resp, err := l.Client.Do(req)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			if l.cancelled() {
				return nil
			}
			return l.transient("poll", err)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		sp.SetAttr("http.status", resp.StatusCode)
		sp.End()
		if err != nil {
			return l.transient("poll", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			l.failures = 0
			delete(l.outstanding, hash)
			if r, ok := l.Sched.Lookup(hash); ok {
				// The shared store already holds this cell — another lane
				// (or a previous run) computed it while the worker forgot
				// it. Complete from the store instead of re-running.
				l.Logf("dispatch: lane %s forgot %.12s… but the shared store has it; skipping resubmit", l.Name, hash)
				if err := l.complete(t, r); err != nil {
					return err
				}
				continue
			}
			l.unsubmitted = append(l.unsubmitted, t)
			l.noteResubmit(fmt.Sprintf("dispatch: lane %s forgot %.12s… (worker restarted?); resubmitting", l.Name, hash))
			continue
		default:
			return l.transient("poll", fmt.Errorf("HTTP %d: %s", resp.StatusCode, errorBody(raw)))
		}
		var v service.JobView
		if err := json.Unmarshal(raw, &v); err != nil {
			return l.transient("poll", fmt.Errorf("undecodable job view: %w", err))
		}
		l.failures = 0
		switch v.Status {
		case service.StatusDone:
			if v.Result == nil {
				return l.transient("poll", fmt.Errorf("done view for %.12s… carries no result", hash))
			}
			delete(l.outstanding, hash)
			if err := l.complete(t, *v.Result); err != nil {
				return err
			}
		case service.StatusFailed:
			delete(l.outstanding, hash)
			if err := l.Sched.JobFailed(t, v.Error); err != nil {
				return errPermanent
			}
		case service.StatusCancelled:
			// The worker cancelled it (drain timeout, operator action); the
			// cell itself is fine — run it elsewhere.
			delete(l.outstanding, hash)
			l.unsubmitted = append(l.unsubmitted, t)
			l.noteResubmit(fmt.Sprintf("dispatch: lane %s cancelled %.12s…; resubmitting", l.Name, hash))
		}
	}
	return nil
}

// noteResubmit counts one requeued cell. The first one per lane logs the
// given line (with a pointer to the counter); later ones stay quiet — a
// restarted worker forgets its whole outstanding set at once, and one
// line per cell used to drown the run log.
func (l *Lane) noteResubmit(line string) {
	l.Metrics.resubmitted(l.Name)
	l.resubmits++
	if l.resubmits == 1 {
		l.Logf("%s (further lane resubmissions counted in als_dispatch_resubmits_total)", line)
	}
}
