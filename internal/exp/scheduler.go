package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	als "repro"
	"repro/internal/core"
	"repro/internal/store"
)

// ResultSet maps job content hashes to results. Assemblers look cells up
// by recomputing the job's hash, so a ResultSet can come from a live run,
// a persisted store, or any mix of the two.
type ResultSet map[string]JobResult

// get resolves one job's result, naming the job when it is missing.
func (rs ResultSet) get(j Job) (JobResult, error) {
	h, err := j.Hash()
	if err != nil {
		return JobResult{}, err
	}
	r, ok := rs[h]
	if !ok {
		return JobResult{}, fmt.Errorf("exp: no result for job %s (hash %.12s…)", j, h)
	}
	return r, nil
}

// Add records a computed result under the job's hash.
func (rs ResultSet) Add(j Job, r JobResult) error {
	h, err := j.Hash()
	if err != nil {
		return err
	}
	rs[h] = r
	return nil
}

// RunStats summarizes one scheduler invocation.
type RunStats struct {
	// Executed counts jobs actually computed by this run.
	Executed int
	// Cached counts jobs served from the persistent store.
	Cached int
	// Deduped counts job-list entries that shared a hash with an earlier
	// entry (identical cells referenced by several experiments).
	Deduped int
}

// RunJobs executes a job list on a bounded worker pool and returns the
// results keyed by job hash.
//
// The list is first deduplicated by content hash; then, if st is non-nil,
// finished cells are loaded from the store and skipped. Remaining jobs run
// on min(workers, pending) goroutines (workers <= 0 means GOMAXPROCS) via
// core.ParallelFor, and each result is flushed to the store the moment its
// job finishes — so a killed run loses at most in-flight cells and a
// -resume re-invocation completes from cache. Every job is deterministic
// at its spec (PR 1's exactness guarantee), so the ResultSet — and any
// rendering derived from it — is byte-identical for any worker count.
func RunJobs(jobs []Job, workers int, st *store.Store) (ResultSet, RunStats, error) {
	return RunJobsContext(context.Background(), jobs, workers, st)
}

// PendingJobs deduplicates a job list by canonical content hash and, when
// st is non-nil, strips cells whose results are already persisted, loading
// those into rs. It returns the jobs still to be computed alongside their
// hashes (parallel slices) and the Cached/Deduped counts — the shared
// prelude of the local scheduler and the sweep client
// (internal/dispatch), which differ only in where the pending cells run.
func PendingJobs(jobs []Job, st *store.Store, rs ResultSet) (pending []Job, hashes []string, stats RunStats, err error) {
	seen := map[string]bool{}
	for _, j := range jobs {
		h, err := j.Hash()
		if err != nil {
			return nil, nil, stats, err
		}
		if seen[h] {
			stats.Deduped++
			continue
		}
		seen[h] = true
		if st != nil {
			var r JobResult
			ok, err := st.Decode(h, &r)
			if err != nil {
				return nil, nil, stats, err
			}
			if ok {
				rs[h] = r
				stats.Cached++
				continue
			}
		}
		pending = append(pending, j)
		hashes = append(hashes, h)
	}
	return pending, hashes, stats, nil
}

// RunJobsContext is RunJobs with cooperative cancellation: the context is
// checked before each job is claimed and once per optimizer iteration
// inside each running flow. Because every finished cell is flushed to the
// store the moment it completes, a cancelled invocation loses only
// in-flight cells — a re-run with the same store resumes from the last
// flushed cell. The returned error wraps ctx.Err() when the run was
// cancelled.
func RunJobsContext(ctx context.Context, jobs []Job, workers int, st *store.Store) (ResultSet, RunStats, error) {
	rs := ResultSet{}
	pending, hashes, stats, err := PendingJobs(jobs, st, rs)
	if err != nil {
		return nil, stats, err
	}

	// Split the machine between the job pool and each flow's internal
	// evaluation pool: with W concurrent cells, each flow gets
	// GOMAXPROCS/W evaluation workers, so total parallelism stays
	// GOMAXPROCS-bounded instead of multiplying. A serial job run keeps
	// the full inner pool (evalWorkers 0 = GOMAXPROCS).
	jobWorkers := workers
	if jobWorkers <= 0 {
		jobWorkers = runtime.GOMAXPROCS(0)
	}
	if jobWorkers > len(pending) {
		jobWorkers = len(pending)
	}
	evalWorkers := 0
	if jobWorkers > 1 {
		evalWorkers = runtime.GOMAXPROCS(0) / jobWorkers
		if evalWorkers < 1 {
			evalWorkers = 1
		}
	}

	var (
		mu       sync.Mutex
		executed atomic.Int64
	)
	lib := als.NewLibrary()
	err = core.ParallelFor(len(pending), jobWorkers, func(_, i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("exp: run cancelled: %w", err)
		}
		r, err := pending[i].RunContext(ctx, lib, evalWorkers)
		if err != nil {
			return err
		}
		executed.Add(1)
		if st != nil {
			if err := st.Put(hashes[i], r); err != nil {
				return err
			}
		}
		mu.Lock()
		rs[hashes[i]] = r
		mu.Unlock()
		return nil
	})
	stats.Executed = int(executed.Load())
	if err != nil {
		return nil, stats, err
	}
	return rs, stats, nil
}
