// The embedded fleet: `experiments -workers` runs its hand-listed URLs
// through an in-process coordinator, so a static fleet and a registered
// one share one scheduler, one client and one failover path.
package coord

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
)

// errFleetDead cancels an embedded run whose last worker died.
var errFleetDead = errors.New("coord: every worker is dead")

// RunFleet executes jobs on a declared fleet through a coordinator
// embedded in this process and returns what dispatch.Run returns:
//
//   - The coordinator listens on a loopback port and dedups against a
//     private store in a temp dir, removed on return. opts.Store stays the
//     caller's, written only by the client, so -resume works as locally.
//   - Every URL in workers is declared once (duplicates collapse), and
//     localJobs > 0 declares an in-process alsd running that many flows
//     at once as the local share. Declared workers never expire; a dead
//     one is dropped when its lane's retry budget runs out, and its cells
//     go back on the fair queue for the survivors.
//   - The client is dispatch.Run pointed at the coordinator, with opts,
//     except that it keeps a full SubmitBatch per worker in flight (up to
//     service.MaxBatchJobs) so the fair queue always has cells to hand
//     out. The coordinator's lanes take the lane knobs as given, log
//     through opts.Logf and share opts.Metrics, whose registry also gets
//     the cluster instruments — so give each RunFleet call its own
//     Metrics.
//
// Once every worker is dead the run fails with the unfinished cells
// counted; the store keeps the finished ones.
func RunFleet(ctx context.Context, jobs []exp.Job, workers []string, localJobs int, opts dispatch.Options) (exp.ResultSet, dispatch.Stats, error) {
	if len(workers) == 0 && localJobs <= 0 {
		return nil, dispatch.Stats{}, errors.New("coord: no workers and no local share")
	}
	dir, err := os.MkdirTemp("", "alscoord-")
	if err != nil {
		return nil, dispatch.Stats{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, dispatch.Stats{}, err
	}
	defer st.Close()

	// Deferred cleanups run in reverse: the coordinator's lanes stop
	// before the local share they may be talking to goes away.
	if localJobs > 0 {
		share := service.New(service.Options{Workers: localJobs, Tracer: opts.Tracer})
		defer share.Close()
		shareURL, stopShare, err := serveLoopback(share.Handler())
		if err != nil {
			return nil, dispatch.Stats{}, err
		}
		defer stopShare()
		workers = append(slices.Clip(workers), shareURL)
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	c, err := newCoordinator(runCtx, Options{
		Store:        st,
		Logger:       logfLogger(opts.Logf),
		Tracer:       opts.Tracer,
		Client:       opts.Client,
		SubmitBatch:  opts.SubmitBatch,
		RetryBudget:  opts.RetryBudget,
		Backoff:      opts.Backoff,
		MaxBackoff:   opts.MaxBackoff,
		PollInterval: opts.PollInterval,
	}, newCoordMetrics(opts.Metrics.Registry(), opts.Metrics))
	if err != nil {
		return nil, dispatch.Stats{}, err
	}
	defer c.Close()
	base, stopCoord, err := serveLoopback(c.Handler())
	if err != nil {
		return nil, dispatch.Stats{}, err
	}
	defer stopCoord()

	c.onFleetDead = func() { cancel(errFleetDead) }
	seen := map[string]bool{}
	for _, w := range workers {
		w = strings.TrimRight(w, "/")
		if seen[w] {
			continue
		}
		seen[w] = true
		if _, err := c.register(w, true); err != nil {
			return nil, dispatch.Stats{}, err
		}
	}

	client := opts
	client.SubmitBatch = min(cmp.Or(opts.SubmitBatch, dispatch.DefaultSubmitBatch)*len(seen), service.MaxBatchJobs)
	rs, stats, err := dispatch.Run(runCtx, base, jobs, client)
	if err != nil && errors.Is(context.Cause(runCtx), errFleetDead) {
		unfinished := len(jobs) - stats.Deduped - stats.Cached - stats.Executed
		err = fmt.Errorf("%w with %d cell(s) unfinished", errFleetDead, unfinished)
	}
	return rs, stats, err
}

// serveLoopback serves h on an ephemeral loopback port and returns its
// base URL and a stop function.
func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on stop
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// logfLogger renders the embedded coordinator's records through logf,
// one line each without the timestamp (nil logf discards them).
func logfLogger(logf func(format string, args ...any)) *slog.Logger {
	if logf == nil {
		return nil
	}
	return slog.New(slog.NewTextHandler(logfWriter(logf), &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

type logfWriter func(format string, args ...any)

func (w logfWriter) Write(p []byte) (int, error) {
	w("coord: %s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}
