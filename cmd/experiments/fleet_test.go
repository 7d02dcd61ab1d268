package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// fleetMatrix is a 10-cell sweep (TABLE II on two circuits, five methods)
// — enough that a worker dying after its first cell leaves most of the
// sweep unfinished.
func fleetMatrix(extra ...string) []string {
	return append([]string{
		"-exp", "table2", "-format", "json", "-circuits", "c880,c1908", "-seed", "5",
		"-pop", "6", "-iters", "3", "-vectors", "512",
	}, extra...)
}

// dyingWorker fronts a real in-process worker and dies (every later
// request answers 500) right after it has reported its first finished
// cell. died reports whether that happened.
func dyingWorker(t *testing.T) (url string, died *atomic.Bool) {
	t.Helper()
	real := strings.Split(bootWorkers(t, 1), ",")[0]
	died = &atomic.Bool{}
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if died.Load() {
			http.Error(w, `{"error":"injected worker death"}`, http.StatusInternalServerError)
			return
		}
		req, _ := http.NewRequest(r.Method, real+r.URL.Path, r.Body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		w.Write(body) //nolint:errcheck
		var v service.JobView
		if r.Method == http.MethodGet && json.Unmarshal(body, &v) == nil && v.Status == service.StatusDone {
			died.Store(true)
		}
	}))
	t.Cleanup(proxy.Close)
	return proxy.URL, died
}

// TestCoordWithJobsExits2: -coord hands every cell to the coordinator's
// queue and quotas, so a local share beside it would bypass both; the
// combination is a usage error.
func TestCoordWithJobsExits2(t *testing.T) {
	code, _, stderr := runCLI(t, cliMatrix("-exp", "table2", "-coord", "http://127.0.0.1:1", "-jobs", "2")...)
	if code != 2 || !strings.Contains(stderr, "-coord and -jobs") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// TestWorkersDeadWorkerCellsAreRequeued: a worker that dies after its
// first cell, with most of the sweep unfinished, must not strand its
// cells — the survivor finishes them and the output is byte-identical to
// a local run.
func TestWorkersDeadWorkerCellsAreRequeued(t *testing.T) {
	code, want, stderr := runCLI(t, fleetMatrix("-jobs", "2")...)
	if code != 0 {
		t.Fatalf("local run: %d, stderr %q", code, stderr)
	}
	dying, died := dyingWorker(t)
	code, got, stderr := runCLI(t, fleetMatrix("-workers", bootWorkers(t, 1)+","+dying)...)
	if code != 0 {
		t.Fatalf("fleet run: %d, stderr %q", code, stderr)
	}
	if !died.Load() || !strings.Contains(stderr, "dead") {
		t.Fatalf("the dying worker must have finished a cell and been reported dead: %q", stderr)
	}
	if got != want {
		t.Fatalf("fleet JSON differs from local:\n%s\nvs\n%s", got, want)
	}
}

// TestWorkersAllDeadIsResumable: with every declared worker dead and no
// local share the run fails naming the unfinished cells, the -out store
// keeps what finished, and a local -resume completes the sweep.
func TestWorkersAllDeadIsResumable(t *testing.T) {
	code, want, stderr := runCLI(t, fleetMatrix()...)
	if code != 0 {
		t.Fatalf("local run: %d, stderr %q", code, stderr)
	}
	dir := t.TempDir()
	dying, _ := dyingWorker(t)
	code, _, stderr = runCLI(t, fleetMatrix("-workers", dying, "-out", dir)...)
	if code != 1 || !strings.Contains(stderr, "unfinished") {
		t.Fatalf("all-dead fleet: code=%d stderr=%q", code, stderr)
	}

	code, got, stderr := runCLI(t, fleetMatrix("-out", dir, "-resume")...)
	if code != 0 {
		t.Fatalf("resume: %d, stderr %q", code, stderr)
	}
	m := regexp.MustCompile(`(\d+) executed, (\d+) cached`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("resume must report job stats: %q", stderr)
	}
	if cached, _ := strconv.Atoi(m[2]); cached == 0 {
		t.Fatalf("the store must keep the cells finished before the fleet died: %q", stderr)
	}
	if got != want {
		t.Fatalf("resumed JSON differs from local:\n%s\nvs\n%s", got, want)
	}
}

// TestWorkersDuplicateURLIsOneWorker: a URL listed twice is declared once
// and renders the same bytes as a local run.
func TestWorkersDuplicateURLIsOneWorker(t *testing.T) {
	code, want, stderr := runCLI(t, cliMatrix("-exp", "table2", "-format", "json")...)
	if code != 0 {
		t.Fatalf("local run: %d, stderr %q", code, stderr)
	}
	w := bootWorkers(t, 1)
	code, got, stderr := runCLI(t, cliMatrix("-exp", "table2", "-format", "json", "-workers", w+","+w+"/")...)
	if code != 0 {
		t.Fatalf("fleet run: %d, stderr %q", code, stderr)
	}
	if n := strings.Count(stderr, "worker registered"); n != 1 {
		t.Fatalf("duplicate URL registered %d worker(s), want 1: %q", n, stderr)
	}
	if got != want {
		t.Fatalf("fleet JSON differs from local:\n%s\nvs\n%s", got, want)
	}
}

// TestWorkersMetricsAddrServesClusterAndDispatch: -metrics-addr beside
// -workers serves one registry holding the client's dispatch instruments
// and the embedded coordinator's cluster instruments — no duplicate
// registration. The worker holds the first submit until /metrics has
// been scraped mid-sweep.
func TestWorkersMetricsAddrServesClusterAndDispatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	real := strings.Split(bootWorkers(t, 1), ",")[0]
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	defer open()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate
		req, _ := http.NewRequest(r.Method, real+r.URL.Path, r.Body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck
	}))
	t.Cleanup(proxy.Close)

	type result struct {
		code   int
		stderr string
	}
	done := make(chan result, 1)
	go func() {
		var out, errb bytes.Buffer
		code := run(context.Background(), cliMatrix("-exp", "table2", "-format", "json",
			"-workers", proxy.URL, "-metrics-addr", addr), &out, &errb)
		done <- result{code, errb.String()}
	}()

	var body string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if body = string(b); strings.Contains(body, "als_cluster_workers") {
			break
		}
	}
	open()
	res := <-done
	if res.code != 0 {
		t.Fatalf("fleet run with -metrics-addr: %d, stderr %q", res.code, res.stderr)
	}
	for _, name := range []string{"als_dispatch_cells_remaining", "als_cluster_workers", "als_cluster_queue_depth"} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics mid-sweep lacks %s:\n%s", name, body)
		}
	}
}
