package dispatch_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestResubmitConsultsStoreFirst: when a worker 404s a hash the shared
// store already holds (another party computed it), the lane must complete
// the cell from the store instead of resubmitting — zero
// als_dispatch_resubmits_total, identical results. The proxy simulates
// the race by writing the reference result into the store at the moment
// it fakes the worker's amnesia.
func TestResubmitConsultsStoreFirst(t *testing.T) {
	jobs := testJobs(21)
	want := wantResults(t, jobs)
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	real, _ := newWorker(t, service.Options{})
	var forgot atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && forgot.CompareAndSwap(false, true) {
			// Another fleet member "already computed" this hash: persist it,
			// then deny all knowledge.
			hash := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			if res, ok := want[hash]; ok {
				if err := st.Put(hash, res); err != nil {
					t.Errorf("store put: %v", err)
				}
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"service: unknown job hash"}`)) //nolint:errcheck
			return
		}
		proxyTo(w, r, real.URL)
	}))
	t.Cleanup(proxy.Close)

	reg := telemetry.NewRegistry()
	got, _, err := dispatch.Run(context.Background(), proxy.URL, jobs, fastOpts(dispatch.Options{
		Store:   st,
		Metrics: dispatch.NewMetrics(reg),
		Logf:    t.Logf,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !forgot.Load() {
		t.Fatal("the injected 404 never triggered")
	}
	assertSameMetrics(t, got, want)
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "als_dispatch_resubmits_total{") {
		t.Fatalf("store-resolvable 404 caused a resubmit:\n%s", b.String())
	}
}
