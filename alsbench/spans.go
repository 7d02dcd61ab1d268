package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// spanCapacity bounds the benchmark's own span ring. A traced sweep
// records about 800 spans and a traced flow a few hundred; the ring never
// wraps, so every span of the run reaches the export.
const spanCapacity = 1 << 16

// newTracer returns the benchmark's in-process tracer.
func newTracer() *trace.Tracer {
	return trace.New(trace.Options{Service: "alsbench", Capacity: spanCapacity})
}

// timed runs fn inside a child span of parent named after the layer call
// it wraps, so the per-layer table can be derived from the span export.
func timed(parent *trace.Span, name string, fn func() error) error {
	sp := parent.StartChild(name)
	err := fn()
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return err
}

// repeat calls timed n times and stops at the first error.
func repeat(parent *trace.Span, name string, n int, fn func(i int) error) error {
	for i := range n {
		if err := timed(parent, name, func() error { return fn(i) }); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// durations returns the durations of every span called name, in unit.
func durations(recs []trace.SpanRecord, name string, unit time.Duration) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Name == name {
			out = append(out, float64(r.DurationNS)/float64(unit))
		}
	}
	return out
}

// spanFile is where a traced run exports its spans.
func spanFile(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
}

// writeSpans exports span records as JSONL, the format cmd/tracecat reads.
func writeSpans(path string, recs []trace.SpanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadPct is the cost of tracing on a workload's main metric.
func overheadPct(traced, untraced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}
