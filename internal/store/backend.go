// The Backend interface and the default JSONL implementation.
//
// A Backend is the raw content-addressed byte layer under a Store: an
// opaque-payload map keyed by canonical content hash (plus derived keys
// such as "<hash>/front"). Store layers JSON encoding, telemetry and the
// legacy convenience API on top, so every backend stays small and every
// consumer (the experiment scheduler, the serving daemon, the dispatch
// coordinator) is oblivious to which one is underneath.
package store

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/journal"
)

// Backend is a content-addressed byte store. Implementations must be safe
// for concurrent use by multiple goroutines; the embedded backend is
// additionally safe for concurrent use by multiple processes.
//
// Contract, shared by every implementation and pinned by the conformance
// suite in backend_test.go:
//
//   - Get returns (payload, true, nil) for a stored hash, (nil, false,
//     nil) for an absent one, and a non-nil error only for infrastructure
//     failures (I/O, transport) — absence is never an error.
//   - Put overwrites: the last write for a hash wins, matching the
//     append-log semantics the JSONL format always had.
//   - Scan visits every distinct stored hash exactly once, in first-
//     insertion order, with its latest payload; fn's error aborts the scan.
//   - Close releases resources. Implementations backed by an in-memory
//     index keep Get/Scan readable after Close; Put fails.
type Backend interface {
	Get(hash string) (payload []byte, ok bool, err error)
	Put(hash string, payload []byte) error
	Scan(fn func(hash string, payload []byte) error) error
	Close() error
}

// sizer and corrupter are optional Backend refinements: local backends
// know their record count and how many undecodable records they skipped
// at open without a Scan; the Store methods fall back to scanning (Len)
// or zero (Corrupt) otherwise.
type (
	sizer     interface{ Len() int }
	corrupter interface{ Corrupt() int }
)

// record is one JSONL line — also the wire shape of the remote backend's
// full-dump listing, and therefore a frozen contract (docs/STORAGE.md).
type record struct {
	Hash    string          `json:"hash"`
	Payload json.RawMessage `json:"payload"`
}

// jsonlBackend is the default file format: one JSON object per line,
// append-only, written through per Put (no fsync — a cache), fully indexed
// in memory at open. The file is an internal/journal NDJSON log, which
// owns the corrupt-tolerant scan and the torn-tail heal. It is
// bit-compatible with every store file written since the format was
// introduced; Open auto-detects it (anything without the embedded
// backend's magic header).
//
// Concurrency: safe within one process. Two processes appending to one
// JSONL file interleave whole lines only by luck of the write size — use
// the embedded backend when daemons must share a file.
type jsonlBackend struct {
	mu    sync.Mutex
	j     *journal.Journal
	mem   map[string][]byte
	order []string // insertion order, for deterministic iteration
}

// openJSONL loads (or creates) the JSONL file at path. Undecodable lines
// — e.g. the tail of a run killed mid-write — are skipped and counted in
// Corrupt(); every well-formed record is kept. A record whose hash
// repeats overwrites the earlier payload (last writer wins).
func openJSONL(path string) (*jsonlBackend, error) {
	b := &jsonlBackend{mem: map[string][]byte{}}
	j, err := journal.Open(path, func(line []byte) bool {
		var r record
		if json.Unmarshal(line, &r) != nil || r.Hash == "" || len(r.Payload) == 0 {
			return false
		}
		b.index(r.Hash, r.Payload) // Unmarshal copied the payload out of line
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	b.j = j
	return b, nil
}

func (b *jsonlBackend) index(hash string, payload []byte) {
	if _, seen := b.mem[hash]; !seen {
		b.order = append(b.order, hash)
	}
	b.mem[hash] = payload
}

func (b *jsonlBackend) Get(hash string) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.mem[hash]
	return p, ok, nil
}

// Put holds the index lock across the journal write so the file and the
// index agree on which of two racing Puts of one hash came last.
func (b *jsonlBackend) Put(hash string, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.j.Write(record{Hash: hash, Payload: payload}); err != nil {
		return fmt.Errorf("store: put %.12s…: %w", hash, err)
	}
	b.index(hash, append([]byte(nil), payload...))
	return nil
}

func (b *jsonlBackend) Scan(fn func(hash string, payload []byte) error) error {
	b.mu.Lock()
	hashes := append([]string(nil), b.order...)
	b.mu.Unlock()
	for _, h := range hashes {
		p, _, _ := b.Get(h)
		if err := fn(h, p); err != nil {
			return err
		}
	}
	return nil
}

func (b *jsonlBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.mem)
}

func (b *jsonlBackend) Corrupt() int { return b.j.Corrupt() }

// Close closes the backing file. It is idempotent; the in-memory index
// stays readable, and further Puts fail.
func (b *jsonlBackend) Close() error { return b.j.Close() }
