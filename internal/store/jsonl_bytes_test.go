package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// jsonlSequence drives a fixed put / torn-tail / reopen / put sequence
// through a fresh JSONL store at path and returns the final file bytes.
func jsonlSequence(t *testing.T, path string) []byte {
	t.Helper()
	s, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	puts := []struct {
		hash string
		v    any
	}{
		{"h1", payload{Ratio: 1}},
		{"h2", map[string]any{"front": []float64{0.5, 0.25}, "note": "<&> café"}},
		{"h1", payload{Ratio: 3}},
		{"h2/front", []int{1, 2, 3}},
	}
	for _, p := range puts {
		if err := s.Put(p.hash, p.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"hash":"h9","payl`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if s, err = OpenJSONL(path); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRaw("h3", []byte(`{ "spaced" : [1, 2] }`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestJSONLBytesFrozen: the JSONL store's on-disk bytes for a fixed
// sequence match a fixture written by the implementation that predates
// internal/journal. The fixture is a contract; never regenerate it.
func TestJSONLBytesFrozen(t *testing.T) {
	got := jsonlSequence(t, filepath.Join(t.TempDir(), "results.jsonl"))
	want, err := os.ReadFile(filepath.Join("testdata", "jsonl_store.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("jsonl store bytes mismatch:\n got %q\nwant %q", got, want)
	}
}
