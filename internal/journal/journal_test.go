package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// collect opens path with a visitor that accepts valid JSON and records
// every line it accepted.
func collect(t *testing.T, path string) (*Journal, []string) {
	t.Helper()
	var got []string
	j, err := Open(path, func(line []byte) bool {
		if !json.Valid(line) {
			return false
		}
		got = append(got, string(line))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, got
}

func TestAppendWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	j, got := collect(t, path)
	if len(got) != 0 || j.Corrupt() != 0 {
		t.Fatalf("fresh journal visited %q, corrupt %d", got, j.Corrupt())
	}
	if err := j.Append(map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(map[string]string{"b": "<&>"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(func() {}); err == nil {
		t.Fatal("appending an unmarshalable value succeeded")
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"a\":1}\n{\"b\":\"\\u003c\\u0026\\u003e\"}\n"; string(raw) != want {
		t.Fatalf("file = %q, want %q", raw, want)
	}
}

// TestClosedSemantics: Close is idempotent, and every write after it
// fails with ErrClosed instead of a raw os error.
func TestClosedSemantics(t *testing.T) {
	j, _ := collect(t, filepath.Join(t.TempDir(), "j.ndjson"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	for name, write := range map[string]func() error{
		"Append":  func() error { return j.Append(1) },
		"Write":   func() error { return j.Write(1) },
		"Rewrite": func() error { return j.Rewrite([]any{1}) },
	} {
		err := write()
		if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "journal closed") {
			t.Errorf("%s after Close = %v, want a journal closed error", name, err)
		}
	}
}

// segment is one line of a representative journal: a record (empty for
// a blank line) and the bytes that end it.
type segment struct{ rec, end string }

var representative = []segment{
	{`{"op":"accept","hash":"h1","req":{"circuit":"Adder16","budget":0.0244}}`, "\n"},
	{"", "  \n"},
	{`{"op":"done","hash":"h1","id":"f000001"}`, "\r\n"},
	{`{"hash":"h2","payload":{"note":"café <&>","esc":"a\nb"}}`, "\n"},
	{`  {"op":"sub","sub_id":"s","hashes":["h1","h2"]}`, "\t\n"},
	{`{"op":"job","hash":"h1","id":"f000001","status":"done"}`, "\n"},
}

// TestEveryTruncationPoint reopens every byte prefix of a representative
// journal, as a crash at that byte would leave it: Open succeeds, visits
// exactly the records that are whole, counts at most the one torn record
// as corrupt, and an Append made after the heal reads back on the next
// Open behind the surviving records.
func TestEveryTruncationPoint(t *testing.T) {
	var data strings.Builder
	type span struct {
		rec        string
		start, end int // byte range of rec's non-blank text
	}
	var spans []span
	for _, s := range representative {
		if rec := strings.TrimSpace(s.rec); rec != "" {
			start := data.Len() + strings.Index(s.rec, rec)
			spans = append(spans, span{rec, start, start + len(rec)})
		}
		data.WriteString(s.rec + s.end)
	}
	full := data.String()
	path := filepath.Join(t.TempDir(), "j.ndjson")
	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(path, []byte(full[:n]), 0o644); err != nil {
			t.Fatal(err)
		}
		var want []string
		torn := 0
		for _, sp := range spans {
			if sp.end <= n {
				want = append(want, sp.rec)
			} else if sp.start < n {
				torn = 1
			}
		}
		j, got := collect(t, path)
		if !reflect.DeepEqual(got, want) || j.Corrupt() != torn {
			t.Fatalf("prefix %d: visited %q corrupt %d, want %q corrupt %d", n, got, j.Corrupt(), want, torn)
		}
		marker := fmt.Sprintf(`{"marker":%d}`, n)
		if err := j.Append(json.RawMessage(marker)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, got = collect(t, path)
		j.Close()
		if want = append(want, marker); !reflect.DeepEqual(got, want) || j.Corrupt() != torn {
			t.Fatalf("prefix %d after append: visited %q corrupt %d, want %q corrupt %d", n, got, j.Corrupt(), want, torn)
		}
	}
}

func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.ndjson")
	j, _ := collect(t, path)
	defer j.Close()
	for i := 0; i < 5; i++ {
		if err := j.Append(map[string]int{"old": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Rewrite([]any{map[string]int{"live": 1}, map[string]int{"live": 2}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(map[string]int{"new": 3}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"live\":1}\n{\"live\":2}\n{\"new\":3}\n"; string(raw) != want {
		t.Fatalf("rewritten journal = %q, want %q", raw, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

// TestRewriteFailureRemovesTmp: a rename that fails (the journal's path
// is now a non-empty directory) leaves no tmp file behind.
func TestRewriteFailureRemovesTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	j, _ := collect(t, path)
	defer j.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Rewrite([]any{1}); err == nil {
		t.Fatal("Rewrite over a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind after a failed rename: %v", err)
	}
	if err := j.Rewrite([]any{func() {}}); err == nil {
		t.Fatal("Rewrite of an unmarshalable record succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind after a failed encode: %v", err)
	}
}

// TestConcurrentWritesAreWholeLines: racing Append, Write and Rewrite
// calls never interleave within a line, and appends after the rewrite
// land behind its records.
func TestConcurrentWritesAreWholeLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	j, _ := collect(t, path)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				write := j.Write
				if i%2 == 0 {
					write = j.Append
				}
				if err := write(map[string]any{"g": g, "i": i, "pad": strings.Repeat("x", 200)}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := j.Rewrite([]any{map[string]string{"rewritten": "yes"}}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	j.Close()
	j, got := collect(t, path)
	j.Close()
	if len(got) == 0 || got[0] != `{"rewritten":"yes"}` || len(got) > 101 || j.Corrupt() != 0 {
		t.Fatalf("reopen visited %d lines (first %q), corrupt %d; want the rewrite first, at most 101 lines, none corrupt", len(got), got[:min(len(got), 1)], j.Corrupt())
	}
}

// FuzzOpen: Open never fails or panics on arbitrary bytes, and its heal
// is invisible: after an Append, the next Open visits exactly what the
// first did plus the appended record, with the same corrupt count.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, first := collect(t, path)
		corrupt := j.Corrupt()
		if err := j.Append(json.RawMessage(`{"fuzz":true}`)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, second := collect(t, path)
		j.Close()
		if want := append(first, `{"fuzz":true}`); !reflect.DeepEqual(second, want) || j.Corrupt() != corrupt {
			t.Fatalf("reopen visited %q corrupt %d, want %q corrupt %d", second, j.Corrupt(), want, corrupt)
		}
	})
}
