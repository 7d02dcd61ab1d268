package service

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// serviceWALSequence drives a fixed append-plus-compact sequence through
// a fresh service WAL at path. It returns the file's bytes after the
// appends and again after the reopen, compaction and one more append.
func serviceWALSequence(t *testing.T, path string) (appended, compacted []byte) {
	t.Helper()
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2, r3 := quickReq(1), quickReq(2), Request{Verilog: "module m(a, y); <&> endmodule", Metric: "er", Budget: 0.05}
	steps := []func() error{
		func() error { return w.Accept("h1", r1) },
		func() error { return w.Accept("h2", r2) },
		func() error { return w.Accept("h3", r3) },
		func() error { return w.Resolve(string(StatusDone), "h1", "f000001") },
		func() error { return w.Resolve(string(StatusFailed), "h3", "") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if appended, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Compact(w.Pending(), w.Jobs()); err != nil {
		t.Fatal(err)
	}
	if err := w.Resolve(string(StatusCancelled), "h2", "f000002"); err != nil {
		t.Fatal(err)
	}
	if compacted, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return appended, compacted
}

// TestWALBytesFrozenAcrossJournal: the service WAL's on-disk bytes for a
// fixed sequence match fixtures written by the implementation that
// predates internal/journal. The fixtures are a contract; never
// regenerate them.
func TestWALBytesFrozenAcrossJournal(t *testing.T) {
	appended, compacted := serviceWALSequence(t, filepath.Join(t.TempDir(), "queue.wal"))
	for name, got := range map[string][]byte{"service_wal_appended.golden": appended, "service_wal_compacted.golden": compacted} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s mismatch:\n got %q\nwant %q", name, got, want)
		}
	}
}

// TestWALReacceptPendingOnce: a hash accepted, resolved and accepted
// again is one pending submission, not two.
func TestWALReacceptPendingOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	log := `{"op":"accept","hash":"h1","req":{"circuit":"Adder16","metric":"nmed","budget":0.0244,"seed":1}}
{"op":"done","hash":"h1","id":"f000001"}
{"op":"accept","hash":"h1","req":{"circuit":"Adder16","metric":"nmed","budget":0.0244,"seed":1}}
`
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Pending(); len(got) != 1 || got[0].Hash != "h1" {
		t.Fatalf("Pending() = %+v, want the one re-accepted h1", got)
	}
}
