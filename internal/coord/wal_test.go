package coord

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// coordWALSequence drives a fixed append-plus-compact sequence through a
// fresh coordinator WAL at path. It returns the file's bytes after the
// appends and again after the reopen, compaction and one more append.
func coordWALSequence(t *testing.T, path string) (appended, compacted []byte) {
	t.Helper()
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	c1 := WALCell{Hash: "h1", Job: cheapJob(1), Tenant: "acme", Priority: 2}
	c2 := WALCell{Hash: "h2", Job: cheapJob(2)}
	sub := WALSubscription{ID: "sub-1", URL: "http://hook.example/a?x=<&>", Secret: "s3crét", Hashes: []string{"h1", "h2"}}
	steps := []func() error{
		func() error { return w.Accept(c1) },
		func() error { return w.Accept(c2) },
		func() error { return w.Sub(sub) },
		func() error { return w.Resolve(walOpDone, "h1") },
		func() error { return w.Delivered("sub-1", "h1") },
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
	if err := w.Compact(w.Pending(), w.Subs()); err != nil {
		t.Fatal(err)
	}
	if err := w.Resolve(walOpFailed, "h2"); err != nil {
		t.Fatal(err)
	}
	if compacted, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return appended, compacted
}

// TestWALBytesFrozen: the coordinator WAL's on-disk bytes for a fixed
// sequence match fixtures written by the implementation that predates
// internal/journal. The fixtures are a contract; never regenerate them.
func TestWALBytesFrozen(t *testing.T) {
	appended, compacted := coordWALSequence(t, filepath.Join(t.TempDir(), "coord.wal"))
	for name, got := range map[string][]byte{"coord_wal_appended.golden": appended, "coord_wal_compacted.golden": compacted} {
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
// again is one pending cell, not two.
func TestWALReacceptPendingOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	log := `{"op":"accept","hash":"h1","job":{"circuit":"Adder16","method":"Ours","metric":"NMED","budget":0.0244,"scale":"quick","seed":1}}
{"op":"done","hash":"h1"}
{"op":"accept","hash":"h1","job":{"circuit":"Adder16","method":"Ours","metric":"NMED","budget":0.0244,"scale":"quick","seed":1}}
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
