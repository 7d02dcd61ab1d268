// Package journal is the one append-only NDJSON file behind the service
// WAL, the coordinator WAL and the JSONL result store: the corrupt-tolerant
// open scan, the torn-tail heal, appends (fsynced or not) and the durable
// tmp+rename rewrite compaction uses. Record shapes are the callers'
// business. A process killed mid-append leaves at most one torn line, the
// last; Open counts it as corrupt and newline-terminates it, so the next
// append is not glued onto the garbage and lost at the following open.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrClosed is wrapped by every write to a closed Journal.
var ErrClosed = errors.New("journal closed")

// Journal is an open append-only NDJSON file, safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File // nil once closed
	corrupt int      // set by Open, read-only afterwards
}

// Open opens (creating if needed) the journal at path and calls visit on
// every non-blank line, whitespace-trimmed, in file order. visit reports
// whether it accepts the line; a rejected line is counted in Corrupt. The
// line's bytes are only valid during the call. Afterwards a torn tail is
// newline-terminated and the file is positioned for appending.
func Open(path string, visit func(line []byte) bool) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	if err := j.scan(visit); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return j, nil
}

func (j *Journal) scan(visit func([]byte) bool) error {
	sc := bufio.NewScanner(j.f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24) // a longer line fails Open
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 && !visit(line) {
			j.corrupt++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	info, err := j.f.Stat()
	if err != nil || info.Size() == 0 {
		return err
	}
	var last [1]byte
	if _, err := j.f.ReadAt(last[:], info.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	_, err = j.f.Write([]byte{'\n'})
	return err
}

// Append writes v as one JSON line and fsyncs it before returning, so the
// record survives power loss, not only a killed process. v is marshalled
// before the lock is taken.
func (j *Journal) Append(v any) error { return j.write(v, true) }

// Write writes v as one JSON line without an fsync: the record survives a
// killed process (the kernel has it) but not power loss.
func (j *Journal) Write(v any) error { return j.write(v, false) }

func (j *Journal) write(v any, sync bool) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal %s: %w", j.path, ErrClosed)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: append %s: %w", j.path, err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync %s: %w", j.path, err)
		}
	}
	return nil
}

// Rewrite replaces the journal's contents with recs, one JSON line each,
// and reopens it for appending. The records go to path+".tmp", which is
// fsynced, renamed over the journal, and made durable by an fsync of the
// parent directory: a crash at any point leaves the old journal or the
// new one, never a mix. The tmp file is removed on every error path.
func (j *Journal) Rewrite(recs []any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("journal: rewrite %s: %w", j.path, err)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal %s: %w", j.path, ErrClosed)
	}
	tmp := j.path + ".tmp"
	err := writeSynced(tmp, buf.Bytes())
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("journal: rewrite %s: %w", j.path, err)
	}
	err = syncDir(filepath.Dir(j.path))
	nf, oerr := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	j.f.Close() //nolint:errcheck // its file was renamed away
	j.f = nf    // nil if the reopen failed: later writes get ErrClosed
	if err = errors.Join(err, oerr); err != nil {
		return fmt.Errorf("journal: rewrite %s: %w", j.path, err)
	}
	return nil
}

func writeSynced(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// Close closes the file. It is idempotent; later writes wrap ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Corrupt reports how many lines the open scan's visitor rejected.
func (j *Journal) Corrupt() int { return j.corrupt }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }
