// The submission write-ahead log. A 202 Accepted is a promise; the WAL
// makes it survive a SIGKILL. Every genuinely queued submission appends an
// accept record before the 202 goes out, every terminal transition appends
// a completion record, and a restarting Server replays the unresolved
// accepts through the normal Submit path. Replayed jobs whose results were
// already persisted are answered from the store (bit-identical, no
// recomputation — the content-hash dedup contract); only genuinely lost
// work runs again.
//
// On-disk format (a frozen contract — docs/STORAGE.md): an internal/journal
// NDJSON log of
//
//	{"op":"accept","hash":"<content hash>","req":{...Request...}}
//	{"op":"done","hash":"<content hash>","id":"f000123"}   // or "failed"/"cancelled"
//	{"op":"job","hash":"<content hash>","id":"f000123","status":"done"}
//
// Terminal records carry the job's table ID (absent in older logs, which
// still parse). "job" records, written by Compact, snapshot the job table,
// so a restarted daemon keeps answering polls for ids it once promised.
// The journal skips and counts a torn tail and heals it. Once replay has
// re-queued the losses, the Server compacts the log to the live accepts
// plus that snapshot, so it stays proportional to the in-flight set.
package service

import (
	"encoding/json"

	"repro/internal/journal"
)

// walOpAccept marks an accepted submission; terminal records use the
// job's Status string ("done", "failed", "cancelled") as their op, and
// walOpJob records one row of the compacted job-table snapshot.
const (
	walOpAccept = "accept"
	walOpJob    = "job"
)

// walRecord is one WAL line.
type walRecord struct {
	Op   string `json:"op"`
	Hash string `json:"hash"`
	// ID is the job-table id, present on terminal and job records so the
	// id → hash mapping survives a restart.
	ID string `json:"id,omitempty"`
	// Status is present on job (snapshot) records only.
	Status string `json:"status,omitempty"`
	// Req is present on accept records only: the validated submission,
	// canonicalized so replay re-validates to the identical content hash.
	Req *Request `json:"req,omitempty"`
}

// WALPending is one accepted submission with no terminal record — work a
// crashed daemon still owes its clients.
type WALPending struct {
	Hash string
	Req  Request
}

// WALJob is one durable job-table row: a terminal job id and where its
// result lives. A restarted Server loads these as tombstones so old ids
// keep resolving.
type WALJob struct {
	ID     string
	Hash   string
	Status string
}

// WAL is the submission write-ahead log. Open it with OpenWAL, hand it to
// service.New via Options.WAL (the Server replays and compacts it), and
// Close it after Drain/Close returns. Appends are serialized and synced
// to the file before they return.
type WAL struct {
	j       *journal.Journal
	pending []WALPending // open-scan snapshot, read-only afterwards
	jobs    []WALJob
}

// OpenWAL loads (or creates) the WAL at path and scans it: accepts
// without a matching terminal record become Pending, in first-accept
// order. Undecodable lines are skipped and counted in Corrupt.
func OpenWAL(path string) (*WAL, error) {
	open := map[string]*WALPending{} // hash → live accept
	jobs := map[string]WALJob{}      // id → terminal row (last wins)
	var order, jobOrder []string
	setJob := func(row WALJob) {
		if _, seen := jobs[row.ID]; !seen {
			jobOrder = append(jobOrder, row.ID)
		}
		jobs[row.ID] = row
	}
	j, err := journal.Open(path, func(line []byte) bool {
		var r walRecord
		if json.Unmarshal(line, &r) != nil || r.Hash == "" || r.Op == "" {
			return false
		}
		switch r.Op {
		case walOpAccept:
			if r.Req == nil {
				return false
			}
			if _, seen := open[r.Hash]; !seen {
				order = append(order, r.Hash)
			}
			open[r.Hash] = &WALPending{Hash: r.Hash, Req: *r.Req}
		case string(StatusDone), string(StatusFailed), string(StatusCancelled):
			delete(open, r.Hash)
			if r.ID != "" {
				setJob(WALJob{ID: r.ID, Hash: r.Hash, Status: r.Op})
			}
		case walOpJob:
			if r.ID == "" || r.Status == "" {
				return false
			}
			setJob(WALJob{ID: r.ID, Hash: r.Hash, Status: r.Status})
		default:
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	w := &WAL{j: j}
	for _, h := range order {
		if p, ok := open[h]; ok {
			w.pending = append(w.pending, *p)
			delete(open, h) // a re-accepted hash sits in order twice
		}
	}
	for _, id := range jobOrder {
		w.jobs = append(w.jobs, jobs[id])
	}
	return w, nil
}

// Pending returns the unresolved accepts found at open, in first-accept
// order. The slice is a snapshot of the open scan; later appends don't
// change it.
func (w *WAL) Pending() []WALPending { return append([]WALPending(nil), w.pending...) }

// Jobs returns the durable job-table rows found at open (snapshot
// records plus terminal records carrying ids), oldest first.
func (w *WAL) Jobs() []WALJob { return append([]WALJob(nil), w.jobs...) }

// Corrupt reports how many undecodable lines the open scan skipped.
func (w *WAL) Corrupt() int { return w.j.Corrupt() }

// Path returns the log file's path.
func (w *WAL) Path() string { return w.j.Path() }

// Accept records an accepted submission. It must return before the
// client's 202 does — that ordering is the durability guarantee: the
// record is fsynced, so it survives power loss, not only a killed process.
func (w *WAL) Accept(hash string, req Request) error {
	return w.j.Append(walRecord{Op: walOpAccept, Hash: hash, Req: &req})
}

// Resolve records a terminal transition (op is the Status string). The
// job id, when known, makes the id → hash mapping durable; "" is fine
// (replay-rejection records have no table entry).
func (w *WAL) Resolve(op, hash, id string) error {
	return w.j.Append(walRecord{Op: op, Hash: hash, ID: id})
}

// Compact rewrites the log to hold exactly the durable job-table
// snapshot (one job record per remembered terminal id) plus live (one
// accept record each), and reopens it for appending. The Server calls it
// once per startup, after replay; a Resolve racing the rewrite is lost
// with the old file, which only means the next restart replays a
// store-answered submission — harmless, by the dedup contract.
func (w *WAL) Compact(live []WALPending, jobs []WALJob) error {
	recs := make([]any, 0, len(jobs)+len(live))
	for _, jb := range jobs {
		recs = append(recs, walRecord{Op: walOpJob, ID: jb.ID, Hash: jb.Hash, Status: jb.Status})
	}
	for i := range live {
		recs = append(recs, walRecord{Op: walOpAccept, Hash: live[i].Hash, Req: &live[i].Req})
	}
	return w.j.Rewrite(recs)
}

// Close closes the log file. It is idempotent; later appends fail.
func (w *WAL) Close() error { return w.j.Close() }
