package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"

	"fpvm/internal/checkpoint"
)

// The journal is an append-only jsonl file in the snapshot directory.
// One "job" record marks a submission irrevocably accepted; one "done"
// record marks its outcome delivered and carries that outcome, with the
// events the job emitted before it, so the journal is the one store of
// settled answers: the job table keeps only where each done record lies
// (table.go). A daemon that dies between the two leaves a pending
// record, and the next instance replays it — resuming from the job's
// preemption snapshot when one survived, running it fresh otherwise.
// Each instance also appends one "boot" record at startup; the count of
// boot records is the boot generation embedded in job IDs, so a
// restarted daemon can never mint an ID that collides with anything a
// previous instance journaled or snapshotted — including submissions
// that were refused and never journaled. Each start compacts the file
// before appending to it, keeping only the boot records, the newest
// OutcomeRetention done records and the pending job records, so the
// journal holds what recovery and the job table need rather than every
// job ever served.
const (
	journalName = "journal.jsonl"
	opJob       = "job"
	opDone      = "done"
	opBoot      = "boot"
)

type journalRecord struct {
	Op        string `json:"op"`
	ID        string `json:"id"`
	Tenant    string `json:"tenant,omitempty"`
	Workload  string `json:"workload,omitempty"`
	ImageID   string `json:"image,omitempty"`
	Alt       string `json:"alt,omitempty"`
	Precision uint   `json:"precision,omitempty"`
	Deadline  uint64 `json:"deadline,omitempty"`
	// Inject and InjectSeed are the job's VM fault-injection spec, so a
	// recovered job is injected as its live twin is.
	Inject     string `json:"inject,omitempty"`
	InjectSeed uint64 `json:"inject_seed,omitempty"`
	// Outcome and Events make a done record the job's settled answer:
	// its terminal outcome, in the wire form GET /v1/jobs/{id} serves,
	// and the events the job emitted before it, oldest first.
	Outcome *JobOutcome    `json:"outcome,omitempty"`
	Events  []journalEvent `json:"events,omitempty"`
}

// journalEvent is one event of a done record: its Seq is its position
// plus one, and it is never terminal.
type journalEvent struct {
	Status Status `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// journal is the open journal. One descriptor serves both directions:
// appends go to the end (O_APPEND), and the job table reads settled
// outcomes back with ReadAt, which still works after Close.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	size   int64 // where the next record starts
	closed bool
}

// openJournal opens the journal in dir, which compactJournal has made,
// for append and read.
func openJournal(dir string) (*journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalName),
		os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &journal{f: f, size: fi.Size()}, nil
}

// append writes one record followed by newline and fsyncs: a record the
// caller acted on must survive the caller's death. It returns where the
// record starts and its length without the newline, which read takes.
func (jl *journal) append(rec journalRecord) (off int64, n int, err error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return 0, 0, err
	}
	data = append(data, '\n')
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return 0, 0, os.ErrClosed
	}
	off = jl.size
	w, err := jl.f.Write(data)
	jl.size += int64(w)
	if err != nil {
		return 0, 0, err
	}
	if err := jl.f.Sync(); err != nil {
		return 0, 0, err
	}
	return off, len(data) - 1, nil
}

// read decodes the n-byte record at off with one pread. Records never
// move once written: compaction writes a new file and renames it into
// place, and this descriptor keeps the file it opened.
func (jl *journal) read(off int64, n int) (journalRecord, error) {
	buf := make([]byte, n)
	var rec journalRecord
	if _, err := jl.f.ReadAt(buf, off); err != nil {
		return rec, err
	}
	err := json.Unmarshal(buf, &rec)
	return rec, err
}

// Close ends appends. Reads go on, so a drained service still answers
// for the jobs it settled.
func (jl *journal) Close() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.closed = true
}

// journalState is what a start reads from the journal: the pending job
// records in submission order, the newest done records that carry an
// outcome, oldest first, and the number of boot records — the
// restarting instance takes boot generation boots+1, namespacing its job
// IDs away from every previous instance's.
type journalState struct {
	pending []journalRecord
	done    []doneLine
	boots   uint64
}

// doneLine is one done record a start keeps: its job ID, its line
// without the newline, and where that line starts in the journal
// (compactJournal moves it to the rewritten file).
type doneLine struct {
	id   string
	line []byte
	off  int64
}

// scanJournal parses the journal in dir, keeping at most keep done
// records. Lines have no length limit: a done record carries the job's
// whole stdout. A torn trailing line — the crash interrupted the
// append — is skipped; its fsync never returned, so no caller acted on
// it. A done record without an outcome, as daemons before outcome
// journaling wrote them, closes its job and is not kept.
func scanJournal(dir string, keep int) (journalState, error) {
	var st journalState
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	defer f.Close()

	var jobs []journalRecord
	done := make(map[string]bool)
	br := bufio.NewReader(f)
	var off int64
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return journalState{}, rerr
		}
		start := off
		off += int64(len(line))
		line = bytes.TrimSuffix(line, []byte{'\n'})
		var rec journalRecord
		if len(line) > 0 && json.Unmarshal(line, &rec) == nil {
			switch rec.Op {
			case opJob:
				jobs = append(jobs, rec)
			case opDone:
				done[rec.ID] = true
				if rec.Outcome != nil && keep > 0 {
					st.done = append(st.done, doneLine{id: rec.ID, line: line, off: start})
					if len(st.done) == 2*keep {
						st.done = append(st.done[:0], st.done[keep:]...)
					}
				}
			case opBoot:
				st.boots++
			}
		}
		if rerr != nil {
			break
		}
	}
	if len(st.done) > keep {
		st.done = st.done[len(st.done)-keep:]
	}
	for _, rec := range jobs {
		if !done[rec.ID] {
			st.pending = append(st.pending, rec)
		}
	}
	return st, nil
}

// compactJournal atomically rewrites the journal in dir to st's boot
// records, kept done records and pending job records, in that order:
// everything scanJournal keeps of it, and nothing else. On success each
// kept done record's offset is its place in the new file; a crash or a
// failure mid-rewrite leaves the old journal whole, where the offsets
// scanJournal read still hold.
func compactJournal(dir string, st *journalState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for range st.boots {
		if err := enc.Encode(journalRecord{Op: opBoot}); err != nil {
			return err
		}
	}
	offs := make([]int64, len(st.done))
	for i, d := range st.done {
		offs[i] = int64(buf.Len())
		buf.Write(d.line)
		buf.WriteByte('\n')
	}
	for _, rec := range st.pending {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(dir, journalName), buf.Bytes()); err != nil {
		return err
	}
	for i := range st.done {
		st.done[i].off = offs[i]
	}
	return nil
}
