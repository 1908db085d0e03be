package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"

	"fpvm/internal/checkpoint"
)

// The journal is an append-only jsonl file in the snapshot directory.
// One "job" record marks a submission irrevocably accepted; one "done"
// record marks its outcome delivered. A daemon that dies between the
// two leaves a pending record, and the next instance replays it —
// resuming from the job's preemption snapshot when one survived,
// running it fresh otherwise. Each instance also appends one "boot"
// record at startup; the count of boot records is the boot generation
// embedded in job IDs, so a restarted daemon can never mint an ID that
// collides with anything a previous instance journaled or snapshotted —
// including submissions that were refused and never journaled. Each
// start compacts the file before appending to it, keeping only the boot
// records and the pending job records, so the journal holds what
// recovery needs rather than every job ever served.
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
	Status    Status `json:"status,omitempty"`
	// Inject and InjectSeed are the job's VM fault-injection spec, so a
	// recovered job is injected as its live twin is.
	Inject     string `json:"inject,omitempty"`
	InjectSeed uint64 `json:"inject_seed,omitempty"`
}

type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens the journal in dir, which compactJournal has made,
// for append.
func openJournal(dir string) (*journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalName),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f}, nil
}

// append writes one record followed by newline and fsyncs: a record the
// caller acted on must survive the caller's death.
func (jl *journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, err := jl.f.Write(data); err != nil {
		return err
	}
	return jl.f.Sync()
}

func (jl *journal) Close() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.f.Close()
}

// readJournal parses the journal and returns the pending job records in
// submission order, plus the number of boot records — the restarting
// instance takes boot generation boots+1, namespacing its job IDs away
// from every previous instance's. A torn trailing line — the crash
// interrupted the append — is skipped; its fsync never returned, so no
// caller acted on it.
func readJournal(dir string) (pending []journalRecord, boots uint64, err error) {
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()

	var jobs []journalRecord
	done := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn or corrupt line: nobody acted on it
		}
		switch rec.Op {
		case opJob:
			jobs = append(jobs, rec)
		case opDone:
			done[rec.ID] = true
		case opBoot:
			boots++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	for _, rec := range jobs {
		if !done[rec.ID] {
			pending = append(pending, rec)
		}
	}
	return pending, boots, nil
}

// compactJournal atomically rewrites the journal in dir to boots boot
// records followed by the pending job records, in order: everything
// readJournal would find in it, and nothing else. A crash mid-rewrite
// leaves the old journal whole.
func compactJournal(dir string, pending []journalRecord, boots uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for range boots {
		if err := enc.Encode(journalRecord{Op: opBoot}); err != nil {
			return err
		}
	}
	for _, rec := range pending {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return checkpoint.WriteFileAtomic(filepath.Join(dir, journalName), buf.Bytes())
}
