package service

import (
	"fmt"
	"os"
	"path/filepath"

	"fpvm"
	"fpvm/internal/faultinject"
)

// recoverJournaled reads the journal, compacts it to the boot records,
// the newest OutcomeRetention done records and the pending job records,
// opens it for append and read, indexes the kept done records in the job
// table, claims this instance's boot generation, and turns each pending
// record into a recovered job for the ordinary job loop. The dead
// instance already admitted, queued and journaled it, so a recovered job
// skips all three; it carries the bytes of its job-<id>.snap when one
// survived, and execute resumes from them. A job with an inject spec
// gets its injector back from the record and ignores its snapshot, which
// holds no injector counters: rerun fresh, it makes its live twin's
// decisions, and the sweep deletes the file. A record whose image no
// longer rebuilds to the journaled hash, or whose spec no longer parses,
// is failed here instead of sinking the whole recovery.
func (s *Service) recoverJournaled() ([]*job, error) {
	st, err := scanJournal(s.cfg.SnapshotDir, s.cfg.outcomeRetention())
	if err != nil {
		return nil, fmt.Errorf("service: reading journal: %w", err)
	}
	// A failed compaction leaves the old journal whole (the rewrite is
	// atomic), and it reads the same, so it costs only the space: count
	// it and recover anyway.
	if err := compactJournal(s.cfg.SnapshotDir, &st); err != nil {
		s.met.bump(&s.met.journalFailures)
	}
	if s.jnl, err = openJournal(s.cfg.SnapshotDir); err != nil {
		return nil, err
	}
	// The settled jobs of earlier instances answer as they did there:
	// GET and the events stream read their done records.
	s.jobs.jnl = s.jnl
	for _, d := range st.done {
		s.jobs.settle(d.id, d.off, len(d.line))
	}
	// Claim the next boot generation and journal it. Generations
	// namespace job IDs per instance, so a fresh ID can never collide
	// with anything a dead instance journaled or snapshotted — counting
	// job records instead would undercount whenever the old instance had
	// refusals (shed submissions burn seq but are never journaled).
	s.mu.Lock()
	s.gen = st.boots + 1
	s.mu.Unlock()
	if _, _, aerr := s.jnl.append(journalRecord{Op: opBoot}); aerr != nil {
		s.met.bump(&s.met.journalFailures)
	}

	var jobs []*job
	for _, rec := range st.pending {
		fail := func(detail string) {
			s.settle(&JobOutcome{ID: rec.ID, Tenant: rec.Tenant, Workload: rec.Workload,
				Status: StatusFailed, Detail: "recovery: " + detail, Recovered: true})
		}
		entry, rerr := s.reg.Register(rec.Workload)
		if rerr != nil {
			fail(rerr.Error())
			continue
		}
		if entry.ID != rec.ImageID {
			fail(fmt.Sprintf("rebuilt image hash %s != journaled %s", entry.ID, rec.ImageID))
			continue
		}
		var inj *faultinject.Injector
		if rec.Inject != "" {
			var ierr error
			if inj, ierr = faultinject.ParseSpec(rec.Inject, rec.InjectSeed); ierr != nil {
				fail("bad inject spec: " + ierr.Error())
				continue
			}
		}
		j := &job{
			id: rec.ID,
			req: JobRequest{Tenant: rec.Tenant, ImageID: rec.ImageID,
				Alt: fpvm.AltKind(rec.Alt), Precision: rec.Precision,
				InjectSpec: rec.Inject, InjectSeed: rec.InjectSeed},
			entry:     entry,
			deadline:  rec.Deadline,
			recovered: true,
			inject:    inj,
			done:      make(chan *JobOutcome, 1),
		}
		// An unreadable snapshot forfeits only the progress it held: the
		// job still runs fresh, which is always correct.
		if inj == nil {
			snap, serr := os.ReadFile(s.snapPath(rec.ID))
			switch {
			case serr == nil:
				j.snap = snap
			case !os.IsNotExist(serr):
				s.met.bump(&s.met.recoveryRejects)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// settleRecovered puts the recovered jobs on their tenants' queues,
// waits until every one has settled, then sweeps the snapshot directory.
// It returns how many ran to an answer (recovered, degraded or
// deadline-exceeded); outcomes land in the job table under the original
// IDs for clients of the dead instance to re-query, and each terminal
// outcome's done record closes its journal entry.
func (s *Service) settleRecovered(jobs []*job) int {
	s.mu.Lock()
	for _, j := range jobs {
		s.queues[j.req.Tenant] = append(s.queues[j.req.Tenant], j)
		s.queued++
	}
	s.updatePressureLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	recovered := 0
	for _, j := range jobs {
		switch (<-j.done).Status {
		case StatusRecovered, StatusDegraded, StatusDeadline:
			recovered++
		}
	}
	s.sweepStaleSnapshots()
	return recovered
}

// sweepStaleSnapshots removes snapshot files recovery can no longer tie
// to any journaled job: job-*.snap whose record was already closed out
// (or, before the journal-before-publish ordering fix, never written),
// fleet-*.snap left behind by older daemons, which recovered through the
// fleet's slot-named files, and the temp files of writes a crash
// interrupted — checkpoint.WriteFileAtomic names them <file>.tmp<digits>,
// so a torn snapshot is job-<id>.snap.tmp<digits> and a torn journal
// compaction journal.jsonl.tmp<digits>. It runs once every recovered job
// has settled, and a finished job deletes its own snapshot, so
// SnapshotDir cannot accumulate unreferenced files across restarts.
func (s *Service) sweepStaleSnapshots() {
	for _, pat := range []string{"job-*.snap", "fleet-*.snap", "*.snap.tmp*", journalName + ".tmp*"} {
		matches, _ := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, pat))
		for _, p := range matches {
			removeQuiet(p)
		}
	}
}
