package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/workloads"
)

// Satellite (a): deadline semantics must not diverge between a live run
// and a crashed-then-recovered one. The twin protocol: the same
// deadline-bounded submission runs once uninterrupted and once suspended
// mid-flight (well before the deadline) and recovered by a fresh
// instance. Both must report the same status, a cycle count inside
// [deadline, full-run), and the same partial-result shape — no final
// digest, stdout a prefix of the full run's. Pre-fix, recovery ran the
// job to completion and labelled the full result late: full cycles, full
// stdout, and a digest a cancelled run can never have.
func TestDeadlineTwinAcrossRecovery(t *testing.T) {
	live := startService(t, Config{Workers: 1, PreemptQuantum: 2_000})
	e := registerLorenz(t, live)
	full := live.Submit(JobRequest{Tenant: "twin", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if full.Status != StatusCompleted {
		t.Fatalf("reference run: %s (%s)", full.Status, full.Detail)
	}
	deadline := full.Cycles / 2

	twinLive := live.Submit(JobRequest{
		Tenant: "twin", ImageID: e.ID, Alt: fpvm.AltBoxed, DeadlineCycles: deadline,
	})
	if twinLive.Status != StatusDeadline {
		t.Fatalf("live twin: %s (%s), want deadline-exceeded", twinLive.Status, twinLive.Detail)
	}

	// The crashed twin: held at dispatch, drained so it suspends at its
	// first trap boundary (~one quantum, far below the deadline), then
	// recovered by a fresh instance that must perform the cancellation.
	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e2 := registerLorenz(t, s)
	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }
	o := s.SubmitAsync(JobRequest{
		Tenant: "twin", ImageID: e2.ID, Alt: fpvm.AltBoxed, DeadlineCycles: deadline,
	})
	if phaseRank(o.Status) == 2 {
		t.Fatalf("async twin settled before dispatch: %s (%s)", o.Status, o.Detail)
	}
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.inflight == 1 })
	drained := make(chan int, 1)
	go func() { drained <- s.Drain() }()
	waitFor(t, func() bool { return s.State() == StateDraining })
	close(block)
	if n := <-drained; n != 1 {
		t.Fatalf("drain suspended %d jobs, want 1", n)
	}
	if so, ok := s.Outcome(o.ID); !ok || so.Status != StatusSuspended {
		t.Fatalf("twin not suspended before recovery: %+v (ok=%v)", so, ok)
	}

	s2 := New(Config{Workers: 1, SnapshotDir: dir})
	recovered, err := s2.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", recovered)
	}
	twinRec, ok := s2.Outcome(o.ID)
	if !ok {
		t.Fatalf("recovered twin %s has no outcome", o.ID)
	}

	if twinRec.Status != twinLive.Status {
		t.Fatalf("twin statuses diverge: recovered %s (%s), live %s",
			twinRec.Status, twinRec.Detail, twinLive.Status)
	}
	if !twinRec.Recovered {
		t.Fatal("recovered twin not flagged Recovered")
	}
	for name, twin := range map[string]*JobOutcome{"live": twinLive, "recovered": twinRec} {
		if twin.Cycles < deadline || twin.Cycles >= full.Cycles {
			t.Fatalf("%s twin cancelled at %d cycles; want within [deadline %d, full %d)",
				name, twin.Cycles, deadline, full.Cycles)
		}
		if twin.Digest != "" {
			t.Fatalf("%s twin carries a final-state digest %q; a cancelled run has none", name, twin.Digest)
		}
		if !strings.HasPrefix(full.Stdout, twin.Stdout) || twin.Stdout == full.Stdout {
			t.Fatalf("%s twin stdout is not a strict prefix of the full run's", name)
		}
	}
}

// A recovered job's deadline budget counts from the clock its snapshot
// restored, not from zero. The job is drained at c0 ≈ 0.4·full with a
// deadline of 0.6·full and restarted under a quantum of 2·full: the
// restored job has 0.2·full of budget left and must be cancelled inside
// [deadline, full). Counted from zero, its first slice would be capped at
// 0.6·full only, and from c0 that runs the job to completion.
func TestRecoveredDeadlineCountsFromRestoredClock(t *testing.T) {
	live := startService(t, Config{Workers: 1})
	full := live.Submit(JobRequest{Tenant: "t", ImageID: registerLorenz(t, live).ID, Alt: fpvm.AltBoxed})
	if full.Status != StatusCompleted {
		t.Fatalf("reference run: %s (%s)", full.Status, full.Detail)
	}
	deadline := full.Cycles * 3 / 5

	dir := t.TempDir()
	id := suspendAfterOneSlice(t, dir, full.Cycles*2/5, JobRequest{DeadlineCycles: deadline})

	s2 := New(Config{Workers: 1, PreemptQuantum: 2 * full.Cycles, SnapshotDir: dir})
	if _, err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if s2.met.recoveryRejects != 0 {
		t.Fatal("the drained job's snapshot was rejected; the restored clock went untested")
	}
	rec, ok := s2.Outcome(id)
	if !ok {
		t.Fatalf("recovered job %s has no outcome", id)
	}
	if rec.Status != StatusDeadline || !rec.Recovered {
		t.Fatalf("recovered job ended %s (%s) at %d cycles, recovered=%v; want a recovered deadline-exceeded",
			rec.Status, rec.Detail, rec.Cycles, rec.Recovered)
	}
	if rec.Cycles < deadline || rec.Cycles >= full.Cycles {
		t.Fatalf("cancelled at %d cycles; want within [deadline %d, full %d)", rec.Cycles, deadline, full.Cycles)
	}
}

// A recovered job whose snapshot VM.Restore rejects — torn in half, or
// written under wire version 1, which this build refuses — runs fresh on
// a new VM: the reject is counted, and the job still finishes
// bit-identical to an uninterrupted run.
func TestRecoveryRunsFreshPastTornSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }},
		{"version-1", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1)
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id := suspendAfterOneSlice(t, dir, 2_000, JobRequest{})
			snap := filepath.Join(dir, "job-"+id+".snap")
			data, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snap, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			s := New(Config{Workers: 1, SnapshotDir: dir})
			if _, err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Drain()
			if s.met.recoveryRejects != 1 {
				t.Fatalf("recovery_rejects_total = %d, want 1 for the %s snapshot", s.met.recoveryRejects, tc.name)
			}
			// One VM to try the snapshot on, one to run the job fresh.
			if got := s.PoolStats().Misses; got != 2 {
				t.Fatalf("%d VM builds for a job whose snapshot was rejected; want 2", got)
			}
			o, ok := s.Outcome(id)
			if !ok {
				t.Fatalf("recovered job %s has no outcome", id)
			}
			if o.Status != StatusRecovered || o.Detail != "completed after daemon restart" {
				t.Fatalf("recovered job ended %s (%s), want a fresh recovered run", o.Status, o.Detail)
			}
			e := registerLorenz(t, s)
			ref, err := fpvm.Run(e.Image, jobVMConfig(e, fpvm.AltBoxed, 0))
			if err != nil {
				t.Fatal(err)
			}
			if o.Stdout != ref.Stdout || o.Digest != digestOf(t, ref) {
				t.Fatal("fresh recovered run diverged from an uninterrupted run")
			}
		})
	}
}

// suspendAfterOneSlice submits req (tenant "t", boxed lorenz) to a
// service persisting into dir under the given quantum, drains it after
// the job's first slice, and returns the suspended job's ID; its
// job-<id>.snap holds the state at that first preemption.
func suspendAfterOneSlice(t *testing.T, dir string, quantum uint64, req JobRequest) string {
	t.Helper()
	s := New(Config{Workers: 1, PreemptQuantum: quantum, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	req.Tenant, req.ImageID, req.Alt = "t", registerLorenz(t, s).ID, fpvm.AltBoxed
	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }
	o := s.SubmitAsync(req)
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.inflight == 1 })
	drained := make(chan int, 1)
	go func() { drained <- s.Drain() }()
	waitFor(t, func() bool { return s.State() == StateDraining })
	close(block)
	if n := <-drained; n != 1 {
		t.Fatalf("drain suspended %d jobs, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-"+o.ID+".snap")); err != nil {
		t.Fatalf("suspended job left no snapshot: %v", err)
	}
	return o.ID
}

// Satellite (b), ordering half: a job must be journaled before it is
// claimable by any worker. The hook fires under s.mu at the instant of
// publication — the journal read there must already hold the job record,
// or a crash in that window would orphan the worker's snapshot and done
// record (done-before-job). Pre-fix, the journal append ran after the
// queue insert.
func TestJournalPrecedesPublication(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	e := registerLorenz(t, s)

	var hookErr error
	checked := 0
	s.testHookPreSignal = func(j *job) {
		checked++
		pending, _, err := readJournal(dir)
		if err != nil {
			hookErr = err
			return
		}
		for _, rec := range pending {
			if rec.ID == j.id {
				return
			}
		}
		hookErr = fmt.Errorf("job %s became claimable with no journal record", j.id)
	}

	if o := s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed}); o.Status != StatusCompleted {
		t.Fatalf("submission: %s (%s)", o.Status, o.Detail)
	}
	if checked == 0 {
		t.Fatal("publication hook never fired; the ordering went unchecked")
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
}

// Satellite (b), sweep half: recovery must remove snapshot files it
// cannot tie to any journaled job — orphans from the pre-fix ordering
// window, fleet debris from rejected recoveries, and the temp files of
// interrupted atomic writes, named as os.CreateTemp names them (a torn
// snapshot and a torn journal compaction). Pre-fix they accumulated in
// SnapshotDir forever; the temp files did until the sweep matched the
// digits CreateTemp appends.
func TestRecoverySweepsOrphanSnapshots(t *testing.T) {
	dir := t.TempDir()
	orphans := []string{"job-j9_00042_ghost.snap", "fleet-0007-ghost.snap",
		"job-j9_00043_ghost.snap.tmp3418829871", journalName + ".tmp2200417931"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Config{Workers: 1, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived recovery", name)
		}
	}
	// The journal itself must survive the sweep.
	if _, err := os.Stat(filepath.Join(dir, journalName)); err != nil {
		t.Fatalf("sweep took the journal with it: %v", err)
	}
}

// Satellite (c): quarantine landing between admission and dispatch must
// refuse the job at dispatch with the structured quarantine reason.
// Pre-fix, dispatch never re-checked (and a second registry Get could
// even resolve a different entry), so a job admitted moments before a
// panic ran a quarantined image anyway.
func TestQuarantineRecheckedAtDispatch(t *testing.T) {
	s := startService(t, Config{Workers: 1})
	e := registerLorenz(t, s)

	var once sync.Once
	s.testHookDispatch = func(*job) {
		once.Do(func() { s.Registry().Quarantine(e.ID, "raced in after admission") })
	}

	o := s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if o.Status != StatusFailed || o.Reason != ReasonQuarantined {
		t.Fatalf("raced job: %s/%s (%s), want failed/quarantined", o.Status, o.Reason, o.Detail)
	}
	if !strings.Contains(o.Detail, "between admission and dispatch") {
		t.Fatalf("refusal does not name the dispatch re-check: %q", o.Detail)
	}
	// The operator's quarantine holds for every later submission too.
	if o := s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed}); o.Reason != ReasonQuarantined {
		t.Fatalf("post-quarantine submission: %s/%s, want quarantined refusal", o.Status, o.Reason)
	}
}

// Satellite (d): Drain's count. Two concurrent callers must report the
// same (correct) count — pre-fix the second returned 0 immediately — and
// the count must survive outcome-store eviction: with OutcomeRetention
// far below the suspension count, a scan of the bounded store would
// under-count (pre-fix it did exactly that).
func TestConcurrentDrainsAgreeUnderEviction(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir, OutcomeRetention: 2})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)

	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }

	const jobs = 4 // 1 held at dispatch + 3 queued, all suspended by the drain
	outs := make(chan *JobOutcome, jobs)
	for i := 0; i < jobs; i++ {
		go func() { outs <- s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed}) }()
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inflight == 1 && s.queued == jobs-1
	})

	counts := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() { counts <- s.Drain() }()
	}
	waitFor(t, func() bool { return s.State() == StateDraining })
	close(block)

	a, b := <-counts, <-counts
	for i := 0; i < jobs; i++ {
		if o := <-outs; o.Status != StatusSuspended {
			t.Fatalf("drained job ended %s (%s), want suspended", o.Status, o.Detail)
		}
	}
	if a != b {
		t.Fatalf("concurrent Drain calls disagree: %d vs %d", a, b)
	}
	if a != jobs {
		t.Fatalf("Drain reported %d suspensions, want %d (outcome store held at most 2)", a, jobs)
	}
	pending, _, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != jobs {
		t.Fatalf("journal holds %d pending jobs, want %d", len(pending), jobs)
	}
}

// Satellite (e): a refund landing after the tenant's bucket was evicted
// (cardinality pressure between take and the enqueue refusal) must
// recreate the bucket holding the returned token. Pre-fix the refund
// silently no-op'd — eviction forgot a debt, not just state.
func TestRefundSurvivesBucketEviction(t *testing.T) {
	clock := func() time.Time { return time.Unix(0, 0) }
	a := newAdmission(TenantConfig{}, map[string]TenantConfig{
		"a": {RatePerSec: 0.001, Burst: 1},
		"b": {RatePerSec: 0.001, Burst: 1},
	}, clock, 1)

	if ok, _ := a.take("a"); !ok {
		t.Fatal("tenant a's burst token missing")
	}
	// Cap 1: creating b's bucket evicts a's (empty, mid-refill → LRU).
	if ok, _ := a.take("b"); !ok {
		t.Fatal("tenant b's burst token missing")
	}
	a.mu.Lock()
	evicted := a.buckets["a"] == nil
	a.mu.Unlock()
	if !evicted {
		t.Fatal("test precondition broken: tenant a's bucket was not evicted")
	}

	a.refund("a")

	a.mu.Lock()
	b := a.buckets["a"]
	a.mu.Unlock()
	if b == nil {
		t.Fatal("refund after eviction was dropped: no bucket recreated for tenant a")
	}
	if b.tokens != 1 { // burst(1) − the taken token + the refund, capped at burst
		t.Fatalf("recreated bucket holds %v tokens, want the 1 refunded token", b.tokens)
	}
}

// A drained job's snapshot is persisted once. Pre-fix, execute persisted
// the preemption and suspend then persisted the same bytes again: two
// more fsyncs, and a second svc.persist fault check, so a single injected
// persist fault could never forfeit a drained job's snapshot. The
// service persists at every preemption here, so the drained preemption
// is due under the interval rule and the drain rule both, and must still
// be written once. The injector arms no rule; it only counts the checks.
func TestDrainPersistsSuspendedJobOnce(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1)
	s := New(Config{Workers: 1, PreemptQuantum: 50_000, SnapshotDir: dir, Inject: inj})
	s.persistEvery = 1
	dispatched := holdDispatchUntilDrain(s)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)

	out := make(chan *JobOutcome, 1)
	go func() { out <- s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed}) }()
	<-dispatched
	if n := s.Drain(); n != 1 {
		t.Fatalf("Drain suspended %d jobs, want 1", n)
	}
	if o := <-out; o.Status != StatusSuspended {
		t.Fatalf("job ended %s (%s), want suspended after its first slice", o.Status, o.Detail)
	}
	if got := inj.Stats(faultinject.SiteSvcPersist).Checks; got != 1 {
		t.Fatalf("svc.persist consulted %d times for one preemption of one drained job; want 1", got)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "job-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("drained job left %d snapshot files, want 1", len(snaps))
	}
}

// The preemption that blows a deadline ends the job, so it is never
// persisted: a job cancelled at its k-th preemption of a service that
// persists at every preemption consults svc.persist k−1 times. Pre-fix,
// execute persisted every preemption and finish deleted the last file at
// once — a Snapshot, a temp write, two fsyncs, a rename and a remove
// thrown away per deadline job. The injector arms no rule; it only
// counts the checks.
func TestDeadlinePreemptionIsNotPersisted(t *testing.T) {
	probe := startService(t, Config{Workers: 1})
	e := registerLorenz(t, probe)
	full := probe.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if full.Status != StatusCompleted {
		t.Fatalf("reference run: %s (%s)", full.Status, full.Detail)
	}
	quantum, deadline := full.Cycles/8, full.Cycles/2

	// k: the job's preemptions, counted on a VM of its own whose slices
	// are capped at the deadline the way execute caps them. Its cache is
	// private and cold, as the service's is for the first job on an image.
	vm, err := fpvm.Prepare(e.Image, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for {
		q := quantum
		if rem := deadline - vm.Cycles(); rem < q {
			q = rem
		}
		vm.SetPreemptQuantum(q)
		res, err := vm.RunSlice()
		if err != nil || !res.Preempted {
			t.Fatalf("reference slice %d: err=%v; the job must be preempted until its deadline", k+1, err)
		}
		k++
		if res.Cycles >= deadline {
			break
		}
	}

	inj := faultinject.New(1)
	s := startService(t, Config{Workers: 1, PreemptQuantum: quantum, SnapshotDir: t.TempDir(), Inject: inj})
	s.persistEvery = 1
	o := s.Submit(JobRequest{Tenant: "t", ImageID: registerLorenz(t, s).ID, Alt: fpvm.AltBoxed, DeadlineCycles: deadline})
	if o.Status != StatusDeadline {
		t.Fatalf("job ended %s (%s), want deadline-exceeded", o.Status, o.Detail)
	}
	if got := inj.Stats(faultinject.SiteSvcPersist).Checks; got != uint64(k-1) {
		t.Fatalf("svc.persist consulted %d times for a job cancelled at preemption %d; want %d", got, k, k-1)
	}
}

// Every slice of a job runs on the VM built when it was dispatched: one
// VM build per job, however many slices the job takes.
func TestOneVMPerJob(t *testing.T) {
	s := startService(t, Config{Workers: 1, PreemptQuantum: 50_000})
	e := registerLorenz(t, s)
	const jobs = 3
	for i := 0; i < jobs; i++ {
		if o := s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed}); o.Status != StatusCompleted {
			t.Fatalf("job %d ended %s (%s)", i, o.Status, o.Detail)
		}
	}
	if got := s.PoolStats().Misses; got != jobs {
		t.Fatalf("%d VM builds for %d multi-slice jobs; want one per job", got, jobs)
	}
}

// A job's virtual cycles are a property of the job: its image, its
// config and its request. Every job on an image adopts from the store
// trained at registration and never writes to it, so the first job on a
// fresh image costs what the third does, and makes or blows a deadline
// exactly as the third does. Pre-fix, jobs published into the image's
// store as they ran: the first three-body mpfr job paid the cold decodes
// and trace builds (1,695,360 cycles against 1,506,330 for the next
// two), so a deadline the warm jobs made was blown by the first.
//
// The short deadline sits one quantum below the cost, where the job is
// cancelled at a preemption boundary. A deadline one cycle below the cost
// is crossed by the job's final step, the exit, so the job runs whole and
// is still deadline-exceeded: a completed job never reports more cycles
// than its deadline.
func TestJobCyclesIndependentOfImageHistory(t *testing.T) {
	cfg := Config{Workers: 1, PreemptQuantum: 50_000}
	submit := func(s *Service, deadline uint64) *JobOutcome {
		e, err := s.Registry().Register("three_body_simulation")
		if err != nil {
			t.Fatal(err)
		}
		return s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltMPFR, DeadlineCycles: deadline})
	}

	s := startService(t, cfg)
	var cycles [3]uint64
	var digest string
	for i := range cycles {
		o := submit(s, 0)
		if o.Status != StatusCompleted {
			t.Fatalf("job %d: %s (%s)", i+1, o.Status, o.Detail)
		}
		cycles[i], digest = o.Cycles, o.Digest
	}
	if cycles[1] != cycles[0] || cycles[2] != cycles[0] {
		t.Fatalf("back-to-back jobs on one image cost %v cycles; want all equal", cycles)
	}

	cost, short := cycles[0], cycles[0]-cfg.PreemptQuantum
	fresh := startService(t, cfg)
	var blownAt uint64
	for i, d := range []uint64{cost, short, cost, short, cost - 1} {
		o := submit(fresh, d)
		switch {
		case d == cost && (o.Status != StatusCompleted || o.Cycles != cost):
			t.Errorf("job %d on a fresh service, deadline %d (its cost): %s at %d cycles (%s), want completed at %d",
				i+1, d, o.Status, o.Cycles, o.Detail, cost)
		case d == cost-1 && (o.Status != StatusDeadline || o.Cycles != cost || o.Digest != digest):
			t.Errorf("job %d on a fresh service, deadline %d (its cost - 1): %s at %d cycles, digest %q (%s); want deadline-exceeded at %d with the whole result, digest %q",
				i+1, d, o.Status, o.Cycles, o.Digest, o.Detail, cost, digest)
		case d == short && o.Status != StatusDeadline:
			t.Errorf("job %d on a fresh service, deadline %d: %s at %d cycles (%s), want deadline-exceeded",
				i+1, d, o.Status, o.Cycles, o.Detail)
		case d == short && blownAt == 0:
			blownAt = o.Cycles
		case d == short && o.Cycles != blownAt:
			t.Errorf("job %d blew deadline %d at %d cycles, job 2 at %d", i+1, d, o.Cycles, blownAt)
		}
	}
}

// One tenant's faults stay in that tenant's job: a job whose inject spec
// forces decode faults distrusts decodes and traces in its own cache
// only, so the next clean job on the image, from another tenant, costs
// exactly what the clean job before it did. Pre-fix, the faulty job's
// invalidations propagated into the image's shared store, and the clean
// job after it paid to rebuild what the one before it had adopted.
func TestInjectedFaultsLeaveOtherTenantsCyclesUnchanged(t *testing.T) {
	s := startService(t, Config{Workers: 1})
	e := registerLorenz(t, s)
	clean := JobRequest{Tenant: "bystander", ImageID: e.ID, Alt: fpvm.AltBoxed}

	var before [2]*JobOutcome
	for i := range before {
		if before[i] = s.Submit(clean); before[i].Status != StatusCompleted {
			t.Fatalf("clean job %d: %s (%s)", i+1, before[i].Status, before[i].Detail)
		}
	}
	faulty := s.Submit(JobRequest{Tenant: "chaos", ImageID: e.ID, Alt: fpvm.AltBoxed,
		InjectSpec: "decode:every=7", InjectSeed: 1})
	if faulty.Status != StatusCompleted && faulty.Status != StatusDegraded {
		t.Fatalf("faulty job: %s (%s)", faulty.Status, faulty.Detail)
	}
	after := s.Submit(clean)
	if after.Status != StatusCompleted {
		t.Fatalf("clean job after the faulty one: %s (%s)", after.Status, after.Detail)
	}
	if after.Cycles != before[1].Cycles || after.Digest != before[1].Digest {
		t.Fatalf("clean job cost %d cycles (digest %s) after a faulty job, %d (digest %s) before it",
			after.Cycles, after.Digest, before[1].Cycles, before[1].Digest)
	}
	if before[0].Cycles != before[1].Cycles {
		t.Fatalf("the first two clean jobs cost %d and %d cycles", before[0].Cycles, before[1].Cycles)
	}
}

// Every start compacts the journal to what recovery and the job table
// need: the boot records, whose count is the boot generation, the newest
// OutcomeRetention done records and the pending job records. Five jobs
// go through drain → restart → clean drain → restart with a retention of
// three; the journal must then hold the three boot records and exactly
// the newest three done records, the third instance must answer for
// those three jobs and no others, and a new job must carry generation 3.
// Pre-fix the journal kept every job's two records forever: 12 or more
// here.
func TestJournalCompactedAtBoot(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)
	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }
	const jobs, retention = 5, 3 // 1 held at dispatch + 4 queued, all suspended by the drain
	for range jobs {
		s.SubmitAsync(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
	}
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.inflight == 1 && s.queued == jobs-1 })
	drained := make(chan int, 1)
	go func() { drained <- s.Drain() }()
	waitFor(t, func() bool { return s.State() == StateDraining })
	close(block)
	if n := <-drained; n != jobs {
		t.Fatalf("drain suspended %d jobs, want %d", n, jobs)
	}

	s2 := New(Config{Workers: 1, SnapshotDir: dir})
	if n, err := s2.Start(); err != nil || n != jobs {
		t.Fatalf("restart recovered %d jobs (%v), want %d", n, err, jobs)
	}
	if n := s2.Drain(); n != 0 {
		t.Fatalf("clean drain suspended %d jobs", n)
	}
	var done []string // done record IDs, oldest first
	for _, line := range journalLines(t, dir) {
		if strings.Contains(line, `"op":"done"`) {
			var rec journalRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			done = append(done, rec.ID)
		}
	}
	if len(done) != jobs {
		t.Fatalf("journal before the third start holds %d done records, want %d", len(done), jobs)
	}

	s3 := startService(t, Config{Workers: 1, SnapshotDir: dir, OutcomeRetention: retention})
	boots := 0
	var kept []string
	for _, line := range journalLines(t, dir) {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.Op == opBoot:
			boots++
		case rec.Op == opDone && rec.Outcome != nil:
			kept = append(kept, rec.ID)
		default:
			t.Fatalf("journal after the third start holds a %s record: %.120q", rec.Op, line)
		}
	}
	if want := done[jobs-retention:]; boots != 3 || strings.Join(kept, " ") != strings.Join(want, " ") {
		t.Fatalf("journal after the third start holds %d boot records and done records %v, want 3 and %v", boots, kept, want)
	}
	for i, id := range done {
		o, ok := s3.Outcome(id)
		if kept := i >= jobs-retention; ok != kept || kept && o.Status != StatusRecovered {
			t.Fatalf("third instance on job %s: %+v (ok=%v), want answered=%v", id, o, ok, kept)
		}
	}
	o := s3.Submit(JobRequest{Tenant: "t", ImageID: registerLorenz(t, s3).ID, Alt: fpvm.AltBoxed})
	if o.Status != StatusCompleted || !strings.HasPrefix(o.ID, "j3_") {
		t.Fatalf("job after the third start: %s %s (%s), want completed with a j3_ ID", o.ID, o.Status, o.Detail)
	}
}

// journalLines returns the records of the journal in dir, one line each.
func journalLines(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// A snapshot must cost what the guest changed: zero pages travel as
// their addresses and the heap is packed. Every micro image at the
// default 250k quantum snapshots under 64 KiB at every preemption, where
// a drain may persist it; with every writable page written out in full,
// each was ~409 KiB.
func TestMicroSnapshotsStaySmall(t *testing.T) {
	const quantum, limit = 250_000, 64 << 10
	reg := NewRegistry()
	snaps := 0
	for _, name := range workloads.MicroAll() {
		e, err := reg.Register(string(name))
		if err != nil {
			t.Fatal(err)
		}
		vm, err := fpvm.Prepare(e.Image, jobVMConfig(e, fpvm.AltBoxed, 0))
		if err != nil {
			t.Fatal(err)
		}
		vm.SetPreemptQuantum(quantum)
		for {
			res, err := vm.RunSlice()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Preempted {
				break
			}
			snap, err := vm.Snapshot()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(snap) >= limit {
				t.Errorf("%s: snapshot at %d cycles is %d bytes, want under %d", name, res.Cycles, len(snap), limit)
			}
			snaps++
		}
	}
	if snaps == 0 {
		t.Fatal("no micro image was preempted; nothing was measured")
	}
}

// fpvmd persists a job each time its VM clock runs persistInterval cycles
// past the job's last persist point, and once at drain; never at every
// preemption. Under the defaults (250k quantum, 16M-cycle interval) no
// boxed micro job writes a snapshot; a long job, enzo at mpfr 1,000 bits,
// writes exactly the count a reference RunSlice loop at the same quantum
// derives from the rule; and a drained job that never persisted is
// written exactly once and resumes bit-identically on the next instance.
// fpvmd_snapshots_persisted_total reports each count.
func TestPersistCadence(t *testing.T) {
	written := func(s *Service) uint64 {
		t.Helper()
		var sb strings.Builder
		if err := s.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "fpvmd_snapshots_persisted_total "); ok {
				var n uint64
				if _, err := fmt.Sscan(v, &n); err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatal("/metrics has no fpvmd_snapshots_persisted_total")
		return 0
	}
	var defaults Config
	quantum := defaults.quantum()
	dir := t.TempDir()
	// The injector arms no rule; it counts persist attempts, written or not.
	inj := faultinject.New(1)
	s := startService(t, Config{Workers: 1, SnapshotDir: dir, Inject: inj})
	attempts := func() uint64 { return inj.Stats(faultinject.SiteSvcPersist).Checks }
	register := func(name workloads.Name) *ImageEntry {
		t.Helper()
		e, err := s.Registry().Register(string(name))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	preempted := 0
	for _, name := range workloads.MicroAll() {
		o := s.Submit(JobRequest{Tenant: "t", ImageID: register(name).ID, Alt: fpvm.AltBoxed})
		if o.Status != StatusCompleted {
			t.Fatalf("%s: %s (%s)", name, o.Status, o.Detail)
		}
		if o.Cycles > quantum {
			preempted++
		}
	}
	if preempted == 0 {
		t.Fatal("no micro job ran past one quantum; the interval went untested")
	}
	if got, tried := written(s), attempts(); got != 0 || tried != 0 {
		t.Fatalf("micro jobs persisted %d snapshots in %d attempts, want 0", got, tried)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "job-*.snap*")); len(snaps) != 0 {
		t.Fatalf("micro jobs left %v", snaps)
	}

	// The long job: its persist points, derived on a VM of its own.
	const precision = 1000
	enzo := register(workloads.Enzo)
	vm, err := fpvm.Prepare(enzo.Image, jobVMConfig(enzo, fpvm.AltMPFR, precision))
	if err != nil {
		t.Fatal(err)
	}
	vm.SetPreemptQuantum(quantum)
	var want, last uint64
	for {
		res, err := vm.RunSlice()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Preempted {
			break
		}
		if res.Cycles-last >= persistInterval {
			want, last = want+1, res.Cycles
		}
	}
	if want == 0 {
		t.Fatal("the enzo job never reaches a persist point; the interval went untested")
	}
	o := s.Submit(JobRequest{Tenant: "t", ImageID: enzo.ID, Alt: fpvm.AltMPFR, Precision: precision})
	if o.Status != StatusCompleted || o.Cycles != vm.Cycles() {
		t.Fatalf("enzo mpfr job: %s at %d cycles (%s), want completed at %d", o.Status, o.Cycles, o.Detail, vm.Cycles())
	}
	if got, tried := written(s), attempts(); got != want || tried != want {
		t.Fatalf("a %d-cycle job persisted %d snapshots in %d attempts, want %d (one per %d cycles)",
			o.Cycles, got, tried, want, persistInterval)
	}
	t.Logf("enzo at mpfr %d bits: %d cycles, %d snapshots persisted", precision, o.Cycles, want)

	// The drained job: held at dispatch until the drain, so it is
	// suspended at its first preemption, before any persist point.
	ddir := t.TempDir()
	d := New(Config{Workers: 1, SnapshotDir: ddir})
	dispatched := holdDispatchUntilDrain(d)
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	lorenz := registerLorenz(t, d)
	held := d.SubmitAsync(JobRequest{Tenant: "t", ImageID: lorenz.ID, Alt: fpvm.AltBoxed})
	<-dispatched
	if n := d.Drain(); n != 1 {
		t.Fatalf("drain suspended %d jobs, want 1", n)
	}
	if got := written(d); got != 1 {
		t.Fatalf("the drained job persisted %d snapshots, want 1", got)
	}
	d2 := startService(t, Config{Workers: 1, SnapshotDir: ddir})
	rec, ok := d2.Outcome(held.ID)
	if !ok || rec.Status != StatusRecovered || !strings.Contains(rec.Detail, "resumed from snapshot") {
		t.Fatalf("drained job after restart: %+v (ok=%v), want recovered from its snapshot", rec, ok)
	}
	ref, err := fpvm.Run(lorenz.Image, jobVMConfig(lorenz, fpvm.AltBoxed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stdout != ref.Stdout || rec.Digest != digestOf(t, ref) || rec.Cycles != ref.Cycles {
		t.Fatal("the resumed job diverged from an uninterrupted run")
	}
}

// A job's inject spec travels in its journal record, so a recovered job
// is injected as its live twin is. A boxed lorenz job with
// decode:every=7, drained after its first 2k-cycle slice and recovered,
// reruns fresh, since its snapshot holds no injector counters, and ends
// with the cycles and digest of the same request run live; the sweep
// deletes the snapshot it ignored.
func TestInjectedJobRecoversAsLiveTwin(t *testing.T) {
	req := func(imageID string) JobRequest {
		return JobRequest{Tenant: "inj", ImageID: imageID, Alt: fpvm.AltBoxed, InjectSpec: "decode:every=7"}
	}
	live := startService(t, Config{Workers: 1, PreemptQuantum: 2_000})
	ref := live.Submit(req(registerLorenz(t, live).ID))
	if ref.Status != StatusCompleted {
		t.Fatalf("live run: %s (%s)", ref.Status, ref.Detail)
	}

	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)
	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }
	o := s.SubmitAsync(req(e.ID))
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.inflight == 1 })
	drained := make(chan int, 1)
	go func() { drained <- s.Drain() }()
	waitFor(t, func() bool { return s.State() == StateDraining })
	close(block)
	if n := <-drained; n != 1 {
		t.Fatalf("drain suspended %d jobs, want 1", n)
	}
	if _, err := os.Stat(s.snapPath(o.ID)); err != nil {
		t.Fatalf("the drained job left no snapshot: %v", err)
	}

	s2 := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if n, err := s2.Start(); err != nil || n != 1 {
		t.Fatalf("recovered %d jobs (%v), want 1", n, err)
	}
	defer s2.Drain()
	got, ok := s2.Outcome(o.ID)
	if !ok {
		t.Fatalf("recovered job %s has no outcome", o.ID)
	}
	if got.Status != StatusRecovered || got.Cycles != ref.Cycles || got.Digest != ref.Digest {
		t.Fatalf("recovered: %s at %d cycles, digest %s (%s); live: %d cycles, digest %s",
			got.Status, got.Cycles, got.Digest, got.Detail, ref.Cycles, ref.Digest)
	}
	if _, err := os.Stat(s2.snapPath(o.ID)); !os.IsNotExist(err) {
		t.Errorf("the ignored snapshot survived recovery: %v", err)
	}
}
