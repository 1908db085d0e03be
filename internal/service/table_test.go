package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"fpvm"
)

// liveHeap is the heap still reachable after two full collections (the
// second empties sync.Pool's victim cache).
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// maxSettledJobBytes bounds the live heap one settled micro job leaves
// behind in memory, without a journal. The job table measures 360–400 B
// per job here (record, event array, stdout, ID and tenant, map entry
// and ring slot, the last two at the load they reach at 650 jobs); the
// outcome store and event tracks it replaced left ~770 B.
const maxSettledJobBytes = 512

// maxJournaledJobBytes bounds the same with a journal, where a settled
// job keeps only its map entry and ring slot: its done record holds the
// rest.
const maxJournaledJobBytes = 96

// A settled job must cost the daemon one compact record, or with a
// journal only the location of its done record: the live heap grows by
// well under the old outcome-plus-track cost per job.
func TestSettledJobHeapBounded(t *testing.T) {
	for _, c := range []struct {
		name  string
		dir   string
		bound int
	}{
		{"in-memory", "", maxSettledJobBytes},
		{"journaled", t.TempDir(), maxJournaledJobBytes},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := startService(t, Config{Workers: 1, SnapshotDir: c.dir})
			e := registerLorenz(t, s)
			submit := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					// A decoded HTTP request brings a tenant string of its own.
					o := s.Submit(JobRequest{Tenant: strings.Clone("bench"), ImageID: e.ID, Alt: fpvm.AltBoxed})
					if o.Status != StatusCompleted {
						t.Fatalf("job %s ended %s (%s)", o.ID, o.Status, o.Detail)
					}
				}
			}
			submit(50)
			before := liveHeap()
			const jobs = 600
			submit(jobs)
			perJob := float64(int64(liveHeap())-int64(before)) / jobs
			t.Logf("%.0f B of live heap per settled job", perJob)
			if perJob > float64(c.bound) {
				t.Fatalf("each settled job keeps %.0f B of live heap, want at most %d", perJob, c.bound)
			}
		})
	}
}

// One job's bookkeeping from pending through running to terminal costs
// two allocations, its record and its event array, once the table is at
// its bound and every new job evicts the oldest: no outcome copies, no
// per-transition event arrays and no channel nobody waits on.
func TestJobBookkeepingAllocs(t *testing.T) {
	const limit, runs = 64, 400
	s := New(Config{OutcomeRetention: limit})
	ids := make([]string, limit+runs+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("j1_%05d_t", i)
	}
	digest := formatDigest(0x401000, 0x9E3779B97F4A7C15)
	stdout := strings.Repeat("x", 100)
	next := 0
	job := func() {
		id := ids[next]
		next++
		s.record(&JobOutcome{ID: id, Tenant: "t", Workload: "w", Status: StatusPending, Detail: "queued"})
		s.record(&JobOutcome{ID: id, Tenant: "t", Workload: "w", Status: StatusRunning, Detail: "executing"})
		s.record(&JobOutcome{ID: id, Tenant: "t", Workload: "w", Status: StatusCompleted,
			Stdout: stdout, Cycles: 12345, Digest: digest})
	}
	for range limit {
		job()
	}
	if got := testing.AllocsPerRun(runs, job); got != 2 {
		t.Fatalf("one job's pending → running → terminal bookkeeping makes %v allocations, want 2", got)
	}
	o, ok := s.Outcome(ids[next-1])
	if !ok || o.Status != StatusCompleted || o.Stdout != stdout || o.Digest != digest || o.Cycles != 12345 {
		t.Fatalf("last job reads back as %+v (ok=%v)", o, ok)
	}
	if _, ok := s.Outcome(ids[next-1-limit]); ok {
		t.Fatal("the table kept a job past its bound")
	}
}

// A waiter on a settled job has no event left to wait for, only the
// job's eviction: a long-poll past its terminal event must answer 404
// and an SSE stream resumed past it must end when the record goes, not
// at their own timeouts. Each waiter runs alone, so the table's settled
// channel existing proves it is parked on it before the eviction.
func TestSettledWaitersWakeOnEviction(t *testing.T) {
	s := startService(t, Config{Workers: 1, OutcomeRetention: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	settledJob := func() string {
		t.Helper()
		o := s.Submit(JobRequest{Tenant: "t", ImageID: "nope"})
		if !terminalStatus(o.Status) {
			t.Fatalf("refused job is %s", o.Status)
		}
		return o.ID
	}
	parked := func() bool {
		s.jobs.mu.Lock()
		defer s.jobs.mu.Unlock()
		return s.jobs.settled != nil
	}
	// evict pushes id out of the two-job table.
	evict := func(id string) {
		t.Helper()
		settledJob()
		settledJob()
		if _, ok := s.Outcome(id); ok {
			t.Fatalf("job %s survived two newer jobs in a two-job table", id)
		}
	}

	t.Run("long-poll", func(t *testing.T) {
		id := settledJob()
		code := make(chan int, 1)
		go func() {
			r, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events?poll=1&since=1&wait_ms=60000")
			if err != nil {
				code <- 0
				return
			}
			r.Body.Close()
			code <- r.StatusCode
		}()
		waitFor(t, parked)
		evict(id)
		select {
		case c := <-code:
			if c != http.StatusNotFound {
				t.Fatalf("long-poll on an evicted job answered HTTP %d, want 404", c)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("long-poll on a settled job did not wake at its eviction")
		}
	})

	t.Run("sse", func(t *testing.T) {
		id := settledJob()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+id+"/events", nil)
		req.Header.Set("Last-Event-ID", "1")
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("SSE on a settled job: HTTP %d", r.StatusCode)
		}
		body := make(chan string, 1)
		go func() {
			b, _ := io.ReadAll(r.Body)
			body <- string(b)
		}()
		waitFor(t, parked)
		evict(id)
		select {
		case b := <-body:
			if strings.Contains(b, "event:") {
				t.Fatalf("resumed SSE stream replayed events: %q", b)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("SSE stream on a settled job did not end at its eviction")
		}
	})
}

// Outcome, SubmitAsync and eventsAfter hand out copies: what a caller
// does to them never reaches the job table.
func TestReturnedOutcomesAreCopies(t *testing.T) {
	s := startService(t, Config{Workers: 1})
	e := registerLorenz(t, s)
	o := s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if o.Status != StatusCompleted {
		t.Fatalf("job ended %s (%s)", o.Status, o.Detail)
	}
	want := *o

	o.Status, o.Stdout, o.Digest, o.Cycles, o.Detached = StatusFailed, "tampered", "", 1, true
	got, ok := s.Outcome(want.ID)
	if !ok || *got != want {
		t.Fatalf("mutating Submit's outcome reached the store: %+v", got)
	}
	got.Detail, got.Status = "tampered", StatusShed
	if again, _ := s.Outcome(want.ID); *again != want {
		t.Fatalf("mutating Outcome's copy reached the store: %+v", again)
	}

	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }
	async := s.SubmitAsync(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
	async.Status = StatusCompleted
	if cur, _ := s.Outcome(async.ID); cur.Status != StatusPending {
		t.Fatalf("held async job reads %s, want pending: SubmitAsync's outcome reached the store", cur.Status)
	}
	close(block)
	waitFor(t, func() bool {
		cur, ok := s.Outcome(async.ID)
		return ok && terminalStatus(cur.Status)
	})
	evs, _, _ := s.eventsAfter(async.ID, 0)
	if len(evs) != 3 || evs[0].Status != StatusPending {
		t.Fatalf("async job's events %+v, want pending, running, completed", evs)
	}
	evs[0].Status, evs[0].Seq = StatusCompleted, 9
	if again, _, _ := s.eventsAfter(async.ID, 0); again[0].Status != StatusPending || again[0].Seq != 1 {
		t.Fatalf("mutating eventsAfter's copy reached the log: %+v", again)
	}
}

// The table is keyed by the generation and sequence number of a job ID,
// and every read checks the whole ID: a string with the same two numbers
// in another form, or another tenant suffix, names no job, whether the
// job's record is in memory or in the journal.
func TestLookupChecksTheWholeID(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s := startService(t, Config{Workers: 1, SnapshotDir: dir})
		o := s.Submit(JobRequest{Tenant: "t", ImageID: registerLorenz(t, s).ID, Alt: fpvm.AltBoxed})
		if o.ID != "j1_00001_t" || o.Status != StatusCompleted {
			t.Fatalf("first job: %s %s (%s)", o.ID, o.Status, o.Detail)
		}
		if got, ok := s.Outcome(o.ID); !ok || *got != *o {
			t.Fatalf("SnapshotDir %q: Outcome(%s) = %+v (ok=%v)", dir, o.ID, got, ok)
		}
		for _, id := range []string{"j1_1_t", "j1_00001_u", "j1_00001_", "j01_00001_t", "j1_00001", "j1__t", "x1_00001_t", ""} {
			if _, ok := s.Outcome(id); ok {
				t.Fatalf("SnapshotDir %q: Outcome(%q) answered for job %s", dir, id, o.ID)
			}
			if _, _, ok := s.eventsAfter(id, 0); ok {
				t.Fatalf("SnapshotDir %q: eventsAfter(%q) answered for job %s", dir, id, o.ID)
			}
		}
	}
}

// A journaled slot packs its done record's offset and length in one word;
// a record that does not fit stays in memory.
func TestDoneSlotPacksOffsetAndLength(t *testing.T) {
	for _, c := range []struct {
		off int64
		n   int
		ok  bool
	}{
		{0, 0, true},
		{12345, 678, true},
		{1<<40 - 1, 1<<24 - 1, true},
		{1 << 40, 1, false},
		{1, 1 << 24, false},
		{-1, 1, false},
	} {
		s, ok := doneSlot(c.off, c.n)
		if ok != c.ok {
			t.Fatalf("doneSlot(%d, %d) ok=%v, want %v", c.off, c.n, ok, c.ok)
		}
		if off, n := s.span(); ok && (off != c.off || n != c.n || s.rec != nil) {
			t.Fatalf("doneSlot(%d, %d) spans %d, %d", c.off, c.n, off, n)
		}
	}
}
