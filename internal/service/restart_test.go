package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fpvm"
	"fpvm/internal/checkpoint"
)

// answers is what the clients of a service learned about its settled
// jobs: each job's outcome, in submission order, and its events.
type answers struct {
	Outcomes []*JobOutcome
	Events   map[string][]JobEvent
}

// add records job o as its submitter saw it on s: the outcome Submit
// returned or Outcome reported, and the events the events stream gives.
func (a *answers) add(t *testing.T, s *Service, o *JobOutcome) {
	t.Helper()
	evs, _, ok := s.eventsAfter(o.ID, 0)
	if !ok || len(evs) == 0 || !evs[len(evs)-1].Terminal {
		t.Fatalf("job %s (%s) has events %+v (ok=%v), want a log ending in a terminal event", o.ID, o.Status, evs, ok)
	}
	if a.Events == nil {
		a.Events = make(map[string][]JobEvent)
	}
	a.Outcomes = append(a.Outcomes, o)
	a.Events[o.ID] = evs
}

// settledJobs runs one job to each settled answer a journaled job can
// have on e — completed, degraded with the detached flag, a deadline's
// partial result, and an async completion — and returns what their
// submitters got.
func settledJobs(t *testing.T, s *Service, e *ImageEntry) *answers {
	t.Helper()
	a := new(answers)
	for _, c := range []struct {
		req  JobRequest
		want Status
	}{
		{JobRequest{Tenant: "blocking", ImageID: e.ID, Alt: fpvm.AltBoxed}, StatusCompleted},
		{JobRequest{Tenant: "blocking", ImageID: e.ID, Alt: fpvm.AltBoxed, InjectSpec: "decode:prob=1", InjectSeed: 1}, StatusDegraded},
		{JobRequest{Tenant: "blocking", ImageID: e.ID, Alt: fpvm.AltBoxed, DeadlineCycles: 50_000}, StatusDeadline},
	} {
		o := s.Submit(c.req)
		if o.Status != c.want {
			t.Fatalf("%+v ended %s (%s), want %s", c.req, o.Status, o.Detail, c.want)
		}
		a.add(t, s, o)
	}
	if o := a.Outcomes[1]; !o.Detached {
		t.Fatalf("degraded job %s is not marked detached", o.ID)
	}
	async := s.SubmitAsync(JobRequest{Tenant: "async", ImageID: e.ID, Alt: fpvm.AltMPFR, Precision: 128})
	waitFor(t, func() bool {
		o, ok := s.Outcome(async.ID)
		return ok && terminalStatus(o.Status)
	})
	o, _ := s.Outcome(async.ID)
	if o.Status != StatusCompleted {
		t.Fatalf("async job ended %s (%s)", o.Status, o.Detail)
	}
	a.add(t, s, o)
	return a
}

// checkServes requires s to answer every job in want as its submitter
// saw it: Outcome, GET /v1/jobs/{id}, the long-poll and the SSE stream.
func checkServes(t *testing.T, s *Service, want *answers) {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, w := range want.Outcomes {
		if got, ok := s.Outcome(w.ID); !ok || *got != *w {
			t.Fatalf("Outcome(%s) = %+v (ok=%v), its submitter got %+v", w.ID, got, ok, w)
		}
		var got JobOutcome
		if code := getJSON(t, srv.URL+"/v1/jobs/"+w.ID, &got); code != httpStatus(w) || got != *w {
			t.Fatalf("GET job %s: HTTP %d %+v, its submitter got HTTP %d %+v", w.ID, code, got, httpStatus(w), w)
		}
		evs := want.Events[w.ID]
		if got, _, ok := s.eventsAfter(w.ID, 0); !ok || !reflect.DeepEqual(got, evs) {
			t.Fatalf("events of %s: %+v (ok=%v), want %+v", w.ID, got, ok, evs)
		}
		var polled struct{ Events []JobEvent }
		if code := getJSON(t, srv.URL+"/v1/jobs/"+w.ID+"/events?poll=1&since=0&wait_ms=0", &polled); code != http.StatusOK ||
			!reflect.DeepEqual(polled.Events, evs) {
			t.Fatalf("long-poll of %s: HTTP %d %+v, want %+v", w.ID, code, polled.Events, evs)
		}
		if got := streamedEvents(t, srv.URL+"/v1/jobs/"+w.ID+"/events"); !reflect.DeepEqual(got, evs) {
			t.Fatalf("SSE stream of %s: %+v, want %+v", w.ID, got, evs)
		}
	}
}

// getJSON GETs url, decodes its JSON body into v and returns the status.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return r.StatusCode
}

// streamedEvents reads an SSE stream to its end and returns its events.
func streamedEvents(t *testing.T, url string) []JobEvent {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("SSE %s: HTTP %d", url, r.StatusCode)
	}
	var evs []JobEvent
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev JobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// A restart keeps the answers of settled jobs: after a clean drain, the
// drained instance and the next one on the same directory answer
// Outcome, GET, long-poll and SSE for every job exactly as its submitter
// was answered, and so does the instance after that for a job the second
// one recovered from the first one's drain.
func TestSettledAnswersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s1)
	want := settledJobs(t, s1, e)

	// One more job, held at dispatch, for the drain to suspend.
	block := make(chan struct{})
	s1.testHookDispatch = func(*job) { <-block }
	held := s1.SubmitAsync(JobRequest{Tenant: "async", ImageID: e.ID, Alt: fpvm.AltBoxed})
	waitFor(t, func() bool { s1.mu.Lock(); defer s1.mu.Unlock(); return s1.inflight == 1 })
	drained := make(chan int, 1)
	go func() { drained <- s1.Drain() }()
	waitFor(t, func() bool { return s1.State() == StateDraining })
	close(block)
	if n := <-drained; n != 1 {
		t.Fatalf("drain suspended %d jobs, want 1", n)
	}
	// The drained instance still answers for what it settled.
	checkServes(t, s1, want)

	s2 := New(Config{Workers: 1, SnapshotDir: dir})
	if n, err := s2.Start(); err != nil || n != 1 {
		t.Fatalf("restart recovered %d jobs (%v), want 1", n, err)
	}
	checkServes(t, s2, want)
	rec, ok := s2.Outcome(held.ID)
	if !ok || rec.Status != StatusRecovered || !rec.Recovered {
		t.Fatalf("suspended job %s after restart: %+v (ok=%v), want recovered", held.ID, rec, ok)
	}
	want.add(t, s2, rec)
	if n := s2.Drain(); n != 0 {
		t.Fatalf("clean drain suspended %d jobs", n)
	}

	checkServes(t, startService(t, Config{Workers: 1, SnapshotDir: dir}), want)
}

const (
	settledKillHelperEnv = "FPVM_SETTLED_KILL_HELPER"
	settledKillAnswers   = "answers.json"
)

// TestSettledKillHelper is the child half of TestSettledAnswersSurviveKill:
// it settles one job of each kind, writes what their submitters got to
// answers.json once every done record is fsynced, and hangs until the
// parent kills the process.
func TestSettledKillHelper(t *testing.T) {
	if os.Getenv(settledKillHelperEnv) != "1" {
		t.Skip("harness child; run via TestSettledAnswersSurviveKill")
	}
	dir := os.Getenv(svcCrashDirEnv)
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(settledJobs(t, s, registerLorenz(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(dir, settledKillAnswers), data); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Minute) // SIGKILL arrives long before this
}

// A SIGKILL that lands after the done records costs no answer: the next
// instance, started in-process on the killed daemon's directory, answers
// every settled job as its submitter was answered.
func TestSettledAnswersSurviveKill(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestSettledKillHelper$")
	cmd.Env = append(os.Environ(), settledKillHelperEnv+"=1", svcCrashDirEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var data []byte
	deadline := time.Now().Add(60 * time.Second)
	for {
		var err error
		if data, err = os.ReadFile(filepath.Join(dir, settledKillAnswers)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never settled its jobs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	var want answers
	if err := json.Unmarshal(data, &want); err != nil || len(want.Outcomes) != 4 {
		t.Fatalf("child's answers: %d outcomes (%v), want 4", len(want.Outcomes), err)
	}

	s := startService(t, Config{Workers: 1, SnapshotDir: dir})
	checkServes(t, s, &want)
}

// builds reads how many registrations of r built a workload.
func builds(r *Registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.builds
}

// A workload name is built, profiled and trained once per registry: two
// registrations of lorenz build it once, and so does the recovery of
// three pending lorenz jobs, which registers the image once per job.
// Pre-fix every registration built and profiled the workload before it
// found the content hash registered: five builds here.
func TestRegistrationBuildsOnce(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)
	if again := registerLorenz(t, s); again != e {
		t.Fatal("re-registering lorenz returned another entry")
	}
	if n := builds(s.reg); n != 1 {
		t.Fatalf("two registrations of one workload built it %d times, want 1", n)
	}

	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }
	const jobs = 3 // 1 held at dispatch + 2 queued, all suspended by the drain
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

	s2 := startService(t, Config{Workers: 1, SnapshotDir: dir})
	if n := builds(s2.reg); n != 1 {
		t.Fatalf("recovering %d pending jobs of one image built it %d times, want 1", jobs, n)
	}
	if registerLorenz(t, s2); builds(s2.reg) != 1 {
		t.Fatalf("registering a recovered image built it again: %d builds", builds(s2.reg))
	}
}

// Journal lines have no length limit: a done record carries the job's
// whole stdout, and one over 1 MiB must neither fail the next start nor
// hide the records after it. Pre-fix the journal reader stopped at
// 1 MiB lines with bufio.ErrTooLong and Start failed.
func TestJournalReadsLongRecords(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)
	// Sequence number 0 is never minted, so the outcome names no other job.
	big := &JobOutcome{ID: fmt.Sprintf("j%d_%05d_big", s.gen, 0), Tenant: "big", Workload: e.Workload,
		Status: StatusCompleted, Stdout: strings.Repeat("0123456789abcdef\n", 128<<10), Cycles: 1}
	s.settle(big)

	// A pending job record after the long line.
	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }
	held := s.SubmitAsync(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.inflight == 1 })
	drained := make(chan int, 1)
	go func() { drained <- s.Drain() }()
	waitFor(t, func() bool { return s.State() == StateDraining })
	close(block)
	if n := <-drained; n != 1 {
		t.Fatalf("drain suspended %d jobs, want 1", n)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() <= 1<<20 {
		t.Fatalf("journal is %v (%v), want a record over 1 MiB in it", fi.Size(), err)
	}

	s2 := New(Config{Workers: 1, SnapshotDir: dir})
	n, err := s2.Start()
	if err != nil {
		t.Fatalf("restart over a %d-byte stdout: %v", len(big.Stdout), err)
	}
	defer s2.Drain()
	if n != 1 {
		t.Fatalf("restart recovered %d jobs, want the 1 journaled after the long record", n)
	}
	if got, ok := s2.Outcome(big.ID); !ok || *got != *big {
		t.Fatalf("long outcome after restart: ok=%v, equal=%v", ok, ok && *got == *big)
	}
	if o, ok := s2.Outcome(held.ID); !ok || o.Status != StatusRecovered {
		t.Fatalf("job after the long record: %+v (ok=%v), want recovered", o, ok)
	}
}
