package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpvm"
)

// The async lifecycle in-process: SubmitAsync answers with the pending
// phase before the job runs, Outcome tracks the phases, and the event
// log records the full pending → running → terminal sequence with dense
// sequence numbers and exactly one terminal event.
func TestAsyncSubmitLifecycleAndEvents(t *testing.T) {
	s := startService(t, Config{Workers: 1})
	e := registerLorenz(t, s)

	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }

	o := s.SubmitAsync(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if o.Status != StatusPending {
		t.Fatalf("async submission answered %s (%s), want pending", o.Status, o.Detail)
	}
	if evs, _, ok := s.eventsAfter(o.ID, 0); !ok || len(evs) != 1 || evs[0].Status != StatusPending {
		t.Fatalf("pre-dispatch event log: %+v (ok=%v), want one pending event", evs, ok)
	}

	close(block)
	waitFor(t, func() bool {
		cur, ok := s.Outcome(o.ID)
		return ok && terminalStatus(cur.Status)
	})
	final, _ := s.Outcome(o.ID)
	if final.Status != StatusCompleted {
		t.Fatalf("async job ended %s (%s), want completed", final.Status, final.Detail)
	}

	evs, _, ok := s.eventsAfter(o.ID, 0)
	if !ok {
		t.Fatal("event track evicted for a live outcome")
	}
	want := []Status{StatusPending, StatusRunning, StatusCompleted}
	if len(evs) != len(want) {
		t.Fatalf("event log %+v, want statuses %v", evs, want)
	}
	for i, ev := range evs {
		if ev.Status != want[i] || ev.Seq != i+1 {
			t.Fatalf("event %d = %+v, want seq %d status %s", i, ev, i+1, want[i])
		}
		if ev.Terminal != (i == len(want)-1) {
			t.Fatalf("event %d terminal=%v", i, ev.Terminal)
		}
	}
	// The cursor works: nothing before or at `since` is replayed.
	if tail, _, _ := s.eventsAfter(o.ID, 2); len(tail) != 1 || tail[0].Status != StatusCompleted {
		t.Fatalf("eventsAfter(2) = %+v, want just the terminal event", tail)
	}
}

// The async HTTP surface end to end: ?async=1 answers 202 with a pending
// outcome, the SSE stream replays every transition and closes at the
// terminal event, and the long-poll fallback serves the same events as
// JSON with a working since-cursor.
func TestAsyncHTTPEventsSSEAndLongPoll(t *testing.T) {
	s := startService(t, Config{Workers: 1})
	e := registerLorenz(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }

	resp, err := http.Post(srv.URL+"/v1/jobs?async=1", "application/json",
		strings.NewReader(`{"tenant":"web","image":"`+e.ID+`","alt":"boxed"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub JobOutcome
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Status != StatusPending || sub.ID == "" {
		t.Fatalf("async submit: HTTP %d, outcome %+v; want 202 pending with an ID", resp.StatusCode, sub)
	}

	// SSE stream opened while the job is held pending; it must replay the
	// backlog, then follow the live transitions and close at the terminal
	// frame.
	sseBody := make(chan string, 1)
	go func() {
		r, gerr := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/events")
		if gerr != nil {
			sseBody <- "GET failed: " + gerr.Error()
			return
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		sseBody <- string(b)
	}()

	close(block)
	var stream string
	select {
	case stream = <-sseBody:
	case <-time.After(60 * time.Second):
		t.Fatal("SSE stream never closed after the terminal event")
	}
	for _, want := range []string{"id: 1", "event: pending", "event: running", "event: completed", `"terminal":true`} {
		if !strings.Contains(stream, want) {
			t.Fatalf("SSE stream missing %q:\n%s", want, stream)
		}
	}

	// Long-poll fallback: the settled job's events come back at once.
	type pollReply struct {
		Job    string     `json:"job"`
		Events []JobEvent `json:"events"`
	}
	poll := func(query string) pollReply {
		t.Helper()
		r, gerr := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/events?poll=1&" + query)
		if gerr != nil {
			t.Fatal(gerr)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("long-poll: HTTP %d", r.StatusCode)
		}
		var pr pollReply
		json.NewDecoder(r.Body).Decode(&pr)
		return pr
	}
	all := poll("since=0&wait_ms=5000")
	if len(all.Events) != 3 || all.Events[2].Status != StatusCompleted || !all.Events[2].Terminal {
		t.Fatalf("long-poll replay: %+v, want pending/running/completed", all.Events)
	}
	if tail := poll("since=2&wait_ms=5000"); len(tail.Events) != 1 || tail.Events[0].Seq != 3 {
		t.Fatalf("long-poll since-cursor: %+v, want only seq 3", tail.Events)
	}

	// The stored outcome is terminal and 200 now.
	r, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("settled async job answers HTTP %d, want 200", r.StatusCode)
	}
	// Unknown job's event stream is a 404, not a hang.
	r, err = http.Get(srv.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: HTTP %d, want 404", r.StatusCode)
	}
}

// Async jobs must ride the drain/recovery machinery exactly like
// blocking ones: suspended by Drain (journaled, snapshotted when
// started) and served by the next instance under their original IDs.
func TestAsyncJobsAcrossDrainRestart(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)

	block := make(chan struct{})
	s.testHookDispatch = func(*job) { <-block }

	const jobs = 3
	var ids []string
	for i := 0; i < jobs; i++ {
		o := s.SubmitAsync(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
		if terminalStatus(o.Status) {
			t.Fatalf("async submission %d settled immediately: %s (%s)", i, o.Status, o.Detail)
		}
		ids = append(ids, o.ID)
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inflight == 1 && s.queued == jobs-1
	})
	drained := make(chan int, 1)
	go func() { drained <- s.Drain() }()
	waitFor(t, func() bool { return s.State() == StateDraining })
	close(block)
	if n := <-drained; n != jobs {
		t.Fatalf("drain suspended %d async jobs, want %d", n, jobs)
	}
	for _, id := range ids {
		if o, ok := s.Outcome(id); !ok || o.Status != StatusSuspended {
			t.Fatalf("async job %s after drain: %+v (ok=%v), want suspended", id, o, ok)
		}
	}

	s2 := New(Config{Workers: 2, SnapshotDir: dir})
	recovered, err := s2.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if recovered != jobs {
		t.Fatalf("recovered %d jobs, want %d", recovered, jobs)
	}
	for _, id := range ids {
		o, ok := s2.Outcome(id)
		if !ok {
			t.Fatalf("async job %s lost across restart", id)
		}
		if o.Status != StatusRecovered || !o.Recovered {
			t.Fatalf("async job %s recovered as %s (%s)", id, o.Status, o.Detail)
		}
		// The recovered outcome is streamable on the new instance too.
		if evs, _, ok := s2.eventsAfter(id, 0); !ok || len(evs) == 0 || !evs[len(evs)-1].Terminal {
			t.Fatalf("recovered job %s has no terminal event on the new instance: %+v", id, evs)
		}
	}
}
