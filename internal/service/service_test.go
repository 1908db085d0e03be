package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fpvm"
)

// startService builds and starts a Service for tests; the cleanup drains
// it so worker goroutines never leak across tests.
func startService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain() })
	return s
}

func registerLorenz(t *testing.T, s *Service) *ImageEntry {
	t.Helper()
	e, err := s.Registry().Register("lorenz_attractor")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRegistryContentAddressed(t *testing.T) {
	r := NewRegistry()
	a, err := r.Register("lorenz_attractor")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Register("lorenz_attractor")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("re-registering the same workload must return the same entry")
	}
	c, err := r.Register("double_pendulum")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Fatal("distinct programs collided on one content hash")
	}

	r.Quarantine(a.ID, "test says so")
	if q, why := a.Quarantined(); !q || why != "test says so" {
		t.Fatalf("quarantine not recorded: %v %q", q, why)
	}
	again, _ := r.Register("lorenz_attractor")
	if q, _ := again.Quarantined(); !q {
		t.Fatal("re-registration laundered the quarantine away")
	}
}

func TestSubmitCompletesWithDigest(t *testing.T) {
	s := startService(t, Config{Workers: 2})
	e := registerLorenz(t, s)

	ref, err := fpvm.Run(e.Image, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true})
	if err != nil {
		t.Fatal(err)
	}

	o := s.Submit(JobRequest{Tenant: "acme", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if o.Status != StatusCompleted {
		t.Fatalf("status = %s (%s), want completed", o.Status, o.Detail)
	}
	if o.Stdout != ref.Stdout {
		t.Fatal("service run output diverged from direct run")
	}
	if o.Digest == "" {
		t.Fatal("completed job carries no final-state digest")
	}
	if got, ok := s.Outcome(o.ID); !ok || *got != *o {
		t.Fatal("outcome store does not serve the job by ID")
	}
}

func TestQuotaShedsWith429Semantics(t *testing.T) {
	// A virtual clock: quota decisions never sleep in tests.
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	s := startService(t, Config{
		Workers: 1,
		Tenants: map[string]TenantConfig{
			"metered": {RatePerSec: 1, Burst: 2},
		},
		Clock: clock,
	})
	e := registerLorenz(t, s)

	req := JobRequest{Tenant: "metered", ImageID: e.ID, Alt: fpvm.AltBoxed}
	for i := 0; i < 2; i++ {
		if o := s.Submit(req); o.Status != StatusShed && o.Status != StatusCompleted {
			t.Fatalf("burst submission %d: %s (%s)", i, o.Status, o.Detail)
		}
	}
	o := s.Submit(req)
	if o.Status != StatusShed || o.Reason != ReasonQuota {
		t.Fatalf("over-quota submission: %s/%s (%s), want quota shed", o.Status, o.Reason, o.Detail)
	}
	if o.RetryAfter <= 0 {
		t.Fatal("quota shed carries no Retry-After")
	}
	if httpStatus(o) != http.StatusTooManyRequests {
		t.Fatalf("quota shed maps to HTTP %d, want 429", httpStatus(o))
	}

	// Advance the virtual clock: the bucket refills and the tenant is
	// admitted again.
	mu.Lock()
	now = now.Add(3 * time.Second)
	mu.Unlock()
	if o := s.Submit(req); o.Status != StatusCompleted {
		t.Fatalf("post-refill submission: %s (%s), want completed", o.Status, o.Detail)
	}
}

func TestRetryAfterIsJittered(t *testing.T) {
	s := New(Config{Seed: 42})
	seen := make(map[time.Duration]bool)
	for i := 0; i < 32; i++ {
		d := s.retryAfter(time.Second)
		if d < 500*time.Millisecond || d >= 1500*time.Millisecond {
			t.Fatalf("retry-after %v outside the ±50%% jitter window", d)
		}
		seen[d] = true
	}
	if len(seen) < 8 {
		t.Fatalf("32 retry-afters collapsed onto %d values: not jittered", len(seen))
	}
}

func TestDeadlineExceededReturnsPartial(t *testing.T) {
	s := startService(t, Config{Workers: 1, PreemptQuantum: 5_000})
	e := registerLorenz(t, s)

	// Find the full cost, then set a deadline well under it.
	full := s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if full.Status != StatusCompleted {
		t.Fatalf("reference run: %s (%s)", full.Status, full.Detail)
	}
	o := s.Submit(JobRequest{
		Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed,
		DeadlineCycles: full.Cycles / 2,
	})
	if o.Status != StatusDeadline {
		t.Fatalf("status = %s (%s), want deadline-exceeded", o.Status, o.Detail)
	}
	if o.Cycles < full.Cycles/2 || o.Cycles >= full.Cycles {
		t.Fatalf("cancelled at %d cycles; deadline %d, full run %d",
			o.Cycles, full.Cycles/2, full.Cycles)
	}
	if httpStatus(o) != http.StatusGatewayTimeout {
		t.Fatalf("deadline maps to HTTP %d, want 504", httpStatus(o))
	}
}

// A quantum wider than the whole job must not hide the deadline: the
// slice is capped at the remaining budget, so the job is cancelled at
// the first boundary past its deadline with a partial result, not run to
// completion and labelled late.
func TestDeadlineCapsQuantumWiderThanJob(t *testing.T) {
	probe := startService(t, Config{Workers: 1})
	full := probe.Submit(JobRequest{Tenant: "t", ImageID: registerLorenz(t, probe).ID, Alt: fpvm.AltBoxed})
	if full.Status != StatusCompleted {
		t.Fatalf("reference run: %s (%s)", full.Status, full.Detail)
	}
	deadline := full.Cycles / 2

	s := startService(t, Config{Workers: 1, PreemptQuantum: 2 * full.Cycles})
	o := s.Submit(JobRequest{
		Tenant: "t", ImageID: registerLorenz(t, s).ID, Alt: fpvm.AltBoxed,
		DeadlineCycles: deadline,
	})
	if o.Status != StatusDeadline {
		t.Fatalf("status = %s (%s) at %d cycles, want deadline-exceeded (full run is %d)",
			o.Status, o.Detail, o.Cycles, full.Cycles)
	}
	if o.Cycles < deadline || o.Cycles >= full.Cycles {
		t.Fatalf("cancelled at %d cycles; want within [deadline %d, full %d)", o.Cycles, deadline, full.Cycles)
	}
	if o.Digest != "" {
		t.Fatal("cancelled job carries a final-state digest; partial results must not")
	}
}

func TestWorkerPanicIsContainedAndQuarantines(t *testing.T) {
	s := startService(t, Config{Workers: 2})
	e := registerLorenz(t, s)

	s.testHookDispatch = func(j *job) {
		if j.req.Tenant == "evil" {
			panic("guest image ate the worker")
		}
	}

	o := s.Submit(JobRequest{Tenant: "evil", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if o.Status != StatusFailed || !strings.Contains(o.Detail, "panic") {
		t.Fatalf("panicked job: %s (%s), want contained failure", o.Status, o.Detail)
	}
	if q, _ := e.Quarantined(); !q {
		t.Fatal("panicking image was not quarantined")
	}

	// The daemon is still serving: a different image runs fine...
	p, err := s.Registry().Register("double_pendulum")
	if err != nil {
		t.Fatal(err)
	}
	if o := s.Submit(JobRequest{Tenant: "good", ImageID: p.ID, Alt: fpvm.AltBoxed}); o.Status != StatusCompleted {
		t.Fatalf("post-panic submission: %s (%s), want completed", o.Status, o.Detail)
	}
	// ...and the quarantined image is refused with a distinct answer.
	o = s.Submit(JobRequest{Tenant: "good", ImageID: e.ID, Alt: fpvm.AltBoxed})
	if o.Status != StatusFailed || httpStatus(o) != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined submission: %s / HTTP %d, want failed / 422", o.Status, httpStatus(o))
	}
}

func TestSheddingLadderUnderPressure(t *testing.T) {
	// One worker, tiny queues: filling the cheap tenant's queue drives
	// total pressure over the high-water mark, which must shed the
	// priority-0 tenant while the priority-1 tenant is still admitted.
	s := New(Config{
		Workers:        1,
		PreemptQuantum: 2_000,
		Tenants: map[string]TenantConfig{
			"best-effort": {QueueDepth: 4, Priority: 0},
			"premium":     {QueueDepth: 4, Priority: 1},
		},
		ShedHighWater: 0.5,
	})
	// A request-sized job runs in about a millisecond, so the whole
	// burst could drain between two polls of the ladder. Gate dispatch
	// instead: the one worker holds its first job until both probes are
	// in, so nothing leaves the best-effort queue, it stays at the
	// high-water mark, and the state stays shedding until the test
	// releases it.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	held := make(chan struct{}, 1)
	s.testHookDispatch = func(*job) {
		select {
		case held <- struct{}{}:
		default:
		}
		<-gate
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain() })
	t.Cleanup(release) // runs before Drain, which waits for the worker
	e := registerLorenz(t, s)

	// Saturate: blocking submissions from the best-effort tenant. The
	// worker must hold the first before the rest queue: were it to take
	// a job from a queue already at the mark, the fill would drop below
	// it with every later submission already shed.
	var wg sync.WaitGroup
	results := make(chan *JobOutcome, 16)
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- s.Submit(JobRequest{Tenant: "best-effort", ImageID: e.ID, Alt: fpvm.AltBoxed})
		}()
	}
	submit()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never dispatched the first job")
	}
	for i := 1; i < 12; i++ {
		submit()
	}

	// Wait until the ladder reports pressure. With dispatch gated the
	// state cannot leave shedding once it gets there.
	deadline := time.Now().Add(5 * time.Second)
	for s.State() != StateShedding && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	shedObserved := s.State() == StateShedding
	var lowPriShed, premiumOK *JobOutcome
	if shedObserved {
		lowPriShed = s.Submit(JobRequest{Tenant: "best-effort", ImageID: e.ID, Alt: fpvm.AltBoxed})
		premiumOK = s.SubmitAsync(JobRequest{Tenant: "premium", ImageID: e.ID, Alt: fpvm.AltBoxed})
	}
	release()
	wg.Wait()
	close(results)

	if !shedObserved {
		t.Fatal("queue pressure never tripped the shedding state")
	}
	if lowPriShed.Status != StatusShed {
		t.Fatalf("low-priority tenant under shedding: %s (%s), want shed", lowPriShed.Status, lowPriShed.Detail)
	}
	if premiumOK.Status != StatusPending {
		t.Fatalf("premium tenant under shedding: %s (%s), want pending (admitted)", premiumOK.Status, premiumOK.Detail)
	}
	waitFor(t, func() bool {
		cur, ok := s.Outcome(premiumOK.ID)
		return ok && terminalStatus(cur.Status)
	})
	if final, _ := s.Outcome(premiumOK.ID); final.Status != StatusCompleted {
		t.Fatalf("premium tenant under shedding: %s (%s), want completed", final.Status, final.Detail)
	}
	for o := range results {
		if o.Status != StatusCompleted && o.Status != StatusShed {
			t.Fatalf("saturation job ended %s (%s); statuses must stay deliberate", o.Status, o.Detail)
		}
	}
}

// holdDispatchUntilDrain makes the first job s dispatches wait at
// dispatch until a drain has begun, so its first preemption is the one
// the drain suspends; the returned channel closes at that dispatch.
func holdDispatchUntilDrain(s *Service) <-chan struct{} {
	dispatched := make(chan struct{})
	var once sync.Once
	s.testHookDispatch = func(*job) {
		once.Do(func() { close(dispatched) })
		for !s.isDraining() {
			time.Sleep(time.Millisecond)
		}
	}
	return dispatched
}

func TestDrainSuspendsAndJournals(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)

	// A stack of submissions, then drain with one in flight (held at
	// dispatch) and the rest queued behind it.
	const jobs = 6
	dispatched := holdDispatchUntilDrain(s)
	outs := make(chan *JobOutcome, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs <- s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
		}()
	}
	<-dispatched
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.queued == jobs-1 })
	suspended := s.Drain()
	wg.Wait()
	close(outs)

	completed := 0
	for o := range outs {
		switch o.Status {
		case StatusCompleted:
			completed++
		case StatusSuspended, StatusShed:
		default:
			t.Fatalf("drained job ended %s (%s)", o.Status, o.Detail)
		}
	}
	if !s.Ready() {
		// expected: draining is terminal
	} else {
		t.Fatal("service still ready after drain")
	}

	// Suspended jobs are journaled pending: a fresh instance must
	// recover exactly those.
	pending, _, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != suspended {
		t.Fatalf("journal holds %d pending jobs, Drain reported %d suspended", len(pending), suspended)
	}
	if suspended != jobs || completed != 0 {
		t.Fatalf("drain suspended %d jobs and %d completed; want all %d suspended", suspended, completed, jobs)
	}

	s2 := New(Config{Workers: 2, SnapshotDir: dir})
	recovered, err := s2.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if recovered != suspended {
		t.Fatalf("recovered %d jobs, want %d", recovered, suspended)
	}
	for _, rec := range pending {
		o, ok := s2.Outcome(rec.ID)
		if !ok {
			t.Fatalf("recovered job %s has no stored outcome", rec.ID)
		}
		if o.Status != StatusRecovered {
			t.Fatalf("recovered job %s ended %s (%s)", rec.ID, o.Status, o.Detail)
		}
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := startService(t, Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}

	resp, m := post("/v1/images", `{"workload":"lorenz_attractor"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d (%v)", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatal("register returned no image ID")
	}

	resp, m = post("/v1/jobs", `{"tenant":"web","image":"`+id+`","alt":"boxed"}`)
	if resp.StatusCode != http.StatusOK || m["status"] != "completed" {
		t.Fatalf("submit: HTTP %d status %v", resp.StatusCode, m["status"])
	}
	jobID, _ := m["id"].(string)

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 16*1024)
		for {
			n, rerr := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		return resp, sb.String()
	}

	if resp, _ := get("/v1/jobs/" + jobID); resp.StatusCode != http.StatusOK {
		t.Fatalf("job lookup: HTTP %d", resp.StatusCode)
	}
	if resp, _ := get("/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job lookup: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: HTTP %d", resp.StatusCode)
	}
	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	for _, want := range []string{
		`fpvmd_jobs_total{status="completed",tenant="web"} 1`,
		"fpvmd_state 0",
		"fpvmd_vm_traps_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}

	// Unknown image → 404; unknown workload → 404; malformed → 400.
	if resp, _ := post("/v1/jobs", `{"tenant":"web","image":"beef"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown image submit: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, _ := post("/v1/images", `{"workload":"no-such"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, _ := post("/v1/jobs", `{bad json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: HTTP %d, want 400", resp.StatusCode)
	}
}

// Job IDs must stay unique across restarts even though refused
// submissions burn sequence numbers without leaving journal records:
// pre-fix, a restarted daemon derived its sequence from the journaled
// job count and re-minted pre-crash IDs, overwriting recovered outcomes.
func TestJobIDsUniqueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e := registerLorenz(t, s)

	bootOneIDs := make(map[string]bool)
	note := func(o *JobOutcome) { bootOneIDs[o.ID] = true }

	// A journaled, completed job, then a refusal (failed, never
	// journaled) so seq runs ahead of the journal's job-record count.
	note(s.Submit(JobRequest{Tenant: "a", ImageID: e.ID, Alt: fpvm.AltBoxed}))
	if o := s.Submit(JobRequest{Tenant: "a", ImageID: "nope"}); o.Status != StatusFailed {
		t.Fatalf("unknown-image submission: %s, want failed", o.Status)
	} else {
		note(o)
	}

	// Jobs caught by a drain, one in flight and two queued: journaled
	// pending for the next instance.
	const caught = 3
	dispatched := holdDispatchUntilDrain(s)
	outs := make(chan *JobOutcome, caught)
	var wg sync.WaitGroup
	for i := 0; i < caught; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs <- s.Submit(JobRequest{Tenant: "a", ImageID: e.ID, Alt: fpvm.AltBoxed})
		}()
	}
	<-dispatched
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.queued == caught-1 })
	if n := s.Drain(); n != caught {
		t.Fatalf("drain suspended %d jobs, want %d", n, caught)
	}
	wg.Wait()
	close(outs)
	for o := range outs {
		note(o)
	}

	pending, _, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != caught {
		t.Fatalf("journal holds %d pending jobs, want the %d the drain suspended", len(pending), caught)
	}

	s2 := New(Config{Workers: 1, SnapshotDir: dir})
	if _, err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()

	// New submissions from the same tenant must never reuse a boot-1 ID…
	for range bootOneIDs {
		o := s2.Submit(JobRequest{Tenant: "a", ImageID: e.ID, Alt: fpvm.AltBoxed})
		if bootOneIDs[o.ID] {
			t.Fatalf("restarted daemon re-minted pre-crash job ID %s", o.ID)
		}
		if !strings.HasPrefix(o.ID, "j2_") {
			t.Fatalf("boot-2 job ID %s does not carry boot generation 2", o.ID)
		}
	}
	// …so every recovered outcome stays queryable under its original ID.
	for _, rec := range pending {
		o, ok := s2.Outcome(rec.ID)
		if !ok {
			t.Fatalf("recovered job %s lost its outcome", rec.ID)
		}
		if !o.Recovered {
			t.Fatalf("outcome for %s was overwritten by a new submission: %s (%s)",
				rec.ID, o.Status, o.Detail)
		}
		if o.Status != StatusRecovered {
			t.Fatalf("recovered job %s ended %s (%s), want recovered", rec.ID, o.Status, o.Detail)
		}
	}
}

// A third restart must not mis-mark pending work as done off a stale
// done record: with per-boot generations the scenario can't arise, but
// the generation must actually advance each boot.
func TestBootGenerationAdvancesEveryRestart(t *testing.T) {
	dir := t.TempDir()
	for boot := 1; boot <= 3; boot++ {
		s := New(Config{Workers: 1, SnapshotDir: dir})
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		e := registerLorenz(t, s)
		o := s.Submit(JobRequest{Tenant: "t", ImageID: e.ID, Alt: fpvm.AltBoxed})
		if want := fmt.Sprintf("j%d_", boot); !strings.HasPrefix(o.ID, want) {
			t.Fatalf("boot %d minted ID %s, want prefix %s", boot, o.ID, want)
		}
		s.Drain()
	}
}

func TestOutcomeStoreBounded(t *testing.T) {
	s := startService(t, Config{Workers: 1, OutcomeRetention: 4})
	var ids []string
	for i := 0; i < 7; i++ {
		ids = append(ids, s.Submit(JobRequest{Tenant: "t", ImageID: "nope"}).ID)
	}
	for _, id := range ids[:3] {
		if _, ok := s.Outcome(id); ok {
			t.Fatalf("outcome %s survived past the retention bound", id)
		}
	}
	for _, id := range ids[3:] {
		if _, ok := s.Outcome(id); !ok {
			t.Fatalf("recent outcome %s evicted while older space existed", id)
		}
	}
}

// Pressure must track active tenants only: a client minting fresh
// tenant names (whose queues are empty) must not inflate capacity and
// hold off the Full→Shedding transition under real overload.
func TestPressureTracksActiveTenantsOnly(t *testing.T) {
	s := New(Config{}) // defaults: depth 16, high water 0.75
	for i := 0; i < 64; i++ {
		s.queues[fmt.Sprintf("ghost%02d", i)] = nil
	}
	s.queues["busy"] = make([]*job, 13)
	s.queued = 13
	s.updatePressureLocked()
	if s.state != StateShedding {
		t.Fatalf("one tenant at 13/16 fill with 64 idle tenant entries: state %v, want shedding", s.state)
	}

	// And in a live service, an emptied queue is evicted outright.
	live := startService(t, Config{Workers: 1})
	e := registerLorenz(t, live)
	if o := live.Submit(JobRequest{Tenant: "once", ImageID: e.ID, Alt: fpvm.AltBoxed}); o.Status != StatusCompleted {
		t.Fatalf("submission: %s (%s)", o.Status, o.Detail)
	}
	live.mu.Lock()
	n := len(live.queues)
	live.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d empty tenant queues retained after completion, want 0", n)
	}
}

func TestRefundReturnsQuotaToken(t *testing.T) {
	clock := func() time.Time { return time.Unix(0, 0) }
	a := newAdmission(TenantConfig{}, map[string]TenantConfig{
		"m": {RatePerSec: 0.001, Burst: 1},
	}, clock, 0)

	if ok, _ := a.take("m"); !ok {
		t.Fatal("burst token missing")
	}
	if ok, _ := a.take("m"); ok {
		t.Fatal("empty bucket admitted")
	}
	a.refund("m")
	if ok, _ := a.take("m"); !ok {
		t.Fatal("refunded token not honored")
	}
	// Refunds cap at burst: two refunds into a burst-1 bucket hold one.
	a.refund("m")
	a.refund("m")
	if ok, _ := a.take("m"); !ok {
		t.Fatal("first post-refund take refused")
	}
	if ok, _ := a.take("m"); ok {
		t.Fatal("refund accumulated past burst")
	}
}

// A job admitted on quota but refused at enqueue (queue full) must hand
// its token back — the tenant shouldn't burn budget on work the service
// never accepted.
func TestQueueFullShedRefundsQuota(t *testing.T) {
	clock := func() time.Time { return time.Unix(0, 0) }
	s := startService(t, Config{
		Workers: 1,
		Tenants: map[string]TenantConfig{
			// Priority 1: pressure shedding never applies, so the third
			// submission reaches the queue-capacity check itself.
			"m": {RatePerSec: 0.0001, Burst: 3, QueueDepth: 1, Priority: 1},
		},
		Clock: clock,
	})
	e := registerLorenz(t, s)

	block := make(chan struct{})
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(block) }) }
	defer release()
	s.testHookDispatch = func(*job) { <-block }

	req := JobRequest{Tenant: "m", ImageID: e.ID, Alt: fpvm.AltBoxed}
	done := make(chan *JobOutcome, 2)
	go func() { done <- s.Submit(req) }() // token 1: dispatched, blocked
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.inflight == 1 })
	go func() { done <- s.Submit(req) }() // token 2: queued (depth 1)
	waitFor(t, func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.queued == 1 })

	o := s.Submit(req) // token 3: queue full → shed + refund
	if o.Status != StatusShed || o.Reason != ReasonQueue {
		t.Fatalf("overflow submission: %s/%s (%s), want queue-full shed", o.Status, o.Reason, o.Detail)
	}
	if httpStatus(o) != http.StatusServiceUnavailable {
		t.Fatalf("queue-full shed maps to HTTP %d, want 503", httpStatus(o))
	}

	release()
	<-done
	<-done

	// Burst 3 at a near-zero refill on a frozen clock: only the refund
	// makes a third admission possible.
	if o := s.Submit(req); o.Status != StatusCompleted {
		t.Fatalf("post-refund submission: %s/%s (%s), want completed — refused job burned quota",
			o.Status, o.Reason, o.Detail)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// Maps keyed by client-supplied tenant names must stay bounded when a
// client cycles fresh names.
func TestTenantCardinalityBounded(t *testing.T) {
	s := startService(t, Config{
		Workers:           2,
		MaxTrackedTenants: 4,
		DefaultTenant:     TenantConfig{RatePerSec: 1},
	})
	e := registerLorenz(t, s)

	for i := 0; i < 8; i++ {
		// Unknown-image refusals mint metric series without buckets…
		s.Submit(JobRequest{Tenant: fmt.Sprintf("mm%02d", i), ImageID: "nope"})
		// …and admitted jobs mint an admission bucket per tenant.
		s.Submit(JobRequest{Tenant: fmt.Sprintf("mb%02d", i), ImageID: e.ID, Alt: fpvm.AltBoxed})
	}

	s.met.mu.Lock()
	series := len(s.met.byTenant)
	s.met.mu.Unlock()
	if series > 5 { // cap + the "_other" overflow label
		t.Fatalf("metrics track %d tenant series with cap 4", series)
	}
	if s.met.tenantCount("_other", StatusFailed) == 0 {
		t.Fatal("overflow tenants not aggregated under _other")
	}

	s.adm.mu.Lock()
	buckets := len(s.adm.buckets)
	s.adm.mu.Unlock()
	if buckets > 4 {
		t.Fatalf("admission holds %d token buckets with cap 4", buckets)
	}
}

// A request body past maxRequestBody is refused with 413 without being
// decoded whole. The job body is a valid request for a registered image,
// padded through its tenant name, so decoded whole it would be admitted
// and journaled; refused, it leaves no job record.
func TestOversizedBodyRefused(t *testing.T) {
	dir := t.TempDir()
	s := startService(t, Config{Workers: 1, SnapshotDir: dir})
	e := registerLorenz(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	pad := strings.Repeat("x", 2*maxRequestBody)
	job, _ := json.Marshal(JobRequest{Tenant: pad, ImageID: e.ID, Alt: fpvm.AltBoxed})
	image, _ := json.Marshal(registerRequest{Workload: pad})
	for path, body := range map[string][]byte{"/v1/jobs": job, "/v1/images": image} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: HTTP %d, want 413", path, len(body), resp.StatusCode)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"op":"job"`) {
		t.Fatalf("the refused job was journaled:\n%.200s", data)
	}
}

// The HTTP mapping keys off the structured Reason, so rewording Detail
// prose can never silently demote a 429 to a 503 (or vice versa).
func TestHTTPStatusSwitchesOnReason(t *testing.T) {
	cases := []struct {
		o    JobOutcome
		want int
	}{
		{JobOutcome{Status: StatusShed, Reason: ReasonQuota, Detail: "totally reworded copy"}, http.StatusTooManyRequests},
		{JobOutcome{Status: StatusShed, Reason: ReasonQueue}, http.StatusServiceUnavailable},
		{JobOutcome{Status: StatusShed, Reason: ReasonPressure}, http.StatusServiceUnavailable},
		{JobOutcome{Status: StatusShed, Reason: ReasonDraining}, http.StatusServiceUnavailable},
		{JobOutcome{Status: StatusShed, Reason: ReasonFault}, http.StatusServiceUnavailable},
		{JobOutcome{Status: StatusFailed, Reason: ReasonUnknownImage}, http.StatusNotFound},
		{JobOutcome{Status: StatusFailed, Reason: ReasonQuarantined}, http.StatusUnprocessableEntity},
		{JobOutcome{Status: StatusFailed, Reason: ReasonInvalid}, http.StatusBadRequest},
		{JobOutcome{Status: StatusFailed}, http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := httpStatus(&c.o); got != c.want {
			t.Fatalf("%s/%s maps to HTTP %d, want %d", c.o.Status, c.o.Reason, got, c.want)
		}
	}
}

// readJournal returns the journal's pending job records in submission
// order and its boot-record count, as a start reads them.
func readJournal(dir string) ([]journalRecord, uint64, error) {
	st, err := scanJournal(dir, 0)
	return st.pending, st.boots, err
}
