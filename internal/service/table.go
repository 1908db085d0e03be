package service

import (
	"fmt"
	"strconv"
	"sync"
)

// JobEvent is one status transition in a job's lifetime, as streamed by
// GET /v1/jobs/{id}/events. Seq is 1-based and dense per job; Terminal
// marks the last event the job will ever emit on this daemon instance
// (suspended is terminal here — the job's next event belongs to the
// instance that recovers it).
type JobEvent struct {
	Seq      int    `json:"seq"`
	Status   Status `json:"status"`
	Detail   string `json:"detail,omitempty"`
	Terminal bool   `json:"terminal"`
}

// phaseRank orders a job's lifecycle: pending < running < any settled
// disposition. Phase updates race (a submitter records pending while a
// worker may already be finishing), so the job table accepts only
// rank-monotone transitions.
func phaseRank(st Status) int {
	switch st {
	case StatusPending:
		return 0
	case StatusRunning:
		return 1
	}
	return 2
}

// terminalStatus reports whether st is a settled disposition (pending
// and running are the async API's in-flight phases).
func terminalStatus(st Status) bool { return phaseRank(st) == 2 }

// statuses and reasons are the code tables of a job record: a record
// keeps the index of its Status or Reason, not the string.
var (
	statuses = [...]Status{StatusPending, StatusRunning, StatusCompleted, StatusDegraded,
		StatusRecovered, StatusDeadline, StatusShed, StatusFailed, StatusSuspended}
	reasons = [...]Reason{"", ReasonQuota, ReasonQueue, ReasonPressure, ReasonDraining,
		ReasonFault, ReasonUnknownImage, ReasonQuarantined, ReasonInvalid}
)

func statusCode(st Status) uint8 {
	for i, s := range statuses {
		if s == st {
			return uint8(i)
		}
	}
	panic("service: no code for status " + string(st))
}

func reasonCode(r Reason) uint8 {
	for i, s := range reasons {
		if s == r {
			return uint8(i)
		}
	}
	panic("service: no code for reason " + string(r))
}

// formatDigest renders the oracle digest of a final state as JobOutcome
// carries it; parseDigest is its inverse, for the record's two halves.
func formatDigest(rip, sum uint64) string { return fmt.Sprintf("%016x-%016x", rip, sum) }

func parseDigest(s string) (d [2]uint64, ok bool) {
	if len(s) != 33 || s[16] != '-' {
		return d, false
	}
	var err1, err2 error
	d[0], err1 = strconv.ParseUint(s[:16], 16, 64)
	d[1], err2 = strconv.ParseUint(s[17:], 16, 64)
	return d, err1 == nil && err2 == nil
}

// Record flags.
const (
	recDigest    = 1 << iota // digest holds the final-state digest
	recDetached              // JobOutcome.Detached
	recRecovered             // JobOutcome.Recovered
)

// jobEvent is one event of a record's log: its Seq is its position plus
// one, and Terminal follows from its status.
type jobEvent struct {
	detail string
	status uint8
}

// jobRecord is everything the service keeps about one job: the fields of
// its latest JobOutcome, whose status and detail are also its latest
// event, and the events before that one. record rewrites it in place at
// every accepted transition, so a job costs one record, and one event
// array once it has a second event, from pending to terminal.
type jobRecord struct {
	tenant   string
	workload string
	stdout   string
	detail   string
	digest   [2]uint64 // RIP and sum, when recDigest is set
	cycles   uint64
	exitCode int
	// earlier holds the events before the latest, oldest first, so the
	// latest is event len(earlier)+1.
	earlier []jobEvent
	status  uint8
	reason  uint8
	flags   uint8
}

func (r *jobRecord) settled() bool { return terminalStatus(statuses[r.status]) }

// jobTable is the service's one store of per-job state: one map entry and
// one FIFO slot per job. It is bounded: past its limit the oldest job is
// evicted, and every waiter on it wakes to observe the job is gone.
type jobTable struct {
	mu    sync.Mutex
	limit int
	byID  map[string]*jobRecord
	// fifo is a ring of the IDs in byID in arrival order, fifo[head] the
	// oldest and n of them live. It grows to at most limit slots, and an
	// evicted slot is cleared, so no evicted ID stays reachable.
	fifo    []string
	head, n int
	// waiting holds a channel for each unsettled job some waiter blocks
	// on; it closes at the job's next transition or its eviction. Waiters
	// on settled jobs share settled instead, which closes at the next
	// eviction or the next transition of a settled job. Each exists only
	// while someone waits on it.
	waiting map[string]chan struct{}
	settled chan struct{}
}

func newJobTable(limit int) *jobTable {
	return &jobTable{limit: limit, byID: make(map[string]*jobRecord), waiting: make(map[string]chan struct{})}
}

// record applies o to its job's record: a new job gets one, and a known
// one takes o unless o would regress its phase rank (see phaseRank), in
// which case o is dropped. Every accepted o appends one event and wakes
// the job's waiters. The table keeps copies of o's fields, never o.
func (t *jobTable) record(o *JobOutcome) {
	st := statusCode(o.Status)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.byID[o.ID]
	switch {
	case r == nil:
		r = new(jobRecord)
		t.admit(o.ID)
		t.byID[o.ID] = r
	case phaseRank(o.Status) < phaseRank(statuses[r.status]):
		return
	default:
		t.wake(o.ID, r)
		if r.earlier == nil {
			// Room for the pending and running events before a terminal one.
			r.earlier = make([]jobEvent, 0, 2)
		}
		r.earlier = append(r.earlier, jobEvent{detail: r.detail, status: r.status})
	}
	r.tenant, r.workload, r.stdout, r.detail = o.Tenant, o.Workload, o.Stdout, o.Detail
	r.cycles, r.exitCode = o.Cycles, o.ExitCode
	r.status, r.reason, r.flags = st, reasonCode(o.Reason), 0
	if o.Digest != "" {
		d, ok := parseDigest(o.Digest)
		if !ok {
			panic("service: malformed digest " + o.Digest)
		}
		r.digest = d
		r.flags |= recDigest
	}
	if o.Detached {
		r.flags |= recDetached
	}
	if o.Recovered {
		r.flags |= recRecovered
	}
}

// admit gives id a FIFO slot, evicting the oldest job when the table is
// at its limit and growing the ring when it is full below it.
func (t *jobTable) admit(id string) {
	if t.n == t.limit {
		old := t.fifo[t.head]
		t.fifo[t.head] = ""
		t.head = (t.head + 1) % len(t.fifo)
		t.n--
		t.wake(old, t.byID[old])
		delete(t.byID, old)
	}
	if t.n == len(t.fifo) {
		// Below the limit nothing has been evicted, so head is still 0.
		grown := make([]string, min(max(2*t.n, 16), t.limit))
		copy(grown, t.fifo)
		t.fifo = grown
	}
	t.fifo[(t.head+t.n)%len(t.fifo)] = id
	t.n++
}

// wake releases everyone waiting on job id, whose record is r.
func (t *jobTable) wake(id string, r *jobRecord) {
	if r.settled() {
		if t.settled != nil {
			close(t.settled)
			t.settled = nil
		}
	} else if ch := t.waiting[id]; ch != nil {
		close(ch)
		delete(t.waiting, id)
	}
}

// outcome returns a copy of id's latest outcome.
func (t *jobTable) outcome(id string) (*JobOutcome, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.byID[id]
	if r == nil {
		return nil, false
	}
	o := &JobOutcome{
		ID: id, Tenant: r.tenant, Workload: r.workload,
		Status: statuses[r.status], Reason: reasons[r.reason], Detail: r.detail,
		Stdout: r.stdout, ExitCode: r.exitCode, Cycles: r.cycles,
		Recovered: r.flags&recRecovered != 0, Detached: r.flags&recDetached != 0,
	}
	if r.flags&recDigest != 0 {
		o.Digest = formatDigest(r.digest[0], r.digest[1])
	}
	return o, true
}

// has reports whether id has a record.
func (t *jobTable) has(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id] != nil
}

// eventsAfter returns copies of id's events with Seq > since, and the
// channel that closes at its next transition or its eviction. ok is false
// for unknown (or evicted) jobs.
func (t *jobTable) eventsAfter(id string, since int) (evs []JobEvent, notify <-chan struct{}, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.byID[id]
	if r == nil {
		return nil, nil, false
	}
	if n := len(r.earlier) + 1; since < n {
		since = max(since, 0)
		evs = make([]JobEvent, 0, n-since)
		for i := since; i < n; i++ {
			ev := jobEvent{detail: r.detail, status: r.status}
			if i < len(r.earlier) {
				ev = r.earlier[i]
			}
			st := statuses[ev.status]
			evs = append(evs, JobEvent{Seq: i + 1, Status: st, Detail: ev.detail, Terminal: terminalStatus(st)})
		}
	}
	if r.settled() {
		if t.settled == nil {
			t.settled = make(chan struct{})
		}
		return evs, t.settled, true
	}
	ch := t.waiting[id]
	if ch == nil {
		ch = make(chan struct{})
		t.waiting[id] = ch
	}
	return evs, ch, true
}
