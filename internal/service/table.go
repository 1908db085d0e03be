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
// rank-monotone transitions, and none once the job has settled: a
// terminal event is the job's last on this instance.
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

// jobRecord is what the job table keeps in memory about a job until its
// done record is journaled: its ID, the fields of its latest JobOutcome,
// whose status and detail are also its latest event, and the events
// before that one. record rewrites it in place at every accepted
// transition, so a job costs one record, and one event array once it
// has a second event, from pending to terminal.
type jobRecord struct {
	id       string
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

// outcome returns a copy of r's latest outcome.
func (r *jobRecord) outcome() *JobOutcome {
	o := &JobOutcome{
		ID: r.id, Tenant: r.tenant, Workload: r.workload,
		Status: statuses[r.status], Reason: reasons[r.reason], Detail: r.detail,
		Stdout: r.stdout, ExitCode: r.exitCode, Cycles: r.cycles,
		Recovered: r.flags&recRecovered != 0, Detached: r.flags&recDetached != 0,
	}
	if r.flags&recDigest != 0 {
		o.Digest = formatDigest(r.digest[0], r.digest[1])
	}
	return o
}

// eventsAfter returns copies of r's events with Seq > since.
func (r *jobRecord) eventsAfter(since int) []JobEvent {
	n := len(r.earlier) + 1
	if since >= n {
		return nil
	}
	evs := make([]JobEvent, 0, n-since)
	for i := since; i < n; i++ {
		ev := jobEvent{detail: r.detail, status: r.status}
		if i < len(r.earlier) {
			ev = r.earlier[i]
		}
		st := statuses[ev.status]
		evs = append(evs, JobEvent{Seq: i + 1, Status: st, Detail: ev.detail, Terminal: terminalStatus(st)})
	}
	return evs
}

// doneEvents returns the events with Seq > since of the job whose done
// record is rec: the events it carries, then the terminal one.
func doneEvents(rec journalRecord, since int) []JobEvent {
	var evs []JobEvent
	for i := since; i <= len(rec.Events); i++ {
		ev := JobEvent{Seq: i + 1, Status: rec.Outcome.Status, Detail: rec.Outcome.Detail, Terminal: true}
		if i < len(rec.Events) {
			ev.Status, ev.Detail, ev.Terminal = rec.Events[i].Status, rec.Events[i].Detail, false
		}
		evs = append(evs, ev)
	}
	return evs
}

// jobKey is the job table's key: the boot generation and the sequence
// number the service mints into every job ID ("j<gen>_<seq>_<tenant>"),
// the generation above bit seqBits. Generations stay below 2^24 and
// sequence numbers below 2^40 (a trillion submissions per boot), so two
// IDs share a key only when at most one of them was minted; reads check
// the full ID. A string outside that form has no key, and no job.
type jobKey uint64

const seqBits = 40

func parseJobKey(id string) (jobKey, bool) {
	if len(id) == 0 || id[0] != 'j' {
		return 0, false
	}
	gen, rest, ok := idNumber(id[1:])
	if !ok || gen >= 1<<(64-seqBits) {
		return 0, false
	}
	seq, _, ok := idNumber(rest)
	if !ok {
		return 0, false
	}
	return jobKey(gen<<seqBits | seq), true
}

// idNumber parses the decimal number below 2^seqBits that opens s and
// ends at an underscore, and returns what follows the underscore.
func idNumber(s string) (n uint64, rest string, ok bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '_' && i > 0:
			return n, s[i+1:], true
		case c < '0' || c > '9':
			return 0, "", false
		}
		if n = n*10 + uint64(s[i]-'0'); n >= 1<<seqBits {
			return 0, "", false
		}
	}
	return 0, "", false
}

// jobSlot is the table's entry for one job: its record while the job is
// in memory, or, once the job's done record is journaled, where that
// record lies, its offset and length packed in loc (see doneSlot).
type jobSlot struct {
	rec *jobRecord
	loc uint64
}

// lenBits is how many low bits of a slot's loc hold the length of its
// done record: a record under 16 MiB at an offset under 1 TiB has a slot.
const lenBits = 24

// doneSlot returns the slot of a done record n bytes long at off; ok is
// false when the two do not fit in it.
func doneSlot(off int64, n int) (s jobSlot, ok bool) {
	if off < 0 || off >= 1<<(64-lenBits) || n < 0 || n >= 1<<lenBits {
		return s, false
	}
	return jobSlot{loc: uint64(off)<<lenBits | uint64(n)}, true
}

// span returns where a journaled slot's done record lies.
func (s jobSlot) span() (off int64, n int) {
	return int64(s.loc >> lenBits), int(s.loc & (1<<lenBits - 1))
}

func (s jobSlot) settled() bool { return s.rec == nil || s.rec.settled() }

// jobTable is the service's index of jobs: one map entry and one FIFO
// slot per job. A job keeps its record in memory while it is in flight,
// and for good when it was refused (never journaled), suspended (still
// pending in the journal), settled without a journal, or its done
// append failed; a job whose done record is journaled keeps only that
// record's location, and reads decode it from the journal. The table is
// bounded: past its limit the oldest job is evicted, and every waiter on
// it wakes to observe the job is gone.
type jobTable struct {
	mu    sync.Mutex
	limit int
	// jnl holds the done records of journaled slots. Start sets it
	// before it stores the first one, and it never changes after.
	jnl   *journal
	slots map[jobKey]jobSlot
	// fifo is a ring of the keys in slots in arrival order, fifo[head]
	// the oldest and n of them live. It grows to at most limit slots.
	fifo    []jobKey
	head, n int
	// waiting holds a channel for each unsettled job some waiter blocks
	// on; it closes at the job's next transition or its eviction. Waiters
	// on settled jobs share settled instead, which closes at the next
	// eviction. Each exists only while someone waits on it.
	waiting map[jobKey]chan struct{}
	settled chan struct{}
}

func newJobTable(limit int) *jobTable {
	return &jobTable{limit: limit, slots: make(map[jobKey]jobSlot), waiting: make(map[jobKey]chan struct{})}
}

// record applies o to its job's in-memory record: a new job gets one,
// and a known one takes o unless the job has settled or o would regress
// its phase rank (see phaseRank), in which case o is dropped. Every
// accepted o appends one event and wakes the job's waiters. The table
// keeps copies of o's fields, never o.
func (t *jobTable) record(o *JobOutcome) {
	key, ok := parseJobKey(o.ID)
	if !ok {
		return
	}
	st := statusCode(o.Status)
	t.mu.Lock()
	defer t.mu.Unlock()
	s, known := t.slots[key]
	r := s.rec
	switch {
	case !known:
		r = &jobRecord{id: o.ID}
		t.admit(key)
		t.slots[key] = jobSlot{rec: r}
	case s.settled() || phaseRank(o.Status) < phaseRank(statuses[r.status]):
		return
	default:
		t.wake(key, s)
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

// settle points job id's slot at its done record, n bytes at off in the
// journal, and drops the job's in-memory record: an unknown job gets a
// slot, an unsettled one settles and wakes its waiters, and a settled
// one keeps what it has. It returns false, changing nothing, when id has
// no key or the record no slot; the caller keeps the job in memory.
func (t *jobTable) settle(id string, off int64, n int) bool {
	key, ok := parseJobKey(id)
	done, fits := doneSlot(off, n)
	if !ok || !fits {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, known := t.slots[key]
	switch {
	case !known:
		t.admit(key)
	case s.settled():
		return true
	default:
		t.wake(key, s)
	}
	t.slots[key] = done
	return true
}

// history returns the events unsettled job id has emitted so far,
// oldest first: what its done record carries before the terminal event.
func (t *jobTable) history(id string) []journalEvent {
	key, ok := parseJobKey(id)
	if !ok {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.slots[key].rec
	if r == nil || r.settled() {
		return nil
	}
	evs := make([]journalEvent, 0, len(r.earlier)+1)
	for _, ev := range r.earlier {
		evs = append(evs, journalEvent{Status: statuses[ev.status], Detail: ev.detail})
	}
	return append(evs, journalEvent{Status: statuses[r.status], Detail: r.detail})
}

// admit gives key a FIFO slot, evicting the oldest job when the table is
// at its limit and growing the ring when it is full below it.
func (t *jobTable) admit(key jobKey) {
	if t.n == t.limit {
		old := t.fifo[t.head]
		t.head = (t.head + 1) % len(t.fifo)
		t.n--
		t.wake(old, t.slots[old])
		delete(t.slots, old)
	}
	if t.n == len(t.fifo) {
		// Below the limit nothing has been evicted, so head is still 0.
		grown := make([]jobKey, min(max(2*t.n, 16), t.limit))
		copy(grown, t.fifo)
		t.fifo = grown
	}
	t.fifo[(t.head+t.n)%len(t.fifo)] = key
	t.n++
}

// wake releases everyone waiting on the job in slot s.
func (t *jobTable) wake(key jobKey, s jobSlot) {
	if s.settled() {
		if t.settled != nil {
			close(t.settled)
			t.settled = nil
		}
	} else if ch := t.waiting[key]; ch != nil {
		close(ch)
		delete(t.waiting, key)
	}
}

// waiter returns the channel that closes when the job in slot s may
// have news: its next transition or its eviction.
func (t *jobTable) waiter(key jobKey, s jobSlot) <-chan struct{} {
	if s.settled() {
		if t.settled == nil {
			t.settled = make(chan struct{})
		}
		return t.settled
	}
	ch := t.waiting[key]
	if ch == nil {
		ch = make(chan struct{})
		t.waiting[key] = ch
	}
	return ch
}

// lookup returns id's slot. An in-memory record answers only for its own
// ID; a journaled slot is checked when readDone decodes it.
func (t *jobTable) lookup(id string) (jobKey, jobSlot, bool) {
	key, ok := parseJobKey(id)
	if !ok {
		return 0, jobSlot{}, false
	}
	s, ok := t.slots[key]
	return key, s, ok && (s.rec == nil || s.rec.id == id)
}

// readDone decodes the done record journaled slot s points at, if it is
// job id's: one pread, outside the table's lock.
func (t *jobTable) readDone(id string, s jobSlot) (journalRecord, bool) {
	rec, err := t.jnl.read(s.span())
	return rec, err == nil && rec.Op == opDone && rec.ID == id && rec.Outcome != nil
}

// outcome returns a copy of id's latest outcome.
func (t *jobTable) outcome(id string) (*JobOutcome, bool) {
	t.mu.Lock()
	_, s, ok := t.lookup(id)
	if ok && s.rec != nil {
		defer t.mu.Unlock()
		return s.rec.outcome(), true
	}
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	rec, ok := t.readDone(id, s)
	if !ok {
		return nil, false
	}
	return rec.Outcome, true
}

// eventsAfter returns copies of id's events with Seq > since, and the
// channel that closes at its next transition or its eviction. ok is false
// for unknown (or evicted) jobs.
func (t *jobTable) eventsAfter(id string, since int) (evs []JobEvent, notify <-chan struct{}, ok bool) {
	since = max(since, 0)
	t.mu.Lock()
	key, s, ok := t.lookup(id)
	if !ok {
		t.mu.Unlock()
		return nil, nil, false
	}
	if s.rec != nil {
		evs = s.rec.eventsAfter(since)
	}
	notify = t.waiter(key, s)
	t.mu.Unlock()
	if s.rec == nil {
		rec, ok := t.readDone(id, s)
		if !ok {
			return nil, nil, false
		}
		evs = doneEvents(rec, since)
	}
	return evs, notify, true
}
