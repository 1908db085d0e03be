package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fpvm"
	"fpvm/internal/checkpoint"
	"fpvm/internal/faultinject"
	"fpvm/internal/oracle"
)

// Status is a job's disposition. Every submission — admitted or not —
// resolves to exactly one of the terminal statuses; the service never
// leaves a client without a deliberate answer. Async submissions pass
// through the two in-flight phases (pending, running) first, visible to
// Outcome queries and the events stream.
type Status string

const (
	// StatusPending: accepted and queued, not yet dispatched (async
	// in-flight phase, never a terminal answer).
	StatusPending Status = "pending"
	// StatusRunning: dispatched to a worker and executing (async
	// in-flight phase, never a terminal answer).
	StatusRunning Status = "running"
	// StatusCompleted: the guest ran to exit fully virtualized.
	StatusCompleted Status = "completed"
	// StatusDegraded: the recovery ladder's fatal rung detached FPVM
	// mid-run; the guest still finished, natively. Degraded service,
	// not failure.
	StatusDegraded Status = "degraded"
	// StatusRecovered: the job was interrupted by a daemon crash and
	// completed after restart from its journal record (and snapshot,
	// when one survived).
	StatusRecovered Status = "recovered"
	// StatusDeadline: the job's virtual-cycle deadline expired; it was
	// cancelled at a trap boundary and the partial result returned.
	StatusDeadline Status = "deadline-exceeded"
	// StatusShed: admission refused the job (quota, queue, pressure
	// shedding, draining, or an injected admission fault).
	StatusShed Status = "shed"
	// StatusFailed: the job could not produce a result (unknown image,
	// quarantined image, worker panic, runtime error).
	StatusFailed Status = "failed"
	// StatusSuspended: the daemon drained while the job was queued or
	// in flight; its state is journaled (and snapshotted when it had
	// started) for recovery by the next daemon instance.
	StatusSuspended Status = "suspended"
)

// Reason is the structured cause of a refusal. Detail stays free-form
// prose for humans; Reason is the stable field clients and the HTTP
// status mapping switch on.
type Reason string

const (
	// ReasonQuota: the tenant's token bucket is empty (retryable, 429).
	ReasonQuota Reason = "quota"
	// ReasonQueue: the tenant's bounded queue is full (retryable, 503).
	ReasonQueue Reason = "queue-full"
	// ReasonPressure: the ladder is shedding low-priority tenants (503).
	ReasonPressure Reason = "pressure"
	// ReasonDraining: the daemon is shutting down (503).
	ReasonDraining Reason = "draining"
	// ReasonFault: an injected service fault resolved as a shed (503).
	ReasonFault Reason = "fault"
	// ReasonUnknownImage: the submission names no registered image (404).
	ReasonUnknownImage Reason = "unknown-image"
	// ReasonQuarantined: the image is quarantined after a panic (422).
	ReasonQuarantined Reason = "quarantined"
	// ReasonInvalid: the request names an unknown alt system, a
	// precision past maxPrecision or an unparsable inject spec (400).
	ReasonInvalid Reason = "invalid-request"
)

// maxPrecision bounds a job's precision in bits. MPFR host time grows
// quadratically with precision (Lorenz on a 2-vCPU host: 5 ms at 1,000
// bits, 149 ms at 16,000, 1.7 s at 64,000) and no deadline applies by
// default, so an unbounded request could hold a worker for hours and
// stall a drain at every trap boundary. 4,096 bits is 4× the largest
// precision the repository sweeps (1,024).
const maxPrecision = 4096

// persistInterval is how far a job's VM clock advances, in virtual
// cycles, between the snapshots fpvmd persists for it. A snapshot is a
// progress cache, not a record: the journal makes an accepted job
// durable, Restore validates whatever file survives, and a job without
// one reruns fresh to the same digest. So the interval weighs a write's
// cost against the work a crash may lose. Young's first-order optimum
// (J. W. Young, "A first order approximation to the optimum checkpoint
// interval", CACM 17(9), 1974), √(2 × write cost × MTBF), is far longer
// than a request-sized job for any MTBF of minutes, so the binding limit
// is the progress a crash may cost. 16M cycles is 7–11 ms of host work
// at 460–705 ns per kcycle against ~0.7–0.8 ms per persist (2-vCPU
// host): a long job spends 6–11% of its host time on durability, and a
// micro job (0.17M–9.8M cycles) writes nothing unless it is drained.
// Counted on the VM clock, persist points are deterministic.
const persistInterval = 16_000_000

// State is the degradation ladder's position.
type State int32

const (
	// StateFull: all tenants admitted normally.
	StateFull State = iota
	// StateShedding: queue pressure crossed the high-water mark;
	// priority-0 tenants are shed so higher-priority work keeps its
	// latency.
	StateShedding
	// StateDraining: the daemon is shutting down; nothing is admitted,
	// in-flight jobs are suspended at their next trap boundary.
	StateDraining
)

func (s State) String() string {
	switch s {
	case StateFull:
		return "full"
	case StateShedding:
		return "shedding"
	case StateDraining:
		return "draining"
	}
	return "state?"
}

// Config configures the service.
type Config struct {
	// Workers sizes the execution pool (0 = 4).
	Workers int

	// PreemptQuantum is the dispatcher's slice length in virtual cycles
	// (0 = 250k). Deadlines, drain and crash durability all act at slice
	// boundaries, so the quantum bounds every reaction latency.
	PreemptQuantum uint64

	// DefaultDeadlineCycles applies to jobs that don't set their own
	// deadline (0 = none).
	DefaultDeadlineCycles uint64

	// SnapshotDir, when set, enables crash durability: job snapshots
	// (one each persistInterval cycles a job runs, and one at drain) and
	// the submission journal land here, and startup recovers unfinished
	// jobs from it. "" disables persistence.
	SnapshotDir string

	// Inject, when set, arms the service-layer fault sites (svc.admit,
	// svc.enqueue, svc.dispatch, svc.persist, svc.respond). Per-job VM
	// faults ride on JobRequest.InjectSpec instead.
	Inject *faultinject.Injector

	// DefaultTenant is the contract for tenants not listed in Tenants.
	DefaultTenant TenantConfig
	// Tenants holds per-tenant admission contracts.
	Tenants map[string]TenantConfig

	// ShedHighWater is the total queue-fill fraction that moves the
	// ladder Full→Shedding (default 0.75); shedLowWater moves it back.
	ShedHighWater float64

	// Seed seeds the Retry-After jitter sequence.
	Seed uint64

	// OutcomeRetention bounds the job table (0 = 4096): once full, the
	// oldest job's outcome and events are evicted FIFO — a long-running
	// daemon must not retain every outcome it ever produced. With a
	// SnapshotDir it also bounds the done records each start keeps in
	// the journal, and so the settled jobs a restart still answers for.
	OutcomeRetention int

	// MaxTrackedTenants bounds every map keyed by client-supplied tenant
	// names (0 = 1024): admission buckets are evicted past it and metric
	// series beyond it aggregate under tenant="_other", so cycling tenant
	// names cannot grow memory without bound.
	MaxTrackedTenants int

	// Clock is the admission clock (nil = time.Now). Injectable so
	// quota tests don't sleep.
	Clock func() time.Time
}

func (c *Config) workers() int {
	if c.Workers <= 0 {
		return 4
	}
	return c.Workers
}

func (c *Config) quantum() uint64 {
	if c.PreemptQuantum == 0 {
		return 250_000
	}
	return c.PreemptQuantum
}

// shedLowWater is the total queue-fill fraction at or below which the
// ladder moves Shedding→Full.
const shedLowWater = 0.25

// retryAfterBase is the base Retry-After for shed responses without a
// quota-derived wait. Every Retry-After carries ±50% deterministic
// jitter so shed clients don't return in lockstep.
const retryAfterBase = time.Second

func (c *Config) highWater() float64 {
	if c.ShedHighWater <= 0 {
		return 0.75
	}
	return c.ShedHighWater
}

func (c *Config) outcomeRetention() int {
	if c.OutcomeRetention <= 0 {
		return 4096
	}
	return c.OutcomeRetention
}

func (c *Config) maxTenants() int {
	if c.MaxTrackedTenants <= 0 {
		return 1024
	}
	return c.MaxTrackedTenants
}

// JobRequest is one job submission.
type JobRequest struct {
	Tenant         string       `json:"tenant"`
	ImageID        string       `json:"image"`
	Alt            fpvm.AltKind `json:"alt"`
	Precision      uint         `json:"precision,omitempty"`
	DeadlineCycles uint64       `json:"deadline_cycles,omitempty"`

	// InjectSpec, when non-empty, arms VM-level fault injection for this
	// job only (faultinject.ParseSpec grammar). Chaos harness knob.
	InjectSpec string `json:"inject,omitempty"`
	InjectSeed uint64 `json:"inject_seed,omitempty"`
}

// JobOutcome is the service's answer for one submission.
type JobOutcome struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Workload string `json:"workload,omitempty"`
	Status   Status `json:"status"`
	Reason   Reason `json:"reason,omitempty"`
	Detail   string `json:"detail,omitempty"`

	Stdout   string `json:"stdout,omitempty"`
	ExitCode int    `json:"exit_code"`
	Cycles   uint64 `json:"cycles"`
	// Digest is the oracle's FNV-1a digest of the normalized final
	// architectural state ("" when the run produced none). Cycle- and
	// schedule-independent: the bit-identity probe for recovery checks.
	Digest string `json:"digest,omitempty"`

	Recovered bool `json:"recovered,omitempty"`
	Detached  bool `json:"detached,omitempty"`

	// RetryAfter is the jittered client backoff for shed outcomes.
	RetryAfter time.Duration `json:"-"`
}

// job is one admitted submission in flight. entry is the registry entry
// admission resolved — dispatch re-checks its quarantine state but never
// re-resolves the ID (the TOCTOU fix: one lookup, one entry). A
// recovered job is one a dead instance journaled and never finished;
// snap holds its last persisted snapshot, if one survived.
type job struct {
	id        string
	req       JobRequest
	entry     *ImageEntry
	deadline  uint64
	recovered bool
	snap      []byte
	// inject is the job's VM fault injector, parsed from its request at
	// admission or from its journal record at recovery (nil without a
	// spec).
	inject *faultinject.Injector
	done   chan *JobOutcome
}

// Service is the multi-tenant FP-virtualization daemon core.
type Service struct {
	cfg Config
	reg *Registry
	adm *admission
	met *metrics
	jnl *journal

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]*job
	queued   int
	inflight int
	state    State
	draining bool
	// suspended counts jobs suspended by the current drain, maintained
	// directly at each suspension: the job table is bounded and
	// evictable, so scanning it would under-count on a busy daemon.
	suspended int
	// drainDone closes when the first Drain caller finishes; concurrent
	// callers wait on it and report the same count.
	drainDone chan struct{}
	// enqueues tracks submissions between their journal append and their
	// resolution (queued, or refused with its done record). Drain waits
	// on it after flipping draining and before closing the journal, so a
	// refusal's done record can never lose the race against the close
	// and leave a pending journal entry no one counted. Add happens under
	// s.mu with draining false; later arrivals refuse at the pre-check
	// un-journaled.
	enqueues sync.WaitGroup
	// gen is the boot generation (count of journal boot records incl.
	// this one) and seq the within-boot submission counter; together
	// they make job IDs unique across restarts even though refused
	// submissions burn seq without leaving a journal record.
	gen uint64
	seq uint64

	// jobs indexes every job's outcome and event log, bounded at
	// OutcomeRetention (see table.go): in memory until the job's done
	// record is journaled, in the journal after. It has its own lock,
	// never taken under s.mu.
	jobs *jobTable

	jitterMu  sync.Mutex
	jitterSeq uint64

	wg sync.WaitGroup

	// testHookDispatch, when set, runs in the worker goroutine right
	// before a job executes — the panic-containment tests' trapdoor.
	testHookDispatch func(*job)
	// testHookPreSignal, when set, runs under s.mu at the instant a job
	// has been placed on its queue, before workers are signalled — the
	// journal-ordering test's probe point.
	testHookPreSignal func(*job)
	// persistEvery is the persist interval in virtual cycles:
	// persistInterval, which tests lower to persist at every preemption.
	persistEvery uint64
}

// New builds a Service. Call Start to recover journaled work and launch
// the worker pool.
func New(cfg Config) *Service {
	s := &Service{
		cfg:          cfg,
		reg:          NewRegistry(),
		adm:          newAdmission(cfg.DefaultTenant, cfg.Tenants, cfg.Clock, cfg.maxTenants()),
		met:          newMetrics(cfg.maxTenants()),
		gen:          1,
		queues:       make(map[string][]*job),
		jobs:         newJobTable(cfg.outcomeRetention()),
		persistEvery: persistInterval,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// PoolStats counts the VMs the service built for jobs as misses of a
// pool that no longer exists: Hits is always 0.
//
// Deprecated: every job's VM is built at dispatch; read
// fpvmd_vm_builds_total from /metrics.
type PoolStats struct {
	Hits   uint64
	Misses uint64
}

// PoolStats reports the VMs built for jobs so far as Misses.
//
// Deprecated: every job's VM is built at dispatch; read
// fpvmd_vm_builds_total from /metrics.
func (s *Service) PoolStats() PoolStats {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	return PoolStats{Misses: s.met.vmBuilds}
}

// WarmPools builds nothing and returns 0.
//
// Deprecated: there is no warm VM pool to fill.
func (s *Service) WarmPools(alt fpvm.AltKind, precision uint) int { return 0 }

// Registry exposes the image registry (the HTTP layer registers through
// it).
func (s *Service) Registry() *Registry { return s.reg }

// Start compacts and opens the snapshot directory's journal, launches
// the worker pool, and runs every job a previous instance left
// unfinished through it, returning once all of them have settled.
// Recovery outcomes are queryable via Outcome; the returned count is how
// many jobs were recovered.
func (s *Service) Start() (recovered int, err error) {
	if s.cfg.SnapshotDir == "" {
		s.startWorkers()
		return 0, nil
	}
	jobs, err := s.recoverJournaled()
	if err != nil {
		return 0, err
	}
	s.startWorkers()
	return s.settleRecovered(jobs), nil
}

func (s *Service) startWorkers() {
	for w := 0; w < s.cfg.workers(); w++ {
		s.wg.Add(1)
		go func(w int) {
			defer s.wg.Done()
			s.worker(w)
		}(w)
	}
}

// State returns the ladder position.
func (s *Service) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Ready reports whether the service is admitting work (readiness probe).
func (s *Service) Ready() bool { return s.State() != StateDraining }

// Outcome returns a copy of a job's latest outcome: its in-flight phase,
// or its settled (shed, suspended, finished) answer. A finished job whose
// done record is journaled answers from that record, on this instance
// after Drain and on the next one after a restart.
func (s *Service) Outcome(id string) (*JobOutcome, bool) { return s.jobs.outcome(id) }

// eventsAfter returns id's events with Seq > since and the channel that
// closes when there may be more (see jobTable.eventsAfter).
func (s *Service) eventsAfter(id string, since int) ([]JobEvent, <-chan struct{}, bool) {
	return s.jobs.eventsAfter(id, since)
}

// check consults the injector at a service site, nil-safe.
func (s *Service) check(site faultinject.Site) *faultinject.Fault {
	if s.cfg.Inject == nil {
		return nil
	}
	err := s.cfg.Inject.Check(site, 0)
	if err == nil {
		return nil
	}
	f, _ := err.(*faultinject.Fault)
	if f == nil {
		f = &faultinject.Fault{Site: site}
	}
	return f
}

// retryAfter jitters a backoff duration: uniform in [0.5·base, 1.5·base)
// from a seeded deterministic sequence, so a burst of shed clients is
// told to come back spread out, not in lockstep.
func (s *Service) retryAfter(base time.Duration) time.Duration {
	if base <= 0 {
		base = retryAfterBase
	}
	s.jitterMu.Lock()
	s.jitterSeq++
	z := s.cfg.Seed + s.jitterSeq*0x9E3779B97F4A7C15
	s.jitterMu.Unlock()
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	frac := 0.5 + float64(z>>11)/(1<<53)
	return time.Duration(float64(base) * frac)
}

// sanitizeID maps arbitrary tenant strings onto the filename-safe
// alphabet, so a job ID names its job-<id>.snap file as it stands.
func sanitizeID(sr string) string {
	var sb strings.Builder
	for _, r := range sr {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "anon"
	}
	return sb.String()
}

// Submit runs one job through the full pipeline — admission, queueing,
// dispatch, execution, response — and blocks until its outcome. Every
// path out is a deliberate Status; Submit never returns nil.
func (s *Service) Submit(req JobRequest) *JobOutcome {
	j, out := s.accept(req)
	if out != nil {
		return out
	}
	return <-j.done
}

// SubmitAsync runs the same admission/queueing pipeline as Submit but
// returns as soon as the job is journaled and queued: the returned
// outcome reports the pending phase (or a later one, if a worker was
// faster), and the caller follows progress through Outcome or the
// events stream. Refusals still resolve immediately with a terminal
// outcome. Drain suspends async jobs exactly like blocking ones, and
// recovery serves them under their original IDs.
func (s *Service) SubmitAsync(req JobRequest) *JobOutcome {
	s.met.bump(&s.met.asyncSubmissions)
	j, out := s.accept(req)
	if out != nil {
		return out
	}
	if o, ok := s.Outcome(j.id); ok {
		return o
	}
	// Unreachable in practice — accept records the pending phase before
	// returning — but SubmitAsync never returns nil.
	return &JobOutcome{ID: j.id, Tenant: req.Tenant, Workload: j.entry.Workload, Status: StatusPending}
}

// accept is the shared front half of Submit and SubmitAsync: mint an ID,
// validate, admit, enqueue. (nil, outcome) is a refusal; (job, nil) an
// accepted job the worker pool now owns.
func (s *Service) accept(req JobRequest) (*job, *JobOutcome) {
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j%d_%05d_%s", s.gen, s.seq, sanitizeID(req.Tenant))
	s.mu.Unlock()

	// A malformed request is refused before it costs a quota token or a
	// journal fsync: it would only fail at dispatch.
	inj, err := validate(req)
	if err != nil {
		out := &JobOutcome{ID: id, Tenant: req.Tenant, Status: StatusFailed,
			Reason: ReasonInvalid, Detail: err.Error()}
		s.record(out)
		return nil, out
	}

	entry, out := s.admit(id, req)
	if out != nil {
		s.record(out)
		return nil, out
	}

	j := &job{
		id:       id,
		req:      req,
		entry:    entry,
		deadline: req.DeadlineCycles,
		inject:   inj,
		done:     make(chan *JobOutcome, 1),
	}
	if j.deadline == 0 {
		j.deadline = s.cfg.DefaultDeadlineCycles
	}

	if out := s.enqueue(j); out != nil {
		return nil, out
	}
	return j, nil
}

// validate checks the request fields a job's VM is built from: the alt
// system must exist, the precision must not pass maxPrecision, and the
// inject spec must parse. It returns the parsed injector (nil without a
// spec).
func validate(req JobRequest) (*faultinject.Injector, error) {
	if req.Precision > maxPrecision {
		return nil, fmt.Errorf("precision %d bits exceeds the %d-bit bound", req.Precision, maxPrecision)
	}
	if _, err := fpvm.NewAltSystem(req.Alt, req.Precision); err != nil {
		return nil, err
	}
	if req.InjectSpec == "" {
		return nil, nil
	}
	inj, err := faultinject.ParseSpec(req.InjectSpec, req.InjectSeed)
	if err != nil {
		return nil, fmt.Errorf("bad inject spec: %w", err)
	}
	return inj, nil
}

// admit runs the admission pipeline; a nil outcome means admitted, and
// the returned entry is the one resolved lookup the job carries to
// dispatch (which re-checks quarantine on it, never re-resolving).
func (s *Service) admit(id string, req JobRequest) (*ImageEntry, *JobOutcome) {
	shed := func(reason Reason, detail string, base time.Duration) *JobOutcome {
		return &JobOutcome{
			ID: id, Tenant: req.Tenant, Status: StatusShed, Reason: reason,
			Detail: detail, RetryAfter: s.retryAfter(base),
		}
	}

	if s.State() == StateDraining {
		return nil, shed(ReasonDraining, "draining", 0)
	}

	// Injected admission fault: the admission subsystem is momentarily
	// broken; the deliberate answer is a shed with backoff, resolved as
	// a degradation (service quality, not correctness).
	if f := s.check(faultinject.SiteSvcAdmit); f != nil {
		s.cfg.Inject.Resolve(faultinject.SiteSvcAdmit, faultinject.Degraded)
		return nil, shed(ReasonFault, "admission fault injected", 0)
	}

	entry, ok := s.reg.Get(req.ImageID)
	if !ok {
		return nil, &JobOutcome{ID: id, Tenant: req.Tenant, Status: StatusFailed,
			Reason: ReasonUnknownImage, Detail: "unknown image " + req.ImageID}
	}
	if q, why := entry.Quarantined(); q {
		return nil, &JobOutcome{ID: id, Tenant: req.Tenant, Status: StatusFailed,
			Reason: ReasonQuarantined, Workload: entry.Workload,
			Detail: "image quarantined: " + why}
	}

	tc := s.adm.tenantConfig(req.Tenant)
	if s.State() == StateShedding && tc.Priority == 0 {
		return nil, shed(ReasonPressure, "shedding low-priority tenants under pressure", 0)
	}

	if ok, wait := s.adm.take(req.Tenant); !ok {
		return nil, shed(ReasonQuota, "tenant quota exhausted", wait)
	}
	return entry, nil
}

// enqueue places an admitted job on its tenant's bounded queue; nil
// means queued (the worker pool owns it now), and a refusal is recorded
// here. Admission already charged the tenant a quota token; every
// refusal here refunds it — a job the service never accepted must not
// burn the tenant's budget.
func (s *Service) enqueue(j *job) *JobOutcome {
	journaled := false
	refused := func(reason Reason, detail string) *JobOutcome {
		s.adm.refund(j.req.Tenant)
		out := &JobOutcome{ID: j.id, Tenant: j.req.Tenant, Status: StatusShed,
			Reason: reason, Detail: detail, RetryAfter: s.retryAfter(0)}
		if journaled {
			// Journaled but refused: the done record closes the job
			// record, so recovery never replays a job its client was told
			// was shed.
			s.settle(out)
		} else {
			s.record(out)
		}
		return out
	}

	// Injected enqueue fault: transient; retry once, shed on a repeat.
	if f := s.check(faultinject.SiteSvcEnqueue); f != nil {
		s.cfg.Inject.Resolve(faultinject.SiteSvcEnqueue, faultinject.Retried)
		s.met.bump(&s.met.enqueueRetries)
		if f2 := s.check(faultinject.SiteSvcEnqueue); f2 != nil {
			s.cfg.Inject.Resolve(faultinject.SiteSvcEnqueue, faultinject.Degraded)
			return refused(ReasonFault, "enqueue fault persisted")
		}
	}

	tc := s.adm.tenantConfig(j.req.Tenant)

	// Cheap pre-check so obviously refusable submissions don't pay a
	// journal fsync; the authoritative check re-runs after journaling.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return refused(ReasonDraining, "draining")
	}
	if len(s.queues[j.req.Tenant]) >= tc.queueDepth() {
		s.mu.Unlock()
		return refused(ReasonQueue, "tenant queue full")
	}
	s.enqueues.Add(1)
	s.mu.Unlock()
	defer s.enqueues.Done()

	// Journal BEFORE the job becomes claimable. The instant a worker can
	// see the job it may persist a job-<id>.snap or journal its done
	// record, and recovery only understands snapshots and dones it can
	// tie to a job record — a done-before-job ordering (or an orphaned
	// snapshot) must be impossible, not just unlikely. A crash in the
	// window after this append merely replays the job: at-least-once for
	// accepted work, never an orphan. A journal write failure still
	// degrades durability, never availability.
	s.journalJob(j)
	journaled = true

	// The job is journaled and about to be claimable: record its pending
	// phase now, before any worker can race a later phase in (record
	// keeps phases monotone, so a faster worker's update wins anyway).
	s.record(&JobOutcome{ID: j.id, Tenant: j.req.Tenant, Workload: j.entry.Workload,
		Status: StatusPending, Detail: "queued"})

	s.mu.Lock()
	if s.draining || len(s.queues[j.req.Tenant]) >= tc.queueDepth() {
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return refused(ReasonDraining, "draining")
		}
		return refused(ReasonQueue, "tenant queue full")
	}
	s.queues[j.req.Tenant] = append(s.queues[j.req.Tenant], j)
	s.queued++
	s.updatePressureLocked()
	if h := s.testHookPreSignal; h != nil {
		h(j)
	}
	s.cond.Signal()
	s.mu.Unlock()
	return nil
}

func (s *Service) journalJob(j *job) {
	if s.jnl == nil {
		return
	}
	_, _, err := s.jnl.append(journalRecord{
		Op: opJob, ID: j.id, Tenant: j.req.Tenant,
		Workload: j.entry.Workload, ImageID: j.entry.ID,
		Alt: string(j.req.Alt), Precision: j.req.Precision,
		Deadline: j.deadline,
		Inject:   j.req.InjectSpec, InjectSeed: j.req.InjectSeed,
	})
	if err != nil {
		s.met.bump(&s.met.journalFailures)
	}
}

// settle records a journaled job's terminal outcome o. Its done record
// carries o and the events the job emitted before it, and the job table
// keeps where that record lies instead of the job's record, so a settled
// job costs the daemon a table slot and the journal a line, and a
// restart still answers for it. Without a journal, when the append
// fails, or for a record of 16 MiB or more, the record stays in memory.
func (s *Service) settle(o *JobOutcome) {
	if s.jnl != nil {
		off, n, err := s.jnl.append(journalRecord{Op: opDone, ID: o.ID, Outcome: o, Events: s.jobs.history(o.ID)})
		switch {
		case err != nil:
			s.met.bump(&s.met.journalFailures)
		case s.jobs.settle(o.ID, off, n):
			s.met.job(o.Tenant, o.Status)
			return
		}
	}
	s.record(o)
}

// updatePressureLocked moves the ladder between Full and Shedding from
// total queue fill. Draining is sticky — only Drain enters it, nothing
// leaves it.
func (s *Service) updatePressureLocked() {
	if s.draining {
		return
	}
	// Capacity counts only tenants with work queued (next and Drain
	// delete emptied queues): a client minting fresh tenant names must
	// not dilute the fill fraction and hold off the shedding transition.
	capacity := 0
	for tenant, q := range s.queues {
		if len(q) == 0 {
			continue
		}
		capacity += s.adm.tenantConfig(tenant).queueDepth()
	}
	if capacity == 0 {
		s.state = StateFull
		return
	}
	fill := float64(s.queued) / float64(capacity)
	switch {
	case fill >= s.cfg.highWater():
		s.state = StateShedding
	case fill <= shedLowWater:
		s.state = StateFull
	}
}

// next blocks until a job is available and claims it, or returns nil
// when the service is draining (workers exit; queued jobs are flushed
// as suspended by Drain).
func (s *Service) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return nil
		}
		if s.queued > 0 {
			break
		}
		s.cond.Wait()
	}

	// Highest-priority tenant first; FIFO within a tenant; name order
	// breaks priority ties so scheduling is deterministic.
	tenants := make([]string, 0, len(s.queues))
	for t := range s.queues {
		if len(s.queues[t]) > 0 {
			tenants = append(tenants, t)
		}
	}
	sort.Slice(tenants, func(i, k int) bool {
		pi, pk := s.adm.tenantConfig(tenants[i]).Priority, s.adm.tenantConfig(tenants[k]).Priority
		if pi != pk {
			return pi > pk
		}
		return tenants[i] < tenants[k]
	})
	t := tenants[0]
	j := s.queues[t][0]
	s.queues[t] = s.queues[t][1:]
	if len(s.queues[t]) == 0 {
		// Evict the emptied queue: tenant-name cardinality stays bounded
		// and pressure capacity tracks active tenants only.
		delete(s.queues, t)
	}
	s.queued--
	s.inflight++
	s.updatePressureLocked()
	return j
}

func (s *Service) worker(w int) {
	for {
		j := s.next()
		if j == nil {
			return
		}
		// Injected dispatch fault: the pickup is transient-faulty;
		// resolve as a retry and dispatch again (successfully).
		if f := s.check(faultinject.SiteSvcDispatch); f != nil {
			s.cfg.Inject.Resolve(faultinject.SiteSvcDispatch, faultinject.Retried)
			s.met.bump(&s.met.dispatchRetries)
		}
		s.execute(j)
	}
}

// execute runs one job's slice loop to a terminal outcome. A panic —
// from the runtime or the service's own handling — is contained: the
// job fails, its image is quarantined, and the worker (and daemon)
// keep serving.
func (s *Service) execute(j *job) {
	defer func() {
		if p := recover(); p != nil {
			s.reg.Quarantine(j.entry.ID, fmt.Sprintf("worker panic: %v", p))
			s.met.bump(&s.met.panics)
			s.finish(j, &JobOutcome{
				ID: j.id, Tenant: j.req.Tenant, Workload: j.entry.Workload,
				Status: StatusFailed,
				Detail: fmt.Sprintf("worker panic (image quarantined): %v", p),
			})
		}
	}()
	if s.testHookDispatch != nil {
		s.testHookDispatch(j)
	}

	// Quarantine is re-checked at dispatch: admission's check and this
	// moment are separated by arbitrary queueing, and another job's
	// panic may have quarantined the image in between (the TOCTOU this
	// closes). The entry is the one admission resolved — no second
	// registry lookup to race against re-registration.
	if q, why := j.entry.Quarantined(); q {
		s.finish(j, &JobOutcome{ID: j.id, Tenant: j.req.Tenant, Workload: j.entry.Workload,
			Status: StatusFailed, Reason: ReasonQuarantined,
			Detail: "image quarantined between admission and dispatch: " + why})
		return
	}

	s.record(&JobOutcome{ID: j.id, Tenant: j.req.Tenant, Workload: j.entry.Workload,
		Status: StatusRunning, Detail: "executing"})

	cfg := jobVMConfig(j.entry, j.req.Alt, j.req.Precision)
	cfg.Inject = j.inject
	s.met.bump(&s.met.vmBuilds)
	vm, err := fpvm.Prepare(j.entry.Image, cfg)
	if err == nil && j.snap != nil {
		// A recovered job resumes from the snapshot its dead instance
		// persisted last. Restore is the only validator: torn or corrupt
		// bytes, or bytes bound to another image, alt system or config,
		// are rejected, and the job runs fresh on a new VM.
		if rerr := vm.Restore(j.snap); rerr != nil {
			s.met.bump(&s.met.recoveryRejects)
			s.met.bump(&s.met.vmBuilds)
			vm, err = fpvm.Prepare(j.entry.Image, cfg)
		}
		j.snap = nil
	}
	if err != nil {
		s.finish(j, &JobOutcome{ID: j.id, Tenant: j.req.Tenant, Workload: j.entry.Workload,
			Status: StatusFailed, Detail: err.Error()})
		return
	}

	// One VM per job, built above at dispatch: every slice continues it
	// in place. It is local to this call, so every way out — terminal
	// status, deadline, drain, panic — drops it, and no job's state ever
	// reaches another job. The deadline budget and the persist interval
	// both count on the VM's own clock, so a restored job's first slice
	// gets only what its dead instance left of the budget, and its next
	// persist comes an interval after the state it restored.
	persisted := vm.Cycles()
	for {
		q := s.cfg.quantum()
		if j.deadline > 0 {
			if rem := j.deadline - vm.Cycles(); rem < q {
				q = rem
			}
		}
		vm.SetPreemptQuantum(q)
		res, err := vm.RunSlice()

		if err != nil && (res == nil || !res.Detached) {
			s.finish(j, &JobOutcome{ID: j.id, Tenant: j.req.Tenant, Workload: j.entry.Workload,
				Status: StatusFailed, Detail: err.Error()})
			return
		}

		if res.Preempted {
			if j.deadline > 0 && res.Cycles >= j.deadline {
				// Deadline blown: cancelled at the trap boundary; the
				// partial result travels with the distinct status. The job
				// ends here, so nothing is persisted.
				s.finish(j, s.outcomeFrom(j, res, StatusDeadline,
					fmt.Sprintf("deadline %d cycles exceeded at %d", j.deadline, res.Cycles)))
				return
			}
			if s.isDraining() {
				// Drain writes the slice it suspends exactly once, whether
				// or not the interval is also due.
				s.persist(j, vm)
				s.suspend(j, res)
				return
			}
			if res.Cycles-persisted >= s.persistEvery {
				s.persist(j, vm)
				persisted = res.Cycles
			}
			continue
		}

		st, detail := StatusCompleted, ""
		switch {
		case j.deadline > 0 && res.Cycles > j.deadline:
			// The job's last step, its exit, crossed the deadline: no
			// boundary came between, so the result is whole, but a job
			// never completes past its deadline.
			st, detail = StatusDeadline, fmt.Sprintf("deadline %d cycles exceeded at %d by the job's last step",
				j.deadline, res.Cycles)
		case res.Detached:
			st, detail = StatusDegraded, "fatal rung detached; guest completed natively"
		case j.recovered && res.Resumed:
			st, detail = StatusRecovered, "resumed from snapshot after daemon restart"
		case j.recovered:
			st, detail = StatusRecovered, "completed after daemon restart"
		}
		s.finish(j, s.outcomeFrom(j, res, st, detail))
		return
	}
}

func (s *Service) outcomeFrom(j *job, res *fpvm.Result, st Status, detail string) *JobOutcome {
	o := &JobOutcome{
		ID: j.id, Tenant: j.req.Tenant, Workload: j.entry.Workload,
		Status: st, Detail: detail,
		Stdout: res.Stdout, ExitCode: res.ExitCode, Cycles: res.Cycles,
		Detached: res.Detached,
	}
	if res.Final != nil {
		rec := oracle.Digest(res.Final)
		o.Digest = formatDigest(rec.RIP, rec.Sum)
	}
	if res.Breakdown != nil {
		s.met.merge(res.Breakdown)
	}
	return o
}

// persist serializes a preempted job's VM and writes the snapshot for
// crash durability. execute calls it at a preemption the job continues
// past once the VM clock has advanced persistEvery cycles since the
// job's last persist point (or since its VM was built or restored), and
// once more at the preemption a drain suspends; never at the preemption
// that ends a job. An injected persist fault (or a real capture or write
// failure) degrades durability only: the live VM keeps the job running,
// any earlier snapshot of the job stays in place, and the next persist
// point still comes an interval later.
func (s *Service) persist(j *job, vm *fpvm.VM) {
	if s.cfg.SnapshotDir == "" {
		return
	}
	if f := s.check(faultinject.SiteSvcPersist); f != nil {
		s.cfg.Inject.Resolve(faultinject.SiteSvcPersist, faultinject.Degraded)
		s.met.bump(&s.met.persistDegraded)
		return
	}
	snap, err := vm.Snapshot()
	if err == nil {
		err = checkpoint.WriteFileAtomic(s.snapPath(j.id), snap)
	}
	if err != nil {
		s.met.bump(&s.met.persistFailures)
		return
	}
	s.met.bump(&s.met.snapshotsWritten)
}

// suspend parks an in-flight job during drain: its last preemption's
// snapshot is already persisted, no done record is written (the journal
// keeps it pending for the next instance), and the waiting client is
// told it's suspended. The suspension counter is bumped here, at the
// event — Drain's return value must not depend on the bounded job table
// still holding every suspended outcome.
func (s *Service) suspend(j *job, res *fpvm.Result) {
	o := s.outcomeFrom(j, res, StatusSuspended,
		"daemon draining; job suspended for recovery")
	s.mu.Lock()
	s.suspended++
	s.mu.Unlock()
	s.deliver(j, o, false)
}

// finish records a terminal outcome: done record, snapshot cleanup,
// response delivery.
func (s *Service) finish(j *job, o *JobOutcome) {
	s.deliver(j, o, true)
}

func (s *Service) deliver(j *job, o *JobOutcome, terminal bool) {
	o.Recovered = j.recovered
	if terminal {
		s.settle(o)
		if s.cfg.SnapshotDir != "" {
			removeQuiet(s.snapPath(j.id))
		}
	} else {
		s.record(o)
	}

	// Injected respond fault: delivery is transient-faulty; retry the
	// send (it is idempotent — the outcome is also in the job table).
	if f := s.check(faultinject.SiteSvcRespond); f != nil {
		s.cfg.Inject.Resolve(faultinject.SiteSvcRespond, faultinject.Retried)
		s.met.bump(&s.met.respondRetries)
	}

	s.mu.Lock()
	s.inflight--
	s.cond.Broadcast()
	s.mu.Unlock()
	j.done <- o
}

// record applies an outcome (terminal or in-flight phase) to the job's
// in-memory record, which appends the matching job event. Phase updates
// are rank-monotone: a stale pending/running racing in after a faster
// transition is dropped, so a settled job can never appear in-flight
// again. The table is bounded: past OutcomeRetention the oldest jobs are
// evicted FIFO, so a long-running daemon's memory doesn't grow with its
// request history. Only terminal statuses count toward the per-tenant
// job metrics (phases are gauges, not outcomes). The table copies o's
// fields, so o stays the caller's.
func (s *Service) record(o *JobOutcome) {
	if terminalStatus(o.Status) {
		s.met.job(o.Tenant, o.Status)
	}
	s.jobs.record(o)
}

func (s *Service) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: admission stops, workers
// suspend in-flight jobs at their next trap boundary (snapshot + journal
// keep them recoverable), queued jobs are flushed as suspended and the
// journal is closed for appends (Outcome, GET and the events stream
// still read settled jobs from it). Returns the number of jobs
// suspended — counted directly at each suspension, never by scanning the
// bounded job table (FIFO eviction would under-count on a busy
// daemon). Concurrent callers wait for the first drain and report the
// same count.
func (s *Service) Drain() int {
	s.mu.Lock()
	if s.draining {
		done := s.drainDone
		s.mu.Unlock()
		if done != nil {
			<-done
		}
		s.mu.Lock()
		n := s.suspended
		s.mu.Unlock()
		return n
	}
	s.draining = true
	s.state = StateDraining
	s.drainDone = make(chan struct{})
	done := s.drainDone
	s.cond.Broadcast()
	s.mu.Unlock()

	// In-window submissions first: anything journaled before the drain
	// flip resolves — onto a queue (flushed below) or refused with its
	// done record written — before the journal can close underneath it.
	s.enqueues.Wait()
	s.wg.Wait() // workers finish or suspend their current job, then exit

	// Flush never-started queued jobs: journaled, no snapshot — the next
	// instance runs them fresh.
	s.mu.Lock()
	var parked []*job
	for t, q := range s.queues {
		parked = append(parked, q...)
		delete(s.queues, t)
	}
	s.queued = 0
	s.suspended += len(parked)
	s.mu.Unlock()

	for _, j := range parked {
		o := &JobOutcome{ID: j.id, Tenant: j.req.Tenant, Workload: j.entry.Workload,
			Status: StatusSuspended, Detail: "daemon draining; queued job journaled for recovery"}
		s.record(o)
		j.done <- o
	}

	if s.jnl != nil {
		s.jnl.Close()
	}

	s.mu.Lock()
	n := s.suspended
	s.mu.Unlock()
	close(done)
	return n
}

// snapPath names job id's preemption snapshot: job-<id>.snap.
func (s *Service) snapPath(id string) string {
	return filepath.Join(s.cfg.SnapshotDir, "job-"+id+".snap")
}

// removeQuiet removes a file, ignoring errors (absence is fine).
func removeQuiet(path string) { os.Remove(path) }
