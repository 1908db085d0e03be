package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"fpvm/internal/telemetry"
)

// metrics aggregates per-tenant job counters, service-layer fault
// handling counters, and the merged runtime telemetry of every job the
// service has executed.
type metrics struct {
	mu       sync.Mutex
	byTenant map[string]map[Status]uint64
	// maxTenants bounds byTenant's label cardinality: once that many
	// distinct tenants are tracked, new ones aggregate under "_other",
	// so client-minted tenant names can't grow the series set unbounded.
	maxTenants int

	enqueueRetries   uint64
	dispatchRetries  uint64
	respondRetries   uint64
	persistDegraded  uint64
	persistFailures  uint64
	snapshotsWritten uint64
	journalFailures  uint64
	recoveryRejects  uint64
	panics           uint64
	asyncSubmissions uint64
	vmBuilds         uint64

	breakdown telemetry.Breakdown
}

func newMetrics(maxTenants int) *metrics {
	if maxTenants <= 0 {
		maxTenants = 1024
	}
	return &metrics{
		byTenant:   make(map[string]map[Status]uint64),
		maxTenants: maxTenants,
	}
}

func (m *metrics) job(tenant string, st Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.byTenant[tenant]
	if t == nil {
		if len(m.byTenant) >= m.maxTenants {
			tenant = "_other"
			t = m.byTenant[tenant]
		}
		if t == nil {
			t = make(map[Status]uint64)
			m.byTenant[tenant] = t
		}
	}
	t[st]++
}

func (m *metrics) bump(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

func (m *metrics) merge(b *telemetry.Breakdown) {
	m.mu.Lock()
	m.breakdown.Merge(b)
	m.mu.Unlock()
}

// tenantCount reads one tenant/status cell (test and bench probe).
func (m *metrics) tenantCount(tenant string, st Status) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byTenant[tenant][st]
}

// WriteMetrics renders the full metric surface in Prometheus text
// format: per-tenant job outcomes, service internals, queue/ladder
// gauges, then the merged runtime Breakdown under the fpvmd prefix.
func (s *Service) WriteMetrics(w io.Writer) error {
	var sb strings.Builder

	s.met.mu.Lock()
	tenants := make([]string, 0, len(s.met.byTenant))
	for t := range s.met.byTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Fprintf(&sb, "# HELP fpvmd_jobs_total job outcomes by tenant and status\n")
	fmt.Fprintf(&sb, "# TYPE fpvmd_jobs_total counter\n")
	for _, t := range tenants {
		stats := s.met.byTenant[t]
		sts := make([]string, 0, len(stats))
		for st := range stats {
			sts = append(sts, string(st))
		}
		sort.Strings(sts)
		for _, st := range sts {
			fmt.Fprintf(&sb, "fpvmd_jobs_total{status=%q,tenant=%q} %d\n", st, t, stats[Status(st)])
		}
	}
	internals := []struct {
		name, help string
		v          uint64
	}{
		{"enqueue_retries_total", "injected enqueue faults resolved by retry", s.met.enqueueRetries},
		{"dispatch_retries_total", "injected dispatch faults resolved by retry", s.met.dispatchRetries},
		{"respond_retries_total", "injected respond faults resolved by retry", s.met.respondRetries},
		{"persist_degraded_total", "snapshot persists degraded by injected faults", s.met.persistDegraded},
		{"persist_failures_total", "snapshot persists that failed on real I/O", s.met.persistFailures},
		{"snapshots_persisted_total", "job snapshots written: at each persist interval a job runs past, and at drain", s.met.snapshotsWritten},
		{"journal_failures_total", "journal appends and boot compactions that failed (durability degraded)", s.met.journalFailures},
		{"recovery_rejects_total", "snapshot files rejected during recovery", s.met.recoveryRejects},
		{"worker_panics_total", "worker panics contained (image quarantined)", s.met.panics},
		{"async_submissions_total", "jobs submitted through the async API", s.met.asyncSubmissions},
		{"vm_builds_total", "VMs built for jobs: one per job run, one more per rejected snapshot", s.met.vmBuilds},
	}
	for _, c := range internals {
		fmt.Fprintf(&sb, "# HELP fpvmd_%s %s\n# TYPE fpvmd_%s counter\nfpvmd_%s %d\n",
			c.name, c.help, c.name, c.name, c.v)
	}
	breakdown := s.met.breakdown
	s.met.mu.Unlock()

	s.mu.Lock()
	queued, inflight, state := s.queued, s.inflight, s.state
	s.mu.Unlock()
	fmt.Fprintf(&sb, "# HELP fpvmd_queued_jobs jobs waiting in tenant queues\n# TYPE fpvmd_queued_jobs gauge\nfpvmd_queued_jobs %d\n", queued)
	fmt.Fprintf(&sb, "# HELP fpvmd_inflight_jobs jobs currently executing\n# TYPE fpvmd_inflight_jobs gauge\nfpvmd_inflight_jobs %d\n", inflight)
	fmt.Fprintf(&sb, "# HELP fpvmd_state degradation ladder position (0=full 1=shedding 2=draining)\n# TYPE fpvmd_state gauge\nfpvmd_state %d\n", int(state))

	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	return telemetry.WritePrometheus(w, "fpvmd_vm", nil, &breakdown)
}
