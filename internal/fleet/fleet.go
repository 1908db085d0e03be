// Package fleet executes many independent guest programs concurrently on
// a bounded worker pool: an in-memory scheduler of fully isolated VMs.
// Each job gets its own VM from fpvm.Prepare (address space, machine,
// kernel, heap, Runtime and decode/trace cache), used by that job alone
// and dropped when it ends. A job runs its Config as given, so it spends
// exactly the virtual cycles fpvm.Run spends on it, whatever runs before
// or beside it. The fleet trains no shared cache of its own; a Config
// that carries a trained store (Config.Shared) adopts from it as it
// would under fpvm.Run.
//
// With Options.PreemptQuantum set, jobs no longer own a worker for their
// whole lifetime: each scheduling turn runs one virtual-cycle slice
// (fpvm.VM.RunSlice), and the task — live VM included — returns to a
// work-stealing runqueue ordered by virtual-clock backlog. The next free
// worker steals the most-behind job and continues its VM in place, so a
// long-running guest migrates freely between workers without being
// serialized.
//
// The fleet keeps nothing on disk: a killed fleet is rerun from the
// start. Durable jobs — journaled, persisted and recovered bit-identically
// after a crash — belong to fpvmd (internal/service).
package fleet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fpvm"
	"fpvm/internal/obj"
	"fpvm/internal/telemetry"
)

// Job is one guest program execution: an image plus the run configuration
// for its VM. The runner never mutates the Config; Options.PreemptQuantum,
// when set, overrides its PreemptQuantum for every slice.
type Job struct {
	// Name labels the job in reports (e.g. the workload name).
	Name string

	// Image is the guest program. Image loading does not mutate the
	// image, so many jobs may reference the same *obj.Image.
	Image *obj.Image

	// Config configures the job's VM, exactly as for fpvm.Run.
	Config fpvm.Config
}

// Options configures a fleet run.
type Options struct {
	// Workers is the worker-pool size (0 = 4). Each worker runs whole
	// jobs (or, with PreemptQuantum, job slices); at most Workers VMs
	// execute concurrently.
	Workers int

	// Share is ignored: the fleet trains no shared decode/trace cache.
	// Give jobs a trained store through Config.Shared instead.
	//
	// Deprecated: kept only so existing callers compile.
	Share bool

	// PreemptQuantum, when > 0, preempts every job after roughly that
	// many virtual cycles at the next event boundary and returns it to
	// the runqueue with its VM still live, so any worker can continue it
	// (migration). Nothing is serialized. Requires every job's alt
	// system to have a value codec.
	PreemptQuantum uint64
}

// DefaultWorkers is the pool size when Options.Workers is 0.
const DefaultWorkers = 4

// JobResult is one job's outcome. A non-nil Err with a non-nil Result
// whose Detached flag is set is the fatal-rung outcome: FPVM detached
// but the guest still completed natively with correct output (the
// serial fpvm-run exit-11 case) — not a hard failure.
type JobResult struct {
	Name    string
	Result  *fpvm.Result // nil when Err is non-nil and the run never finished
	Err     error
	Elapsed time.Duration // summed across all slices of the job

	// Preemptions counts how many times the job was sliced off a worker;
	// Migrations counts resumptions on a different worker than the
	// previous slice.
	Preemptions int
	Migrations  int
}

// Report is the fleet-level roll-up.
type Report struct {
	Results []JobResult // one per job, in submission order

	// Breakdown is every worker's telemetry merged: fleet-aggregate
	// cycles per category and summed counters.
	Breakdown telemetry.Breakdown

	// Elapsed is the wall-clock time for the whole fleet.
	Elapsed time.Duration

	Workers int
	Jobs    int

	// Failures counts jobs that never produced a completed guest run.
	// Detached counts jobs where FPVM hit the fatal rung but the guest
	// still completed natively — degraded service, not failure.
	Failures int
	Detached int

	// Preemptions / Migrations aggregate the per-job counts: total
	// scheduling slices cut short and total cross-worker moves.
	Preemptions int
	Migrations  int

	// TotalCycles sums every job's virtual cycle count — the jobs' total
	// work, independent of scheduling.
	TotalCycles uint64
}

// Throughput returns completed jobs per wall-clock second.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Jobs-r.Failures) / r.Elapsed.Seconds()
}

// VirtualMakespan replays the fleet's schedule on the virtual clock:
// jobs are assigned in submission order to the earliest-free worker
// (the greedy discipline the real pool follows when nothing preempts),
// each costing the virtual cycles its VM actually consumed. The result
// is the fleet's completion time in virtual cycles — deterministic and
// host-independent where wall clock is not, in keeping with the
// simulator's cost-model philosophy (every other figure in this repo is
// reported on the virtual clock).
func (r *Report) VirtualMakespan() uint64 {
	if r.Workers <= 0 || len(r.Results) == 0 {
		return 0
	}
	free := make([]uint64, r.Workers)
	for i := range r.Results {
		res := r.Results[i].Result
		if res == nil {
			continue
		}
		w := 0
		for k := 1; k < len(free); k++ {
			if free[k] < free[w] {
				w = k
			}
		}
		free[w] += res.Cycles
	}
	var max uint64
	for _, f := range free {
		if f > max {
			max = f
		}
	}
	return max
}

// VirtualThroughput returns completed jobs per billion virtual cycles
// under the VirtualMakespan schedule — the deterministic fleet
// throughput figure.
func (r *Report) VirtualThroughput() float64 {
	ms := r.VirtualMakespan()
	if ms == 0 {
		return 0
	}
	return float64(r.Jobs-r.Failures) / (float64(ms) / 1e9)
}

// task is one job's scheduler state. Ownership passes through the
// runqueue: exactly one worker holds a task at a time, so its fields —
// the live VM included — need no locking of their own; the runqueue lock
// orders each handoff.
type task struct {
	idx         int
	vm          *fpvm.VM // live VM between slices; nil before the first
	cycles      uint64   // virtual cycles consumed so far — the backlog key
	lastWorker  int      // -1: never ran
	preemptions int
	migrations  int
	elapsed     time.Duration
}

// sched is the work-stealing runqueue: free workers steal the runnable
// task whose virtual clock is furthest behind — least consumed virtual
// cycles, ties to the lowest submission index — so every job keeps
// progressing (a preempting worker picks a lagging peer over the job it
// just sliced) and jobs migrate to whichever worker frees up first.
type sched struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*task
	remaining int
}

func newSched(n int) *sched {
	s := &sched{remaining: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// next blocks until a task is runnable or every job has completed (nil).
func (s *sched) next() *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.remaining == 0 {
			return nil
		}
		s.cond.Wait()
	}
	best := 0
	for i := 1; i < len(s.queue); i++ {
		t, b := s.queue[i], s.queue[best]
		if t.cycles < b.cycles || (t.cycles == b.cycles && t.idx < b.idx) {
			best = i
		}
	}
	t := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return t
}

func (s *sched) put(t *task) {
	s.mu.Lock()
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	s.cond.Signal()
}

func (s *sched) done() {
	s.mu.Lock()
	s.remaining--
	finished := s.remaining == 0
	s.mu.Unlock()
	if finished {
		s.cond.Broadcast()
	}
}

// Run executes every job on a pool of opts.Workers workers and returns
// the fleet report. Results are positional: Results[i] is jobs[i]'s
// outcome regardless of scheduling order.
func Run(jobs []Job, opts Options) *Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	rep := &Report{
		Results: make([]JobResult, len(jobs)),
		Workers: workers,
		Jobs:    len(jobs),
	}
	if len(jobs) == 0 {
		return rep
	}

	start := time.Now()
	s := newSched(len(jobs))
	for i := range jobs {
		s.queue = append(s.queue, &task{idx: i, lastWorker: -1})
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t := s.next()
				if t == nil {
					return
				}
				job := &jobs[t.idx]
				q := opts.PreemptQuantum
				if q == 0 {
					q = job.Config.PreemptQuantum
				}
				if t.lastWorker >= 0 && t.lastWorker != w {
					t.migrations++
				}
				t.lastWorker = w

				t0 := time.Now()
				res, err := runSlice(job, t, q)
				t.elapsed += time.Since(t0)

				if err == nil && res.Preempted {
					t.preemptions++
					t.cycles = res.Cycles
					s.put(t)
					continue
				}

				t.vm = nil // the job is over; its VM goes with it
				rep.Results[t.idx] = JobResult{
					Name:        job.Name,
					Result:      res,
					Err:         err,
					Elapsed:     t.elapsed,
					Preemptions: t.preemptions,
					Migrations:  t.migrations,
				}
				s.done()
			}
		}(w)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)

	for i := range rep.Results {
		jr := &rep.Results[i]
		if jr.Err != nil && (jr.Result == nil || !jr.Result.Detached) {
			rep.Failures++
		}
		rep.Preemptions += jr.Preemptions
		rep.Migrations += jr.Migrations
		if jr.Result == nil {
			continue
		}
		if jr.Result.Detached {
			rep.Detached++
		}
		rep.Breakdown.Merge(jr.Result.Breakdown)
		rep.TotalCycles += jr.Result.Cycles
	}
	return rep
}

// runSlice executes one scheduling turn of a job on its VM — built on
// the first turn, continued in place after that — with panic isolation:
// a worker that panics inside the VM stack reports the panic as that
// job's error instead of taking down the whole fleet.
func runSlice(job *Job, t *task, quantum uint64) (res *fpvm.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("fleet: job %q panicked: %v", job.Name, p)
		}
	}()
	if t.vm == nil {
		vm, err := fpvm.Prepare(job.Image, job.Config)
		if err != nil {
			return nil, err
		}
		t.vm = vm
	}
	t.vm.SetPreemptQuantum(quantum)
	return t.vm.RunSlice()
}

// Summary renders the fleet report as a short human-readable block.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet: %d jobs on %d workers\n", r.Jobs, r.Workers)
	fmt.Fprintf(&sb, "  wall %v  throughput %.1f jobs/s  total work %d cycles\n",
		r.Elapsed.Round(time.Microsecond), r.Throughput(), r.TotalCycles)
	fmt.Fprintf(&sb, "  virtual makespan %d cycles  virtual throughput %.2f jobs/Gcycle\n",
		r.VirtualMakespan(), r.VirtualThroughput())
	fmt.Fprintf(&sb, "  traps %d  emulated %d  trace hit rate %.3f\n",
		r.Breakdown.Traps, r.Breakdown.EmulatedInsts, r.Breakdown.TraceHitRate())
	if r.Preemptions > 0 {
		fmt.Fprintf(&sb, "  preemptions %d  migrations %d\n", r.Preemptions, r.Migrations)
	}
	if r.Detached > 0 {
		fmt.Fprintf(&sb, "  detached (guest completed natively): %d\n", r.Detached)
	}
	if r.Failures > 0 {
		fmt.Fprintf(&sb, "  FAILURES: %d\n", r.Failures)
		for _, jr := range r.Results {
			if jr.Err != nil && (jr.Result == nil || !jr.Result.Detached) {
				fmt.Fprintf(&sb, "    %s: %v\n", jr.Name, jr.Err)
			}
		}
	}
	byName := make(map[string]int)
	for _, jr := range r.Results {
		byName[jr.Name]++
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&sb, "  mix:")
	for _, n := range names {
		fmt.Fprintf(&sb, " %s×%d", n, byName[n])
	}
	sb.WriteString("\n")
	return sb.String()
}
