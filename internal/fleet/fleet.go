// Package fleet executes many independent guest programs concurrently — a
// worker pool of fully isolated VMs (each job gets its own address space,
// machine, kernel, heap and Runtime) that optionally share the expensive
// read-only state: the decode/trace cache. With sharing on, each image
// that more than one job runs is trained once before dispatch
// (fpvm.TrainSharedCache, under the first such job's Config), and every
// VM of that image adopts the trained decodes and traces instead of
// building its own, which is what makes trap-and-emulate virtualization
// amortize at serving scale — request-sized guests pay the
// decode/trace-build warm-up once per image instead of once per VM. The
// store is frozen, so a job's virtual cycles do not depend on which jobs
// ran before it or beside it; a lone job runs exactly as with a private
// cache.
//
// Everything else is per-VM by construction: each job gets its own VM
// from fpvm.Prepare, used by that job alone and dropped when it ends, and
// job Configs are copied by value. Pre-decoded state is only valid for
// the image it came from, so each store serves one image, and
// fpvm.Prepare refuses a store trained on another.
//
// With Options.PreemptQuantum set, jobs no longer own a worker for their
// whole lifetime: each scheduling turn runs one virtual-cycle slice
// (fpvm.VM.RunSlice), and the task — live VM included — returns to a
// work-stealing runqueue ordered by virtual-clock backlog. The next free
// worker steals the most-behind job and continues its VM in place, so a
// long-running guest migrates freely between workers without being
// serialized. With Options.SnapshotDir also set, every preemption also
// writes the VM's snapshot atomically on disk, and Recover can resume a
// SIGKILLed fleet from the surviving files, bit-identical to an
// uninterrupted run.
package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpvm"
	"fpvm/internal/checkpoint"
	"fpvm/internal/obj"
	"fpvm/internal/telemetry"
)

// Job is one guest program execution: an image plus the run configuration
// for its VM. The Config is copied before use; the runner only ever sets
// its Shared field (when Options.Share is on and another job runs the
// same image) and its PreemptQuantum (when Options.PreemptQuantum is on).
type Job struct {
	// Name labels the job in reports (e.g. the workload name).
	Name string

	// Image is the guest program. Image loading does not mutate the
	// image, so many jobs may reference the same *obj.Image.
	Image *obj.Image

	// Config configures the job's VM. Leave Shared nil — the runner
	// manages cache sharing fleet-wide via Options.Share. The first job
	// of an image that several jobs run also configures the image's
	// training run.
	Config fpvm.Config
}

// Options configures a fleet run.
type Options struct {
	// Workers is the worker-pool size (0 = 4). Each worker runs whole
	// jobs (or, with PreemptQuantum, job slices); at most Workers VMs
	// execute concurrently.
	Workers int

	// Share backs every VM of an image that two or more jobs run with
	// that image's trained, read-only decode/trace cache. Off, every VM
	// decodes and builds traces privately (the ablation baseline).
	Share bool

	// PreemptQuantum, when > 0, preempts every job after roughly that
	// many virtual cycles at the next event boundary and returns it to
	// the runqueue with its VM still live, so any worker can continue it
	// (migration). Nothing is serialized unless SnapshotDir is set.
	// Requires every job's alt system to have a value codec.
	PreemptQuantum uint64

	// SnapshotDir, when non-empty, serializes each preempted job's VM
	// and persists the snapshot there (atomically, one file per job, at
	// every preemption), removing it when the job completes. After a
	// crash, Recover scans the directory and resumes the surviving jobs.
	SnapshotDir string
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
	// previous slice. Resumed reports the job started from an on-disk
	// snapshot (Recover), not from its entry point.
	Preemptions int
	Migrations  int
	Resumed     bool
}

// Report is the fleet-level roll-up.
type Report struct {
	Results []JobResult // one per job, in submission order

	// Breakdown is every worker's telemetry merged: fleet-aggregate
	// cycles per category and summed counters.
	Breakdown telemetry.Breakdown

	// Elapsed is the wall-clock time for the whole fleet, shared-cache
	// training runs included.
	Elapsed time.Duration

	Workers int
	Shared  bool
	Jobs    int

	// Failures counts jobs that never produced a completed guest run.
	// Detached counts jobs where FPVM hit the fatal rung but the guest
	// still completed natively — degraded service, not failure.
	Failures int
	Detached int

	// Preemptions / Migrations / Resumed aggregate the per-job counts:
	// total scheduling slices cut short, total cross-worker moves, and
	// jobs restarted from on-disk snapshots.
	Preemptions int
	Migrations  int
	Resumed     int

	// PersistFailures counts snapshots that could not be captured or
	// written to SnapshotDir. Execution continues on the live VM —
	// correctness is unaffected, only crash durability is degraded.
	PersistFailures int

	// RecoveryRejects lists snapshot files Recover refused (torn,
	// corrupt, or bound to a different image/alt/config/job list), one
	// human-readable line each. The affected jobs ran fresh.
	RecoveryRejects []string

	// TotalCycles sums every job's virtual cycle count — the jobs' total
	// work, independent of scheduling. Shared-cache training runs are not
	// jobs and are not counted.
	TotalCycles uint64

	// SharedHits / SharedTraceHits count local cache misses served by a
	// trained store's decode / trace (0 with Share off).
	SharedHits      uint64
	SharedTraceHits uint64
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
	seed        []byte   // Recover's snapshot, restored into the first VM
	cycles      uint64   // virtual cycles consumed so far — the backlog key
	lastWorker  int      // -1: never ran in this process
	preemptions int
	migrations  int
	resumed     bool // started from an on-disk snapshot
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

// seed is a validated on-disk snapshot adopted by Recover: the wire
// bytes plus the virtual clock they carry (the task's scheduling key).
type seed struct {
	data   []byte
	cycles uint64
}

// Run executes every job on a pool of opts.Workers workers and returns
// the fleet report. Results are positional: Results[i] is jobs[i]'s
// outcome regardless of scheduling order.
func Run(jobs []Job, opts Options) *Report {
	return run(jobs, opts, nil)
}

// Recover resumes a fleet from dir: every parseable, checksum-clean
// snapshot whose bindings (program image hash, alt system, semantic
// configuration, job name) match the corresponding job is adopted, and
// that job continues from its last preemption point instead of its
// entry point. Torn, corrupt or mismatched files are rejected — listed
// in Report.RecoveryRejects, never partially restored — and their jobs
// run fresh. An empty or missing directory is not an error: every job
// simply runs fresh. The error return is reserved for an unreadable
// directory.
func Recover(dir string, jobs []Job, opts Options) (*Report, error) {
	opts.SnapshotDir = dir
	resume := make(map[int]seed)
	var rejects []string

	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		// An unreadable snapshot dir (permissions, not-a-directory, I/O
		// error) must not take recovery down with it: every job can still
		// run fresh. Record the reason and continue with no seeds.
		rejects = append(rejects, fmt.Sprintf("%s: %v", dir, err))
		entries = nil
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.Contains(name, ".snap.tmp") {
			// Debris from a crash mid-write; the rename never happened, so
			// nothing references it.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, "fleet-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		reject := func(why string) {
			rejects = append(rejects, fmt.Sprintf("%s: %s", name, why))
		}
		idx, jobName, ok := parseSnapshotName(name)
		if !ok {
			reject("unparseable snapshot filename")
			continue
		}
		if idx < 0 || idx >= len(jobs) {
			reject(fmt.Sprintf("job index %d out of range (fleet has %d jobs)", idx, len(jobs)))
			continue
		}
		job := &jobs[idx]
		if jobName != sanitizeName(job.Name) {
			reject(fmt.Sprintf("job %d is now %q; snapshot is for %q", idx, job.Name, jobName))
			continue
		}
		if _, dup := resume[idx]; dup {
			reject("duplicate snapshot for job")
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			reject(err.Error())
			continue
		}
		img, err := checkpoint.Decode(data)
		if err != nil {
			reject(err.Error())
			continue
		}
		sys, err := fpvm.NewAltSystem(job.Config.Alt, job.Config.Precision)
		if err != nil {
			reject(err.Error())
			continue
		}
		if err := img.Validate(job.Image.Hash(), sys.Name(), fpvm.ConfigSignature(job.Config)); err != nil {
			reject(err.Error())
			continue
		}
		resume[idx] = seed{data: data, cycles: img.MachCycles}
	}

	rep := run(jobs, opts, resume)
	rep.RecoveryRejects = rejects
	return rep, nil
}

func run(jobs []Job, opts Options, resume map[int]seed) *Report {
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
		Shared:  opts.Share,
		Jobs:    len(jobs),
	}
	if len(jobs) == 0 {
		return rep
	}

	snapDir := opts.SnapshotDir
	if snapDir != "" {
		if err := os.MkdirAll(snapDir, 0o755); err != nil {
			snapDir = "" // degrade to in-memory scheduling; correctness unaffected
			rep.PersistFailures++
		}
	}

	start := time.Now()
	var shared map[*obj.Image]*fpvm.SharedCache
	if opts.Share {
		shared = trainShared(jobs)
	}

	s := newSched(len(jobs))
	for i := range jobs {
		t := &task{idx: i, lastWorker: -1}
		if sd, ok := resume[i]; ok {
			t.seed = sd.data
			t.cycles = sd.cycles
			t.resumed = true
		}
		s.queue = append(s.queue, t)
	}

	var persistFailures atomic.Int64
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
				res, err := runSlice(job, t, shared[job.Image], q)
				t.elapsed += time.Since(t0)

				if err == nil && res.Preempted {
					t.preemptions++
					t.cycles = res.Cycles
					if snapDir != "" && persist(t.vm, snapshotPath(snapDir, t.idx, job.Name)) != nil {
						persistFailures.Add(1)
					}
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
					Resumed:     t.resumed,
				}
				if snapDir != "" {
					os.Remove(snapshotPath(snapDir, t.idx, job.Name))
				}
				s.done()
			}
		}(w)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	rep.PersistFailures += int(persistFailures.Load())

	for i := range rep.Results {
		jr := &rep.Results[i]
		if jr.Err != nil && (jr.Result == nil || !jr.Result.Detached) {
			rep.Failures++
		}
		rep.Preemptions += jr.Preemptions
		rep.Migrations += jr.Migrations
		if jr.Resumed {
			rep.Resumed++
		}
		if jr.Result == nil {
			continue
		}
		if jr.Result.Detached {
			rep.Detached++
		}
		rep.Breakdown.Merge(jr.Result.Breakdown)
		rep.TotalCycles += jr.Result.Cycles
		rep.SharedHits += jr.Result.SharedHits
		rep.SharedTraceHits += jr.Result.SharedTraceHits
	}
	return rep
}

// trainShared trains one store for each image that two or more jobs run,
// under the first such job's Config. A lone job gets no store, and so runs
// exactly as with a private cache. An image whose training run fails gets
// no store either: its jobs run privately and report their own errors.
func trainShared(jobs []Job) map[*obj.Image]*fpvm.SharedCache {
	count := make(map[*obj.Image]int)
	for i := range jobs {
		count[jobs[i].Image]++
	}
	shared := make(map[*obj.Image]*fpvm.SharedCache)
	for i := range jobs {
		img := jobs[i].Image
		if count[img] < 2 {
			continue
		}
		count[img] = 0 // later jobs of img are not its first
		if s, err := fpvm.TrainSharedCache(img, jobs[i].Config); err == nil {
			shared[img] = s
		}
	}
	return shared
}

// runSlice executes one scheduling turn of a job on its VM — built on
// the first turn (and loaded from a Recover seed, if any), continued in
// place after that — with panic isolation: a worker that panics inside
// the VM stack reports the panic as that job's error instead of taking
// down the whole fleet.
func runSlice(job *Job, t *task, shared *fpvm.SharedCache, quantum uint64) (res *fpvm.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("fleet: job %q panicked: %v", job.Name, p)
		}
	}()
	if t.vm == nil {
		cfg := job.Config // copy: never mutate the caller's Config
		cfg.Shared = shared
		vm, err := fpvm.Prepare(job.Image, cfg)
		if err != nil {
			return nil, err
		}
		if t.seed != nil {
			if err := vm.Restore(t.seed); err != nil {
				return nil, err
			}
			t.seed = nil
		}
		t.vm = vm
	}
	t.vm.SetPreemptQuantum(quantum)
	return t.vm.RunSlice()
}

// persist writes vm's snapshot to path atomically. A panic while
// capturing is contained like runSlice's and counts as a failed persist:
// capture only reads the VM, so the job can continue.
func persist(vm *fpvm.VM, path string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("fleet: snapshot capture panicked: %v", p)
		}
	}()
	data, err := vm.Snapshot()
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, data)
}

// snapshotPath names job idx's snapshot file: fleet-<idx>-<name>.snap.
// The index pins the file to its submission slot; the sanitized name
// lets Recover detect a reordered or edited job list.
func snapshotPath(dir string, idx int, name string) string {
	return filepath.Join(dir, fmt.Sprintf("fleet-%04d-%s.snap", idx, sanitizeName(name)))
}

// sanitizeName maps a job name onto the filename-safe alphabet.
func sanitizeName(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "job"
	}
	return sb.String()
}

// parseSnapshotName inverts snapshotPath's base name.
func parseSnapshotName(base string) (idx int, name string, ok bool) {
	rest, found := strings.CutPrefix(base, "fleet-")
	if !found {
		return 0, "", false
	}
	rest, found = strings.CutSuffix(rest, ".snap")
	if !found {
		return 0, "", false
	}
	numStr, name, found := strings.Cut(rest, "-")
	if !found || numStr == "" {
		return 0, "", false
	}
	idx, err := strconv.Atoi(numStr)
	if err != nil {
		return 0, "", false
	}
	return idx, name, true
}

// Summary renders the fleet report as a short human-readable block.
func (r *Report) Summary() string {
	var sb strings.Builder
	mode := "private caches"
	if r.Shared {
		mode = "shared cache"
	}
	fmt.Fprintf(&sb, "fleet: %d jobs on %d workers (%s)\n", r.Jobs, r.Workers, mode)
	fmt.Fprintf(&sb, "  wall %v  throughput %.1f jobs/s  total work %d cycles\n",
		r.Elapsed.Round(time.Microsecond), r.Throughput(), r.TotalCycles)
	fmt.Fprintf(&sb, "  virtual makespan %d cycles  virtual throughput %.2f jobs/Gcycle\n",
		r.VirtualMakespan(), r.VirtualThroughput())
	fmt.Fprintf(&sb, "  traps %d  emulated %d  trace hit rate %.3f",
		r.Breakdown.Traps, r.Breakdown.EmulatedInsts, r.Breakdown.TraceHitRate())
	if r.Shared {
		fmt.Fprintf(&sb, "  shared adoptions: %d decodes, %d traces",
			r.SharedHits, r.SharedTraceHits)
	}
	sb.WriteString("\n")
	if r.Preemptions > 0 || r.Resumed > 0 {
		fmt.Fprintf(&sb, "  preemptions %d  migrations %d  resumed from snapshots %d\n",
			r.Preemptions, r.Migrations, r.Resumed)
	}
	if r.PersistFailures > 0 {
		fmt.Fprintf(&sb, "  snapshot persist failures: %d\n", r.PersistFailures)
	}
	if len(r.RecoveryRejects) > 0 {
		fmt.Fprintf(&sb, "  rejected snapshots: %d\n", len(r.RecoveryRejects))
		for _, line := range r.RecoveryRejects {
			fmt.Fprintf(&sb, "    %s\n", line)
		}
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
