package main

import (
	"fmt"
	"time"

	"fpvm"
	"fpvm/internal/fleet"
	"fpvm/internal/obj"
	"fpvm/internal/telemetry"
	"fpvm/internal/workloads"
)

// paperConfig is the paper's configuration: Boxed IEEE under SEQ SHORT,
// private caches, no preemption.
var paperConfig = fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}

// fleetQuantum is one point of `fpvm-bench -fig preempt`'s sweep.
const fleetQuantum = 1_000_000

// paperJob is one of the six paper workloads at scale 1.
type paperJob struct {
	name   string
	img    *obj.Image // patched with magic traps
	native uint64     // RunNative cycles
	want   expect
}

// buildPaperJobs builds and patches the six paper workloads and records
// their native baselines and unsliced FPVM reference outputs.
func buildPaperJobs() ([]paperJob, error) {
	var jobs []paperJob
	for _, name := range workloads.All() {
		img, err := workloads.Build(name, 1)
		if err != nil {
			return nil, err
		}
		nat, err := fpvm.RunNative(img)
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", name, err)
		}
		patched, err := fpvm.PrepareForFPVM(img, true)
		if err != nil {
			return nil, fmt.Errorf("%s patch: %w", name, err)
		}
		ref, err := fpvm.Run(patched, paperConfig)
		if err != nil {
			return nil, fmt.Errorf("%s reference run: %w", name, err)
		}
		// Boxed IEEE is bit-exact, so the reference must print what the
		// native run prints.
		if err := (expect{stdout: nat.Stdout}).check(ref.Stdout, 0, ""); err != nil {
			return nil, fmt.Errorf("%s reference run: %w", name, err)
		}
		jobs = append(jobs, paperJob{
			name:   string(name),
			img:    patched,
			native: nat.Cycles,
			want:   expect{stdout: nat.Stdout, cycles: ref.Cycles, digest: digestOf(ref.Final)},
		})
	}
	return jobs, nil
}

// runStats sums the deterministic counters of one set of runs.
type runStats struct {
	cycles, traps, emulated, gcRuns uint64
	traceHits, traceMisses          uint64
	jitExecs, jitDeopts             uint64
	catCycles                       [telemetry.NumCategories]uint64
	slowdowns                       []float64
}

func (s *runStats) add(res *fpvm.Result, native uint64) {
	s.cycles += res.Cycles
	s.traps += res.Traps
	s.emulated += res.EmulatedInsts
	s.gcRuns += res.GCRuns
	s.traceHits += res.TraceHits
	s.traceMisses += res.TraceMisses
	s.jitExecs += res.JITExecs
	s.jitDeopts += res.JITDeopts
	if res.Breakdown != nil {
		for c, n := range res.Breakdown.Cycles {
			s.catCycles[c] += n
		}
	}
	s.slowdowns = append(s.slowdowns, res.Slowdown(native))
}

// layers adds the cost-model and trace-cache metrics to m.
func (s *runStats) layers(m map[string]float64) {
	m["runtime.traps"] = float64(s.traps)
	m["runtime.insts_per_trap"] = ratio(float64(s.emulated), float64(s.traps))
	m["runtime.gc_runs"] = float64(s.gcRuns)
	for _, c := range telemetry.Categories() {
		m["runtime.cycles_share."+c.String()] = ratio(float64(s.catCycles[c]), float64(s.cycles))
	}
	m["dcache.trace_hit_rate"] = ratio(float64(s.traceHits), float64(s.traceHits+s.traceMisses))
	m["jit.exec_share"] = ratio(float64(s.jitExecs), float64(s.traceHits))
	m["jit.deopt_rate"] = ratio(float64(s.jitDeopts), float64(s.jitExecs))
}

// paperBatch runs the six jobs through fpvm.Run, each whole job on one
// of the workers.
type paperBatch struct {
	seed uint64
	jobs []paperJob
	last runStats // the most recent pass's counters
}

func newPaperBatch(seed uint64) (rig, error) {
	jobs, err := buildPaperJobs()
	if err != nil {
		return nil, err
	}
	return &paperBatch{seed: seed, jobs: jobs}, nil
}

func (b *paperBatch) pass(p int, tr *tracer) passOut {
	order := passOrder(b.seed, p, len(b.jobs), 1)
	results := make([]*fpvm.Result, len(order))
	errs := make([]error, len(order))
	out := passOut{latencies: make([]float64, len(order))}
	t0, c0 := time.Now(), cpuTime()
	eachOnWorkers(len(order), workers, func(i int) {
		j := b.jobs[order[i]]
		s0 := time.Now()
		results[i], errs[i] = b.runJob(tr, fmt.Sprintf("%s/%d", j.name, p), j)
		out.latencies[i] = ms(time.Since(s0))
	})
	out.wall, out.cpu = time.Since(t0), cpuTime()-c0

	var st runStats
	for i, k := range order {
		j, res, err := b.jobs[k], results[i], errs[i]
		if err == nil {
			err = j.want.check(res.Stdout, res.Cycles, digestOf(res.Final))
		}
		out.record(j.name, err)
		if err == nil {
			st.add(res, j.native)
		}
	}
	b.last = st
	return out
}

// runJob is fpvm.Run when untraced; traced, it makes the same two calls
// fpvm.Run makes so each gets a span.
func (b *paperBatch) runJob(tr *tracer, id string, j paperJob) (*fpvm.Result, error) {
	if tr == nil {
		return fpvm.Run(j.img, paperConfig)
	}
	root := tr.begin("job", id, 0)
	defer tr.end(root)
	sp := tr.begin("vm.prepare", id, root)
	vm, err := fpvm.Prepare(j.img, paperConfig)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("vm.run", id, root)
	defer tr.end(sp)
	return vm.Run()
}

func (b *paperBatch) slowdown() float64 { return geomean(b.last.slowdowns) }

func (b *paperBatch) layers(tr *tracer, m map[string]float64) error {
	b.last.layers(m)
	m["vm.prepare_ms"] = median(tr.durationsWhere("vm.prepare", nil))
	cycles := make(map[string]uint64)
	for _, j := range b.jobs {
		cycles[j.name] = j.want.cycles
	}
	stepLoopLayers(tr, cycles, func(name string) func(string) bool {
		return func(job string) bool { return matchJob(job, name+"/", "") }
	}, m)
	m["trace.unexplained_share"] = tr.unexplained("job")
	return nil
}

func (b *paperBatch) close() {}

// fleetSliced runs the same six jobs as one fleet.Run per pass, sliced
// at fleetQuantum on two workers with shared caches.
type fleetSliced struct {
	seed   uint64
	jobs   []paperJob
	byName map[string]int
	last   runStats

	preemptions, migrations []float64 // per pass
	busy                    []float64 // per pass: Σ job time ÷ (workers × wall)
}

func newFleetSliced(seed uint64) (rig, error) {
	jobs, err := buildPaperJobs()
	if err != nil {
		return nil, err
	}
	f := &fleetSliced{seed: seed, jobs: jobs, byName: make(map[string]int)}
	for i, j := range jobs {
		f.byName[j.name] = i
	}
	return f, nil
}

func (f *fleetSliced) pass(p int, tr *tracer) passOut {
	var out passOut
	order := passOrder(f.seed, p, len(f.jobs), 1)
	jobs := make([]fleet.Job, len(order))
	for i, k := range order {
		jobs[i] = fleet.Job{Name: f.jobs[k].name, Image: f.jobs[k].img, Config: paperConfig}
	}
	sp := tr.begin("fleet.run", fmt.Sprintf("pass/%d", p), 0)
	t0, c0 := time.Now(), cpuTime()
	rep := fleet.Run(jobs, fleet.Options{Workers: workers, Share: true, PreemptQuantum: fleetQuantum})
	out.wall, out.cpu = time.Since(t0), cpuTime()-c0
	tr.end(sp)

	var st runStats
	busy := 0.0
	for _, jr := range rep.Results {
		j := f.jobs[f.byName[jr.Name]]
		out.latencies = append(out.latencies, ms(jr.Elapsed))
		busy += ms(jr.Elapsed)
		err := jr.Err
		switch {
		case err != nil:
		case jr.Result == nil || jr.Result.Preempted:
			err = fmt.Errorf("no completed result")
		default:
			err = j.want.check(jr.Result.Stdout, jr.Result.Cycles, digestOf(jr.Result.Final))
		}
		out.record(jr.Name, err)
		if err == nil {
			st.add(jr.Result, j.native)
		}
	}
	f.last = st
	f.preemptions = append(f.preemptions, float64(rep.Preemptions))
	f.migrations = append(f.migrations, float64(rep.Migrations))
	f.busy = append(f.busy, busy/(workers*ms(out.wall)))
	return out
}

func (f *fleetSliced) slowdown() float64 { return geomean(f.last.slowdowns) }

func (f *fleetSliced) layers(tr *tracer, m map[string]float64) error {
	f.last.layers(m)
	m["fleet.preemptions"] = median(f.preemptions)
	m["fleet.migrations"] = median(f.migrations)
	m["fleet.busy_share"] = median(f.busy)
	m["trace.unexplained_share"] = tr.unexplained("fleet.run")

	var rj []replayJob
	// fleet.Run gives each pass fresh shared caches.
	fresh := func() fpvm.Config {
		cfg := paperConfig
		cfg.Shared = fpvm.NewSharedCache(0)
		return cfg
	}
	for _, j := range f.jobs {
		rj = append(rj, replayJob{name: j.name, img: j.img, cfg: fresh, want: j.want})
	}
	st, err := replaySliced(tr, rj, fleetQuantum, "")
	if err != nil {
		return err
	}
	sliceLayers(tr, st, m)
	replayRunLayers(tr, st, m)
	return nil
}

func (f *fleetSliced) close() {}
