package fleet_test

import (
	"strings"
	"testing"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/fleet"
	"fpvm/internal/obj"
	"fpvm/internal/oracle"
	"fpvm/internal/workloads"
)

// microImages compiles every request-sized workload once.
func microImages(t testing.TB) map[workloads.Name]*obj.Image {
	t.Helper()
	imgs := make(map[workloads.Name]*obj.Image)
	for _, name := range workloads.MicroAll() {
		img, err := workloads.BuildMicro(name)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		imgs[name] = img
	}
	return imgs
}

// microJobs builds a job list of `repeats` copies of every micro workload.
func microJobs(imgs map[workloads.Name]*obj.Image, repeats int, cfg fpvm.Config) []fleet.Job {
	var jobs []fleet.Job
	for r := 0; r < repeats; r++ {
		for _, name := range workloads.MicroAll() {
			jobs = append(jobs, fleet.Job{Name: string(name), Image: imgs[name], Config: cfg})
		}
	}
	return jobs
}

// TestFleetMatchesSerial checks that concurrent fleet execution produces
// byte-identical guest output to a serial fpvm.Run of the same image, for
// every job, and that each job spends exactly the virtual cycles of that
// serial run: the fleet runs a job's Config as given.
func TestFleetMatchesSerial(t *testing.T) {
	imgs := microImages(t)
	cfg := fpvm.Config{Seq: true, Short: true}

	want := make(map[string]*fpvm.Result)
	for name, img := range imgs {
		res, err := fpvm.Run(img, cfg)
		if err != nil {
			t.Fatalf("serial %s: %v", name, err)
		}
		want[string(name)] = res
	}

	rep := fleet.Run(microJobs(imgs, 3, cfg), fleet.Options{Workers: 4})
	if rep.Failures != 0 {
		t.Fatalf("%d failures:\n%s", rep.Failures, rep.Summary())
	}
	for _, jr := range rep.Results {
		ref := want[jr.Name]
		if jr.Result.Stdout != ref.Stdout {
			t.Errorf("%s: stdout diverged from serial run\n got: %q\nwant: %q",
				jr.Name, jr.Result.Stdout, ref.Stdout)
		}
		if jr.Result.Cycles != ref.Cycles {
			t.Errorf("%s: %d cycles in the fleet, %d serially", jr.Name, jr.Result.Cycles, ref.Cycles)
		}
	}
}

// TestFleetMixedImages checks that a fleet over several distinct images
// leaves each job's Config alone: a job with a private cache and a job
// whose Config carries a store trained on its image each spend exactly
// the cycles fpvm.Run spends on the same Config, and only the latter
// adopts from a store.
func TestFleetMixedImages(t *testing.T) {
	imgs := microImages(t)
	cfg := fpvm.Config{Seq: true, Short: true}
	trained := cfg
	var err error
	if trained.Shared, err = fpvm.TrainSharedCache(imgs[workloads.Enzo], cfg); err != nil {
		t.Fatal(err)
	}
	jobs := append(microJobs(imgs, 2, cfg),
		fleet.Job{Name: "trained-enzo", Image: imgs[workloads.Enzo], Config: trained})
	rep := fleet.Run(jobs, fleet.Options{Workers: 4})
	if rep.Failures != 0 {
		t.Fatalf("%d failures:\n%s", rep.Failures, rep.Summary())
	}
	for i, jr := range rep.Results {
		ref, err := fpvm.Run(jobs[i].Image, jobs[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		got := jr.Result
		if got.Cycles != ref.Cycles || got.Stdout != ref.Stdout {
			t.Errorf("%s: %d cycles in the fleet, %d under fpvm.Run", jr.Name, got.Cycles, ref.Cycles)
		}
		hasStore := jobs[i].Config.Shared != nil
		if adopted := got.SharedHits+got.SharedTraceHits > 0; adopted != hasStore {
			t.Errorf("%s: %d decode and %d trace adoptions, store given: %v",
				jr.Name, got.SharedHits, got.SharedTraceHits, hasStore)
		}
	}
}

// TestFleetEmpty checks the degenerate inputs.
func TestFleetEmpty(t *testing.T) {
	rep := fleet.Run(nil, fleet.Options{Workers: 4})
	if rep.Jobs != 0 || rep.Failures != 0 || len(rep.Results) != 0 {
		t.Fatalf("empty fleet: %+v", rep)
	}
	if tp := rep.Throughput(); tp != 0 {
		t.Fatalf("empty fleet throughput %v", tp)
	}
}

// TestFleetSoak is the bounded race soak: a larger mixed-image job list on
// more workers than cores, with profiling on (exercising the lazy
// disassembly backfill across VMs), every job of an image adopting from
// one frozen store trained for it. Adopted traces arrive without compiled
// bodies and compile per VM on their first replay, inside the
// race-detected soak. Run under -race via `make fleet-soak` / CI.
func TestFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	imgs := microImages(t)
	cfg := fpvm.Config{Seq: true, Short: true, Profile: true}
	jobs := microJobs(imgs, 8, cfg)
	stores := make(map[*obj.Image]*fpvm.SharedCache)
	for i := range jobs {
		img := jobs[i].Image
		if stores[img] == nil {
			s, err := fpvm.TrainSharedCache(img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stores[img] = s
		}
		jobs[i].Config.Shared = stores[img]
	}
	rep := fleet.Run(jobs, fleet.Options{Workers: 8})
	if rep.Failures != 0 {
		t.Fatalf("%d failures:\n%s", rep.Failures, rep.Summary())
	}
	for _, jr := range rep.Results {
		if jr.Result.SharedTraceHits == 0 {
			t.Errorf("%s adopted no traces from its store", jr.Name)
		}
	}
}

// TestFleetDetachedIsNotFailure pins the fatal-rung classification: a
// job whose FPVM detaches but whose guest completes natively (the
// serial exit-11 outcome) must not count as a fleet failure — its
// result is present, its output correct, and it is tallied under
// Report.Detached instead.
func TestFleetDetachedIsNotFailure(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := fpvm.Run(img, fpvm.Config{Seq: true, Short: true})
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	jobs := make([]fleet.Job, n)
	for i := range jobs {
		inj, err := faultinject.ParseSpec("alt.op:every=200,limit=1,sev=fatal", uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = fleet.Job{
			Name:   string(workloads.Lorenz),
			Image:  img,
			Config: fpvm.Config{Seq: true, Short: true, Inject: inj},
		}
	}
	rep := fleet.Run(jobs, fleet.Options{Workers: 2})
	if rep.Failures != 0 {
		t.Fatalf("detached jobs counted as failures:\n%s", rep.Summary())
	}
	if rep.Detached != n {
		t.Fatalf("Detached = %d, want %d:\n%s", rep.Detached, n, rep.Summary())
	}
	for i, jr := range rep.Results {
		if jr.Result == nil || !jr.Result.Detached {
			t.Fatalf("job %d: expected a completed detached result, got err=%v", i, jr.Err)
		}
		// Boxed IEEE detach resumes at the failing instruction without
		// re-executing the emulated prefix: output stays bit-identical.
		if jr.Result.Stdout != clean.Stdout {
			t.Errorf("job %d: detached guest output diverged from clean run", i)
		}
	}
}

// TestResidentJobMigratesBitIdentical: a preempted job keeps its live
// VM, and a migration hands that VM to another worker. Jobs that migrated
// must still match their unsliced runs bit for bit: stdout, virtual
// cycles, trap stream and final state.
//
// Whether any job migrates depends on the host scheduling both workers
// while the fleet runs (about 20 ms): a worker descheduled while it holds
// a job lets the other worker finish every other job. So the fleet is
// rerun, up to migrationFleets times, until some job migrates; every
// migrated job of every run is checked, and the test fails if no run
// migrates.
func TestResidentJobMigratesBitIdentical(t *testing.T) {
	const migrationFleets = 5
	imgs := microImages(t)
	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	jobs := microJobs(imgs, 2, cfg)

	// The unsliced reference of each image, run once on first need.
	type reference struct {
		res  *fpvm.Result
		recs []oracle.TrapRec
	}
	refs := make(map[*obj.Image]*reference)
	refFor := func(img *obj.Image) *reference {
		if ref := refs[img]; ref != nil {
			return ref
		}
		ref := &reference{}
		refCfg := cfg
		refCfg.Observer = func(st *fpvm.TrapState) { ref.recs = append(ref.recs, oracle.Digest(st)) }
		res, err := fpvm.Run(img, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.res = res
		refs[img] = ref
		return ref
	}

	migrated := 0
	for run := 1; run <= migrationFleets && migrated == 0; run++ {
		streams := make([][]oracle.TrapRec, len(jobs))
		for i := range jobs {
			i := i
			jobs[i].Config.Observer = func(st *fpvm.TrapState) { streams[i] = append(streams[i], oracle.Digest(st)) }
		}
		rep := fleet.Run(jobs, fleet.Options{Workers: 2, PreemptQuantum: 100_000})
		if rep.Failures != 0 {
			t.Fatalf("resident fleet failed:\n%s", rep.Summary())
		}
		for i, jr := range rep.Results {
			if jr.Migrations == 0 {
				continue
			}
			migrated++
			ref := refFor(jobs[i].Image)
			res := jr.Result
			if res.Stdout != ref.res.Stdout || res.Cycles != ref.res.Cycles || res.ExitCode != ref.res.ExitCode {
				t.Errorf("fleet %d, %s (%d migrations): observables diverged (cycles %d vs %d)",
					run, jr.Name, jr.Migrations, res.Cycles, ref.res.Cycles)
			}
			if k := oracle.CompareStreams(ref.recs, streams[i]); k != -1 {
				t.Errorf("fleet %d, %s: trap stream diverged at trap #%d", run, jr.Name, k+1)
			}
			if d := oracle.DiffFinal(ref.res.Final, res.Final); d != "" {
				t.Errorf("fleet %d, %s: final state diverged: %s", run, jr.Name, d)
			}
			if res.Resumed {
				t.Errorf("fleet %d, %s: a resident job reports Resumed (its state never came from bytes)", run, jr.Name)
			}
		}
		t.Logf("fleet %d: %d of %d jobs migrated; %d preemptions, %d migrations",
			run, migrated, len(jobs), rep.Preemptions, rep.Migrations)
	}
	if migrated == 0 {
		t.Fatalf("no job migrated in %d fleets; the test exercised nothing", migrationFleets)
	}
}

// altJobs is one pendulum job per alt system fast enough for a preemptive
// fleet under -race (mpfr's exactness is covered by TestResumeBitIdentical
// at the repo root).
func altJobs(t *testing.T) []fleet.Job {
	t.Helper()
	img, err := workloads.Build(workloads.Pendulum, 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []fpvm.AltKind{fpvm.AltBoxed, fpvm.AltPosit, fpvm.AltInterval, fpvm.AltRational}
	jobs := make([]fleet.Job, len(kinds))
	for i, kind := range kinds {
		jobs[i] = fleet.Job{
			Name:   "pendulum_" + string(kind),
			Image:  img,
			Config: fpvm.Config{Alt: kind, Seq: true, Short: true},
		}
	}
	return jobs
}

// TestFleetPreemptionMatchesWholeJobs: the preemptive work-stealing
// schedule must not change any per-job observable versus the
// run-to-completion schedule.
func TestFleetPreemptionMatchesWholeJobs(t *testing.T) {
	const quantum = 250_000
	jobs := altJobs(t)
	plain := fleet.Run(jobs, fleet.Options{Workers: 2})
	pre := fleet.Run(jobs, fleet.Options{Workers: 2, PreemptQuantum: quantum})

	if pre.Preemptions == 0 {
		t.Fatalf("quantum %d produced no preemptions", quantum)
	}
	t.Logf("preemptions %d, migrations %d", pre.Preemptions, pre.Migrations)
	if plain.Failures != 0 || pre.Failures != 0 {
		t.Fatalf("fleet failed:\n%s\n%s", plain.Summary(), pre.Summary())
	}
	for i := range jobs {
		a, b := plain.Results[i].Result, pre.Results[i].Result
		if a.Stdout != b.Stdout || a.Cycles != b.Cycles || a.ExitCode != b.ExitCode {
			t.Errorf("%s: preemptive schedule changed observables (cycles %d vs %d)",
				jobs[i].Name, a.Cycles, b.Cycles)
		}
		if a.Traps != b.Traps || a.EmulatedInsts != b.EmulatedInsts {
			t.Errorf("%s: telemetry diverged: traps %d/%d, emulated %d/%d",
				jobs[i].Name, a.Traps, b.Traps, a.EmulatedInsts, b.EmulatedInsts)
		}
		if d := oracle.DiffFinal(a.Final, b.Final); d != "" {
			t.Errorf("%s: final state diverged under preemption: %s", jobs[i].Name, d)
		}
	}
}

// TestFleetPanicIsolation: a job whose VM stack panics (here: a nil
// image) must fail alone — the worker survives, every other job
// completes, and the panic is reported as that job's error.
func TestFleetPanicIsolation(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Pendulum)
	if err != nil {
		t.Fatal(err)
	}
	good := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	jobs := []fleet.Job{
		{Name: "good-0", Image: img, Config: good},
		{Name: "bad", Image: nil, Config: good},
		{Name: "good-1", Image: img, Config: good},
		{Name: "good-2", Image: img, Config: good},
	}
	rep := fleet.Run(jobs, fleet.Options{Workers: 2})
	if rep.Failures != 1 {
		t.Fatalf("failures = %d, want exactly the panicking job\n%s", rep.Failures, rep.Summary())
	}
	bad := rep.Results[1]
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "panicked") {
		t.Errorf("panicking job error = %v, want a reported panic", bad.Err)
	}
	for _, i := range []int{0, 2, 3} {
		jr := rep.Results[i]
		if jr.Err != nil || jr.Result == nil || jr.Result.Stdout == "" {
			t.Errorf("%s: did not complete cleanly alongside the panicking job: %v", jr.Name, jr.Err)
		}
	}
}
