package fleet_test

import (
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

// TestFleetMatchesSerial checks that concurrent fleet execution — shared
// cache or private — produces byte-identical guest output to a serial
// fpvm.Run of the same image, for every job.
func TestFleetMatchesSerial(t *testing.T) {
	imgs := microImages(t)
	cfg := fpvm.Config{Seq: true, Short: true}

	want := make(map[string]string)
	for name, img := range imgs {
		res, err := fpvm.Run(img, cfg)
		if err != nil {
			t.Fatalf("serial %s: %v", name, err)
		}
		want[string(name)] = res.Stdout
	}

	for _, share := range []bool{false, true} {
		rep := fleet.Run(microJobs(imgs, 3, cfg), fleet.Options{Workers: 4, Share: share})
		if rep.Failures != 0 {
			t.Fatalf("share=%v: %d failures:\n%s", share, rep.Failures, rep.Summary())
		}
		for _, jr := range rep.Results {
			if jr.Result.Stdout != want[jr.Name] {
				t.Errorf("share=%v %s: stdout diverged from serial run\n got: %q\nwant: %q",
					share, jr.Name, jr.Result.Stdout, want[jr.Name])
			}
		}
	}
}

// TestFleetSharedAdoption checks the point of sharing: with a shared
// cache, every VM adopts the decodes and traces of the image's training
// run, and the fleet's total virtual work drops below the private-cache
// fleet (fewer full decodes, more replays). The store is frozen, so every
// job of the image spends the same cycles. Virtual cycles are
// deterministic, so this asserts the saving exactly where wall-clock
// could not.
func TestFleetSharedAdoption(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvm.Config{Seq: true, Short: true}
	jobs := make([]fleet.Job, 12)
	for i := range jobs {
		jobs[i] = fleet.Job{Name: "lorenz", Image: img, Config: cfg}
	}

	private := fleet.Run(jobs, fleet.Options{Workers: 4, Share: false})
	sharedR := fleet.Run(jobs, fleet.Options{Workers: 4, Share: true})
	if private.Failures != 0 || sharedR.Failures != 0 {
		t.Fatalf("failures: private %d shared %d", private.Failures, sharedR.Failures)
	}

	if private.SharedHits != 0 || private.SharedTraceHits != 0 {
		t.Errorf("private fleet reported shared adoptions: %d/%d",
			private.SharedHits, private.SharedTraceHits)
	}
	if sharedR.SharedTraceHits == 0 {
		t.Error("shared fleet adopted no traces")
	}
	for i, jr := range sharedR.Results {
		if c, c0 := jr.Result.Cycles, sharedR.Results[0].Result.Cycles; c != c0 {
			t.Errorf("job %d spent %d cycles, job 0 spent %d on the same frozen store", i, c, c0)
		}
	}
	if sharedR.TotalCycles >= private.TotalCycles {
		t.Errorf("shared fleet did not reduce total work: shared %d >= private %d cycles",
			sharedR.TotalCycles, private.TotalCycles)
	}
	// The deterministic headline figure: the shared fleet finishes the
	// pool schedule in fewer virtual cycles, so jobs/Gcycle goes up.
	if sharedR.VirtualThroughput() <= private.VirtualThroughput() {
		t.Errorf("shared fleet virtual throughput did not improve: %.3f <= %.3f jobs/Gcycle",
			sharedR.VirtualThroughput(), private.VirtualThroughput())
	}
	if ms := sharedR.VirtualMakespan(); ms == 0 || ms > sharedR.TotalCycles {
		t.Errorf("virtual makespan %d out of range (total %d)", ms, sharedR.TotalCycles)
	}
	// Adopted work must still be *correct* work: identical trap totals.
	if sharedR.Breakdown.Traps != private.Breakdown.Traps ||
		sharedR.Breakdown.EmulatedInsts != private.Breakdown.EmulatedInsts {
		t.Errorf("shared fleet emulation diverged: traps %d vs %d, insts %d vs %d",
			sharedR.Breakdown.Traps, private.Breakdown.Traps,
			sharedR.Breakdown.EmulatedInsts, private.Breakdown.EmulatedInsts)
	}

	// With the trace cache on, trace adoption subsumes decode adoption
	// (an adopted trace replays without ever walking decodeAt). Decode
	// adoption engages when traps walk per-instruction: NONE config.
	noneJobs := make([]fleet.Job, 8)
	for i := range noneJobs {
		noneJobs[i] = fleet.Job{Name: "lorenz", Image: img, Config: fpvm.Config{}}
	}
	nonePriv := fleet.Run(noneJobs, fleet.Options{Workers: 4, Share: false})
	noneShared := fleet.Run(noneJobs, fleet.Options{Workers: 4, Share: true})
	if nonePriv.Failures != 0 || noneShared.Failures != 0 {
		t.Fatalf("NONE failures: private %d shared %d", nonePriv.Failures, noneShared.Failures)
	}
	if noneShared.SharedHits == 0 {
		t.Error("NONE-config shared fleet adopted no decode entries")
	}
	if noneShared.TotalCycles >= nonePriv.TotalCycles {
		t.Errorf("NONE-config shared fleet did not reduce total work: %d >= %d cycles",
			noneShared.TotalCycles, nonePriv.TotalCycles)
	}
}

// TestFleetMixedImages checks that a shared fleet over several distinct
// images keeps one shared cache per image (fpvm.Prepare refuses a store
// trained on another image, failing the job), and that an image with a
// single job runs exactly as with a private cache.
func TestFleetMixedImages(t *testing.T) {
	imgs := microImages(t)
	cfg := fpvm.Config{Seq: true, Short: true}
	jobs := microJobs(imgs, 2, cfg)
	lone := fleet.Job{Name: "lone-enzo", Image: imgs[workloads.Enzo].Clone(), Config: cfg}
	rep := fleet.Run(append(jobs, lone), fleet.Options{Workers: 4, Share: true})
	if rep.Failures != 0 {
		t.Fatalf("%d failures:\n%s", rep.Failures, rep.Summary())
	}
	if rep.SharedTraceHits == 0 {
		t.Error("mixed-image shared fleet adopted no traces")
	}
	private, err := fpvm.Run(lone.Image, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Results[len(jobs)].Result
	if got.Cycles != private.Cycles || got.SharedHits != 0 || got.SharedTraceHits != 0 {
		t.Errorf("lone job: %d cycles, %d/%d adoptions; private run %d cycles",
			got.Cycles, got.SharedHits, got.SharedTraceHits, private.Cycles)
	}
}

// TestFleetSharedBindRejectsSecondImage pins the safety property directly:
// a store trained on one image refuses to serve a different one.
func TestFleetSharedBindRejectsSecondImage(t *testing.T) {
	a, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.BuildMicro(workloads.Pendulum)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fpvm.TrainSharedCache(a, fpvm.Config{Seq: true})
	if err != nil {
		t.Fatalf("training on the first image: %v", err)
	}
	if _, err := fpvm.Run(a, fpvm.Config{Seq: true, Shared: sc}); err != nil {
		t.Fatalf("first image: %v", err)
	}
	if _, err := fpvm.Run(b, fpvm.Config{Seq: true, Shared: sc}); err == nil {
		t.Fatal("second image on a store trained on the first did not error")
	}
}

// TestFleetEmpty checks the degenerate inputs.
func TestFleetEmpty(t *testing.T) {
	rep := fleet.Run(nil, fleet.Options{Workers: 4, Share: true})
	if rep.Jobs != 0 || rep.Failures != 0 || len(rep.Results) != 0 {
		t.Fatalf("empty fleet: %+v", rep)
	}
	if tp := rep.Throughput(); tp != 0 {
		t.Fatalf("empty fleet throughput %v", tp)
	}
}

// TestFleetSoak is the bounded race soak: a larger mixed-image job list on
// more workers than cores, with profiling on (exercising the lazy
// disassembly backfill across VMs). Run under -race via `make check` / CI.
func TestFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	imgs := microImages(t)
	// Adopted traces arrive from the frozen store without compiled bodies
	// and compile per VM on their first replay, inside the race-detected
	// soak.
	cfg := fpvm.Config{Seq: true, Short: true, Profile: true}
	rep := fleet.Run(microJobs(imgs, 8, cfg), fleet.Options{Workers: 8, Share: true})
	if rep.Failures != 0 {
		t.Fatalf("%d failures:\n%s", rep.Failures, rep.Summary())
	}
	if rep.SharedTraceHits == 0 {
		t.Error("soak adopted no traces")
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
	rep := fleet.Run(jobs, fleet.Options{Workers: 2, Share: true})
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

// TestResidentJobMigratesBitIdentical: without a snapshot directory a
// preempted job keeps its live VM, and a migration hands that VM to
// another worker. Jobs that migrated must still match their unsliced
// runs bit for bit: stdout, virtual cycles, trap stream and final state.
// Private caches keep each job's cycle accounting independent of what
// its neighbours decoded first.
func TestResidentJobMigratesBitIdentical(t *testing.T) {
	imgs := microImages(t)
	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	jobs := microJobs(imgs, 2, cfg)
	streams := make([][]oracle.TrapRec, len(jobs))
	for i := range jobs {
		i := i
		jobs[i].Config.Observer = func(st *fpvm.TrapState) { streams[i] = append(streams[i], oracle.Digest(st)) }
	}
	rep := fleet.Run(jobs, fleet.Options{Workers: 2, PreemptQuantum: 100_000})
	if rep.Failures != 0 {
		t.Fatalf("resident fleet failed:\n%s", rep.Summary())
	}

	migrated := 0
	for i, jr := range rep.Results {
		if jr.Migrations == 0 {
			continue
		}
		migrated++
		var refRecs []oracle.TrapRec
		refCfg := cfg
		refCfg.Observer = func(st *fpvm.TrapState) { refRecs = append(refRecs, oracle.Digest(st)) }
		ref, err := fpvm.Run(jobs[i].Image, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		res := jr.Result
		if res.Stdout != ref.Stdout || res.Cycles != ref.Cycles || res.ExitCode != ref.ExitCode {
			t.Errorf("%s (%d migrations): observables diverged (cycles %d vs %d)",
				jr.Name, jr.Migrations, res.Cycles, ref.Cycles)
		}
		if k := oracle.CompareStreams(refRecs, streams[i]); k != -1 {
			t.Errorf("%s: trap stream diverged at trap #%d", jr.Name, k+1)
		}
		if d := oracle.DiffFinal(ref.Final, res.Final); d != "" {
			t.Errorf("%s: final state diverged: %s", jr.Name, d)
		}
		if res.Resumed {
			t.Errorf("%s: a resident job reports Resumed (its state never came from bytes)", jr.Name)
		}
	}
	if migrated == 0 {
		t.Fatalf("no job migrated (%d preemptions); the test exercised nothing", rep.Preemptions)
	}
	t.Logf("%d of %d jobs migrated; %d preemptions, %d migrations", migrated, len(jobs), rep.Preemptions, rep.Migrations)
}
