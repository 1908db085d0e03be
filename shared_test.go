package fpvm_test

import (
	"sync"
	"testing"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/workloads"
)

// TestSharedCacheSameCyclesAnyOrder: on a trained store, a job's virtual
// cycles depend only on its image and config. The first job on the store
// (cold-first), a job after others (warm-after) and four concurrent jobs
// all spend the same cycles and print the same output, for every micro
// image under boxed and mpfr. Pre-fix, jobs published into the store as
// they ran, so the first job on an image paid for what later ones
// adopted, and concurrent jobs raced to publish.
func TestSharedCacheSameCyclesAnyOrder(t *testing.T) {
	const concurrent = 4
	for _, alt := range []fpvm.AltKind{fpvm.AltBoxed, fpvm.AltMPFR} {
		for _, name := range workloads.MicroAll() {
			img, err := workloads.BuildMicro(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fpvm.Config{Alt: alt, Seq: true, Short: true}
			if cfg.Shared, err = fpvm.TrainSharedCache(img, cfg); err != nil {
				t.Fatalf("%s/%s: training: %v", alt, name, err)
			}
			results := make([]*fpvm.Result, 2+concurrent)
			errs := make([]error, len(results))
			run := func(i int) { results[i], errs[i] = fpvm.Run(img, cfg) }
			run(0) // cold-first
			run(1) // warm-after
			var wg sync.WaitGroup
			for i := 2; i < len(results); i++ {
				wg.Add(1)
				go func(i int) { defer wg.Done(); run(i) }(i)
			}
			wg.Wait()

			for i, res := range results {
				if errs[i] != nil {
					t.Fatalf("%s/%s job %d: %v", alt, name, i, errs[i])
				}
				if res.SharedHits+res.SharedTraceHits == 0 {
					t.Errorf("%s/%s job %d adopted nothing from the trained store", alt, name, i)
				}
				if res.Cycles != results[0].Cycles || res.Stdout != results[0].Stdout {
					t.Errorf("%s/%s job %d: %d cycles, cold-first job %d", alt, name, i, res.Cycles, results[0].Cycles)
				}
			}
		}
	}
}

// TestSharedCacheResumeKeepsUnshared: a VM that invalidates anything
// stops adopting from its store for good, and its snapshots say so, so a
// run resumed from bytes after every slice spends exactly the cycles of
// the uninterrupted run. Here one injected decode fault, retried, makes
// the very first trap distrust its decode.
func TestSharedCacheResumeKeepsUnshared(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Pendulum)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	if cfg.Shared, err = fpvm.TrainSharedCache(img, cfg); err != nil {
		t.Fatal(err)
	}
	clean, err := fpvm.Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(quantum uint64) (*fpvm.Result, int) {
		c := cfg
		if c.Inject, err = faultinject.ParseSpec("decode:every=1,limit=1", 1); err != nil {
			t.Fatal(err)
		}
		c.PreemptQuantum = quantum
		res, err := fpvm.Run(img, c)
		resumes := 0
		for err == nil && res.Preempted {
			resumes++
			res, err = fpvm.Resume(img, c, res.Snapshot)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, resumes
	}
	whole, _ := run(0)
	sliced, resumes := run(50_000)
	if whole.Retries != 1 || whole.Cycles <= clean.Cycles {
		t.Fatalf("the fault did not unshare the run: %d retries, %d cycles against %d clean",
			whole.Retries, whole.Cycles, clean.Cycles)
	}
	if sliced.Cycles != whole.Cycles || sliced.Stdout != whole.Stdout {
		t.Errorf("resumed %d times: %d cycles, uninterrupted %d", resumes, sliced.Cycles, whole.Cycles)
	}
}
