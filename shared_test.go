package fpvm_test

import (
	"sync"
	"testing"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/oracle"
	"fpvm/internal/workloads"
)

// TestSharedCacheSameCyclesAnyOrder: on a trained store, a job's virtual
// cycles depend only on its image and config. The first job on the store
// (cold-first), a job after others (warm-after) and four concurrent jobs
// all spend the same cycles and print the same output, for every micro
// image under boxed and mpfr. Pre-fix, jobs published into the store as
// they ran, so the first job on an image paid for what later ones
// adopted, and concurrent jobs raced to publish. The store is worth
// having: every job on it spends fewer cycles than a private-cache run.
// With the trace cache on, trace adoption subsumes decode adoption (an
// adopted trace replays without decoding); under NONE every trap decodes
// its one instruction, so there jobs adopt decodes.
func TestSharedCacheSameCyclesAnyOrder(t *testing.T) {
	const concurrent = 4
	configs := []fpvm.Config{
		{Alt: fpvm.AltBoxed, Seq: true, Short: true},
		{Alt: fpvm.AltMPFR, Seq: true, Short: true},
		{Alt: fpvm.AltBoxed}, // NONE
	}
	for _, base := range configs {
		for _, name := range workloads.MicroAll() {
			cfg := base // each image trains its own store
			label := cfg.ConfigName() + "/" + string(cfg.Alt) + "/" + string(name)
			img, err := workloads.BuildMicro(name)
			if err != nil {
				t.Fatal(err)
			}
			private, err := fpvm.Run(img, cfg)
			if err != nil {
				t.Fatalf("%s: private run: %v", label, err)
			}
			if cfg.Shared, err = fpvm.TrainSharedCache(img, cfg); err != nil {
				t.Fatalf("%s: training: %v", label, err)
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
					t.Fatalf("%s job %d: %v", label, i, errs[i])
				}
				if res.SharedHits+res.SharedTraceHits == 0 {
					t.Errorf("%s job %d adopted nothing from the trained store", label, i)
				}
				if !cfg.Seq && res.SharedHits == 0 {
					t.Errorf("%s job %d adopted no decode entries", label, i)
				}
				if res.Cycles != results[0].Cycles || res.Stdout != results[0].Stdout {
					t.Errorf("%s job %d: %d cycles, cold-first job %d", label, i, res.Cycles, results[0].Cycles)
				}
			}
			if results[0].Cycles >= private.Cycles || results[0].Stdout != private.Stdout {
				t.Errorf("%s: %d cycles on the trained store, %d with a private cache",
					label, results[0].Cycles, private.Cycles)
			}
		}
	}
}

// TestSharedBindRejectsSecondImage pins the store's safety property: a
// store trained on one image refuses to serve a different one.
func TestSharedBindRejectsSecondImage(t *testing.T) {
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

// TestSharedStepsServeEveryConfig: a decode entry carries its step into
// every VM that adopts it, so a step must read the alt system's float
// path, EmulateAll and FutureHW from the VM that runs it, never from the
// one that decoded it. Each micro image trains a store under boxed SEQ
// SHORT; then every other alt system, EmulateAll (boxed and mpfr), the
// trace cache off, SEQ off and FutureHW run the image once with a private
// cache and once, concurrently, on that store. Both runs must print the
// same output, exit alike and end in the same architectural state,
// without an error or a detach. Trap counts are not compared: adopting
// boxed-trained traces legitimately moves sequence ends under another
// system.
func TestSharedStepsServeEveryConfig(t *testing.T) {
	seqShort := func(alt fpvm.AltKind) fpvm.Config { return fpvm.Config{Alt: alt, Seq: true, Short: true} }
	configs := map[string]fpvm.Config{
		"mpfr":          seqShort(fpvm.AltMPFR),
		"posit":         seqShort(fpvm.AltPosit),
		"interval":      seqShort(fpvm.AltInterval),
		"rational":      seqShort(fpvm.AltRational),
		"boxed-all":     {Alt: fpvm.AltBoxed, Seq: true, Short: true, EmulateAll: true},
		"mpfr-all":      {Alt: fpvm.AltMPFR, Seq: true, Short: true, EmulateAll: true},
		"boxed-notrace": {Alt: fpvm.AltBoxed, Seq: true, Short: true, NoTraceCache: true},
		"boxed-noseq":   {Alt: fpvm.AltBoxed, Short: true},
		"boxed-hw":      {Alt: fpvm.AltBoxed, Seq: true, FutureHW: true},
	}
	for _, name := range workloads.MicroAll() {
		img, err := workloads.BuildMicro(name)
		if err != nil {
			t.Fatal(err)
		}
		store, err := fpvm.TrainSharedCache(img, seqShort(fpvm.AltBoxed))
		if err != nil {
			t.Fatalf("%s: training: %v", name, err)
		}
		private := make(map[string]*fpvm.Result, len(configs))
		for label, cfg := range configs {
			res, err := fpvm.Run(img, cfg)
			if err != nil {
				t.Fatalf("%s/%s: private run: %v", name, label, err)
			}
			private[label] = res
		}
		var mu sync.Mutex
		shared := make(map[string]*fpvm.Result, len(configs))
		var wg sync.WaitGroup
		for label, cfg := range configs {
			cfg.Shared = store
			wg.Add(1)
			go func(label string, cfg fpvm.Config) {
				defer wg.Done()
				res, err := fpvm.Run(img, cfg)
				if err != nil {
					t.Errorf("%s/%s: run on the store: %v", name, label, err)
					return
				}
				mu.Lock()
				shared[label] = res
				mu.Unlock()
			}(label, cfg)
		}
		wg.Wait()
		for label, want := range private {
			got, ok := shared[label]
			if !ok {
				continue // its error is reported above
			}
			where := string(name) + "/" + label
			if want.Detached || got.Detached {
				t.Errorf("%s: detached (private %v, on the store %v)", where, want.Detached, got.Detached)
			}
			if got.SharedHits+got.SharedTraceHits == 0 {
				t.Errorf("%s: adopted nothing from the store", where)
			}
			if got.Stdout != want.Stdout || got.ExitCode != want.ExitCode {
				t.Errorf("%s: output or exit code differs on the store (exit %d, private %d)",
					where, got.ExitCode, want.ExitCode)
			}
			if got.Final == nil || want.Final == nil {
				t.Errorf("%s: no final state", where)
			} else if oracle.Digest(got.Final) != oracle.Digest(want.Final) {
				t.Errorf("%s: final state differs on the store: %s", where, oracle.DiffFinal(want.Final, got.Final))
			}
		}
	}
}
