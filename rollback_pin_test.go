package fpvm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/obj"
	"fpvm/internal/workloads"
)

// pinnedRollbackPathDigest is the digest TestRollbackPathPinned
// computes. It was recorded with the rollback supervisor saving through
// an incremental page manager (dirty-page tracking) and copying heap
// values through per-system clone hooks, so any change to what a save or
// a restore captures, charges or counts shows up as a mismatch.
const pinnedRollbackPathDigest = "08dfbfb87eb2ad06b1474ab4f83fb5b096849f7e2e71fb0647d2873df12abcb4"

// TestRollbackPathPinned runs the rollback supervisor under every fault
// that reaches it and hashes what each run reports (everything
// hashTrapRun folds in, plus the supervisor's Checkpoints, Rollbacks,
// RollbackFailures and Quarantines).
//
// Boxed IEEE runs on lorenz, three_body and the five micro images;
// MPFR, posit, interval and rational on the micro images. Each runs a
// fatal alt.op fault at checkpoint intervals 25 and 5, faults at
// ckpt.save and at ckpt.restore, a fatal decode fault, two fatal faults
// against a budget of one rollback, and a per-trap cycle watchdog tight
// enough to roll back. The precision policy runs two fatal alt.op
// faults at interval 7 on the micro images.
func TestRollbackPathPinned(t *testing.T) {
	build := func(name workloads.Name, micro bool) *obj.Image {
		var img *obj.Image
		var err error
		if micro {
			img, err = workloads.BuildMicro(name)
		} else {
			img, err = workloads.Build(name, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		patched, err := fpvm.PrepareForFPVM(img, true)
		if err != nil {
			t.Fatal(err)
		}
		return patched
	}
	var micro, boxedImgs []*obj.Image
	for _, name := range workloads.MicroAll() {
		micro = append(micro, build(name, true))
	}
	boxedImgs = append(boxedImgs, build(workloads.Lorenz, false), build(workloads.ThreeBody, false))
	boxedImgs = append(boxedImgs, micro...)

	type scenario struct {
		label string
		spec  string
		cfg   func(*fpvm.Config)
	}
	interval := func(n int) func(*fpvm.Config) {
		return func(c *fpvm.Config) { c.CheckpointInterval = n }
	}
	const fatalOp = "alt.op:every=97,limit=1,sev=fatal"
	scenarios := []scenario{
		{"altop-25", fatalOp, interval(25)},
		{"altop-5", fatalOp, interval(5)},
		{"save-faults", "ckpt.save:prob=0.7;" + fatalOp, interval(5)},
		{"restore-faults", "ckpt.restore:prob=0.6;alt.op:every=97,limit=3,sev=fatal", interval(5)},
		{"decode", "decode:every=61,limit=1,sev=fatal", interval(25)},
		{"maxrb1", "alt.op:every=97,limit=2,sev=fatal", func(c *fpvm.Config) {
			c.CheckpointInterval = 5
			c.MaxRollbacks = 1
		}},
		{"watchdog", "", func(c *fpvm.Config) {
			c.CheckpointInterval = 25
			c.TrapCycleBudget = 3000
		}},
	}
	type system struct {
		alt  fpvm.AltKind
		imgs []*obj.Image
	}
	systems := []system{
		{fpvm.AltBoxed, boxedImgs},
		{fpvm.AltMPFR, micro},
		{fpvm.AltPosit, micro},
		{fpvm.AltInterval, micro},
		{fpvm.AltRational, micro},
	}

	h := sha256.New()
	var runs, rolled, failed, detached int
	run := func(label string, img *obj.Image, cfg fpvm.Config, spec string) {
		if spec != "" {
			in, err := faultinject.ParseSpec(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Inject = in
		}
		res, err := fpvm.Run(img, cfg)
		if res == nil {
			t.Fatalf("%s on %s: %v", label, img.Name, err)
		}
		fmt.Fprintf(h, "%s/%s\n%v\n", label, img.Name, err)
		hashTrapRun(h, res)
		fmt.Fprintf(h, "%d %d %d %d\n", res.Checkpoints, res.Rollbacks, res.RollbackFailures, res.Quarantines)
		runs++
		if res.Rollbacks > 0 {
			rolled++
		}
		if res.RollbackFailures > 0 {
			failed++
		}
		if res.Detached {
			detached++
		}
		t.Logf("%s/%s: %d cycles, %d traps, %d ckpts, %d rollbacks, %d failures, %d quarantines, detached %v",
			label, img.Name, res.Cycles, res.Traps, res.Checkpoints, res.Rollbacks,
			res.RollbackFailures, res.Quarantines, res.Detached)
	}
	for _, sys := range systems {
		for _, sc := range scenarios {
			for _, img := range sys.imgs {
				cfg := fpvm.Config{Alt: sys.alt, Seq: true, Short: true}
				sc.cfg(&cfg)
				run(fmt.Sprintf("%s-%s", sys.alt, sc.label), img, cfg, sc.spec)
			}
		}
	}
	for _, img := range micro {
		cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, PrecisionPolicy: true, CheckpointInterval: 7}
		run("policy", img, cfg, "alt.op:every=97,limit=2,sev=fatal")
	}
	t.Logf("%d runs: %d roll back, %d have a failed rollback, %d detach", runs, rolled, failed, detached)

	got := hex.EncodeToString(h.Sum(nil))
	if got != pinnedRollbackPathDigest {
		t.Errorf("rollback path moved: digest %s, pinned %s", got, pinnedRollbackPathDigest)
	}
}
