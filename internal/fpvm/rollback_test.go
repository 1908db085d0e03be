package fpvm_test

import (
	"strings"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/faultinject"
	fpvmrt "fpvm/internal/fpvm"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
)

// TestRollbackRecoversFatalFault is the headline robustness property: a
// fatal-severity fault that would otherwise detach the VM is absorbed by
// the rollback supervisor — the last snapshot restores, the distrusted
// RIP is quarantined to native execution, and the run completes fully
// virtualized with output bit-identical to a fault-free run.
func TestRollbackRecoversFatalFault(t *testing.T) {
	img, err := buildChain(t, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := newRig(t, img, fpvmrt.Config{Alt: alt.NewBoxedIEEE(), Seq: true}, true)
	want := ref.run(t)

	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Every: 10, Limit: 1, Fatal: true})
	r := newRig(t, img, fpvmrt.Config{
		Alt: alt.NewBoxedIEEE(), Seq: true, Inject: inj, CheckpointInterval: 2,
	}, true)
	out := r.run(t)

	if out != want {
		t.Errorf("rolled-back run printed %q, want bit-identical %q", out, want)
	}
	if r.rt.Rollbacks == 0 {
		t.Fatal("fatal fault produced no rollback (supervisor not exercised)")
	}
	if r.rt.Detached() {
		t.Error("run detached despite a successful rollback")
	}
	if r.rt.Checkpoints == 0 {
		t.Error("no snapshots captured despite CheckpointInterval")
	}
	if r.rt.Quarantines == 0 {
		t.Error("rollback did not quarantine the distrusted RIP")
	}
	if r.rt.Tel.FaultsRolledBack == 0 || !r.rt.Tel.FaultsReconciled() {
		t.Errorf("fault ledger broken: %s", r.rt.Tel.FaultLine())
	}
	if !inj.Reconciled() || !inj.Consistent() {
		t.Errorf("injector ledger broken:\n%s", inj.Report())
	}
	if tot := inj.Totals(); tot.RolledBack == 0 || tot.Fatal != 0 {
		t.Errorf("fatal fault resolved wrong: rolledback=%d fatal=%d, want ≥1/0",
			tot.RolledBack, tot.Fatal)
	}
}

// TestFatalFaultWithoutCheckpointDetaches is the control for the test
// above: the identical fault schedule with the supervisor disabled can
// only reach the bottom rung. "Do no harm" still holds — the guest
// finishes natively with the right answer — but the run is detached.
func TestFatalFaultWithoutCheckpointDetaches(t *testing.T) {
	img, err := buildChain(t, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Every: 10, Limit: 1, Fatal: true})
	r := newRig(t, img, fpvmrt.Config{Alt: alt.NewBoxedIEEE(), Seq: true, Inject: inj}, true)
	if err := r.p.Run(10_000_000); err != nil {
		t.Fatalf("guest did not survive detach: %v", err)
	}
	if !r.rt.Detached() {
		t.Fatal("fatal fault without checkpointing did not detach")
	}
	if r.rt.Rollbacks != 0 {
		t.Errorf("rollbacks %d with the supervisor disabled", r.rt.Rollbacks)
	}
	if !strings.HasPrefix(r.p.Stdout.String(), "3") {
		t.Errorf("detached guest printed %q, want native 3.0", r.p.Stdout.String())
	}
	if tot := inj.Totals(); tot.Fatal != 1 {
		t.Errorf("fault resolved as %+v, want exactly one fatal", tot)
	}
}

// TestMaxRollbacksBoundsAttempts: the attempt budget is a hard bound.
// With MaxRollbacks=1 and two fatal faults, the first rolls back and the
// second escalates past the exhausted supervisor to detach — recorded as
// one rolled-back and one fatal resolution plus a rollback failure.
func TestMaxRollbacksBoundsAttempts(t *testing.T) {
	img, err := buildChain(t, 16).Build()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Every: 8, Limit: 2, Fatal: true})
	r := newRig(t, img, fpvmrt.Config{
		Alt: alt.NewBoxedIEEE(), Seq: true, Inject: inj,
		CheckpointInterval: 2, MaxRollbacks: 1,
	}, true)
	if err := r.p.Run(10_000_000); err != nil {
		t.Fatalf("guest did not survive: %v", err)
	}
	if r.rt.Rollbacks != 1 {
		t.Errorf("rollbacks %d, want exactly the budget of 1", r.rt.Rollbacks)
	}
	if r.rt.RollbackFailures == 0 {
		t.Error("exhausted budget recorded no rollback failure")
	}
	if !r.rt.Detached() {
		t.Error("second fatal fault past the budget did not detach")
	}
	if !strings.HasPrefix(r.p.Stdout.String(), "5.6") {
		t.Errorf("guest printed %q, want native 5.66...", r.p.Stdout.String())
	}
	tot := inj.Totals()
	if tot.RolledBack != 1 || tot.Fatal != 1 {
		t.Errorf("resolutions rolledback=%d fatal=%d, want 1/1", tot.RolledBack, tot.Fatal)
	}
	if !inj.Reconciled() {
		t.Errorf("injector ledger broken:\n%s", inj.Report())
	}
}

// TestCheckpointSaveFaultsDegrade: ckpt.save is itself a fault site. A
// persistently failing save exhausts its retry budget and resolves as a
// degradation — the snapshot is skipped, the previous image stays valid,
// and the run completes clean (no snapshot is better than a torn one).
func TestCheckpointSaveFaultsDegrade(t *testing.T) {
	img, err := buildChain(t, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteCkptSave, faultinject.Rule{Every: 1})
	r := newRig(t, img, fpvmrt.Config{
		Alt: alt.NewBoxedIEEE(), Seq: true, Inject: inj, CheckpointInterval: 1,
	}, true)
	out := r.run(t)
	if !strings.HasPrefix(out, "3") {
		t.Errorf("run printed %q, want 3.0", out)
	}
	if r.rt.Checkpoints != 0 {
		t.Errorf("%d snapshots captured despite every save faulting", r.rt.Checkpoints)
	}
	if r.rt.Degradations == 0 {
		t.Error("persistent save faults produced no degradations")
	}
	if r.rt.Detached() {
		t.Error("save faults escalated to detach")
	}
	if !r.rt.Tel.FaultsReconciled() || !inj.Reconciled() {
		t.Errorf("ledger broken: %s\n%s", r.rt.Tel.FaultLine(), inj.Report())
	}
}

// TestCheckpointRestoreFaultEscalates: when the restore path itself fails
// persistently, the supervisor must abandon the rollback rather than
// reinstate suspect state — the fatal fault falls through to detach and
// the attempt is recorded as a rollback failure.
func TestCheckpointRestoreFaultEscalates(t *testing.T) {
	img, err := buildChain(t, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Every: 10, Limit: 1, Fatal: true})
	inj.Arm(faultinject.SiteCkptRestore, faultinject.Rule{Every: 1})
	r := newRig(t, img, fpvmrt.Config{
		Alt: alt.NewBoxedIEEE(), Seq: true, Inject: inj, CheckpointInterval: 2,
	}, true)
	if err := r.p.Run(10_000_000); err != nil {
		t.Fatalf("guest did not survive: %v", err)
	}
	if r.rt.Rollbacks != 0 {
		t.Errorf("rollbacks %d despite an unrestorable snapshot", r.rt.Rollbacks)
	}
	if r.rt.RollbackFailures == 0 {
		t.Error("abandoned rollback recorded no failure")
	}
	if !r.rt.Detached() {
		t.Error("fatal fault with a failing restore path did not detach")
	}
	if !strings.HasPrefix(r.p.Stdout.String(), "3") {
		t.Errorf("guest printed %q, want native 3.0", r.p.Stdout.String())
	}
	if !inj.Reconciled() {
		t.Errorf("injector ledger broken:\n%s", inj.Report())
	}
}

// TestRollbackWithoutCheckpointDetaches: a fatal fault before any
// checkpoint exists (every save faults and is skipped) has nothing to
// roll back to, so the supervisor declines, counts a rollback failure,
// and the fault falls through to detach.
func TestRollbackWithoutCheckpointDetaches(t *testing.T) {
	img, err := buildChain(t, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteCkptSave, faultinject.Rule{Every: 1})
	inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Every: 10, Limit: 1, Fatal: true})
	r := newRig(t, img, fpvmrt.Config{
		Alt: alt.NewBoxedIEEE(), Seq: true, Inject: inj, CheckpointInterval: 1,
	}, true)
	if err := r.p.Run(10_000_000); err != nil {
		t.Fatalf("guest did not survive: %v", err)
	}
	if r.rt.Checkpoints != 0 || r.rt.Rollbacks != 0 {
		t.Errorf("checkpoints %d, rollbacks %d, want 0/0", r.rt.Checkpoints, r.rt.Rollbacks)
	}
	if r.rt.RollbackFailures == 0 || !r.rt.Detached() {
		t.Errorf("rollback failures %d, detached %v; want a declined rollback and a detach",
			r.rt.RollbackFailures, r.rt.Detached())
	}
	if !strings.HasPrefix(r.p.Stdout.String(), "3") {
		t.Errorf("guest printed %q, want native 3.0", r.p.Stdout.String())
	}
}

// TestCheckpointNeedsCodec: a rollback checkpoint holds the heap as
// encoded values, so Attach refuses CheckpointInterval for an alt system
// without a codec, and accepts the same system without checkpoints.
func TestCheckpointNeedsCodec(t *testing.T) {
	img, err := buildChain(t, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := codecless{alt.NewBoxedIEEE()}
	as := mem.NewAddressSpace()
	p := kernel.NewProcess(kernel.New(), machine.New(as), img.Name)
	if _, err := fpvmrt.Attach(p, fpvmrt.Config{Alt: sys, CheckpointInterval: 5}); err == nil ||
		!strings.Contains(err.Error(), "value codec") {
		t.Errorf("Attach with a codec-less system and checkpoints: %v, want a value-codec refusal", err)
	}
	newRig(t, img, fpvmrt.Config{Alt: sys, Seq: true}, true).run(t)
}

// codecless strips the codec from a system: embedding the System
// interface promotes only its methods.
type codecless struct{ alt.System }
