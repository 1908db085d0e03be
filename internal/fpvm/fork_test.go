package fpvm_test

import (
	"strings"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/asm"
	"fpvm/internal/faultinject"
	fpvmrt "fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
)

// TestForkVirtualizedProcess reproduces §2.1's fork story: a virtualized
// process with live boxed state forks; both parent and child continue
// under FPVM independently, each printing the correct (diverging) values.
func TestForkVirtualizedProcess(t *testing.T) {
	// Program: x = 1/3 (boxed); MARKER; x += step; print_f64(x); exit.
	// The parent forks at MARKER (an int3 we intercept) and sets a
	// different step for the child by patching its data.
	b := asm.NewBuilder("forked")
	b.RoDouble("one", 1)
	b.RoDouble("three", 3)
	b.Double("step", 1) // parent adds 1; we flip the child's copy to 2
	b.Func("main")
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM0), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM0), "three")
	b.Op0(isa.INT3) // fork marker
	b.RMData(isa.ADDSD, isa.XMM(isa.XMM0), "step")
	b.CallImport("print_f64")
	b.MI(isa.MOV64RI, isa.GPR(isa.RAX), 60)
	b.Op0(isa.SYSCALL)
	b.SetEntry("main")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stepSym, ok := img.Lookup("step")
	if !ok {
		t.Fatal("no step symbol")
	}

	parent := newRig(t, img, fpvmrt.Config{Alt: alt.NewBoxedIEEE(), Seq: true, Short: true}, true)

	var child *kernel.Process
	var childRT *fpvmrt.Runtime
	parent.p.BreakpointHook = func(uc *kernel.Ucontext) bool {
		if child != nil {
			return true // child inherits the hook; ignore its marker
		}
		// Fork at the marker: the boxed x lives in the (about to be
		// restored) ucontext — park it in the machine before cloning.
		parent.p.M.CPU = uc.CPU
		child = parent.p.Fork("child")
		childRT = parent.rt.ForkChild(child)
		// Diverge the child: step = 2.
		if err := child.M.Mem.WriteUint64(stepSym.Addr, 0x4000000000000000); err != nil {
			t.Fatal(err)
		}
		return true
	}

	if err := parent.p.Run(0); err != nil {
		t.Fatalf("parent: %v", err)
	}
	if err := parent.rt.Err(); err != nil {
		t.Fatalf("parent fpvm: %v", err)
	}
	if child == nil {
		t.Fatal("fork marker never hit")
	}
	if err := child.Run(0); err != nil {
		t.Fatalf("child: %v", err)
	}
	if err := childRT.Err(); err != nil {
		t.Fatalf("child fpvm: %v", err)
	}

	pOut := parent.p.Stdout.String()
	cOut := child.Stdout.String()
	if !strings.HasPrefix(pOut, "1.3333333333333333") {
		t.Errorf("parent printed %q, want 1/3+1", pOut)
	}
	if !strings.HasPrefix(cOut, "2.3333333333333335") {
		t.Errorf("child printed %q, want 1/3+2", cOut)
	}
	// The child must have re-registered with /dev/fpvm on its own.
	if !child.FPVMRegistered() {
		t.Error("child not registered for short-circuit delivery")
	}
	if childRT.Tel.Traps == 0 {
		t.Error("child took no FP traps")
	}
	// Independence: the child's allocator divergence must not affect the
	// parent's (clone, not share).
	if parent.rt.Allocator() == childRT.Allocator() {
		t.Error("allocator shared across fork")
	}
}

// TestForkInheritsRecoveryState: fault semantics across fork (§2.1's
// fork story extended to the recovery ladder). The parent accumulates
// degradations before the fork; the child must start from a deep copy of
// that ladder state (same counters at the fork point, independent
// accumulation afterwards), share the deterministic injector, and still
// produce the right answer.
func TestForkInheritsRecoveryState(t *testing.T) {
	b := asm.NewBuilder("forked-faults")
	b.RoDouble("one", 1)
	b.RoDouble("three", 3)
	b.Double("step", 1)
	b.Func("main")
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM0), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM0), "three")
	b.Op0(isa.INT3) // fork marker
	b.RMData(isa.ADDSD, isa.XMM(isa.XMM0), "step")
	b.CallImport("print_f64")
	b.MI(isa.MOV64RI, isa.GPR(isa.RAX), 60)
	b.Op0(isa.SYSCALL)
	b.SetEntry("main")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stepSym, ok := img.Lookup("step")
	if !ok {
		t.Fatal("no step symbol")
	}

	// every=1 at the alt.op site: every emulated operation degrades after
	// its retry budget drains, so the parent carries ladder state into the
	// fork.
	inj := faultinject.New(7)
	inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Every: 1})
	parent := newRig(t, img, fpvmrt.Config{Alt: alt.NewBoxedIEEE(), Seq: true, Inject: inj}, true)

	var child *kernel.Process
	var childRT *fpvmrt.Runtime
	var snapDegr, snapRetr uint64
	parent.p.BreakpointHook = func(uc *kernel.Ucontext) bool {
		if child != nil {
			return true
		}
		parent.p.M.CPU = uc.CPU
		snapDegr, snapRetr = parent.rt.Degradations, parent.rt.Retries
		child = parent.p.Fork("child")
		childRT = parent.rt.ForkChild(child)
		if err := child.M.Mem.WriteUint64(stepSym.Addr, 0x4000000000000000); err != nil {
			t.Fatal(err)
		}
		return true
	}

	if err := parent.p.Run(0); err != nil {
		t.Fatalf("parent: %v", err)
	}
	if child == nil {
		t.Fatal("fork marker never hit")
	}
	if snapDegr == 0 {
		t.Fatal("parent accumulated no degradations before fork (injection not exercised)")
	}
	if childRT.Degradations != snapDegr || childRT.Retries != snapRetr {
		t.Errorf("child ladder counters not a snapshot of the fork point: child %d/%d, fork %d/%d",
			childRT.Degradations, childRT.Retries, snapDegr, snapRetr)
	}
	if err := child.Run(0); err != nil {
		t.Fatalf("child: %v", err)
	}
	if err := parent.rt.Err(); err != nil {
		t.Fatalf("parent fpvm: %v", err)
	}
	if err := childRT.Err(); err != nil {
		t.Fatalf("child fpvm: %v", err)
	}

	// Both sides degrade independently after the fork...
	if parent.rt.Degradations <= snapDegr {
		t.Error("parent stopped degrading after fork")
	}
	if childRT.Degradations <= snapDegr {
		t.Error("child did not continue degrading from its snapshot")
	}
	// ...and both still print exact results (degradation is native IEEE).
	if out := parent.p.Stdout.String(); !strings.HasPrefix(out, "1.3333333333333333") {
		t.Errorf("parent printed %q, want 1/3+1", out)
	}
	if out := child.Stdout.String(); !strings.HasPrefix(out, "2.3333333333333335") {
		t.Errorf("child printed %q, want 1/3+2", out)
	}
	// The shared injector's ledger covers both processes and reconciles.
	if !inj.Reconciled() {
		t.Errorf("shared injector ledger broken across fork:\n%s", inj.Report())
	}
}

// TestForkCheckpointRollback: the checkpoint/rollback interplay with
// fork. The parent runs (and snapshots) to completion; the child — whose
// "step" was patched to 2 at the fork — then hits a fatal alt.op fault.
// Its supervisor must roll back to a snapshot of the CHILD's own state
// (the child inherits the parent's image, which it only reads, and its
// own saves replace it), so the restore keeps the patched step and does
// not alias or disturb the parent's heap or memory.
func TestForkCheckpointRollback(t *testing.T) {
	b := asm.NewBuilder("forked-ckpt")
	b.RoDouble("one", 1)
	b.RoDouble("three", 3)
	b.Double("step", 1)
	b.Func("main")
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM0), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM0), "three")
	b.Op0(isa.INT3) // fork marker
	b.RMData(isa.ADDSD, isa.XMM(isa.XMM0), "step")
	b.CallImport("print_f64")
	b.MI(isa.MOV64RI, isa.GPR(isa.RAX), 60)
	b.Op0(isa.SYSCALL)
	b.SetEntry("main")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stepSym, ok := img.Lookup("step")
	if !ok {
		t.Fatal("no step symbol")
	}

	// Shared injector, armed only after the parent completes: the fatal
	// fault hits the child alone.
	inj := faultinject.New(5)
	parent := newRig(t, img, fpvmrt.Config{
		Alt: alt.NewBoxedIEEE(), Seq: true, Inject: inj, CheckpointInterval: 1,
	}, true)

	var child *kernel.Process
	var childRT *fpvmrt.Runtime
	parent.p.BreakpointHook = func(uc *kernel.Ucontext) bool {
		if child != nil {
			return true
		}
		parent.p.M.CPU = uc.CPU
		child = parent.p.Fork("child")
		childRT = parent.rt.ForkChild(child)
		if err := child.M.Mem.WriteUint64(stepSym.Addr, 0x4000000000000000); err != nil {
			t.Fatal(err)
		}
		return true
	}

	if err := parent.p.Run(0); err != nil {
		t.Fatalf("parent: %v", err)
	}
	if err := parent.rt.Err(); err != nil {
		t.Fatalf("parent fpvm: %v", err)
	}
	if child == nil {
		t.Fatal("fork marker never hit")
	}

	inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Every: 1, Limit: 1, Fatal: true})
	if err := child.Run(0); err != nil {
		t.Fatalf("child: %v", err)
	}
	if err := childRT.Err(); err != nil {
		t.Fatalf("child fpvm: %v", err)
	}

	if childRT.Rollbacks == 0 {
		t.Fatal("child's fatal fault produced no rollback")
	}
	if childRT.Detached() {
		t.Error("child detached despite its inherited checkpoint supervisor")
	}
	// The rollback restored CHILD state: the patched step survived, so the
	// child still prints 1/3 + 2 — a restore that aliased the parent's
	// image would have reverted step to 1 and printed 1.33...
	if out := child.Stdout.String(); !strings.HasPrefix(out, "2.3333333333333335") {
		t.Errorf("child printed %q after rollback, want 1/3+2", out)
	}
	if out := parent.p.Stdout.String(); !strings.HasPrefix(out, "1.3333333333333333") {
		t.Errorf("parent printed %q, want 1/3+1", out)
	}
	// No state sharing across the fork: the child's rollback must not have
	// replaced the parent's allocator or memory.
	if parent.rt.Allocator() == childRT.Allocator() {
		t.Error("allocator shared across fork after rollback")
	}
	if v, err := parent.p.M.Mem.ReadUint64(stepSym.Addr); err != nil || v != 0x3FF0000000000000 {
		t.Errorf("parent's step clobbered: %#x, %v", v, err)
	}
	if parent.rt.Rollbacks != 0 {
		t.Errorf("parent recorded %d rollbacks for the child's fault", parent.rt.Rollbacks)
	}
	if !inj.Reconciled() || !inj.Consistent() {
		t.Errorf("shared injector ledger broken across fork:\n%s", inj.Report())
	}
}

// TestForkMemoryIsolation: writes in the child are invisible to the
// parent.
func TestForkMemoryIsolation(t *testing.T) {
	img := buildGCLoop(t, 5)
	parent := newRig(t, img, fpvmrt.Config{Alt: alt.NewBoxedIEEE()}, true)
	child := parent.p.Fork("child")
	_ = parent.rt.ForkChild(child)
	sp := child.M.CPU.GPR[isa.RSP]
	if err := child.M.Mem.WriteUint64(sp-128, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	v, err := parent.p.M.Mem.ReadUint64(sp - 128)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0xDEAD {
		t.Error("child write leaked into the parent address space")
	}
	// Both machines remain runnable.
	if child.M.CPU.RIP != parent.p.M.CPU.RIP {
		t.Error("child did not inherit RIP")
	}
	if child.M.CPU.MXCSR != machine.MXCSRTrapAll {
		t.Error("child did not inherit FPVM's trap-all MXCSR")
	}
}
