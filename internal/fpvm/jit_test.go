package fpvm_test

// Compiled replay coverage: lazy compilation (first replay, never at
// trace build), the divergence exit out of a compiled body (guard failure
// mid-trace), the recovery ladder inside a compiled body, and
// invalidation and fork dropping compiled bodies with their traces.

import (
	"math/rand"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/obj"
)

// TestJITCompilesOnFirstReplay: a trace compiles on its first replay and
// never at build. The 400-iteration loop compiles its one loop trace once
// and replays it through the body; straight-line programs, whose trap
// sites each run once, build traces but replay none, so they compile
// nothing.
func TestJITCompilesOnFirstReplay(t *testing.T) {
	img := buildTraceLoop(t, 400)
	native := runNativeRig(t, img)
	r := newRig(t, img, traceLoopCfg(false), true)
	if out := r.run(t); out != native {
		t.Fatalf("compiled replay changed output:\n fpvm:   %q\n native: %q", out, native)
	}
	if r.rt.JITCompiles != 1 {
		t.Errorf("JITCompiles = %d, want 1 (one repeated trace)", r.rt.JITCompiles)
	}
	if r.rt.Tel.TraceHits == 0 || r.rt.Tel.ReplayedInsts == 0 {
		t.Errorf("loop never replayed: hits=%d replayed=%d", r.rt.Tel.TraceHits, r.rt.Tel.ReplayedInsts)
	}
	var bodies int
	for _, tr := range r.rt.Cache().Traces() {
		if tr.Compiled == nil {
			continue
		}
		bodies++
		if tr.Len() != 4 {
			t.Errorf("compiled trace %#x has %d entries, want the 4-addsd loop body", tr.Start, tr.Len())
		}
	}
	if bodies != 1 {
		t.Errorf("%d cached traces carry a body, want 1 (the loop trace)", bodies)
	}

	rng := rand.New(rand.NewSource(0xF9B0))
	built := 0
	for pi := 0; pi < 8; pi++ {
		r := newRig(t, genProgram(t, rng, 40, pi), traceLoopCfg(false), true)
		r.run(t)
		built += r.rt.Cache().TraceLen()
		if r.rt.JITCompiles != 0 {
			t.Errorf("program %d: JITCompiles = %d, want 0 (no trap site repeats)", pi, r.rt.JITCompiles)
		}
		for _, tr := range r.rt.Cache().Traces() {
			if tr.Compiled != nil {
				t.Errorf("program %d: trace %#x was compiled without a replay", pi, tr.Start)
			}
		}
	}
	if built == 0 {
		t.Fatal("straight-line programs built no traces; the no-compile check is vacuous")
	}
}

// buildDeoptLoop assembles the §4.2 oscillation case for compiled
// replay: a two-phase loop whose body pairs a boxed accumulator (the trap
// source) with a second addsd whose operands are boxed in phase A but
// plain IEEE in phase B. The phase-A trace records the second addsd as
// warranted; every phase-B replay must fail its boxedness guard there and
// leave through the divergence exit, letting the hardware run it natively.
func buildDeoptLoop(t *testing.T, n int64) *obj.Image {
	t.Helper()
	b := asm.NewBuilder("deoptloop")
	b.RoDouble("one", 1)
	b.RoDouble("three", 3)
	b.Func("main")
	b.MI(isa.MOV64RI, isa.GPR(isa.RDX), 2) // phase counter: A, then B
	b.MI(isa.MOV64RI, isa.GPR(isa.RCX), n)
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM0), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM0), "three") // acc = 1/3, boxed
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM1), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM1), "three") // step = 1/3, boxed
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM2), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM2), "three") // flipper = 1/3, boxed
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM3), "one") // plain 1.0
	b.Label("loop")
	b.RM(isa.ADDSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)) // boxed: trap head
	b.RM(isa.ADDSD, isa.XMM(isa.XMM2), isa.XMM(isa.XMM3)) // boxed in A, plain in B
	b.MI(isa.SUB64I, isa.GPR(isa.RCX), 1)
	b.Branch(isa.JNE, "loop")
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM2), "one") // unbox the flipper: phase B
	b.MI(isa.MOV64RI, isa.GPR(isa.RCX), n)
	b.MI(isa.SUB64I, isa.GPR(isa.RDX), 1)
	b.Branch(isa.JNE, "loop")
	b.CallImport("print_f64")
	b.RM(isa.MOVSDXX, isa.XMM(isa.XMM0), isa.XMM(isa.XMM2))
	b.CallImport("print_f64")
	b.MI(isa.MOV64RI, isa.GPR(isa.RAX), 60)
	b.Op0(isa.SYSCALL)
	b.SetEntry("main")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestJITDeoptMidTrace: phase-B replays hit the compiled guard on the
// second addsd (operands no longer boxed) and leave through the
// divergence exit, once per phase-B iteration, and the run stays
// bit-identical to native execution.
func TestJITDeoptMidTrace(t *testing.T) {
	const n = 60
	img := buildDeoptLoop(t, n)
	native := runNativeRig(t, img)
	r := newRig(t, img, traceLoopCfg(false), true)
	out := r.run(t)

	if out != native {
		t.Fatalf("divergence exit changed output:\n fpvm:   %q\n native: %q", out, native)
	}
	if r.rt.JITCompiles == 0 {
		t.Fatal("the loop trace was never compiled")
	}
	if r.rt.Tel.TraceDivergences == 0 {
		t.Error("phase-B guard failures produced no divergence exit")
	}
	if r.rt.Tel.TraceDivergences > r.rt.Tel.TraceHits {
		t.Errorf("TraceDivergences %d exceed TraceHits %d", r.rt.Tel.TraceDivergences, r.rt.Tel.TraceHits)
	}
	if r.rt.Tel.TraceDivergences != n {
		t.Errorf("TraceDivergences = %d, want %d (one per phase-B iteration)", r.rt.Tel.TraceDivergences, n)
	}
}

// TestJITAltOpFaultInCompiledBody: probabilistic alt.op faults (fixed
// seed, so the schedule is deterministic) land inside compiled steps.
// Bursts that drain the retry budget degrade to native IEEE, each
// degradation invalidates the traces through the instruction (dropping
// the compiled body), and the trace rebuilds and compiles again on a
// later replay — so compilation must happen more than once. Output must
// stay bit-exact with native execution (Boxed IEEE degrades to the same
// IEEE result), and both ledgers must reconcile. (An every-check rule
// would never let a rebuilt trace reach a replay — the gaps between
// bursts are what recompilation needs.)
func TestJITAltOpFaultInCompiledBody(t *testing.T) {
	img := buildTraceLoop(t, 200)
	native := runNativeRig(t, img)
	inj := faultinject.New(3)
	inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Prob: 0.5})
	cfg := traceLoopCfg(false)
	cfg.Inject = inj
	r := newRig(t, img, cfg, true)
	out := r.run(t)
	if !r.rt.Tel.FaultsReconciled() {
		t.Errorf("fault ledger broken: %s", r.rt.Tel.FaultLine())
	}
	if !inj.Reconciled() {
		t.Errorf("injector ledger broken:\n%s", inj.Report())
	}

	if out != native {
		t.Fatalf("alt.op faults in compiled bodies changed output:\n fpvm:   %q\n native: %q",
			out, native)
	}
	if r.rt.Degradations == 0 {
		t.Fatal("alt.op fault bursts produced no degradations")
	}
	if r.rt.Cache().Stats.TraceInvalidations == 0 {
		t.Error("degradations never invalidated a compiled trace")
	}
	if r.rt.Tel.TraceHits == 0 {
		t.Error("no trace replayed under alt.op faults")
	}
	if r.rt.JITCompiles < 2 {
		t.Errorf("JITCompiles = %d, want >= 2 (invalidated traces must compile again)",
			r.rt.JITCompiles)
	}
	if r.rt.Detached() {
		t.Error("degradable alt.op faults escalated to detach")
	}
}

// TestJITInvalidationDropsBody: InvalidateTraces drops the trace object
// and its compiled body together — no trace reachable from the cache
// afterwards carries a stale body, and a rebuilt trace compiles afresh.
func TestJITInvalidationDropsBody(t *testing.T) {
	r := newRig(t, buildTraceLoop(t, 400), traceLoopCfg(false), true)
	r.run(t)
	c := r.rt.Cache()
	var compiled int
	for _, tr := range c.Traces() {
		if tr.Compiled != nil {
			compiled++
			if n := c.InvalidateTraces(tr.Start); n == 0 {
				t.Errorf("InvalidateTraces(%#x) dropped nothing", tr.Start)
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no compiled trace in the cache after a hot run")
	}
	for _, tr := range c.Traces() {
		if tr.Compiled != nil {
			t.Errorf("trace %#x still carries a compiled body after invalidation", tr.Start)
		}
	}
}

// TestJITForkChildRecompiles: fork clones the trace table without the
// parent's compiled bodies (they capture nothing of the parent, but the
// per-VM rule is absolute); the child compiles each trace on its own
// first replay and counts its own compiles.
func TestJITForkChildRecompiles(t *testing.T) {
	img := buildTraceLoop(t, 400)
	parent := newRig(t, img, traceLoopCfg(false), true)
	parent.run(t)
	if parent.rt.JITCompiles == 0 {
		t.Fatal("parent never compiled")
	}
	child := parent.p.Fork("child")
	childRT := parent.rt.ForkChild(child)
	for _, tr := range childRT.Cache().Traces() {
		if tr.Compiled != nil {
			t.Errorf("fork cloned a compiled body for trace %#x", tr.Start)
		}
	}
	if childRT.JITCompiles != 0 {
		t.Errorf("child starts with JITCompiles = %d, want 0", childRT.JITCompiles)
	}
}
