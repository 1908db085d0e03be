package fpvm_test

// Instruction-step coverage: steps built at decode (every cached entry
// carries one, whether or not its trace ever replays), the divergence
// exit out of a replay (a step's guard failing mid-trace), and the
// recovery ladder inside replayed steps.

import (
	"math/rand"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/dcache"
	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/obj"
)

// TestJITStepsBuiltAtDecode: every traced entry carries the step decode
// built for it. The 400-iteration loop replays its one loop trace;
// straight-line programs, whose trap sites each run once, build traces
// but replay none, and their entries carry steps all the same.
func TestJITStepsBuiltAtDecode(t *testing.T) {
	img := buildTraceLoop(t, 400)
	native := runNativeRig(t, img)
	r := newRig(t, img, traceLoopCfg(false), true)
	if out := r.run(t); out != native {
		t.Fatalf("replay changed output:\n fpvm:   %q\n native: %q", out, native)
	}
	if r.rt.Tel.TraceHits == 0 || r.rt.Tel.ReplayedInsts == 0 {
		t.Errorf("loop never replayed: hits=%d replayed=%d", r.rt.Tel.TraceHits, r.rt.Tel.ReplayedInsts)
	}
	loops := 0
	for _, tr := range r.rt.Cache().Traces() {
		checkSteps(t, "loop", tr)
		if tr.Len() == 4 {
			loops++
		}
	}
	if loops != 1 {
		t.Errorf("%d cached traces hold the 4-addsd loop body, want 1", loops)
	}

	rng := rand.New(rand.NewSource(0xF9B0))
	built := 0
	for pi := 0; pi < 8; pi++ {
		r := newRig(t, genProgram(t, rng, 40, pi), traceLoopCfg(false), true)
		r.run(t)
		built += r.rt.Cache().TraceLen()
		if r.rt.Tel.TraceHits != 0 {
			t.Errorf("program %d: %d trace hits, want 0 (no trap site repeats)", pi, r.rt.Tel.TraceHits)
		}
		for _, tr := range r.rt.Cache().Traces() {
			checkSteps(t, "straight-line", tr)
		}
	}
	if built == 0 {
		t.Fatal("straight-line programs built no traces; the step check is vacuous")
	}
}

// checkSteps fails t for any entry of tr without a step.
func checkSteps(t *testing.T, what string, tr *dcache.Trace) {
	t.Helper()
	for i, e := range tr.Entries {
		if e.Step == nil {
			t.Errorf("%s trace %#x: entry %d (%s) has no step", what, tr.Start, i, e.Inst.Op)
		}
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

// TestJITDeoptMidTrace: phase-B replays hit the second addsd's guard
// (operands no longer boxed) and leave through the divergence exit, once
// per phase-B iteration, and the run stays bit-identical to native
// execution.
func TestJITDeoptMidTrace(t *testing.T) {
	const n = 60
	img := buildDeoptLoop(t, n)
	native := runNativeRig(t, img)
	r := newRig(t, img, traceLoopCfg(false), true)
	out := r.run(t)

	if out != native {
		t.Fatalf("divergence exit changed output:\n fpvm:   %q\n native: %q", out, native)
	}
	if r.rt.Tel.TraceHits == 0 {
		t.Fatal("the loop trace never replayed")
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
// seed, so the schedule is deterministic) land inside replayed steps.
// Bursts that drain the retry budget degrade to native IEEE, and each
// degradation invalidates the traces through the instruction. Output must
// stay bit-exact with native execution (Boxed IEEE degrades to the same
// IEEE result), and both ledgers must reconcile.
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
		t.Fatalf("alt.op faults in replayed steps changed output:\n fpvm:   %q\n native: %q",
			out, native)
	}
	if r.rt.Degradations == 0 {
		t.Fatal("alt.op fault bursts produced no degradations")
	}
	if r.rt.Cache().Stats.TraceInvalidations == 0 {
		t.Error("degradations never invalidated a trace")
	}
	if r.rt.Tel.TraceHits == 0 {
		t.Error("no trace replayed under alt.op faults")
	}
	if r.rt.Detached() {
		t.Error("degradable alt.op faults escalated to detach")
	}
}
