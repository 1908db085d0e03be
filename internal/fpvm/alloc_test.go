package fpvm_test

import (
	"math"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/asm"
	fpvmrt "fpvm/internal/fpvm"
	"fpvm/internal/isa"
)

// TestReplayedTrapAllocatesNothing: once its trace is compiled and the
// box store sized, a Boxed IEEE trap replayed through its compiled body
// makes no Go heap allocation. The loop's trace holds scalar arithmetic
// on boxed operands, XMM stores and loads, and 64-bit integer moves, and
// its boxes trigger collections inside the measured window.
func TestReplayedTrapAllocatesNothing(t *testing.T) {
	b := asm.NewBuilder("replayalloc")
	b.RoDouble("one", 1)
	b.RoDouble("three", 3)
	b.Space("buf", 16)
	b.Func("main")
	b.MI(isa.MOV64RI, isa.GPR(isa.RCX), 1<<40)
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM0), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM0), "three") // x = 1/3, boxed
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM1), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM1), "three") // step = 1/3, boxed
	b.LeaData(isa.RBX, "buf")
	b.Label("loop")
	b.RM(isa.ADDSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)) // traps: the trace start
	b.RM(isa.MOVSDMX, isa.XMM(isa.XMM0), isa.Mem(isa.RBX, 0))
	b.RM(isa.MOV64RM, isa.GPR(isa.RAX), isa.Mem(isa.RBX, 0))
	b.RM(isa.MOV64MR, isa.GPR(isa.RAX), isa.Mem(isa.RBX, 8))
	b.RM(isa.MOVSDXM, isa.XMM(isa.XMM2), isa.Mem(isa.RBX, 8))
	b.RM(isa.MULSD, isa.XMM(isa.XMM2), isa.XMM(isa.XMM1))
	b.RM(isa.SUBSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM2))
	b.MI(isa.SUB64I, isa.GPR(isa.RCX), 1) // ends the sequence
	b.Branch(isa.JNE, "loop")
	b.MI(isa.MOV64RI, isa.GPR(isa.RAX), 60)
	b.Op0(isa.SYSCALL)
	b.SetEntry("main")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvmrt.Config{Alt: alt.NewBoxedIEEE(), Seq: true, Short: true, GCThreshold: 64}
	r := newRig(t, img, cfg, false)

	step := func(n uint64) {
		if got := r.p.RunFor(n, math.MaxUint64); got != n || r.p.Exited {
			t.Fatalf("RunFor passed %d of %d boundaries (exited %v): %v", got, n, r.p.Exited, r.p.Err)
		}
	}
	step(20_000) // compile the trace, size the box store, collect
	hits, gcs := r.rt.Tel.TraceHits, r.rt.GCRuns
	if allocs := testing.AllocsPerRun(50, func() { step(1000) }); allocs != 0 {
		t.Errorf("%v allocations per 1000 boundaries of replayed traps, want 0", allocs)
	}
	if err := r.rt.Err(); err != nil {
		t.Fatal(err)
	}
	if r.rt.Tel.TraceHits == hits || r.rt.GCRuns == gcs {
		t.Fatalf("measured window replayed %d traps and ran %d collections; the check is vacuous",
			r.rt.Tel.TraceHits-hits, r.rt.GCRuns-gcs)
	}
	if r.rt.JITCompiles != 1 || r.rt.Tel.ReplayedInsts < 7*(r.rt.Tel.TraceHits-hits) {
		t.Errorf("JITCompiles %d, replayed %d instructions in %d hits: the loop trace is not the one replayed",
			r.rt.JITCompiles, r.rt.Tel.ReplayedInsts, r.rt.Tel.TraceHits)
	}
}
