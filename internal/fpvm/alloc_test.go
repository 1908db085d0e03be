package fpvm_test

import (
	"math"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/asm"
	fpvmrt "fpvm/internal/fpvm"
	"fpvm/internal/isa"
)

// TestReplayedTrapAllocatesNothing: once the box store is sized, a Boxed
// IEEE trap makes no Go heap allocation, whether its sequence replays
// from the trace cache or the walk emulates it with the cache off
// (NoTraceCache): both run the steps built at decode. The loop's sequence
// holds scalar arithmetic on boxed operands, XMM stores and loads, and
// 64-bit integer moves, and its boxes trigger collections inside the
// measured window.
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
	for _, tc := range []struct {
		name    string
		noTrace bool
	}{{"replay", false}, {"walk", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fpvmrt.Config{Alt: alt.NewBoxedIEEE(), Seq: true, Short: true, GCThreshold: 64,
				NoTraceCache: tc.noTrace}
			r := newRig(t, img, cfg, false)
			step := func(n uint64) {
				if got := r.p.RunFor(n, math.MaxUint64); got != n || r.p.Exited {
					t.Fatalf("RunFor passed %d of %d boundaries (exited %v): %v", got, n, r.p.Exited, r.p.Err)
				}
			}
			step(20_000) // build the trace, size the box store, collect
			tel := &r.rt.Tel
			traps, hits, emulated, gcs := tel.Traps, tel.TraceHits, tel.EmulatedInsts, r.rt.GCRuns
			if allocs := testing.AllocsPerRun(50, func() { step(1000) }); allocs != 0 {
				t.Errorf("%v allocations per 1000 boundaries of %s traps, want 0", allocs, tc.name)
			}
			if err := r.rt.Err(); err != nil {
				t.Fatal(err)
			}
			n := tel.Traps - traps
			if n == 0 || r.rt.GCRuns == gcs {
				t.Fatalf("measured window handled %d traps and ran %d collections; the check is vacuous",
					n, r.rt.GCRuns-gcs)
			}
			if tel.EmulatedInsts-emulated < 7*n {
				t.Errorf("%d instructions emulated in %d traps: the loop sequence is not the one emulated",
					tel.EmulatedInsts-emulated, n)
			}
			// With the trace cache off no trap looks a trace up, so the walk
			// case counts neither hits nor misses: every trap is walked.
			want := n
			if tc.noTrace {
				want = 0
			}
			if got := tel.TraceHits - hits; got != want {
				t.Errorf("%d of %d traps replayed a trace, want %d", got, n, want)
			}
		})
	}
}
