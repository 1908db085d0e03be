package fpvm_test

import (
	"strings"
	"sync"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/asm"
	"fpvm/internal/dcache"
	fpvmrt "fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
)

// TestForkInsideFleet is the fork × fleet interplay test: several
// concurrent VMs run the same image against ONE frozen decode/trace
// store, trained by a private run of the image, and every VM forks
// mid-run (the fork_test.go scaffolding). Each child's cache is a Clone
// of a store-backed cache — its stats must start from zero, and both
// parent and child must adopt from the store while other VMs do the
// same, leaving it exactly as trained. Run under -race via make check.
func TestForkInsideFleet(t *testing.T) {
	// Program: x = 1/3 (boxed); INT3 fork marker; x += step; print; exit.
	b := asm.NewBuilder("fleet-forked")
	b.RoDouble("one", 1)
	b.RoDouble("three", 3)
	b.Double("step", 1) // parent adds 1; each child's copy flips to 2
	b.Func("main")
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM0), "one")
	b.RMData(isa.DIVSD, isa.XMM(isa.XMM0), "three")
	b.Op0(isa.INT3)
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

	// The INT3 marker only forks in the fleet below; training skips it.
	trainer := newRig(t, img, fpvmrt.Config{Alt: alt.NewBoxedIEEE(), Seq: true, Short: true}, true)
	trainer.p.BreakpointHook = func(*kernel.Ucontext) bool { return true }
	if err := trainer.p.Run(0); err != nil {
		t.Fatalf("training run: %v", err)
	}
	shared := dcache.Freeze(trainer.rt.Cache(), img)
	entries, traces := shared.EntryLen(), shared.TraceLen()
	if traces == 0 {
		t.Fatal("training run built no traces; the test would adopt nothing")
	}

	const vms = 6
	var wg sync.WaitGroup
	errs := make(chan string, vms*4)
	for v := 0; v < vms; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			cfg := fpvmrt.Config{Alt: alt.NewBoxedIEEE(), Seq: true, Short: true, Shared: shared}
			parent := newRig(t, img, cfg, true)

			var child *kernel.Process
			var childRT *fpvmrt.Runtime
			parent.p.BreakpointHook = func(uc *kernel.Ucontext) bool {
				if child != nil {
					return true // the child inherits the hook; skip its marker
				}
				parent.p.M.CPU = uc.CPU
				child = parent.p.Fork("child")
				childRT = parent.rt.ForkChild(child)
				if st := childRT.Cache().Stats; (st != dcache.Stats{}) {
					errs <- "fork child inherited cache stats"
				}
				if err := child.M.Mem.WriteUint64(stepSym.Addr, 0x4000000000000000); err != nil {
					errs <- "patch child step: " + err.Error()
				}
				return true
			}

			if err := parent.p.Run(0); err != nil {
				errs <- "parent run: " + err.Error()
				return
			}
			if err := parent.rt.Err(); err != nil {
				errs <- "parent fpvm: " + err.Error()
				return
			}
			if child == nil {
				errs <- "fork marker never hit"
				return
			}
			if err := child.Run(0); err != nil {
				errs <- "child run: " + err.Error()
				return
			}
			if err := childRT.Err(); err != nil {
				errs <- "child fpvm: " + err.Error()
				return
			}
			if out := parent.p.Stdout.String(); !strings.HasPrefix(out, "1.3333333333333333") {
				errs <- "parent printed " + out
			}
			if out := child.Stdout.String(); !strings.HasPrefix(out, "2.3333333333333335") {
				errs <- "child printed " + out
			}
			// The parent adopts the trace at the division; the child,
			// forked before the addition ever trapped, adopts that one.
			if st := parent.rt.Cache().Stats; st.SharedTraceHits == 0 {
				errs <- "parent adopted no trace"
			}
			if st := childRT.Cache().Stats; st.SharedTraceHits == 0 {
				errs <- "child adopted no trace"
			}
		}(v)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if shared.EntryLen() != entries || shared.TraceLen() != traces {
		t.Errorf("the fleet changed the frozen store: %d/%d entries, %d/%d traces",
			shared.EntryLen(), entries, shared.TraceLen(), traces)
	}
}
