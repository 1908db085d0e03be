// Resumption-exactness harness: for every alternative arithmetic system
// with a value codec, a run chopped into preemption slices — each slice
// round-tripped through the on-disk wire format — must be bit-identical
// to the uninterrupted run in stdout, virtual cycles, trap stream
// (oracle digests), final architectural state and telemetry counters.

package fpvm_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"fpvm"
	"fpvm/internal/asm"
	"fpvm/internal/checkpoint"
	"fpvm/internal/mem"
	"fpvm/internal/obj"
	"fpvm/internal/oracle"
	"fpvm/internal/workloads"
)

var allAltKinds = []fpvm.AltKind{
	fpvm.AltBoxed, fpvm.AltMPFR, fpvm.AltPosit,
	fpvm.AltPosit32, fpvm.AltInterval, fpvm.AltRational,
}

// runObserved runs img under cfg collecting the oracle-digested trap
// stream, resuming across preemptions. Each snapshot is persisted to
// and re-read from disk so the full wire format (framing, CRC, atomic
// write) is on the resumed path, not just in-memory bytes.
func runObserved(t *testing.T, img *obj.Image, cfg fpvm.Config, snapFile string) (*fpvm.Result, []oracle.TrapRec, int) {
	t.Helper()
	var recs []oracle.TrapRec
	cfg.Observer = func(st *fpvm.TrapState) { recs = append(recs, oracle.Digest(st)) }

	res, err := fpvm.Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumes := 0
	for res.Preempted {
		resumes++
		snap := res.Snapshot
		if snapFile != "" {
			if err := os.WriteFile(snapFile, snap, 0o644); err != nil {
				t.Fatal(err)
			}
			if snap, err = os.ReadFile(snapFile); err != nil {
				t.Fatal(err)
			}
		}
		if res, err = fpvm.Resume(img, cfg, snap); err != nil {
			t.Fatal(err)
		}
	}
	return res, recs, resumes
}

func TestResumeBitIdentical(t *testing.T) {
	img, err := workloads.Build(workloads.Pendulum, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allAltKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			cfg := fpvm.Config{Alt: kind, Seq: true, Short: true}
			ref, refRecs, _ := runObserved(t, img, cfg, "")

			cfg2 := cfg
			cfg2.PreemptQuantum = 2_000_000
			snapFile := filepath.Join(t.TempDir(), "resume.snap")
			res, recs, resumes := runObserved(t, img, cfg2, snapFile)
			if resumes == 0 {
				t.Fatalf("workload finished inside one quantum; no resumption exercised")
			}
			t.Logf("%d resumes, %d traps", resumes, len(recs))

			if res.Stdout != ref.Stdout {
				t.Errorf("stdout diverged after %d resumes", resumes)
			}
			if res.Cycles != ref.Cycles {
				t.Errorf("virtual cycles diverged: resumed %d, uninterrupted %d", res.Cycles, ref.Cycles)
			}
			if i := oracle.CompareStreams(refRecs, recs); i != -1 {
				t.Errorf("trap stream diverged at trap #%d (of %d vs %d)", i+1, len(refRecs), len(recs))
			}
			if res.Final == nil || ref.Final == nil {
				t.Fatalf("missing final state capture")
			}
			if d := oracle.DiffFinal(ref.Final, res.Final); d != "" {
				t.Errorf("final architectural state diverged: %s", d)
			}
			if res.Traps != ref.Traps || res.EmulatedInsts != ref.EmulatedInsts {
				t.Errorf("telemetry diverged: traps %d/%d, emulated %d/%d",
					res.Traps, ref.Traps, res.EmulatedInsts, ref.EmulatedInsts)
			}
			if res.ExitCode != ref.ExitCode {
				t.Errorf("exit code diverged: %d vs %d", res.ExitCode, ref.ExitCode)
			}
			if !res.Resumed {
				t.Errorf("resumed run did not report Resumed")
			}
		})
	}
}

// TestResumeRepromotesJIT: a run chopped by preemption and resumed from
// on-disk snapshots replays restored traces, whose entries (steps
// included) are re-decoded at restore, and stays bit-identical to the
// uninterrupted run in stdout, cycles, trap stream and trace telemetry.
func TestResumeRepromotesJIT(t *testing.T) {
	img, err := workloads.Build(workloads.Pendulum, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	ref, refRecs, _ := runObserved(t, img, cfg, "")
	if ref.TraceHits == 0 {
		t.Fatalf("workload never replayed a trace; test is vacuous")
	}

	cfg2 := cfg
	cfg2.PreemptQuantum = 2_000_000
	snapFile := filepath.Join(t.TempDir(), "resume.snap")
	res, recs, resumes := runObserved(t, img, cfg2, snapFile)
	if resumes == 0 {
		t.Fatalf("workload finished inside one quantum; no resumption exercised")
	}
	t.Logf("%d resumes; ref replays=%d; resumed replays=%d", resumes, ref.TraceHits, res.TraceHits)

	if res.Stdout != ref.Stdout {
		t.Errorf("stdout diverged after %d resumes", resumes)
	}
	if res.Cycles != ref.Cycles {
		t.Errorf("virtual cycles diverged: resumed %d, uninterrupted %d", res.Cycles, ref.Cycles)
	}
	if i := oracle.CompareStreams(refRecs, recs); i != -1 {
		t.Errorf("trap stream diverged at trap #%d (of %d vs %d)", i+1, len(refRecs), len(recs))
	}
	if d := oracle.DiffFinal(ref.Final, res.Final); d != "" {
		t.Errorf("final architectural state diverged: %s", d)
	}
	// Trace telemetry lives in the serialized Breakdown, so the cumulative
	// counts survive each hop and must match the uninterrupted run exactly.
	if res.TraceHits != ref.TraceHits || res.ReplayedInsts != ref.ReplayedInsts ||
		res.TraceDivergences != ref.TraceDivergences {
		t.Errorf("trace telemetry diverged: hits %d/%d replayed %d/%d divergences %d/%d",
			res.TraceHits, ref.TraceHits, res.ReplayedInsts, ref.ReplayedInsts,
			res.TraceDivergences, ref.TraceDivergences)
	}
}

// TestResumeRejectsMismatchedBindings: a snapshot must not resume under
// a different image, alt system, or semantic configuration.
func TestResumeRejectsMismatchedBindings(t *testing.T) {
	img, err := workloads.Build(workloads.Pendulum, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, PreemptQuantum: 200_000}
	res, err := fpvm.Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Preempted {
		t.Fatalf("expected a preemption at quantum 200k")
	}

	other, err := workloads.Build(workloads.Lorenz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fpvm.Resume(other, cfg, res.Snapshot); err == nil {
		t.Errorf("resume under a different image succeeded")
	}
	wrongAlt := cfg
	wrongAlt.Alt = fpvm.AltPosit
	if _, err := fpvm.Resume(img, wrongAlt, res.Snapshot); err == nil {
		t.Errorf("resume under a different alt system succeeded")
	}
	wrongCfg := cfg
	wrongCfg.Seq = false
	if _, err := fpvm.Resume(img, wrongCfg, res.Snapshot); err == nil {
		t.Errorf("resume under a different semantic configuration succeeded")
	}
}

// TestRunSliceBitIdentical: resident slicing — one VM continued in place
// by RunSlice, nothing serialized — must be bit-identical to the
// uninterrupted run for every alt system, and its Results must not claim
// a snapshot origin or carry bytes.
func TestRunSliceBitIdentical(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Pendulum)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allAltKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			cfg := fpvm.Config{Alt: kind, Seq: true, Short: true}
			ref, refRecs, _ := runObserved(t, img, cfg, "")

			var recs []oracle.TrapRec
			cfg.Observer = func(st *fpvm.TrapState) { recs = append(recs, oracle.Digest(st)) }
			cfg.PreemptQuantum = 200_000
			vm, err := fpvm.Prepare(img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			slices := 0
			res, err := vm.RunSlice()
			for err == nil && res.Preempted {
				if res.Snapshot != nil || res.Resumed {
					t.Fatalf("resident slice %d: Snapshot %d bytes, Resumed %v; want neither", slices, len(res.Snapshot), res.Resumed)
				}
				slices++
				res, err = vm.RunSlice()
			}
			if err != nil {
				t.Fatal(err)
			}
			if slices == 0 {
				t.Fatalf("workload finished inside one quantum; no slicing exercised")
			}
			if res.Stdout != ref.Stdout || res.ExitCode != ref.ExitCode {
				t.Errorf("stdout/exit diverged after %d slices", slices)
			}
			if res.Cycles != ref.Cycles {
				t.Errorf("virtual cycles diverged: sliced %d, uninterrupted %d", res.Cycles, ref.Cycles)
			}
			if i := oracle.CompareStreams(refRecs, recs); i != -1 {
				t.Errorf("trap stream diverged at trap #%d (of %d vs %d)", i+1, len(refRecs), len(recs))
			}
			if d := oracle.DiffFinal(ref.Final, res.Final); d != "" {
				t.Errorf("final architectural state diverged: %s", d)
			}
			if res.Traps != ref.Traps || res.EmulatedInsts != ref.EmulatedInsts || *res.Breakdown != *ref.Breakdown {
				t.Errorf("telemetry diverged: traps %d/%d, emulated %d/%d",
					res.Traps, ref.Traps, res.EmulatedInsts, ref.EmulatedInsts)
			}
		})
	}
}

// TestPreemptedResultOwnsItsCounters: a preempted VM keeps running, so
// the Result of an earlier slice must be a copy, not a view of the live
// telemetry — a caller holding slice 1's Result (a deadline outcome being
// merged into metrics, say) must not see it change when slice 2 runs.
func TestPreemptedResultOwnsItsCounters(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := fpvm.Prepare(img, fpvm.Config{Seq: true, Short: true, Profile: true, PreemptQuantum: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	first, err := vm.RunSlice()
	if err != nil || !first.Preempted {
		t.Fatalf("first slice: preempted %v, err %v", first != nil && first.Preempted, err)
	}
	held := *first
	heldTel := *first.Breakdown
	heldProfile := *first.SeqProfile

	second, err := vm.RunSlice()
	if err != nil {
		t.Fatal(err)
	}
	if second.Traps <= held.Traps {
		t.Fatalf("second slice handled no traps (%d -> %d); test is vacuous", held.Traps, second.Traps)
	}
	if *first.Breakdown != heldTel {
		t.Errorf("slice 1's Breakdown changed when slice 2 ran: traps %d -> %d",
			heldTel.Traps, first.Breakdown.Traps)
	}
	if first.SeqProfile.Traps != heldProfile.Traps || first.SeqProfile.NumTraces() != heldProfile.NumTraces() {
		t.Errorf("slice 1's SeqProfile changed when slice 2 ran: traps %d -> %d",
			heldProfile.Traps, first.SeqProfile.Traps)
	}
	if first.Traps != held.Traps || first.Cycles != held.Cycles || first.Stdout != held.Stdout {
		t.Errorf("slice 1's counters changed when slice 2 ran")
	}
}

// TestVMLifecycle pins the VM's single life: Run, Resume and Restore need
// a fresh VM; Snapshot needs a preempted (or restored) one; a finished or
// spent VM refuses everything; and Result.Resumed means "this VM's state
// came from bytes", however many slices followed.
func TestVMLifecycle(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvm.Config{Seq: true, Short: true, PreemptQuantum: 200_000}
	prepare := func() *fpvm.VM {
		t.Helper()
		vm, err := fpvm.Prepare(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}

	vm := prepare()
	if _, err := vm.Snapshot(); err == nil {
		t.Error("Snapshot of a fresh VM succeeded")
	}
	res, err := vm.RunSlice()
	if err != nil || !res.Preempted {
		t.Fatalf("first slice: %v", err)
	}
	if _, err := vm.Run(); err == nil {
		t.Error("Run of a preempted VM succeeded")
	}
	snap, err := vm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Restore(snap); err == nil {
		t.Error("Restore into a preempted VM succeeded")
	}

	// The bytes continue in a fresh VM, which reports its origin on
	// every later Result.
	twin := prepare()
	if err := twin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Snapshot(); err != nil {
		t.Errorf("Snapshot of a restored VM: %v", err)
	}
	for {
		r, err := twin.RunSlice()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Resumed {
			t.Fatal("slice of a restored VM does not report Resumed")
		}
		if !r.Preempted {
			break
		}
	}

	// The original keeps running in place to the same end.
	for res.Preempted {
		if res, err = vm.RunSlice(); err != nil {
			t.Fatal(err)
		}
	}
	if res.Resumed || res.Final == nil {
		t.Errorf("resident run finished with Resumed %v, Final %v", res.Resumed, res.Final != nil)
	}
	if _, err := vm.RunSlice(); err == nil {
		t.Error("RunSlice of a finished VM succeeded")
	}
	if _, err := vm.Snapshot(); err == nil {
		t.Error("Snapshot of a finished VM succeeded")
	}

	// Run keeps its one-shot contract: a preempted Run carries the bytes
	// and spends the VM.
	once := prepare()
	r, err := once.Run()
	if err != nil || !r.Preempted || len(r.Snapshot) == 0 {
		t.Fatalf("Run: preempted %v, %d snapshot bytes, err %v", r != nil && r.Preempted, len(r.Snapshot), err)
	}
	if _, err := once.RunSlice(); err == nil {
		t.Error("RunSlice of a VM spent by Run succeeded")
	}
}

// zeroedPageProgram stores zero over the only word of its data page
// (non-zero at load), spends enough FP traps to be preempted, and exits
// with that word as its status: 0 unless the page came back non-zero.
const zeroedPageProgram = `
.quad marker 0x1122334455667788
.rodouble one 1.0
.rodouble three 3.0

.func main
    mov rbx, 0
    mov [rip+marker], rbx
    movsd xmm0, [rip+one]
    mov rcx, 2000
loop:
    divsd xmm0, [rip+three]
    addsd xmm0, [rip+one]
    sub rcx, 1
    jne loop
    mov rdi, [rip+marker]
    mov rax, 60
    syscall
.entry main
`

// A snapshot records an all-zero page as its address alone, and restore
// must zero-fill it: a fresh VM loads the page with its load-time bytes,
// so a restore that skipped the empty page would resurrect the word the
// guest zeroed.
func TestZeroedPageRestoresAsZero(t *testing.T) {
	img, err := asm.Assemble("zeroed-page", zeroedPageProgram)
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := img.Lookup("marker")
	if !ok {
		t.Fatal("no marker symbol")
	}
	loaded := false
	for _, sec := range img.Sections {
		if off := sym.Addr - sec.Addr; sym.Addr >= sec.Addr && off+8 <= uint64(len(sec.Data)) {
			loaded = binary.LittleEndian.Uint64(sec.Data[off:]) != 0
		}
	}
	if !loaded {
		t.Fatal("marker is not non-zero at load; the test would prove nothing")
	}

	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	ref, err := fpvm.Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ExitCode != 0 {
		t.Fatalf("uninterrupted run exited %d, want 0", ref.ExitCode)
	}

	cfg.PreemptQuantum = 5_000
	vm, err := fpvm.Prepare(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := vm.RunSlice(); err != nil || !res.Preempted {
		t.Fatalf("first slice: preempted %v, err %v", res != nil && res.Preempted, err)
	}
	snap, err := vm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wi, err := checkpoint.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	page := sym.Addr &^ (mem.PageSize - 1)
	recorded := false
	for _, pg := range wi.Pages {
		if pg.Addr == page {
			recorded = len(pg.Data) == 0
		}
	}
	if !recorded {
		t.Fatalf("the zeroed page %#x is not recorded as a zero page", page)
	}

	twin, err := fpvm.Prepare(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res := &fpvm.Result{Preempted: true}
	for res.Preempted {
		if res, err = twin.RunSlice(); err != nil {
			t.Fatal(err)
		}
	}
	if res.ExitCode != 0 {
		t.Fatalf("restored run exited %d: the zeroed page came back non-zero", res.ExitCode)
	}
	if res.Cycles != ref.Cycles || res.Stdout != ref.Stdout {
		t.Fatalf("restored run: %d cycles, stdout %q; uninterrupted: %d, %q", res.Cycles, res.Stdout, ref.Cycles, ref.Stdout)
	}
}
