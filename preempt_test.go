package fpvm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strings"
	"testing"

	"fpvm"
	"fpvm/internal/checkpoint"
	"fpvm/internal/obj"
	"fpvm/internal/workloads"
)

// pinnedBoundaryDigest is the digest TestPreemptionBoundariesPinned
// computes. It was recorded by running the test body on the step loop
// that stepped one instruction per kernel.Process.Step (before the
// run-to-event loop), so any change to where a slice stops, to the
// cycles and instructions a slice reports, or to the step count a
// snapshot carries shows up as a mismatch.
const pinnedBoundaryDigest = "31f6a2e91e21527adb47d1e9d238a9f5fbfaa82c8525d0737a31cf2b009b0681"

// TestPreemptionBoundariesPinned slices every micro image through
// Prepare + RunSlice and hashes where each slice stopped: its Cycles and
// Instructions, the step count (Steps) of the snapshot of every 97th
// slice and of the last preempted slice, and the final stdout. Quantum 1
// preempts at every event boundary that advances the clock, 997 at odd
// offsets into traps and syscalls, 250,000 at fpvmd's default.
func TestPreemptionBoundariesPinned(t *testing.T) {
	h := sha256.New()
	slices := 0
	for _, name := range workloads.MicroAll() {
		img, err := workloads.BuildMicro(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []uint64{1, 997, 250_000} {
			slices += hashSlices(t, h, img, q)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d slices, digest %s", slices, got)
	if got != pinnedBoundaryDigest {
		t.Errorf("preemption boundaries moved: digest %s, pinned %s", got, pinnedBoundaryDigest)
	}
}

// hashSlices runs img slice by slice into h and returns the number of
// slices it took.
func hashSlices(t *testing.T, h hash.Hash, img *obj.Image, quantum uint64) int {
	t.Helper()
	prepare := func() *fpvm.VM {
		vm, err := fpvm.Prepare(img, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, PreemptQuantum: quantum})
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(img.Name))
	put(quantum)
	vm := prepare()
	var last *fpvm.Result
	for n := 0; ; n++ {
		res, err := vm.RunSlice()
		if err != nil {
			t.Fatalf("%s at quantum %d, slice %d: %v", img.Name, quantum, n, err)
		}
		put(res.Cycles)
		put(res.Instructions)
		if !res.Preempted {
			h.Write([]byte(res.Stdout))
			if last != nil {
				put(stepsAtClock(t, prepare(), last))
			}
			return n + 1
		}
		if n%97 == 0 {
			put(snapshotSteps(t, vm))
		}
		last = res
	}
}

// stepsAtClock runs the fresh vm in one slice up to the clock at which
// the preempted slice want ended and returns its snapshot's step count.
// A slice stops at the first event boundary whose clock reaches its
// quantum, and every boundary before the one that ended want is below
// want's clock, so the long slice ends on the same boundary: that the
// Cycles and Instructions agree is checked.
func stepsAtClock(t *testing.T, vm *fpvm.VM, want *fpvm.Result) uint64 {
	t.Helper()
	vm.SetPreemptQuantum(want.Cycles - vm.Cycles())
	res, err := vm.RunSlice()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Preempted || res.Cycles != want.Cycles || res.Instructions != want.Instructions {
		t.Fatalf("one slice to cycle %d ended at cycle %d, %d instructions (preempted %v); the sliced run was at %d instructions",
			want.Cycles, res.Cycles, res.Instructions, res.Preempted, want.Instructions)
	}
	return snapshotSteps(t, vm)
}

// snapshotSteps returns the event-boundary count a preempted VM's
// snapshot carries.
func snapshotSteps(t *testing.T, vm *fpvm.VM) uint64 {
	t.Helper()
	b, err := vm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return img.Steps
}

// TestHugeQuantumDoesNotPreempt: where a slice ends on the clock
// saturates, so a quantum near MaxUint64 on a VM whose clock has
// advanced runs the job to its end rather than wrapping around and
// preempting at the first boundary.
func TestHugeQuantumDoesNotPreempt(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	ref, err := fpvm.Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []uint64{math.MaxUint64 - 1000, math.MaxUint64} {
		cfg.PreemptQuantum = 250_000
		vm, err := fpvm.Prepare(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := vm.RunSlice(); err != nil || !res.Preempted {
			t.Fatalf("first slice: preempted %v, %v", res != nil && res.Preempted, err)
		}
		vm.SetPreemptQuantum(q)
		res, err := vm.RunSlice()
		if err != nil {
			t.Fatal(err)
		}
		if res.Preempted || res.Cycles != ref.Cycles || res.Stdout != ref.Stdout {
			t.Errorf("quantum %d: preempted %v at %d cycles, want the end at %d", q, res.Preempted, res.Cycles, ref.Cycles)
		}
	}
}

// TestRestoredPastStepLimitFails: MaxSteps is not part of a snapshot's
// binding, so a snapshot can carry more steps than the limit of the VM
// it is restored into. Such a VM runs one more boundary and fails with
// the step-limit error rather than running unbounded.
func TestRestoredPastStepLimitFails(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, PreemptQuantum: 250_000}
	vm, err := fpvm.Prepare(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := vm.RunSlice(); err != nil || !res.Preempted {
		t.Fatalf("first slice: %v", err)
	}
	snap, err := vm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	steps := snapshotSteps(t, vm)
	for _, limit := range []uint64{steps, steps / 2} {
		cfg.MaxSteps = limit
		twin, err := fpvm.Prepare(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Restore(snap); err != nil {
			t.Fatal(err)
		}
		before := twin.Cycles()
		res, err := twin.RunSlice()
		if err == nil || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("limit %d under %d restored steps: err %v, want the step limit", limit, steps, err)
		}
		if res.Cycles == before {
			t.Errorf("limit %d: the restored VM ran no boundary", limit)
		}
	}
}
