package fpvm

import (
	"fmt"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/bigfp"
	"fpvm/internal/checkpoint"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
)

// Addresses of the three writable pages newStateVM maps.
const stateData, stateZero, stateUntouched = 0x1000, 0x2000, 0x3000

// newStateVM attaches an MPFR runtime with rollback on to a process
// whose data mapping is three pages at stateData.
func newStateVM(t *testing.T) (*Runtime, *kernel.Process, *mem.AddressSpace, alt.System) {
	t.Helper()
	as := mem.NewAddressSpace()
	p := kernel.NewProcess(kernel.New(), machine.New(as), "state")
	as.Map("data", stateData, 3*mem.PageSize, mem.PermRW)
	sys := alt.NewMPFR(200)
	r, err := Attach(p, Config{Alt: sys, CheckpointInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r, p, as, sys
}

func mustCapture(t *testing.T, r *Runtime, cpu machine.CPU) *checkpoint.Image {
	t.Helper()
	img, err := r.captureState(cpu)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func mustRestore(t *testing.T, r *Runtime, img *checkpoint.Image) {
	t.Helper()
	if err := r.restoreState(img); err != nil {
		t.Fatal(err)
	}
}

func mustWrite(t *testing.T, as *mem.AddressSpace, addr, v uint64) {
	t.Helper()
	if err := as.WriteUint64(addr, v); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreStateRewindsMemoryAndCPU: the image holds the register
// file and telemetry it was captured with, restoreState puts a written
// page's bytes back, and the image is not consumed — the guest can
// diverge and be rewound again.
func TestRestoreStateRewindsMemoryAndCPU(t *testing.T) {
	r, _, as, _ := newStateVM(t)
	mustWrite(t, as, stateData+8, 0xAA)
	var cpu machine.CPU
	cpu.RIP, cpu.GPR[0] = 0x40_1234, 7
	r.Tel.Traps = 7
	img := mustCapture(t, r, cpu)
	if img.CPU != cpu {
		t.Error("the image does not hold the CPU it was given")
	}
	if img.Tel.Traps != 7 {
		t.Errorf("image telemetry traps %d, want 7", img.Tel.Traps)
	}

	for _, diverge := range []uint64{0xBB, 0xCC} {
		mustWrite(t, as, stateData+8, diverge)
		mustRestore(t, r, img)
		if got, _ := as.ReadUint64(stateData + 8); got != 0xAA {
			t.Errorf("after diverging to %#x the page reads %#x, want 0xAA", diverge, got)
		}
	}
}

// TestRestoreStateTruncatesStdout: output the guest wrote after the
// capture is dropped by the restore.
func TestRestoreStateTruncatesStdout(t *testing.T) {
	r, p, _, _ := newStateVM(t)
	p.Stdout.WriteString("before;")
	img := mustCapture(t, r, machine.CPU{})
	p.Stdout.WriteString("speculative output")
	mustRestore(t, r, img)
	if got := p.Stdout.String(); got != "before;" {
		t.Errorf("stdout after restore %q, want %q", got, "before;")
	}
}

// TestRestoreStateHeapValuesAreIsolated: the image shares no value
// with the live heap or with a heap restored from it. In-place
// mutation of the live box after the capture does not reach the
// restore, a box allocated after the capture does not survive it, and
// mutating the restored box does not corrupt the image for a later
// rollback.
func TestRestoreStateHeapValuesAreIsolated(t *testing.T) {
	r, _, _, sys := newStateVM(t)
	v, _ := sys.Promote(1.5)
	h := r.alloc.Alloc(v)
	img := mustCapture(t, r, machine.CPU{})

	corrupt := func() {
		if live, ok := r.alloc.Get(h); ok {
			live.(*bigfp.Float).SetFloat64(-99)
		}
		w, _ := sys.Promote(2.5)
		r.alloc.Alloc(w)
	}
	for _, round := range []string{"first restore", "second restore"} {
		corrupt()
		mustRestore(t, r, img)
		rv, ok := r.alloc.Get(h)
		if !ok {
			t.Fatalf("%s: restored heap lost the box", round)
		}
		if got, _ := sys.Demote(rv); got != 1.5 {
			t.Errorf("%s: box restored as %g, want the capture-time 1.5", round, got)
		}
		if r.alloc.Has(h + 1) {
			t.Errorf("%s: a box allocated after the capture survived the restore", round)
		}
	}
}

// TestRestoreStateKeepsZeroPageZero: a page that was zero at the
// capture is restored untouched, and a page captured with data but
// dropped back to the shared zero page (OverwritePage(nil)) before the
// restore gets bytes of its own — restoreState never writes the one
// shared zero page. Two VMs restore at once, so under -race a write to
// that page is also reported as a race.
func TestRestoreStateKeepsZeroPageZero(t *testing.T) {
	done := make(chan error, 2)
	for range 2 {
		r, _, as, _ := newStateVM(t)
		go func() { done <- restoreOverZeroPages(r, as) }()
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Any untouched page of a fresh space reads the shared zero page.
	_, _, fresh, _ := newStateVM(t)
	data, _ := fresh.PageData(stateUntouched)
	for i, b := range data {
		if b != 0 {
			t.Fatalf("the shared zero page holds %#x at offset %d", b, i)
		}
	}
}

func restoreOverZeroPages(r *Runtime, as *mem.AddressSpace) error {
	if err := as.WriteUint64(stateData+8, 0xFEED); err != nil {
		return err
	}
	img, err := r.captureState(machine.CPU{})
	if err != nil {
		return err
	}
	if err := as.WriteUint64(stateZero, 0xCC); err != nil {
		return err
	}
	as.OverwritePage(stateData, nil) // untouched, reading the shared zero page
	if as.Allocated(stateData) {
		return fmt.Errorf("page allocated after OverwritePage(nil)")
	}
	if err := r.restoreState(img); err != nil {
		return err
	}
	if v, err := as.ReadUint64(stateData + 8); err != nil || v != 0xFEED {
		return fmt.Errorf("restored word %#x, %v; want 0xfeed", v, err)
	}
	if v, _ := as.ReadUint64(stateZero); v != 0 || as.Allocated(stateZero) {
		return fmt.Errorf("zero page reads %#x (allocated %v), want an untouched zero page", v, as.Allocated(stateZero))
	}
	if v, _ := as.ReadUint64(stateUntouched); v != 0 {
		return fmt.Errorf("the shared zero page was written: %#x", v)
	}
	return nil
}
