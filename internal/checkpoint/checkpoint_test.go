package checkpoint

import (
	"fmt"
	"testing"

	"fpvm/internal/heap"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/telemetry"
)

// mutBox is a deliberately mutable alt value: in-place mutation after a
// Save must not be visible through the snapshot.
type mutBox struct{ v float64 }

func cloneMut(v any) any {
	if b, ok := v.(*mutBox); ok {
		cp := *b
		return &cp
	}
	return v
}

func newVM(t *testing.T) (*kernel.Process, *mem.AddressSpace) {
	t.Helper()
	as := mem.NewAddressSpace()
	m := machine.New(as)
	k := kernel.New()
	p := kernel.NewProcess(k, m, "ckpt-test")
	as.Map("data", 0x1000, 2*mem.PageSize, mem.PermRW)
	return p, as
}

func TestSaveRestoreRewindsMemoryAndCPU(t *testing.T) {
	p, as := newVM(t)
	mgr := New(as)
	if mgr.Has() {
		t.Fatal("fresh manager claims a snapshot")
	}

	if err := as.WriteUint64(0x1000, 0xA); err != nil {
		t.Fatal(err)
	}
	var cpu machine.CPU
	cpu.RIP = 0x42
	alloc := heap.New(0)
	mgr.Save(cpu, p, alloc, cloneMut, telemetry.Breakdown{Traps: 7}, nil)
	if !mgr.Has() {
		t.Fatal("Save left no snapshot")
	}

	// Diverge, then rewind.
	if err := as.WriteUint64(0x1000, 0xB); err != nil {
		t.Fatal(err)
	}
	p.M.CPU.RIP = 0x99
	rcpu, _, tel, _ := mgr.Restore(p, cloneMut)
	if rcpu.RIP != 0x42 {
		t.Errorf("restored RIP %#x, want 0x42", rcpu.RIP)
	}
	if tel.Traps != 7 {
		t.Errorf("restored telemetry traps %d, want 7", tel.Traps)
	}
	if v, _ := as.ReadUint64(0x1000); v != 0xA {
		t.Errorf("memory after restore %#x, want 0xA", v)
	}

	// The snapshot is not consumed: diverge and restore again.
	if err := as.WriteUint64(0x1000, 0xC); err != nil {
		t.Fatal(err)
	}
	mgr.Restore(p, cloneMut)
	if v, _ := as.ReadUint64(0x1000); v != 0xA {
		t.Errorf("second restore yielded %#x, want 0xA", v)
	}
	if mgr.Restores != 2 || mgr.Saves != 1 {
		t.Errorf("op counters saves=%d restores=%d, want 1/2", mgr.Saves, mgr.Restores)
	}
}

func TestIncrementalSaveOverlaysDirtyPages(t *testing.T) {
	p, as := newVM(t)
	mgr := New(as)
	if err := as.WriteUint64(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint64(0x1000+mem.PageSize, 2); err != nil {
		t.Fatal(err)
	}
	mgr.Save(machine.CPU{}, p, heap.New(0), cloneMut, telemetry.Breakdown{}, nil)

	// Dirty only the first page, save again: the image must advance for
	// it and keep the untouched page from the first image.
	if err := as.WriteUint64(0x1000, 11); err != nil {
		t.Fatal(err)
	}
	mgr.Save(machine.CPU{}, p, heap.New(0), cloneMut, telemetry.Breakdown{}, nil)

	if err := as.WriteUint64(0x1000, 99); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint64(0x1000+mem.PageSize, 99); err != nil {
		t.Fatal(err)
	}
	mgr.Restore(p, cloneMut)
	if v, _ := as.ReadUint64(0x1000); v != 11 {
		t.Errorf("dirty page restored to %d, want 11 (second image)", v)
	}
	if v, _ := as.ReadUint64(0x1000 + mem.PageSize); v != 2 {
		t.Errorf("clean page restored to %d, want 2 (carried from first image)", v)
	}
}

func TestHeapValuesAreIsolated(t *testing.T) {
	p, as := newVM(t)
	mgr := New(as)
	alloc := heap.New(0)
	live := &mutBox{v: 1.5}
	h := alloc.Alloc(live)

	mgr.Save(machine.CPU{}, p, alloc, cloneMut, telemetry.Breakdown{}, nil)

	// In-place mutation of the live value must not reach the image...
	live.v = -7

	_, restored, _, _ := mgr.Restore(p, cloneMut)
	got, ok := restored.Get(h)
	if !ok {
		t.Fatal("restored allocator lost the live box")
	}
	if got.(*mutBox).v != 1.5 {
		t.Errorf("restored value %v, want snapshot-time 1.5", got.(*mutBox).v)
	}
	// ...and mutating the restored clone must not corrupt the snapshot
	// for a later rollback.
	got.(*mutBox).v = 42
	_, again, _, _ := mgr.Restore(p, cloneMut)
	if v := mustGet(t, again, h).(*mutBox).v; v != 1.5 {
		t.Errorf("snapshot corrupted by restored-clone mutation: %v", v)
	}
}

func TestCloneShareForkSafe(t *testing.T) {
	p, as := newVM(t)
	mgr := New(as)
	if err := as.WriteUint64(0x1000, 0xA); err != nil {
		t.Fatal(err)
	}
	alloc := heap.New(0)
	h := alloc.Alloc(&mutBox{v: 3})
	mgr.Save(machine.CPU{}, p, alloc, cloneMut, telemetry.Breakdown{}, nil)

	// Fork: the child gets its own address space and a manager sharing
	// the immutable snapshot.
	childAS := as.Clone()
	childM := machine.New(childAS)
	childP := kernel.NewProcess(p.K, childM, "child")
	childMgr := mgr.Clone(childAS)
	if !childMgr.Has() {
		t.Fatal("cloned manager lost the snapshot")
	}

	// Child diverges and rolls back; the parent's memory keeps its own
	// divergence, and the parent's later rollback still works.
	if err := childAS.WriteUint64(0x1000, 0xC); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint64(0x1000, 0xB); err != nil {
		t.Fatal(err)
	}
	_, childAlloc, _, _ := childMgr.Restore(childP, cloneMut)
	if v, _ := childAS.ReadUint64(0x1000); v != 0xA {
		t.Errorf("child restore yielded %#x, want 0xA", v)
	}
	if v, _ := as.ReadUint64(0x1000); v != 0xB {
		t.Errorf("child restore leaked into parent: %#x, want 0xB", v)
	}
	// Heap images stay isolated: the child's restored clone can mutate
	// freely without the parent's restore observing it.
	mustGet(t, childAlloc, h).(*mutBox).v = 99
	_, parentAlloc, _, _ := mgr.Restore(p, cloneMut)
	if v := mustGet(t, parentAlloc, h).(*mutBox).v; v != 3 {
		t.Errorf("parent restore observed child mutation: %v, want 3", v)
	}
	if v, _ := as.ReadUint64(0x1000); v != 0xA {
		t.Errorf("parent restore yielded %#x, want 0xA", v)
	}
}

func TestRestoreTruncatesStdout(t *testing.T) {
	p, as := newVM(t)
	mgr := New(as)
	p.Stdout.WriteString("before;")
	mgr.Save(machine.CPU{}, p, heap.New(0), cloneMut, telemetry.Breakdown{}, nil)
	p.Stdout.WriteString("speculative output")
	mgr.Restore(p, cloneMut)
	if got := p.Stdout.String(); got != "before;" {
		t.Errorf("stdout after restore %q, want %q", got, "before;")
	}
}

func TestNilManagerIsInert(t *testing.T) {
	var mgr *Manager
	if mgr.Has() {
		t.Error("nil manager claims a snapshot")
	}
	if mgr.Clone(mem.NewAddressSpace()) != nil {
		t.Error("nil manager cloned to non-nil")
	}
	if mgr.Snapshot() != nil {
		t.Error("nil manager returned a snapshot")
	}
}

func mustGet(t *testing.T, a *heap.Allocator, h uint64) any {
	t.Helper()
	v, ok := a.Get(h)
	if !ok {
		t.Fatalf("handle %#x not live", h)
	}
	return v
}

// TestRestoreOverUntouchedPageKeepsZeroPageZero: a page that is dirty
// but untouched at Restore (its bytes dropped by OverwritePage(nil)
// after the Save) reads as the shared zero page, so Restore must give it
// bytes of its own rather than copy the snapshot into PageData's slice.
// Two VMs restore at once, so under -race a write to the one shared
// page is also reported as a race.
func TestRestoreOverUntouchedPageKeepsZeroPageZero(t *testing.T) {
	const pa = 0x1000
	done := make(chan error, 2)
	for vm := 0; vm < 2; vm++ {
		p, as := newVM(t)
		go func() {
			mgr := New(as)
			if err := as.WriteUint64(pa+8, 0xFEED); err != nil {
				done <- err
				return
			}
			mgr.Save(machine.CPU{}, p, heap.New(0), cloneMut, telemetry.Breakdown{}, nil)
			as.OverwritePage(pa, nil) // dirty and untouched
			if as.Allocated(pa) {
				done <- fmt.Errorf("page allocated after OverwritePage(nil)")
				return
			}
			mgr.Restore(p, cloneMut)
			if v, err := as.ReadUint64(pa + 8); err != nil || v != 0xFEED {
				done <- fmt.Errorf("restored word %#x, %v; want 0xfeed", v, err)
				return
			}
			done <- nil
		}()
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Any untouched page of a fresh space reads the shared zero page.
	_, fresh := newVM(t)
	data, _ := fresh.PageData(pa)
	for i, b := range data {
		if b != 0 {
			t.Fatalf("the shared zero page holds %#x at offset %d", b, i)
		}
	}
}
