package heap

import (
	"testing"

	"fpvm/internal/mem"
	"fpvm/internal/nanbox"
)

func TestAllocGet(t *testing.T) {
	a := New(0)
	h1 := a.Alloc(1.5)
	h2 := a.Alloc(2.5)
	if h1 == h2 {
		t.Error("duplicate handles")
	}
	if v, ok := a.Get(h1); !ok || v.(float64) != 1.5 {
		t.Error("Get h1")
	}
	if v, ok := a.Get(h2); !ok || v.(float64) != 2.5 {
		t.Error("Get h2")
	}
	if _, ok := a.Get(999); ok {
		t.Error("Get of unallocated handle")
	}
	if a.Live() != 2 {
		t.Errorf("live = %d", a.Live())
	}
}

func newSpace() *mem.AddressSpace {
	as := mem.NewAddressSpace()
	as.Map("rw", 0x1000, mem.PageSize, mem.PermRW)
	as.Map("ro", 0x3000, mem.PageSize, mem.PermRead)
	return as
}

func TestCollectFreesGarbage(t *testing.T) {
	a := New(0)
	as := newSpace()
	hLive := a.Alloc("live")
	hDead := a.Alloc("dead")
	hReg := a.Alloc("reg")

	// hLive referenced from writable memory; hReg from a register; hDead
	// from nowhere.
	_ = as.WriteUint64(0x1008, nanbox.Box(hLive))
	roots := &Roots{}
	roots.XMM[3][0] = nanbox.Box(hReg)

	freed, cycles := a.Collect(as, roots)
	if freed != 1 {
		t.Errorf("freed %d, want 1", freed)
	}
	if cycles == 0 {
		t.Error("no cycles charged")
	}
	if _, ok := a.Get(hLive); !ok {
		t.Error("live box collected")
	}
	if _, ok := a.Get(hReg); !ok {
		t.Error("register-rooted box collected")
	}
	if _, ok := a.Get(hDead); ok {
		t.Error("dead box survived")
	}
}

func TestReadOnlyPagesNotScanned(t *testing.T) {
	a := New(0)
	as := newSpace()
	h := a.Alloc("x")
	// Reference only from the read-only page: the conservative collector
	// scans writable pages only, so this box is garbage.
	as.Map("ro", 0x3000, mem.PageSize, mem.PermRW)
	_ = as.WriteUint64(0x3000, nanbox.Box(h))
	as.Map("ro", 0x3000, mem.PageSize, mem.PermRead)
	freed, _ := a.Collect(as, &Roots{})
	if freed != 1 {
		t.Errorf("read-only reference kept the box alive (freed=%d)", freed)
	}
}

func TestSignFlippedReferenceKeepsAlive(t *testing.T) {
	a := New(0)
	as := newSpace()
	h := a.Alloc("neg")
	_ = as.WriteUint64(0x1000, nanbox.Box(h)|1<<63) // negated box
	freed, _ := a.Collect(as, &Roots{})
	if freed != 0 {
		t.Error("sign-flipped box reference was collected")
	}
}

func TestHandleReuse(t *testing.T) {
	a := New(0)
	as := newSpace()
	h := a.Alloc("garbage")
	a.Collect(as, &Roots{})
	h2 := a.Alloc("new")
	if h2 != h {
		t.Errorf("freed handle not reused: %d then %d", h, h2)
	}
	if v, _ := a.Get(h2); v.(string) != "new" {
		t.Error("stale value after reuse")
	}
}

func TestThreshold(t *testing.T) {
	a := New(4)
	for i := 0; i < 3; i++ {
		a.Alloc(i)
	}
	if a.NeedsGC() {
		t.Error("NeedsGC below threshold")
	}
	a.Alloc(3)
	if !a.NeedsGC() {
		t.Error("NeedsGC at threshold")
	}
}

func TestStats(t *testing.T) {
	a := New(0)
	as := newSpace()
	a.Alloc(1)
	a.Alloc(2)
	a.Collect(as, &Roots{})
	if a.Stats.Allocs != 2 || a.Stats.Frees != 2 || a.Stats.Collections != 1 {
		t.Errorf("stats: %+v", a.Stats)
	}
	if a.Stats.MaxLive != 2 {
		t.Errorf("maxlive: %d", a.Stats.MaxLive)
	}
}

func TestCollectIdempotent(t *testing.T) {
	a := New(0)
	as := newSpace()
	h := a.Alloc("live")
	_ = as.WriteUint64(0x1000, nanbox.Box(h))
	for i := 0; i < 3; i++ {
		if freed, _ := a.Collect(as, &Roots{}); freed != 0 {
			t.Fatalf("pass %d freed %d", i, freed)
		}
	}
}

func TestReset(t *testing.T) {
	a := New(0)
	a.Alloc(1)
	a.Reset()
	if a.Live() != 0 {
		t.Error("live after reset")
	}
}

// TestCollectChargesMappedPagesNotAllocatedOnes: the §5 charge is per
// mapped writable page, so a collection costs the same cycles and counts
// the same PagesScanned whether the space's zero pages are untouched or
// were written with zeros, and frees the same boxes.
func TestCollectChargesMappedPagesNotAllocatedOnes(t *testing.T) {
	run := func(allocate bool) (int, uint64, Stats) {
		as := mem.NewAddressSpace()
		as.Map("rw", 0x10000, 8*mem.PageSize, mem.PermRW)
		as.Map("ro", 0x30000, mem.PageSize, mem.PermRead)
		if allocate {
			for pa := uint64(0x10000); pa < 0x18000; pa += mem.PageSize {
				if err := as.WriteUint64(pa, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		a := New(0)
		keep := a.Alloc("kept")
		a.Alloc("dropped")
		if err := as.WriteUint64(0x13008, nanbox.Box(keep)); err != nil {
			t.Fatal(err)
		}
		if n := len(as.WritablePages()); n != 8 {
			t.Fatalf("%d writable pages, want 8", n)
		}
		freed, cycles := a.Collect(as, &Roots{})
		return freed, cycles, a.Stats
	}
	f0, c0, s0 := run(false)
	f1, c1, s1 := run(true)
	if f0 != 1 || f1 != 1 || c0 != c1 || s0 != s1 || s0.PagesScanned != 8 {
		t.Errorf("untouched: freed %d, %d cycles, %+v; allocated: freed %d, %d cycles, %+v",
			f0, c0, s0, f1, c1, s1)
	}
}
