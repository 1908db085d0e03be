package mem

import "testing"

func TestDirtyTrackingDisabledByDefault(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", 0x1000, PageSize, PermRW)
	if as.DirtyTracking() {
		t.Fatal("dirty tracking on without EnableDirtyTracking")
	}
	if err := as.WriteUint64(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if got := as.DirtyPages(); got != nil {
		t.Errorf("DirtyPages without tracking: %v, want nil", got)
	}
}

func TestDirtyPagesTracksWrites(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", 0x1000, 5*PageSize, PermRW)
	as.EnableDirtyTracking()
	// Warm the page TLB for every page, so the writes below take the
	// in-page fast path.
	for i := uint64(0); i < 5; i++ {
		if _, err := as.ReadUint64(0x1000 + i*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	as.ResetDirty() // Map marked every page; start clean

	// One write of each width, each to its own page, out of page order;
	// the second page stays clean.
	if err := as.WriteUint64(0x1000+2*PageSize, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint32(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint16(0x1000+3*PageSize+0x10, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint8(0x1000+5*PageSize-1, 7); err != nil {
		t.Fatal(err)
	}
	got := as.DirtyPages()
	want := []uint64{0x1000, 0x1000 + 2*PageSize, 0x1000 + 3*PageSize, 0x1000 + 4*PageSize}
	if len(got) != len(want) {
		t.Fatalf("DirtyPages = %#v, want %#v (sorted)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DirtyPages = %#v, want %#v (sorted)", got, want)
		}
	}

	as.ResetDirty()
	if got := as.DirtyPages(); got != nil {
		t.Errorf("DirtyPages after reset: %v, want nil", got)
	}
	// Reads never dirty.
	if _, err := as.ReadUint64(0x1000); err != nil {
		t.Fatal(err)
	}
	if got := as.DirtyPages(); got != nil {
		t.Errorf("read dirtied a page: %v", got)
	}
}

func TestDirtyStraddlingWriteMarksBothPages(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", 0x1000, 2*PageSize, PermRW)
	as.EnableDirtyTracking()
	as.ResetDirty()
	if err := as.WriteUint64(0x1000+PageSize-4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	got := as.DirtyPages()
	if len(got) != 2 {
		t.Fatalf("straddling write dirtied %v, want both pages", got)
	}
}

func TestDirtyMapUnmapProtect(t *testing.T) {
	as := NewAddressSpace()
	as.EnableDirtyTracking()

	as.Map("a", 0x1000, PageSize, PermRW)
	if got := as.DirtyPages(); len(got) != 1 || got[0] != 0x1000 {
		t.Errorf("Map dirtied %v, want [0x1000]", got)
	}
	as.ResetDirty()
	if err := as.Protect(0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if got := as.DirtyPages(); len(got) != 1 {
		t.Errorf("Protect dirtied %v, want the page", got)
	}
	as.ResetDirty()
	as.Unmap(0x1000, PageSize)
	if got := as.DirtyPages(); len(got) != 1 {
		t.Errorf("Unmap dirtied %v, want the page", got)
	}
}

func TestCloneCopiesDirtySet(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", 0x1000, PageSize, PermRW)
	as.EnableDirtyTracking()
	as.ResetDirty()
	if err := as.WriteUint64(0x1000, 1); err != nil {
		t.Fatal(err)
	}

	c := as.Clone()
	if !c.DirtyTracking() {
		t.Fatal("clone lost dirty tracking")
	}
	if got := c.DirtyPages(); len(got) != 1 {
		t.Fatalf("clone dirty set %v, want the inherited page", got)
	}
	// Independent sets after the clone.
	c.ResetDirty()
	if got := as.DirtyPages(); len(got) != 1 {
		t.Error("clone's ResetDirty cleared the parent's set")
	}
}
