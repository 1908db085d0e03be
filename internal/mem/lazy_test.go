package mem

import (
	"testing"
)

const lazyBase = 0x10000

// TestUntouchedReadAllocatesNothing: every read of an untouched page,
// by width, by range, by fetch, by PageData and through the TLB's fast
// path, sees zeros and allocates nothing.
func TestUntouchedReadAllocatesNothing(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", lazyBase, 4*PageSize, PermRWX)
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for pg := uint64(0); pg < 4; pg++ {
			a := lazyBase + pg*PageSize
			v, err := as.ReadUint64(a + 8)
			v8, err8 := as.ReadUint8(a + PageSize - 1)
			if err != nil || err8 != nil || v != 0 || v8 != 0 {
				t.Fatalf("page %d reads %#x, %#x (%v, %v)", pg, v, v8, err, err8)
			}
			if pg < 3 {
				if v, err := as.ReadUint64(a + PageSize - 4); err != nil || v != 0 {
					t.Fatalf("straddling read into page %d: %#x, %v", pg+1, v, err)
				}
			}
			if err := as.Read(a+0x100, buf); err != nil {
				t.Fatal(err)
			}
			if _, err := as.Fetch(a, buf[:16]); err != nil {
				t.Fatal(err)
			}
			if data, ok := as.PageData(a); !ok || len(data) != PageSize {
				t.Fatalf("PageData of page %d: %d bytes, %v", pg, len(data), ok)
			}
			if page := as.Readable(a); page == nil || page[0] != 0 {
				t.Fatal("a warm untouched page is not readable in place")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("reads of untouched pages allocated %v times per run", allocs)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("untouched bytes read %v", buf)
		}
	}
	for pg := uint64(0); pg < 4; pg++ {
		if as.Allocated(lazyBase + pg*PageSize) {
			t.Errorf("page %d allocated by reads", pg)
		}
	}
}

// TestFirstStoreAllocatesThatPage: the first store to a page allocates
// it and no other, through the slow path even when the TLB already
// holds the page readable; a straddling store allocates both its pages.
func TestFirstStoreAllocatesThatPage(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", lazyBase, 4*PageSize, PermRW)
	a := uint64(lazyBase + PageSize)
	if _, err := as.ReadUint64(a); err != nil { // warm the TLB
		t.Fatal(err)
	}
	if as.Writable(a) != nil {
		t.Fatal("an untouched page is writable in place")
	}
	if err := as.WriteUint16(a+0x10, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, false}
	for pg, w := range want {
		if got := as.Allocated(lazyBase + uint64(pg)*PageSize); got != w {
			t.Errorf("after one store, page %d allocated %v, want %v", pg, got, w)
		}
	}
	if as.Writable(a) == nil {
		t.Error("the allocated page is not writable in place")
	}
	if v, _ := as.ReadUint16(a + 0x10); v != 0xBEEF {
		t.Errorf("stored %#x, read back %#x", 0xBEEF, v)
	}
	if err := as.WriteUint64(lazyBase+3*PageSize-4, 1<<63|1); err != nil {
		t.Fatal(err)
	}
	for pg, w := range []bool{false, true, true, true} {
		if got := as.Allocated(lazyBase + uint64(pg)*PageSize); got != w {
			t.Errorf("after a straddling store, page %d allocated %v, want %v", pg, got, w)
		}
	}
	if zeroPage != ([PageSize]byte{}) {
		t.Fatal("the shared zero page was written")
	}
}

// TestUntouchedPagesBehaveAsAllocated runs Protect, Unmap, Clone,
// Mapped, PageCount and WritablePages over a space whose pages are
// untouched and over one whose pages were written with zeros, and
// expects the same answers from both.
func TestUntouchedPagesBehaveAsAllocated(t *testing.T) {
	for _, written := range []bool{false, true} {
		as := NewAddressSpace()
		as.Map("d", lazyBase, 4*PageSize, PermRW)
		if written {
			for pg := uint64(0); pg < 4; pg++ {
				if err := as.WriteUint64(lazyBase+pg*PageSize, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		name := map[bool]string{false: "untouched", true: "allocated"}[written]

		if !as.Mapped(lazyBase) || as.PageCount() != 4 || len(as.WritablePages()) != 4 {
			t.Errorf("%s: mapped %v, %d pages, %d writable", name, as.Mapped(lazyBase), as.PageCount(), len(as.WritablePages()))
		}

		// Protect: read-only pages read zero and refuse stores.
		if err := as.Protect(lazyBase, PageSize, PermRead); err != nil {
			t.Fatal(err)
		}
		wantFault(t, as.WriteUint32(lazyBase+12, 1), FaultProtection, lazyBase+12)
		if v, err := as.ReadUint64(lazyBase); err != nil || v != 0 {
			t.Errorf("%s: read-only page reads %#x, %v", name, v, err)
		}
		if len(as.WritablePages()) != 3 {
			t.Errorf("%s: %d writable pages after Protect, want 3", name, len(as.WritablePages()))
		}

		// Clone: the child sees zeros, and the two write independently.
		child := as.Clone()
		if err := child.WriteUint64(lazyBase+PageSize, 7); err != nil {
			t.Fatal(err)
		}
		if err := as.WriteUint64(lazyBase+2*PageSize, 9); err != nil {
			t.Fatal(err)
		}
		if v, _ := as.ReadUint64(lazyBase + PageSize); v != 0 {
			t.Errorf("%s: parent sees the child's store: %#x", name, v)
		}
		if v, _ := child.ReadUint64(lazyBase + 2*PageSize); v != 0 {
			t.Errorf("%s: child sees the parent's store: %#x", name, v)
		}
		if child.Allocated(lazyBase+3*PageSize) != written {
			t.Errorf("%s: the clone allocated page 3: %v", name, child.Allocated(lazyBase+3*PageSize))
		}

		// Unmap: gone, even from a warm TLB.
		if _, err := as.ReadUint64(lazyBase + 3*PageSize); err != nil {
			t.Fatal(err)
		}
		as.Unmap(lazyBase+3*PageSize, PageSize)
		_, err := as.ReadUint64(lazyBase + 3*PageSize)
		wantFault(t, err, FaultUnmapped, lazyBase+3*PageSize)
		if as.Mapped(lazyBase+3*PageSize) || as.PageCount() != 3 {
			t.Errorf("%s: unmapped page still mapped (%d pages)", name, as.PageCount())
		}
	}
}

// TestStoreToUntouchedReadOnlyPageFaults: the permission check comes
// before the allocation.
func TestStoreToUntouchedReadOnlyPageFaults(t *testing.T) {
	as := NewAddressSpace()
	as.Map("ro", lazyBase, PageSize, PermRead)
	for _, err := range []error{
		as.WriteUint64(lazyBase+0x18, 1),
		as.WriteUint8(lazyBase+PageSize-1, 1),
		as.Write(lazyBase+0x40, []byte{1, 2, 3}),
	} {
		if f, ok := err.(*Fault); !ok || f.Kind != FaultProtection {
			t.Fatalf("store to an untouched read-only page: %v", err)
		}
	}
	wantFault(t, as.WriteUint64(lazyBase+0x18, 1), FaultProtection, lazyBase+0x18)
	if as.Allocated(lazyBase) {
		t.Error("a refused store allocated the page")
	}
}

// TestOverwritePageNilLeavesPageUntouched: nil data drops the page's
// bytes, and data gives the page bytes of its own.
func TestOverwritePageNilLeavesPageUntouched(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", lazyBase, 2*PageSize, PermRW)
	if err := as.WriteUint64(lazyBase, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := as.ReadUint64(lazyBase); err != nil { // warm the TLB
		t.Fatal(err)
	}
	as.OverwritePage(lazyBase, nil)
	as.OverwritePage(lazyBase+PageSize, nil)
	as.OverwritePage(lazyBase+4*PageSize, nil) // maps it
	for _, a := range []uint64{lazyBase, lazyBase + PageSize, lazyBase + 4*PageSize} {
		if as.Allocated(a) {
			t.Errorf("page %#x allocated after OverwritePage(nil)", a)
		}
		if v, err := as.ReadUint64(a); err != nil || v != 0 {
			t.Errorf("page %#x reads %#x, %v after OverwritePage(nil)", a, v, err)
		}
	}
	as.OverwritePage(lazyBase+PageSize, []byte{1, 2})
	if v, _ := as.ReadUint16(lazyBase + PageSize); v != 0x0201 || !as.Allocated(lazyBase+PageSize) {
		t.Errorf("OverwritePage with data: %#x, allocated %v", v, as.Allocated(lazyBase+PageSize))
	}
	if zeroPage != ([PageSize]byte{}) {
		t.Fatal("the shared zero page was written")
	}
}

// TestWritableFollowsPermissions: the in-place store pointer is dropped
// when a page stops being writable, so no store can skip a permission
// check.
func TestWritableFollowsPermissions(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", lazyBase, 2*PageSize, PermRW)
	for _, a := range []uint64{lazyBase, lazyBase + PageSize} {
		if err := as.WriteUint64(a, 1); err != nil {
			t.Fatal(err)
		}
		if as.Writable(a) == nil {
			t.Fatalf("written page %#x not writable in place", a)
		}
	}
	if err := as.Protect(lazyBase, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if as.Writable(lazyBase) != nil {
		t.Error("a read-only page is writable in place")
	}
	if as.Writable(lazyBase+PageSize) == nil {
		t.Error("its writable neighbour lost its in-place pointer")
	}
}
