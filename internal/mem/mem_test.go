package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func wantFault(t *testing.T, err error, kind FaultKind, addr uint64) {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) || f.Kind != kind || f.Addr != addr {
		t.Fatalf("err = %v, want %v fault at %#x", err, kind, addr)
	}
}

func TestMapReadWrite(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", 0x1000, 100, PermRW)
	if err := as.WriteUint64(0x1000, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadUint64(0x1000)
	if err != nil || v != 0xCAFEBABE {
		t.Fatalf("read %#x, %v", v, err)
	}
	if !as.Mapped(0x1000) || as.Mapped(0x100000) {
		t.Error("Mapped wrong")
	}
}

func TestPermissionFaults(t *testing.T) {
	as := NewAddressSpace()
	as.Map("ro", 0x1000, PageSize, PermRead)
	if err := as.WriteUint8(0x1000, 1); err == nil {
		t.Error("write to read-only page succeeded")
	} else {
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultProtection {
			t.Errorf("wrong fault: %v", err)
		}
	}
	if _, err := as.ReadUint8(0x999000); err == nil {
		t.Error("read of unmapped page succeeded")
	} else {
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultUnmapped {
			t.Errorf("wrong fault: %v", err)
		}
	}
	// Exec permission gates Fetch, not Read.
	as.Map("code", 0x2000, PageSize, PermRX)
	if _, err := as.Fetch(0x2000, make([]byte, 4)); err != nil {
		t.Errorf("fetch from r-x failed: %v", err)
	}
	if _, err := as.Fetch(0x1000, make([]byte, 4)); err == nil {
		t.Error("fetch from r-- succeeded")
	}
}

func TestStraddlingAccess(t *testing.T) {
	as := NewAddressSpace()
	as.Map("two", 0x1000, 2*PageSize, PermRW)
	addr := uint64(0x1000 + PageSize - 3)
	if err := as.WriteUint64(addr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadUint64(addr)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("straddle read %#x %v", v, err)
	}
	// Straddling into an unmapped page fails, and the fault names the
	// second page.
	edge := uint64(0x1000 + 2*PageSize - 3)
	wantFault(t, as.WriteUint64(edge, 1), FaultUnmapped, 0x1000+2*PageSize)
	_, err = as.ReadUint32(edge)
	wantFault(t, err, FaultUnmapped, 0x1000+2*PageSize)
	// So does a write straddling into a read-only page.
	as.Map("ro", 0x1000+2*PageSize, PageSize, PermRead)
	wantFault(t, as.WriteUint64(edge, 1), FaultProtection, 0x1000+2*PageSize)
}

func TestRoundtripProperty(t *testing.T) {
	as := NewAddressSpace()
	as.Map("arena", 0x10000, 16*PageSize, PermRW)
	f := func(off uint32, v uint64) bool {
		addr := 0x10000 + uint64(off%uint64Count)*8
		if err := as.WriteUint64(addr, v); err != nil {
			return false
		}
		got, err := as.ReadUint64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

const uint64Count = 16 * PageSize / 8

func TestWritablePagesSorted(t *testing.T) {
	as := NewAddressSpace()
	as.Map("b", 0x5000, PageSize, PermRW)
	as.Map("a", 0x1000, PageSize, PermRW)
	as.Map("code", 0x3000, PageSize, PermRX)
	pages := as.WritablePages()
	if len(pages) != 2 || pages[0] != 0x1000 || pages[1] != 0x5000 {
		t.Errorf("writable pages: %#x", pages)
	}
}

func TestProtectAndUnmap(t *testing.T) {
	as := NewAddressSpace()
	as.Map("x", 0x1000, PageSize, PermRW)
	// Write first, so the page TLB holds the page when Protect runs.
	if err := as.WriteUint64(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	wantFault(t, as.WriteUint8(0x1001, 1), FaultProtection, 0x1001)
	wantFault(t, as.WriteUint64(0x1000, 8), FaultProtection, 0x1000)
	if v, err := as.ReadUint64(0x1000); err != nil || v != 7 {
		t.Fatalf("read after Protect(r--): %d, %v", v, err)
	}
	if err := as.Protect(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint64(0x1000, 9); err != nil {
		t.Fatalf("write after Protect(rw-): %v", err)
	}
	if err := as.Protect(0x900000, PageSize, PermRW); err == nil {
		t.Error("Protect of unmapped succeeded")
	}
	as.Unmap(0x1000, PageSize)
	if as.Mapped(0x1000) {
		t.Error("still mapped after Unmap")
	}
}

func TestRemapPreservesContents(t *testing.T) {
	as := NewAddressSpace()
	as.Map("x", 0x1000, PageSize, PermRW)
	_ = as.WriteUint32(0x1010, 0xABCD)
	as.Map("x", 0x1000, PageSize, PermRead) // permission change only
	v, err := as.ReadUint32(0x1010)
	if err != nil || v != 0xABCD {
		t.Errorf("contents lost on remap: %#x %v", v, err)
	}
}

func TestWidthsAndPageData(t *testing.T) {
	as := NewAddressSpace()
	as.Map("x", 0, PageSize, PermRW)
	_ = as.WriteUint16(10, 0xBEEF)
	v16, _ := as.ReadUint16(10)
	if v16 != 0xBEEF {
		t.Error("u16")
	}
	_ = as.WriteUint32(20, 0xDEADBEEF)
	v32, _ := as.ReadUint32(20)
	if v32 != 0xDEADBEEF {
		t.Error("u32")
	}
	data, ok := as.PageData(8)
	if !ok || len(data) != PageSize {
		t.Error("PageData")
	}
	if _, ok := as.PageData(0x999999); ok {
		t.Error("PageData of unmapped")
	}
	if as.PageCount() != 1 {
		t.Error("PageCount")
	}
}

func TestRegions(t *testing.T) {
	as := NewAddressSpace()
	as.Map("stack", 0x7000, PageSize, PermRW)
	rs := as.Regions()
	if len(rs) != 1 || rs[0].Name != "stack" || rs[0].Perm.String() != "rw-" {
		t.Errorf("regions: %+v", rs)
	}
}
