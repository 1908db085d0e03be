package mem

import (
	"encoding/binary"
	"testing"
)

func TestTLBUnmapInvalidates(t *testing.T) {
	as := NewAddressSpace()
	as.Map("d", 0x1000, PageSize, PermRW)
	if _, err := as.ReadUint64(0x1008); err != nil {
		t.Fatal(err)
	}
	as.Unmap(0x1000, PageSize)
	_, err := as.ReadUint64(0x1008)
	wantFault(t, err, FaultUnmapped, 0x1008)
	wantFault(t, as.WriteUint32(0x1010, 1), FaultUnmapped, 0x1010)
}

func TestTLBAliasedPages(t *testing.T) {
	// Two pages whose numbers share a TLB slot evict each other; each
	// access must still reach its own page, and unmapping one must not
	// drop the other.
	as := NewAddressSpace()
	a := uint64(0x10000)
	pb := a/PageSize + 1
	for tlbSlot(pb) != tlbSlot(a/PageSize) {
		pb++
	}
	b := pb * PageSize
	as.Map("a", a, PageSize, PermRW)
	as.Map("b", b, PageSize, PermRW)
	for i := uint64(0); i < 4; i++ {
		if err := as.WriteUint64(a, 0xA0+i); err != nil {
			t.Fatal(err)
		}
		if err := as.WriteUint64(b, 0xB0+i); err != nil {
			t.Fatal(err)
		}
		va, _ := as.ReadUint64(a)
		vb, _ := as.ReadUint64(b)
		if va != 0xA0+i || vb != 0xB0+i {
			t.Fatalf("round %d: a=%#x b=%#x", i, va, vb)
		}
	}
	if _, err := as.ReadUint64(b); err != nil {
		t.Fatal(err)
	}
	as.Unmap(a, PageSize)
	if v, err := as.ReadUint64(b); err != nil || v != 0xB3 {
		t.Fatalf("b after unmapping a: %#x, %v", v, err)
	}
	_, err := as.ReadUint64(a)
	wantFault(t, err, FaultUnmapped, a)
}

func TestTLBCloneIsolation(t *testing.T) {
	parent := NewAddressSpace()
	parent.Map("d", 0x1000, PageSize, PermRW)
	if err := parent.WriteUint64(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	child := parent.Clone()
	// Warm both TLBs, then write through each.
	if _, err := child.ReadUint64(0x1000); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteUint64(0x1000, 2); err != nil {
		t.Fatal(err)
	}
	if err := child.WriteUint64(0x1008, 3); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.ReadUint64(0x1000); v != 1 {
		t.Errorf("child sees parent's write: %d", v)
	}
	if v, _ := parent.ReadUint64(0x1008); v != 0 {
		t.Errorf("parent sees child's write: %d", v)
	}
	parent.Unmap(0x1000, PageSize)
	if v, err := child.ReadUint64(0x1000); err != nil || v != 1 {
		t.Errorf("child after parent unmap: %d, %v", v, err)
	}
}

// TestWidthsMatchBytewise checks the in-page fast path and the
// straddling fallback against byte-wise Read/Write at every offset from
// 4089 to 4095, where an 8-byte access starts to straddle.
func TestWidthsMatchBytewise(t *testing.T) {
	as := NewAddressSpace()
	as.Map("two", 0x1000, 2*PageSize, PermRW)
	pattern := uint64(0x8877665544332211)
	for _, n := range []int{2, 4, 8} {
		for off := uint64(4089); off <= 4095; off++ {
			addr := 0x1000 + off
			var want [8]byte
			binary.LittleEndian.PutUint64(want[:], pattern+off)

			// Width write, byte-wise read.
			if err := as.Write(addr-8, make([]byte, 24)); err != nil {
				t.Fatal(err)
			}
			var err error
			switch n {
			case 2:
				err = as.WriteUint16(addr, uint16(pattern+off))
			case 4:
				err = as.WriteUint32(addr, uint32(pattern+off))
			case 8:
				err = as.WriteUint64(addr, pattern+off)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 24)
			if err := as.Read(addr-8, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				w := byte(0)
				if i >= 8 && i < 8+n {
					w = want[i-8]
				}
				if got[i] != w {
					t.Fatalf("n=%d off=%d: byte %d = %#x, want %#x", n, off, i-8, got[i], w)
				}
			}

			// Byte-wise write, width read.
			if err := as.Write(addr, want[:n]); err != nil {
				t.Fatal(err)
			}
			var v uint64
			switch n {
			case 2:
				var x uint16
				x, err = as.ReadUint16(addr)
				v = uint64(x)
			case 4:
				var x uint32
				x, err = as.ReadUint32(addr)
				v = uint64(x)
			case 8:
				v, err = as.ReadUint64(addr)
			}
			if err != nil {
				t.Fatal(err)
			}
			var low [8]byte
			copy(low[:], want[:n])
			if exp := binary.LittleEndian.Uint64(low[:]); v != exp {
				t.Fatalf("n=%d off=%d: read %#x, want %#x", n, off, v, exp)
			}
		}
	}
}
