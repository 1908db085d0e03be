package mem_test

import (
	"testing"

	"fpvm/internal/mem"
	"fpvm/internal/obj"
)

// TestSegmentBasesGetDistinctTLBSlots: the first page of every segment
// a guest touches, and the top page of its stack, each get a TLB slot of
// their own, so straight-line code that reads .rodata, writes .data and
// the heap and pushes on the stack never evicts its own pages.
func TestSegmentBasesGetDistinctTLBSlots(t *testing.T) {
	segments := []struct {
		name string
		base uint64
	}{
		{"text", obj.TextBase},
		{"rodata", obj.RODataBase},
		{"data", obj.DataBase},
		{"heap", obj.HeapBase},
		{"stack top", obj.StackTop - mem.PageSize},
	}
	owner := map[uint64]string{}
	for _, s := range segments {
		slot := mem.TLBSlot(s.base / mem.PageSize)
		if other, taken := owner[slot]; taken {
			t.Errorf("%s (%#x) and %s share TLB slot %d", s.name, s.base, other, slot)
		}
		owner[slot] = s.name
	}
}
