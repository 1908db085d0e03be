package fpvm

import (
	"testing"

	"fpvm/internal/heap"
	"fpvm/internal/mem"
)

// TestLookupOperandKinds: the compiled arithmetic step's one lookup per
// operand classifies plain bits, live float boxes (sign-flipped or not,
// and floats boxed through the generic path), generic boxes, collected
// handles and handles never allocated. A box pattern that names no live
// box is an application NaN: it must promote, never read a stale slot.
func TestLookupOperandKinds(t *testing.T) {
	r := &Runtime{alloc: heap.New(0)}
	live := r.alloc.AllocFloat(2.5)
	dead := r.alloc.AllocFloat(7)
	generic := r.alloc.Alloc(struct{}{})
	walked := r.alloc.Alloc(1.5)
	roots := &heap.Roots{}
	roots.GPR[0], roots.GPR[1], roots.GPR[2] = boxBits(live), boxBits(generic), boxBits(walked)
	if freed, _ := r.alloc.Collect(mem.NewAddressSpace(), roots); freed != 1 {
		t.Fatalf("collect freed %d boxes, want 1 (handle %d)", freed, dead)
	}
	for _, c := range []struct {
		name string
		bits uint64
		kind boxKind
		val  float64
	}{
		{"plain", bits64(2.5), notBox, 0},
		{"live float", boxBits(live), floatBox, 2.5},
		{"sign-flipped float", 1<<63 | boxBits(live), floatBox, 2.5},
		{"float boxed generically", boxBits(walked), floatBox, 1.5},
		{"generic", boxBits(generic), genericBox, 0},
		{"collected", boxBits(dead), notBox, 0},
		{"never allocated", boxBits(1000), notBox, 0},
	} {
		o := r.lookupOperand(c.bits)
		if o.bits != c.bits || o.kind != c.kind || o.val != c.val {
			t.Errorf("%s: lookupOperand(%#x) = %+v, want kind %d value %v", c.name, c.bits, o, c.kind, c.val)
		}
	}
}
