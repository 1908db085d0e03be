package heap

import "testing"

type mutVal struct{ n int }

func TestCloneWithDeepCopiesLiveValues(t *testing.T) {
	a := New(0)
	live := &mutVal{n: 1}
	h := a.Alloc(live)
	hf := a.AllocFloat(2.5)

	c := a.CloneWith(func(v any) any {
		m := *(v.(*mutVal))
		return &m
	})

	live.n = 99 // mutate the original in place
	got, ok := c.Get(h)
	if !ok {
		t.Fatal("clone lost the live slot")
	}
	if got.(*mutVal).n != 1 {
		t.Errorf("clone observed in-place mutation: n=%d, want 1", got.(*mutVal).n)
	}
	// Float-specialized slots carry no interface value and are copied
	// verbatim.
	if f, kind := c.Lookup(hf); kind != Float || f != 2.5 {
		t.Errorf("float slot after CloneWith: %v/%v, want 2.5/Float", f, kind)
	}
	// Allocation in the clone must not disturb the original.
	c.Alloc(&mutVal{n: 5})
	if a.Live() != 2 {
		t.Errorf("original live count %d after clone alloc, want 2", a.Live())
	}
}
