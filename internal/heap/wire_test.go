package heap

import (
	"errors"
	"reflect"
	"strconv"
	"testing"

	"fpvm/internal/nanbox"
)

// capturedHeap returns the image of an allocator holding, in slot order,
// a float, a free slot (collected), a generic value, a nil temporary and
// another float, with generic values encoded as decimal text.
func capturedHeap(t *testing.T) *Image {
	t.Helper()
	a := New(0)
	a.AllocFloat(1.5)
	hDead := a.Alloc(7)
	a.Alloc(42)
	a.Alloc(nil)
	a.AllocFloat(-0.25)
	roots := &Roots{}
	for i, h := range []uint64{0, 2, 3, 4} {
		roots.GPR[i] = nanbox.Box(h)
	}
	if freed, _ := a.Collect(newSpace(), roots); freed != 1 {
		t.Fatalf("collect freed %d boxes, want 1 (handle %d)", freed, hDead)
	}
	img, err := a.Capture(encodeInt)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func encodeInt(v any) ([]byte, error) { return []byte(strconv.Itoa(v.(int))), nil }

func decodeInt(b []byte) (any, error) { return strconv.Atoi(string(b)) }

func TestImagePacksSlotsAndRoundTrips(t *testing.T) {
	img := capturedHeap(t)
	want := &Image{
		Kinds:  []byte{SlotFloat, SlotFree, SlotGeneric, SlotNil, SlotFloat},
		Floats: []float64{1.5, -0.25},
		Vals:   [][]byte{[]byte("42")},
		Free:   []uint64{1},
		Live:   4,
	}
	got := &Image{Kinds: img.Kinds, Floats: img.Floats, Vals: img.Vals, Free: img.Free, Live: img.Live}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("packed image %+v, want %+v", got, want)
	}

	a, err := FromImage(img, decodeInt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := a.Capture(encodeInt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, img) {
		t.Fatalf("rebuilt allocator captures %+v, want %+v", again, img)
	}
	if v, ok := a.Get(2); !ok || v != 42 {
		t.Fatalf("generic slot 2 rebuilt as %v/%v, want 42", v, ok)
	}
	if f, kind := a.Lookup(4); kind != Float || f != -0.25 {
		t.Fatalf("float slot 4 rebuilt as %v/%v, want -0.25/Float", f, kind)
	}
	if h := a.AllocFloat(9); h != 1 {
		t.Fatalf("first allocation after rebuild took handle %d, want the freed 1", h)
	}
}

// Kinds and payloads are separate slices on the wire, so a damaged image
// can disagree with itself; FromImage must refuse it rather than shift
// every later payload onto the wrong slot. The free list lives in the
// free slots themselves, so a damaged list could make two boxes share a
// handle or loop forever; a live, out-of-range or repeated entry is
// refused too.
func TestFromImageRejectsKindPayloadMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Image)
	}{
		{"extra float", func(img *Image) { img.Floats = append(img.Floats, 3) }},
		{"missing float", func(img *Image) { img.Floats = img.Floats[:1] }},
		{"extra value", func(img *Image) { img.Vals = append(img.Vals, []byte("1")) }},
		{"missing value", func(img *Image) { img.Vals = nil }},
		{"unknown kind", func(img *Image) { img.Kinds[1] = SlotNil + 1 }},
		{"free list names a live slot", func(img *Image) { img.Free = []uint64{1, 2} }},
		{"free list out of range", func(img *Image) { img.Free = []uint64{1, 5} }},
		{"free list repeats a slot", func(img *Image) { img.Free = []uint64{1, 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := capturedHeap(t)
			tc.mut(img)
			if _, err := FromImage(img, decodeInt); !errors.Is(err, ErrBadImage) {
				t.Fatalf("FromImage = %v, want ErrBadImage", err)
			}
		})
	}
}

// TestFreeListOrder: a collection frees in handle order and the most
// recently freed handle is reused first, so handle numbering after a
// collection, a capture or a rebuild is what the uninterrupted run sees.
func TestFreeListOrder(t *testing.T) {
	a := New(0)
	for i := 0; i < 6; i++ {
		a.AllocFloat(float64(i))
	}
	roots := &Roots{}
	for i, h := range []uint64{0, 3, 5} {
		roots.GPR[i] = nanbox.Box(h)
	}
	if freed, _ := a.Collect(newSpace(), roots); freed != 3 {
		t.Fatalf("collect freed %d boxes, want 3", freed)
	}
	img, err := a.Capture(encodeInt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img.Free, []uint64{1, 2, 4}) {
		t.Fatalf("free list %v, want [1 2 4] (bottom first)", img.Free)
	}
	b, err := FromImage(img, decodeInt)
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range []*Allocator{a, b} {
		var got []uint64
		for i := 0; i < 4; i++ {
			got = append(got, al.AllocFloat(9))
		}
		if !reflect.DeepEqual(got, []uint64{4, 2, 1, 6}) {
			t.Fatalf("handles after collect %v, want [4 2 1 6]", got)
		}
	}
}

type mutVal struct{ n int }

// TestFromImageDeepCopiesLiveValues: a heap rebuilt from an image holds
// values of its own — mutating the captured allocator's value in place
// does not reach it — float slots come back verbatim, and allocating in
// the rebuilt heap leaves the captured one alone.
func TestFromImageDeepCopiesLiveValues(t *testing.T) {
	a := New(0)
	live := &mutVal{n: 1}
	h := a.Alloc(live)
	hf := a.AllocFloat(2.5)

	img, err := a.Capture(func(v any) ([]byte, error) { return []byte(strconv.Itoa(v.(*mutVal).n)), nil })
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromImage(img, func(b []byte) (any, error) {
		n, err := strconv.Atoi(string(b))
		return &mutVal{n: n}, err
	})
	if err != nil {
		t.Fatal(err)
	}

	live.n = 99 // mutate the original in place
	got, ok := c.Get(h)
	if !ok {
		t.Fatal("rebuilt heap lost the live slot")
	}
	if got.(*mutVal).n != 1 {
		t.Errorf("rebuilt heap observed in-place mutation: n=%d, want 1", got.(*mutVal).n)
	}
	if f, kind := c.Lookup(hf); kind != Float || f != 2.5 {
		t.Errorf("float slot after FromImage: %v/%v, want 2.5/Float", f, kind)
	}
	c.Alloc(&mutVal{n: 5})
	if a.Live() != 2 {
		t.Errorf("original live count %d after an alloc in the rebuilt heap, want 2", a.Live())
	}
}
