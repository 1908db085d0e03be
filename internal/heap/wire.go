// Snapshot support: the allocator can dump its exact slot layout into a
// portable Image and be rebuilt from one. Handle numbering and free-list
// order are preserved bit-for-bit — guest memory and registers hold
// NaN-boxed handle values, and allocation order after a resume must reuse
// handles exactly as the uninterrupted run would have.

package heap

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Slot kinds in a heap Image.
const (
	SlotFree    uint8 = iota // never allocated or collected
	SlotFloat                // live float-specialized slot
	SlotGeneric              // live generic slot holding an encoded value
	SlotNil                  // live generic slot holding nil (a temporary)
)

// Image is the portable state of an Allocator, packed: one kind byte per
// slot, and the payloads of the slots that carry one in slot order — a
// float per SlotFloat in Floats, an encoded value per SlotGeneric in
// Vals. A serializer then walks three flat slices instead of one record
// per slot.
type Image struct {
	Kinds     []byte
	Floats    []float64 // SlotFloat payloads, in slot order
	Vals      [][]byte  // SlotGeneric payloads (alt-system encoded), in slot order
	Free      []uint64  // free-list, bottom of stack first
	Live      int
	Threshold int
	MaxLive   int
	Costs     CostModel
	Stats     Stats
}

// ErrBadImage is returned by FromImage for inconsistent input.
var ErrBadImage = errors.New("heap: inconsistent allocator image")

// Capture dumps the allocator into an Image, serializing every live
// generic value through encode (an alt.Codec in practice).
func (a *Allocator) Capture(encode func(any) ([]byte, error)) (*Image, error) {
	// Size the payload slices once: a live slot is a float slot unless it
	// is generic.
	floats, generics := 0, 0
	for _, st := range a.state {
		if st&slotLive != 0 {
			if st&slotGeneric == 0 {
				floats++
			} else {
				generics++
			}
		}
	}
	img := &Image{
		Kinds:     make([]byte, len(a.state)),
		Floats:    make([]float64, 0, floats),
		Vals:      make([][]byte, 0, generics),
		Free:      a.freeList(),
		Live:      a.live,
		Threshold: a.Threshold,
		MaxLive:   a.MaxLive,
		Costs:     a.Costs,
		Stats:     a.Stats,
	}
	for h, st := range a.state {
		switch {
		case st&slotLive == 0:
			img.Kinds[h] = SlotFree
		case st&slotGeneric == 0:
			img.Kinds[h] = SlotFloat
			img.Floats = append(img.Floats, math.Float64frombits(a.word[h]))
		default:
			v, _ := a.Get(uint64(h))
			if v == nil {
				img.Kinds[h] = SlotNil
				continue
			}
			b, err := encode(v)
			if err != nil {
				return nil, fmt.Errorf("heap: encoding box %d: %w", h, err)
			}
			img.Kinds[h] = SlotGeneric
			img.Vals = append(img.Vals, b)
		}
	}
	return img, nil
}

// freeList returns the free list bottom of stack first, the order the
// free handles were pushed in.
func (a *Allocator) freeList() []uint64 {
	top := make([]uint64, 0, len(a.state)-a.live) // every free slot is on it
	for h := a.free; h != noFree && len(top) < len(a.state); h = a.word[h] {
		top = append(top, h)
	}
	slices.Reverse(top)
	return top
}

// FromImage rebuilds an allocator from an Image, decoding every generic
// value through decode. The result is behaviourally identical to the
// captured allocator: same handles, same free-list order, same counters.
// Kinds and payloads that disagree — a payload missing or left over, or
// a kind FromImage does not know — fail with ErrBadImage, as does a
// free list naming a live slot, a slot out of range or one slot twice.
func FromImage(img *Image, decode func([]byte) (any, error)) (*Allocator, error) {
	a := &Allocator{
		state:     make([]uint8, len(img.Kinds)),
		word:      make([]uint64, len(img.Kinds)),
		free:      noFree,
		live:      img.Live,
		Threshold: img.Threshold,
		MaxLive:   img.MaxLive,
		Costs:     img.Costs,
		Stats:     img.Stats,
	}
	live, floats, vals := 0, img.Floats, img.Vals
	for h, kind := range img.Kinds {
		switch kind {
		case SlotFree:
		case SlotFloat:
			if len(floats) == 0 {
				return nil, fmt.Errorf("%w: float slot %d has no payload", ErrBadImage, h)
			}
			a.state[h] = slotLive | slotInline
			a.word[h] = math.Float64bits(floats[0])
			floats = floats[1:]
			live++
		case SlotNil:
			a.setGeneric(uint64(h), nil)
			live++
		case SlotGeneric:
			if len(vals) == 0 {
				return nil, fmt.Errorf("%w: generic slot %d has no payload", ErrBadImage, h)
			}
			v, err := decode(vals[0])
			if err != nil {
				return nil, fmt.Errorf("heap: decoding box %d: %w", h, err)
			}
			a.setGeneric(uint64(h), v)
			vals = vals[1:]
			live++
		default:
			return nil, fmt.Errorf("%w: slot %d has kind %d", ErrBadImage, h, kind)
		}
	}
	if len(floats) != 0 || len(vals) != 0 {
		return nil, fmt.Errorf("%w: %d float and %d generic payloads left over",
			ErrBadImage, len(floats), len(vals))
	}
	if live != img.Live {
		return nil, fmt.Errorf("%w: %d live slots, header says %d", ErrBadImage, live, img.Live)
	}
	for _, h := range img.Free {
		// A pushed slot carries slotMark until the list is built, so a
		// handle listed twice is caught.
		if h >= uint64(len(a.state)) || a.state[h] != 0 {
			return nil, fmt.Errorf("%w: free-list entry %d invalid", ErrBadImage, h)
		}
		a.release(h)
		a.state[h] = slotMark
	}
	for _, h := range img.Free {
		a.state[h] = 0
	}
	return a, nil
}
