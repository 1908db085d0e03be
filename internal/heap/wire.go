// Snapshot support: the allocator can dump its exact slot layout into a
// portable Image and be rebuilt from one. Handle numbering and free-list
// order are preserved bit-for-bit — guest memory and registers hold
// NaN-boxed handle values, and allocation order after a resume must reuse
// handles exactly as the uninterrupted run would have.

package heap

import (
	"errors"
	"fmt"
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
	img := &Image{
		Kinds:     make([]byte, len(a.slots)),
		Free:      append([]uint64(nil), a.free...),
		Live:      a.live,
		Threshold: a.Threshold,
		MaxLive:   a.MaxLive,
		Costs:     a.Costs,
		Stats:     a.Stats,
	}
	for h := range a.slots {
		s := &a.slots[h]
		switch {
		case !s.live:
			img.Kinds[h] = SlotFree
		case s.isF:
			img.Kinds[h] = SlotFloat
			img.Floats = append(img.Floats, s.fval)
		case s.val == nil:
			img.Kinds[h] = SlotNil
		default:
			b, err := encode(s.val)
			if err != nil {
				return nil, fmt.Errorf("heap: encoding box %d: %w", h, err)
			}
			img.Kinds[h] = SlotGeneric
			img.Vals = append(img.Vals, b)
		}
	}
	return img, nil
}

// FromImage rebuilds an allocator from an Image, decoding every generic
// value through decode. The result is behaviourally identical to the
// captured allocator: same handles, same free-list order, same counters.
// Kinds and payloads that disagree — a payload missing or left over, or
// a kind FromImage does not know — fail with ErrBadImage.
func FromImage(img *Image, decode func([]byte) (any, error)) (*Allocator, error) {
	a := &Allocator{
		slots:     make([]slot, len(img.Kinds)),
		free:      append([]uint64(nil), img.Free...),
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
			a.slots[h] = slot{fval: floats[0], isF: true, live: true}
			floats = floats[1:]
			live++
		case SlotNil:
			a.slots[h] = slot{live: true}
			live++
		case SlotGeneric:
			if len(vals) == 0 {
				return nil, fmt.Errorf("%w: generic slot %d has no payload", ErrBadImage, h)
			}
			v, err := decode(vals[0])
			if err != nil {
				return nil, fmt.Errorf("heap: decoding box %d: %w", h, err)
			}
			a.slots[h] = slot{val: v, live: true}
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
	for _, h := range a.free {
		if h >= uint64(len(a.slots)) || a.slots[h].live {
			return nil, fmt.Errorf("%w: free-list entry %d invalid", ErrBadImage, h)
		}
	}
	return a, nil
}
