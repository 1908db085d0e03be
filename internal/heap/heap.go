// Package heap implements FPVM's box allocator and its conservative
// mark-and-sweep garbage collector (§2.5 of the paper). Boxes hold values
// of the alternative arithmetic system; they are immutable (multiple
// registers may reference the same box) and never contain pointers
// themselves, so collection reduces to finding NaN-boxed handles in the
// guest's registers and writable memory and sweeping everything else.
package heap

import (
	"encoding/binary"
	"errors"
	"math"

	"fpvm/internal/mem"
	"fpvm/internal/nanbox"
)

// ErrHeapFull is returned by TryAlloc when the allocator is at its hard
// MaxLive cap even after the caller has had a chance to collect. The
// runtime's recovery ladder degrades on it (the result is stored as a
// plain IEEE double instead of a box) rather than growing without bound.
var ErrHeapFull = errors.New("heap: live box population at MaxLive cap")

// Stats tracks allocator and collector activity.
type Stats struct {
	Allocs       uint64
	Frees        uint64
	Collections  uint64
	PagesScanned uint64
	WordsMarked  uint64 // boxed references found during scans
	MaxLive      int
}

// CostModel prices GC work in virtual cycles.
type CostModel struct {
	PerPage  uint64 // scanning one 4 KiB page
	PerSlot  uint64 // sweeping one slot
	PerRoot  uint64 // checking one register root
	BaseCost uint64 // fixed cost per collection
}

// DefaultCostModel approximates a tight scan loop: ~512 words/page at
// ~1.5 cycles/word plus sweep overhead.
func DefaultCostModel() CostModel {
	return CostModel{PerPage: 768, PerSlot: 4, PerRoot: 2, BaseCost: 400}
}

// Slot state bits, one byte per handle.
const (
	slotLive    uint8 = 1 << iota // allocated and not yet collected
	slotInline                    // the value is the float64 whose bits are in word
	slotGeneric                   // stored through Alloc (a generic slot)
	slotMark                      // reached by the running collection
)

// noFree ends the free list.
const noFree = math.MaxUint64

// Allocator is the box allocator. The zero value is not usable; call New.
type Allocator struct {
	// The store is indexed by handle. state holds each slot's bits. word
	// holds the bits of every live slot whose value is a float64 (the
	// float-specialized slots of AllocFloat, and generic slots that were
	// given a float64), and in a free slot the next handle down the free
	// list. vals holds the other generic values; it stays nil until the
	// first such value, so a Boxed IEEE run keeps no interface per slot.
	// The store is sized once, at the first box (see reserve).
	state []uint8
	word  []uint64
	vals  []any

	// free is the top of the free list, a stack threaded through the
	// free slots' words (noFree when empty): the most recently freed
	// handle is reused first.
	free uint64
	live int

	// Threshold is the live-box count that makes NeedsGC true. The FPVM
	// runtime checks it on every trap (§2.5: each SIGFPE may invoke GC).
	Threshold int

	// MaxLive is a hard cap on the live box population (0 = unbounded).
	// Between GC runs the allocator otherwise grows without bound; at the
	// cap, TryAlloc returns ErrHeapFull so the caller can force a
	// collection and, failing that, degrade instead of OOMing.
	MaxLive int

	Costs CostModel
	Stats Stats
}

// New returns an allocator that requests collection above threshold live
// boxes (0 means a default of 4096).
func New(threshold int) *Allocator {
	if threshold == 0 {
		threshold = 4096
	}
	return &Allocator{free: noFree, Threshold: threshold, Costs: DefaultCostModel()}
}

// Alloc stores v in a generic slot and returns its handle. A float64 v
// is kept in the slot's word, without its interface.
func (a *Allocator) Alloc(v any) uint64 {
	h := a.take()
	a.setGeneric(h, v)
	return h
}

// AllocFloat stores f in a float-specialized slot and returns its handle.
// It writes the slot's fields in place and creates no interface value,
// so it does not allocate once the store is sized.
func (a *Allocator) AllocFloat(f float64) uint64 {
	h := a.take()
	a.state[h] = slotLive | slotInline
	a.word[h] = math.Float64bits(f)
	return h
}

// setGeneric makes slot h a live generic slot holding v.
func (a *Allocator) setGeneric(h uint64, v any) {
	if f, ok := v.(float64); ok {
		a.state[h] = slotLive | slotGeneric | slotInline
		a.word[h] = math.Float64bits(f)
		v = nil
	} else {
		a.state[h] = slotLive | slotGeneric
		a.word[h] = 0
	}
	if v != nil && a.vals == nil {
		a.vals = make([]any, len(a.state), cap(a.state))
	}
	if a.vals != nil {
		a.vals[h] = v
	}
}

// take returns the handle for a new box: the most recently freed one,
// else the next unused one. The caller sets the slot's state and word.
func (a *Allocator) take() uint64 {
	a.Stats.Allocs++
	h := a.free
	if h != noFree {
		a.free = a.word[h]
	} else {
		h = uint64(len(a.state))
		if h > nanbox.MaxHandle {
			panic("heap: handle space exhausted")
		}
		if cap(a.state) == 0 {
			a.reserve()
		}
		a.state = append(a.state, 0)
		a.word = append(a.word, 0)
		if a.vals != nil {
			a.vals = append(a.vals, nil)
		}
	}
	a.live++
	if a.live > a.Stats.MaxLive {
		a.Stats.MaxLive = a.live
	}
	return h
}

// reserve sizes the empty store for the population one collection cycle
// reaches: the live count that triggers a collection (or the MaxLive cap,
// if lower), plus an eighth for what the trap that crosses it allocates
// before the runtime collects. A run that outgrows it grows by append.
func (a *Allocator) reserve() {
	n := a.Threshold
	if a.MaxLive > 0 && a.MaxLive < n {
		n = a.MaxLive
	}
	n += n / 8
	a.state = make([]uint8, 0, n)
	a.word = make([]uint64, 0, n)
}

// release puts the live slot h on the free list.
func (a *Allocator) release(h uint64) {
	a.state[h] = 0
	a.word[h] = a.free
	if a.vals != nil {
		a.vals[h] = nil
	}
	a.free = h
}

// AtCap reports whether the live population has reached the MaxLive hard
// cap (never true when MaxLive is 0).
func (a *Allocator) AtCap() bool { return a.MaxLive > 0 && a.live >= a.MaxLive }

// TryAlloc stores v and returns its handle, or ErrHeapFull if the
// allocator is at its MaxLive cap. Callers should collect and retry once
// before treating the failure as a degradation.
func (a *Allocator) TryAlloc(v any) (uint64, error) {
	if a.AtCap() {
		return 0, ErrHeapFull
	}
	return a.Alloc(v), nil
}

// TryAllocFloat is TryAlloc for a float-specialized slot.
func (a *Allocator) TryAllocFloat(f float64) (uint64, error) {
	if a.AtCap() {
		return 0, ErrHeapFull
	}
	return a.AllocFloat(f), nil
}

// Get returns the value for handle h. ok is false if h was never
// allocated or has been collected — the caller must then treat the NaN as
// an application NaN, per the paper's ours-vs-theirs discrimination.
// A float64 value is converted to an interface here, which allocates:
// Get serves the generic walk path; the replay path reads floats through
// Lookup.
func (a *Allocator) Get(h uint64) (any, bool) {
	if !a.Has(h) {
		return nil, false
	}
	if a.state[h]&slotInline != 0 {
		return math.Float64frombits(a.word[h]), true
	}
	if a.vals == nil {
		return nil, true
	}
	return a.vals[h], true
}

// Kind is what a handle names.
type Kind uint8

const (
	Dead    Kind = iota // never allocated, or collected
	Float               // a live box whose value is a float64
	Generic             // a live box holding another alt-system value (or nil)
)

// Lookup reports what handle h names and, for a Float box, its value: a
// float-specialized slot, or a generic slot that was given a float64. It
// creates no interface value, so it never allocates.
func (a *Allocator) Lookup(h uint64) (float64, Kind) {
	if !a.Has(h) {
		return 0, Dead
	}
	if a.state[h]&slotInline != 0 {
		return math.Float64frombits(a.word[h]), Float
	}
	return 0, Generic
}

// Has reports whether h names a live box.
func (a *Allocator) Has(h uint64) bool {
	return h < uint64(len(a.state)) && a.state[h]&slotLive != 0
}

// Live returns the number of live boxes.
func (a *Allocator) Live() int { return a.live }

// NeedsGC reports whether the live population crossed the threshold.
func (a *Allocator) NeedsGC() bool { return a.live >= a.Threshold }

// Roots enumerates the register-file words the collector treats as roots.
type Roots struct {
	GPR [16]uint64
	XMM [16][2]uint64
}

// Collect runs a full conservative mark-and-sweep: every 8-byte aligned
// word in every writable page of as, plus every root register word, that
// matches the NaN-box pattern and names a live handle keeps that box
// alive. Multiple root sets cover multi-threaded processes (every
// thread's register file is a root source, §2.1). It returns the number
// of boxes freed and the virtual cycle cost of the collection.
func (a *Allocator) Collect(as *mem.AddressSpace, roots ...*Roots) (freed int, cycles uint64) {
	a.Stats.Collections++
	cycles = a.Costs.BaseCost

	state := a.state
	mark := func(word uint64) {
		if h, ok := nanbox.Handle(word); ok && h < uint64(len(state)) {
			if st := state[h]; st&slotLive != 0 && st&slotMark == 0 {
				state[h] = st | slotMark
				a.Stats.WordsMarked++
			}
		}
	}

	for _, r := range roots {
		if r == nil {
			continue
		}
		for _, w := range r.GPR {
			mark(w)
		}
		for _, lanes := range r.XMM {
			mark(lanes[0])
			mark(lanes[1])
		}
		cycles += a.Costs.PerRoot * 48
	}

	// The charge is per mapped writable page; the host reads only the
	// allocated ones, since an untouched page reads as zeros and holds
	// no box. Marking is a set union, so page order does not matter.
	pages := as.ScanWritable(func(data *[mem.PageSize]byte) {
		for off := 0; off+8 <= len(data); off += 8 {
			mark(binary.LittleEndian.Uint64(data[off:]))
		}
	})
	a.Stats.PagesScanned += uint64(pages)
	cycles += a.Costs.PerPage * uint64(pages)

	// Sweep, freeing in handle order: the highest freed handle ends on
	// top of the free list and is reused first.
	for h, st := range state {
		if st&slotLive != 0 && st&slotMark == 0 {
			a.release(uint64(h))
			freed++
			continue
		}
		state[h] = st &^ slotMark
	}
	a.live -= freed
	a.Stats.Frees += uint64(freed)
	cycles += a.Costs.PerSlot * uint64(len(state))
	return freed, cycles
}

// Clone returns a copy of the allocator for fork(): handles and live
// flags are duplicated; the boxed values themselves are shared, which is
// safe because boxes are immutable (§2.5: "they must operate as if they
// were values ... they must be immutable").
func (a *Allocator) Clone() *Allocator {
	out := *a
	out.state = append([]uint8(nil), a.state...)
	out.word = append([]uint64(nil), a.word...)
	if a.vals != nil {
		out.vals = append([]any(nil), a.vals...)
	}
	return &out
}

// Reset drops all boxes (process teardown).
func (a *Allocator) Reset() {
	a.state = a.state[:0]
	a.word = a.word[:0]
	if a.vals != nil {
		a.vals = a.vals[:0]
	}
	a.free = noFree
	a.live = 0
}
