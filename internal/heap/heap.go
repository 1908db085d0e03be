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

type slot struct {
	val any
	// Float-specialized storage: the trace-replay fast path stores float64
	// box values inline instead of through val (a float64→any conversion
	// heap-allocates on every box). isF marks which representation a live
	// slot uses; Get bridges float slots back to any for the generic path.
	fval float64
	isF  bool
	live bool
	mark bool
}

// Allocator is the box allocator. The zero value is not usable; call New.
type Allocator struct {
	slots []slot
	free  []uint64
	live  int

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
	return &Allocator{Threshold: threshold, Costs: DefaultCostModel()}
}

// Alloc stores v and returns its handle.
func (a *Allocator) Alloc(v any) uint64 {
	return a.alloc(slot{val: v, live: true})
}

// AllocFloat stores f in a float-specialized slot and returns its handle.
// No interface value is created, so the call itself does not allocate
// (beyond amortized slot-array growth).
func (a *Allocator) AllocFloat(f float64) uint64 {
	return a.alloc(slot{fval: f, isF: true, live: true})
}

func (a *Allocator) alloc(s slot) uint64 {
	a.Stats.Allocs++
	var h uint64
	if n := len(a.free); n > 0 {
		h = a.free[n-1]
		a.free = a.free[:n-1]
		a.slots[h] = s
	} else {
		h = uint64(len(a.slots))
		if h > nanbox.MaxHandle {
			panic("heap: handle space exhausted")
		}
		a.slots = append(a.slots, s)
	}
	a.live++
	if a.live > a.Stats.MaxLive {
		a.Stats.MaxLive = a.live
	}
	return h
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
// Float-specialized slots are bridged back to any here (this conversion
// allocates, which is acceptable: Get sits on the generic walk path, not
// the replay fast path).
func (a *Allocator) Get(h uint64) (any, bool) {
	if h >= uint64(len(a.slots)) || !a.slots[h].live {
		return nil, false
	}
	s := &a.slots[h]
	if s.isF {
		return s.fval, true
	}
	return s.val, true
}

// GetFloat returns the float64 for handle h without creating an interface
// value. isFloat is false when the slot is live but holds a non-float
// value (a generic alt-system Value) — the caller must fall back to Get.
func (a *Allocator) GetFloat(h uint64) (f float64, isFloat, ok bool) {
	if h >= uint64(len(a.slots)) || !a.slots[h].live {
		return 0, false, false
	}
	s := &a.slots[h]
	if s.isF {
		return s.fval, true, true
	}
	return 0, false, true
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

	mark := func(word uint64) {
		if h, ok := nanbox.Handle(word); ok && h < uint64(len(a.slots)) && a.slots[h].live {
			if !a.slots[h].mark {
				a.slots[h].mark = true
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
	// no box.
	pages := as.WritablePages()
	for _, pa := range pages {
		if !as.Allocated(pa) {
			continue
		}
		data, _ := as.PageData(pa)
		for off := 0; off+8 <= len(data); off += 8 {
			mark(binary.LittleEndian.Uint64(data[off:]))
		}
	}
	a.Stats.PagesScanned += uint64(len(pages))
	cycles += a.Costs.PerPage * uint64(len(pages))

	// Sweep.
	for h := range a.slots {
		s := &a.slots[h]
		if s.live && !s.mark {
			s.val = nil
			s.fval = 0
			s.isF = false
			s.live = false
			a.free = append(a.free, uint64(h))
			freed++
		}
		s.mark = false
	}
	a.live -= freed
	a.Stats.Frees += uint64(freed)
	cycles += a.Costs.PerSlot * uint64(len(a.slots))
	return freed, cycles
}

// Clone returns a copy of the allocator for fork(): handles and live
// flags are duplicated; the boxed values themselves are shared, which is
// safe because boxes are immutable (§2.5: "they must operate as if they
// were values ... they must be immutable").
func (a *Allocator) Clone() *Allocator {
	out := &Allocator{
		slots:     append([]slot(nil), a.slots...),
		free:      append([]uint64(nil), a.free...),
		live:      a.live,
		Threshold: a.Threshold,
		MaxLive:   a.MaxLive,
		Costs:     a.Costs,
		Stats:     a.Stats,
	}
	return out
}

// CloneWith is Clone with value isolation: every live generic slot's
// value is passed through clone, so the copy shares no mutable alt-system
// state with the original. Float-specialized slots copy by value. The
// checkpoint subsystem uses this (with alt.System.CloneValue) so a
// snapshot survives in-place mutation of live values and a restore does
// not alias the snapshot it came from.
func (a *Allocator) CloneWith(clone func(any) any) *Allocator {
	out := a.Clone()
	for h := range out.slots {
		s := &out.slots[h]
		if s.live && !s.isF && s.val != nil {
			s.val = clone(s.val)
		}
	}
	return out
}

// Reset drops all boxes (process teardown).
func (a *Allocator) Reset() {
	a.slots = a.slots[:0]
	a.free = a.free[:0]
	a.live = 0
}
