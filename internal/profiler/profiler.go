// Package profiler implements the paper's PIN-based memory profiler
// (§5.1), the replacement for the exploding binary static analysis: it
// instruments every memory operation of a native run, marks 8-byte blocks
// that receive a "scalar double"-typed store (movsd and friends — x64 is
// "surprisingly well typed"), unmarks blocks overwritten by integer
// stores, and records the instructions that perform integer loads from
// float-marked blocks. Those instructions are the patch sites that need
// demotion before they may run under FPVM.
package profiler

import (
	"math/bits"
	"sort"

	"fpvm/internal/hostlib"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/obj"
)

// Stats summarizes a profiling run.
type Stats struct {
	FPStores     uint64 // float-typed stores observed
	IntStores    uint64 // integer stores (unmark events)
	IntLoads     uint64 // integer loads inspected
	MarkedBlocks int    // blocks marked at exit
	Sites        int    // distinct patch sites found
}

// tracer implements machine.Tracer over the 8-byte block shadow.
type tracer struct {
	marked shadow
	sites  map[uint64]bool
	stats  Stats
}

// shadow records which 8-byte blocks hold a float: one bit per block, in
// a 512-bit bitmap per page, behind a front for the last page used.
type shadow struct {
	pages map[uint64]*pageBits
	pn    uint64    // page number of front
	front *pageBits // last page used; nil when none yet
}

type pageBits [mem.PageSize / 8 / 64]uint64

// page returns the bitmap of the page holding block, making one when
// create is set; nil when there is none.
func (s *shadow) page(block uint64, create bool) *pageBits {
	pn := block / mem.PageSize
	if s.front != nil && pn == s.pn {
		return s.front
	}
	b := s.pages[pn]
	if b == nil {
		if !create {
			return nil
		}
		b = new(pageBits)
		s.pages[pn] = b
	}
	s.pn, s.front = pn, b
	return b
}

// bit returns the word index and mask of block within its page bitmap.
func bit(block uint64) (int, uint64) {
	i := block & mem.PageMask / 8
	return int(i / 64), 1 << (i % 64)
}

func (s *shadow) mark(block uint64) {
	w, m := bit(block)
	s.page(block, true)[w] |= m
}

func (s *shadow) unmark(block uint64) {
	if b := s.page(block, false); b != nil {
		w, m := bit(block)
		b[w] &^= m
	}
}

func (s *shadow) marked(block uint64) bool {
	b := s.page(block, false)
	w, m := bit(block)
	return b != nil && b[w]&m != 0
}

// count returns the number of marked blocks.
func (s *shadow) count() int {
	n := 0
	for _, b := range s.pages {
		for _, w := range b {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

func blocksOf(addr uint64, size int) (uint64, uint64) {
	first := addr &^ 7
	last := (addr + uint64(size) - 1) &^ 7
	return first, last
}

func (t *tracer) OnStore(rip, addr uint64, size int, xmm, fpTyped bool) {
	first, last := blocksOf(addr, size)
	if fpTyped {
		t.stats.FPStores++
		for b := first; b <= last; b += 8 {
			t.marked.mark(b)
		}
		return
	}
	// Integer-typed store: the block no longer holds a float.
	t.stats.IntStores++
	for b := first; b <= last; b += 8 {
		t.marked.unmark(b)
	}
}

func (t *tracer) OnLoad(rip, addr uint64, size int, xmm bool) {
	if xmm {
		return
	}
	t.stats.IntLoads++
	first, last := blocksOf(addr, size)
	for b := first; b <= last; b += 8 {
		if t.marked.marked(b) {
			t.sites[rip] = true
			return
		}
	}
}

// Result is the profiler output: the set of instructions (by address in
// the profiled image) that must be patched for memory-escape correctness.
type Result struct {
	Sites []uint64
	Stats Stats
}

// Profile executes img natively with instrumentation and returns the
// patch sites. The run uses the same workload/input the deployment will
// use ("developers patch their application by simply profiling it with
// the same workload", §5.1). maxSteps bounds the run (0 = 500M events).
func Profile(img *obj.Image, maxSteps uint64) (*Result, error) {
	as := mem.NewAddressSpace()
	m := machine.New(as)
	k := kernel.New()
	p := kernel.NewProcess(k, m, img.Name+"(profile)")
	lib := hostlib.Install(p)

	t := &tracer{marked: shadow{pages: make(map[uint64]*pageBits)}, sites: make(map[uint64]bool)}
	m.Tracer = t

	as.Map("stack", obj.StackTop-obj.StackSize, obj.StackSize, mem.PermRW)
	as.Map("heap", obj.HeapBase, obj.HeapSize, mem.PermRW)
	resolve := func(name string) (uint64, bool) {
		if sym, ok := img.Lookup(name); ok {
			return sym.Addr, true
		}
		a, ok := lib.Exports[name]
		return a, ok
	}
	if err := img.Load(as, resolve); err != nil {
		return nil, err
	}
	m.InvalidateICache()
	m.CPU.RIP = img.Entry
	m.CPU.GPR[4] = obj.StackTop - 64

	if maxSteps == 0 {
		maxSteps = 500_000_000
	}
	if err := p.Run(maxSteps); err != nil {
		return nil, err
	}

	sites := make([]uint64, 0, len(t.sites))
	for s := range t.sites {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	t.stats.MarkedBlocks = t.marked.count()
	t.stats.Sites = len(sites)
	return &Result{Sites: sites, Stats: t.stats}, nil
}
