// Package dcache implements FPVM's decode cache, which sequence emulation
// turns into a software trace cache (§4.2), plus the sequence statistics
// instrumentation behind the paper's workload characterization (§6.3,
// Figures 7-10).
package dcache

import (
	"fmt"
	"sort"

	"fpvm/internal/isa"
)

// Entry is a cached decode result. Supported records whether FPVM can
// decode, bind and emulate the instruction — the sequence terminator is
// cached too, "even if case (1) holds" (§4.2). Class and Step are opaque
// to this package: the runtime's emulation class for the instruction and
// its emulator (nil when unsupported), both built with the entry, so
// neither the per-instruction walk nor trace replay re-classifies or
// re-binds the opcode. An entry is immutable once built and holds no
// per-VM state, so frozen stores, adopters, fork clones and restored
// caches share it by pointer, step included.
type Entry struct {
	Inst      isa.Inst
	Supported bool
	Class     uint8
	Step      any
}

// Stats counts cache activity. Counters are per-VM: a fork child starts
// from zero (see Clone) so its figures never include events the parent
// logged pre-fork.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64

	// L2 trace table activity.
	TraceHits          uint64
	TraceMisses        uint64
	TraceEvictions     uint64
	TraceInvalidations uint64

	// Shared-cache adoption (see SharedCache). A SharedHit is a local L1
	// miss served by adopting the trained store's decode entry; a
	// SharedTraceHit a local L2 miss served by adopting a trained trace.
	// Neither is double-counted as a local hit or miss.
	SharedHits      uint64
	SharedTraceHits uint64
}

// fifo is a FIFO queue over a ring-style slice: Pop advances a head index
// instead of reslicing (order = order[1:] would pin the backing array for
// the life of the cache), and Push compacts the dead prefix once it
// dominates, so the backing array stays bounded by the live population.
// Membership is tracked so Push never enqueues a key twice: without it,
// invalidate→reinsert cycles (which delete the cached value but leave its
// queue slot) would re-push the key each round, growing the queue without
// bound below capacity and making the stale duplicate the next eviction
// victim at capacity.
type fifo struct {
	buf  []uint64
	head int
	in   map[uint64]struct{}
}

func (f *fifo) Len() int { return len(f.buf) - f.head }

// Push enqueues v unless it is already queued. A re-pushed key keeps its
// original position — approximate FIFO, but the queue length stays
// bounded by the number of distinct keys.
func (f *fifo) Push(v uint64) {
	if f.in == nil {
		f.in = make(map[uint64]struct{})
	}
	if _, queued := f.in[v]; queued {
		return
	}
	if f.head > 32 && f.head > len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
	f.in[v] = struct{}{}
}

func (f *fifo) Pop() (uint64, bool) {
	if f.head >= len(f.buf) {
		return 0, false
	}
	v := f.buf[f.head]
	f.head++
	delete(f.in, v)
	return v, true
}

func (f *fifo) Clone() fifo {
	out := fifo{buf: append([]uint64(nil), f.buf[f.head:]...)}
	if len(out.buf) > 0 {
		out.in = make(map[uint64]struct{}, len(out.buf))
		for _, v := range out.buf {
			out.in[v] = struct{}{}
		}
	}
	return out
}

// Cap exposes the backing array capacity (tests assert boundedness).
func (f *fifo) Cap() int { return cap(f.buf) }

// Cache is FPVM's two-level software trace cache (§4.2): an L1 decode
// cache keyed by instruction address, plus an L2 trace table keyed by
// sequence start address whose entries hold entire pre-decoded, pre-bound
// instruction sequences for straight-through replay. Both levels are
// capacity-bounded with FIFO eviction.
type Cache struct {
	entries map[uint64]*Entry
	order   fifo
	cap     int

	traces     map[uint64]*Trace
	traceOrder fifo
	traceCap   int
	// recent is a direct-mapped cache in front of traces, indexed by
	// traceSlot(start): a trap at a hot start finds its trace without the
	// map lookup. unindexTrace clears a trace's slot when the trace leaves
	// the table, so a slot only ever holds a cached trace.
	recent [256]*Trace
	// ripIndex maps every instruction address covered by a cached trace to
	// the start addresses of the traces containing it, so Invalidate(rip)
	// can kill all traces through a corrupted or degraded instruction.
	ripIndex map[uint64][]uint64

	// shared, when non-nil, is the frozen store trained on this VM's
	// image: local misses adopt from it into the private tables, and
	// everything else stays local. The first invalidation clears it, so
	// a decode or trace the recovery ladder distrusted never comes back
	// from the store.
	shared *SharedCache

	Stats Stats
}

// DefaultCapacity matches the paper's default of 64K instruction entries.
const DefaultCapacity = 65536

// DefaultTraceCapacity bounds the L2 trace table. The §6.3 sizing data
// shows a few hundred traces cover >90% of emulated instructions on every
// paper workload; 4K start addresses is an order of magnitude of headroom.
const DefaultTraceCapacity = 4096

// NewCacheShared returns a cache bounded to capacity entries (0 =
// default) backed by the given frozen store (nil = private, identical to
// NewCache). The store is only read, and only on local misses.
func NewCacheShared(capacity int, shared *SharedCache) *Cache {
	c := NewCache(capacity)
	c.shared = shared
	return c
}

// Unshared reports whether the cache no longer consults a shared store:
// it never had one, or it invalidated something. Snapshots record it, so
// a restored VM adopts exactly when the suspended one would have.
func (c *Cache) Unshared() bool { return c.shared == nil }

// Unshare stops the cache from consulting its shared store.
func (c *Cache) Unshare() { c.shared = nil }

// NewCache returns a cache bounded to capacity entries (0 = default).
// The trace table capacity scales with the decode capacity, floored at 16.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	tcap := DefaultTraceCapacity
	if capacity < DefaultCapacity {
		tcap = capacity / 4
		if tcap < 16 {
			tcap = 16
		}
	}
	return &Cache{
		entries:  make(map[uint64]*Entry),
		cap:      capacity,
		traces:   make(map[uint64]*Trace),
		traceCap: tcap,
		ripIndex: make(map[uint64][]uint64),
	}
}

// Lookup returns the cached entry for rip, if present. On a local miss
// with a shared cache attached, a published entry is adopted into the
// local table (entries are immutable, so the pointer is shared).
func (c *Cache) Lookup(rip uint64) (*Entry, bool) {
	if e, ok := c.entries[rip]; ok {
		c.Stats.Hits++
		return e, true
	}
	if c.shared != nil {
		if e, ok := c.shared.LookupEntry(rip); ok {
			c.Stats.SharedHits++
			c.Insert(rip, e)
			return e, true
		}
	}
	c.Stats.Misses++
	return nil, false
}

// Insert caches an entry for rip, evicting FIFO-oldest entries over
// capacity. The entry is immutable from here on.
func (c *Cache) Insert(rip uint64, e *Entry) {
	if _, exists := c.entries[rip]; !exists {
		for len(c.entries) >= c.cap && c.order.Len() > 0 {
			victim, _ := c.order.Pop()
			if _, ok := c.entries[victim]; ok {
				delete(c.entries, victim)
				c.Stats.Evictions++
			}
		}
		c.order.Push(rip)
	}
	c.entries[rip] = e
}

// Invalidate drops the entry for rip, if present, counting an eviction,
// and kills every trace containing rip. The FPVM runtime uses it when the
// recovery ladder distrusts a decode (e.g. an injected decode fault): the
// next lookup misses, the instruction is re-decoded from guest memory,
// and no stale pre-bound sequence can replay through the suspect address.
// Like InvalidateTraces it unshares the cache.
func (c *Cache) Invalidate(rip uint64) {
	if _, ok := c.entries[rip]; ok {
		delete(c.entries, rip)
		c.Stats.Evictions++
	}
	c.InvalidateTraces(rip)
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// OrderCap exposes the FIFO backing capacity (boundedness tests).
func (c *Cache) OrderCap() int { return c.order.Cap() }

// TraceOrderCap exposes the trace FIFO backing capacity (boundedness
// tests: invalidate→reinsert churn must not grow the queue).
func (c *Cache) TraceOrderCap() int { return c.traceOrder.Cap() }

// Clone duplicates the cache (fork(): the decode cache is FPVM state in
// process memory, so the child gets a copy). Traces are duplicated with
// their own Entries/Insts slices — the child's replays must survive
// parent-side invalidation, eviction, or in-place rebuild — while the
// immutable entries themselves are shared. The
// child's Stats start from zero: a fork child reporting the parent's
// pre-fork hit/miss/eviction events would double-count them (each event
// happened once, in the parent). An attached shared store carries over —
// the forked process runs the same image, so its trained decodes stay
// valid for the child.
func (c *Cache) Clone() *Cache {
	out := &Cache{
		entries:    make(map[uint64]*Entry, len(c.entries)),
		order:      c.order.Clone(),
		cap:        c.cap,
		traces:     make(map[uint64]*Trace, len(c.traces)),
		traceOrder: c.traceOrder.Clone(),
		traceCap:   c.traceCap,
		ripIndex:   make(map[uint64][]uint64, len(c.ripIndex)),
		shared:     c.shared,
	}
	for k, v := range c.entries {
		out.entries[k] = v // entries are immutable decodes
	}
	for k, v := range c.traces {
		out.traces[k] = v.snapshot()
	}
	for k, v := range c.ripIndex {
		out.ripIndex[k] = append([]uint64(nil), v...)
	}
	return out
}

// --------------------------------------------------------------- L2 traces

// Trace is an L2 trace-cache entry: the complete pre-decoded instruction
// sequence starting at Start, with its recorded terminator. On a trap at
// Start the runtime replays the entries straight through — no per-
// instruction cache lookups, no re-decode, no re-disassembly — falling
// back to the per-instruction walk only when execution diverges from the
// recorded shape (a mid-trace instruction's operands stop being boxed,
// §4.2 condition (2)).
type Trace struct {
	Start   uint64
	Entries []*Entry
	// EndRIP is where the guest resumes after a full replay (the address
	// of the recorded terminator, or past the last instruction for
	// length-limited sequences).
	EndRIP uint64
	Reason TermReason

	// Insts/Term hold the disassembly including the terminator, captured
	// once at trace build so profiling never re-disassembles. Nil when the
	// building run was not profiling — consumers must either tolerate the
	// nil (explicit "not captured" output) or backfill lazily via
	// EnsureDisassembly.
	Insts []string
	Term  string
}

// Len returns the number of emulated instructions in the trace (the
// terminator is not an entry).
func (t *Trace) Len() int { return len(t.Entries) }

// snapshot returns an independent copy of t with fresh Entries/Insts
// slice headers (the immutable *Entry decodes and disassembly strings are
// shared). Freezing a store, adopting from it and fork cloning all go
// through it: the source trace is never mutated (EnsureDisassembly fills
// in a copy's Insts), and every receiving VM replays its own copy.
func (t *Trace) snapshot() *Trace {
	nt := *t
	nt.Entries = append([]*Entry(nil), t.Entries...)
	if t.Insts != nil {
		nt.Insts = append([]string(nil), t.Insts...)
	}
	return &nt
}

// EnsureDisassembly backfills Insts/Term for a trace built while no run
// was profiling (capture is skipped off-profile; an adopted shared trace
// may come from a non-profiling VM). The emulated instructions
// re-disassemble from the cached decodes; the terminator — not an Entry —
// is fetched through fetchTerm (nil, or returning ok=false, leaves Term
// empty: length-limited sequences have no terminator instruction, and an
// unmapped EndRIP must not fail the caller).
func (t *Trace) EnsureDisassembly(fetchTerm func(rip uint64) (string, bool)) {
	if t.Insts != nil || len(t.Entries) == 0 {
		return
	}
	insts := make([]string, 0, len(t.Entries)+1)
	for _, e := range t.Entries {
		insts = append(insts, e.Inst.String())
	}
	if t.Reason != TermLimit && fetchTerm != nil {
		if s, ok := fetchTerm(t.EndRIP); ok {
			t.Term = s
			insts = append(insts, s)
		}
	}
	t.Insts = insts
}

// LookupTrace returns the cached trace starting at start, if present. On
// a local miss with a shared store attached, a trained trace is adopted:
// the VM gets its own copy (private Entries and Insts slices) so nothing
// it does to the trace reaches another VM, and future traps at this start
// hit locally.
func (c *Cache) LookupTrace(start uint64) (*Trace, bool) {
	slot := &c.recent[traceSlot(start)]
	if t := *slot; t != nil && t.Start == start {
		c.Stats.TraceHits++
		return t, true
	}
	if t, ok := c.traces[start]; ok {
		*slot = t
		c.Stats.TraceHits++
		return t, true
	}
	if c.shared != nil {
		if master, ok := c.shared.LookupTrace(start); ok {
			t := master.snapshot()
			c.Stats.SharedTraceHits++
			c.InsertTrace(t)
			return t, true
		}
	}
	c.Stats.TraceMisses++
	return nil, false
}

// InsertTrace caches t, evicting FIFO-oldest traces over capacity. An
// existing trace at the same start address is replaced (the sequence was
// re-walked, e.g. after an invalidation).
func (c *Cache) InsertTrace(t *Trace) {
	if len(t.Entries) == 0 {
		return
	}
	if old, exists := c.traces[t.Start]; exists {
		c.unindexTrace(old)
	} else {
		for len(c.traces) >= c.traceCap && c.traceOrder.Len() > 0 {
			victim, _ := c.traceOrder.Pop()
			if old, ok := c.traces[victim]; ok {
				c.unindexTrace(old)
				delete(c.traces, victim)
				c.Stats.TraceEvictions++
			}
		}
		c.traceOrder.Push(t.Start)
	}
	c.traces[t.Start] = t
	for _, e := range t.Entries {
		c.ripIndex[e.Inst.Addr] = append(c.ripIndex[e.Inst.Addr], t.Start)
	}
}

// InvalidateTraces kills every trace containing rip (not only traces
// starting there) and returns how many were dropped. The recovery ladder
// calls it whenever an instruction decodes faultily or degrades: a
// pre-bound sequence must never replay through a distrusted instruction.
// The cache also stops consulting its shared store, which cannot forget
// the distrusted address; the store itself and other VMs are untouched.
func (c *Cache) InvalidateTraces(rip uint64) int {
	c.shared = nil
	if _, ok := c.ripIndex[rip]; !ok {
		return 0
	}
	// Snapshot the start list: unindexTrace compacts c.ripIndex[rip] in
	// place (kept := list[:0]), so ranging over the live slice would read
	// shifted elements and let overlapping traces survive.
	starts := append([]uint64(nil), c.ripIndex[rip]...)
	n := 0
	for _, start := range starts {
		if t, live := c.traces[start]; live {
			c.unindexTrace(t)
			delete(c.traces, start)
			c.Stats.TraceInvalidations++
			n++
		}
	}
	return n
}

// traceSlot is the recent slot of a trace starting at start.
func traceSlot(start uint64) uint64 { return start * 0x9E3779B97F4A7C15 >> 56 }

// unindexTrace removes t's entries from the reverse index, and t from
// the recent cache. Every path that drops or replaces a trace calls it.
func (c *Cache) unindexTrace(t *Trace) {
	if slot := &c.recent[traceSlot(t.Start)]; *slot == t {
		*slot = nil
	}
	for _, e := range t.Entries {
		addr := e.Inst.Addr
		list := c.ripIndex[addr]
		kept := list[:0]
		for _, s := range list {
			if s != t.Start {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(c.ripIndex, addr)
		} else {
			c.ripIndex[addr] = kept
		}
	}
}

// TraceLen returns the number of cached traces.
func (c *Cache) TraceLen() int { return len(c.traces) }

// Traces returns a snapshot of the cached traces (iteration order is
// unspecified). Diagnostics and tests only — the trace table itself is
// reached through LookupTrace on the trap path.
func (c *Cache) Traces() []*Trace {
	out := make([]*Trace, 0, len(c.traces))
	for _, t := range c.traces {
		out = append(out, t)
	}
	return out
}

// EntryRIPs returns the live L1 keys oldest-first (FIFO insertion
// order). The snapshot wire format records them so a resumed run can
// rebuild the decode cache in the same eviction order the suspended run
// had — cache shape is part of deterministic cycle accounting.
func (c *Cache) EntryRIPs() []uint64 {
	out := make([]uint64, 0, len(c.entries))
	for _, rip := range c.order.buf[c.order.head:] {
		if _, ok := c.entries[rip]; ok {
			out = append(out, rip)
		}
	}
	return out
}

// TracesInOrder returns the live L2 traces oldest-first (FIFO insertion
// order), for the snapshot wire format.
func (c *Cache) TracesInOrder() []*Trace {
	out := make([]*Trace, 0, len(c.traces))
	for _, start := range c.traceOrder.buf[c.traceOrder.head:] {
		if t, ok := c.traces[start]; ok {
			out = append(out, t)
		}
	}
	return out
}

// TermReason explains why a sequence ended.
type TermReason uint8

const (
	// TermUnsupported: hit an instruction FPVM cannot decode/bind/emulate
	// (condition (1) of §4.2; includes all control flow).
	TermUnsupported TermReason = iota
	// TermNoBoxedSource: the instruction is emulatable but no source
	// operand is NaN-boxed (condition (2)).
	TermNoBoxedSource
	// TermLimit: hit the per-trap emulation limit (safety valve).
	TermLimit
)

func (t TermReason) String() string {
	switch t {
	case TermUnsupported:
		return "unsupported-instruction"
	case TermNoBoxedSource:
		return "no-nan-boxed-source"
	case TermLimit:
		return "sequence-limit"
	}
	return "term?"
}

// TraceStat aggregates executions of the sequence starting at StartRIP.
type TraceStat struct {
	StartRIP   uint64
	Len        int      // instructions emulated per execution (last observed)
	Count      uint64   // times the sequence was executed
	TotalInsts uint64   // emulated instructions summed over executions
	Insts      []string // disassembly including the terminator
	Terminator string   // disassembly of the terminating instruction
	Reason     TermReason
}

// EmulatedInsts returns the total emulated instructions attributed to this
// trace. (Summed per execution: a trace's length can vary between runs,
// e.g. when a mid-sequence instruction's operands stop being boxed.)
func (t *TraceStat) EmulatedInsts() uint64 { return t.TotalInsts }

// SeqProfile collects per-sequence statistics when profiling is enabled.
type SeqProfile struct {
	traces map[uint64]*TraceStat

	// Totals across all traps, maintained even for unprofiled runs.
	Traps         uint64
	EmulatedTotal uint64
}

// NewSeqProfile returns an empty profile.
func NewSeqProfile() *SeqProfile {
	return &SeqProfile{traces: make(map[uint64]*TraceStat)}
}

// Known reports whether a sequence starting at start has been observed
// (used to capture disassembly only once).
func (p *SeqProfile) Known(start uint64) bool {
	_, ok := p.traces[start]
	return ok
}

// Record logs one executed sequence. insts/terminator are captured only on
// first observation (they are stable for a given start address) — except
// that a first observation with no disassembly (the sequence came from a
// non-profiling trace build) is backfilled by the first later observation
// that has one.
func (p *SeqProfile) Record(start uint64, length int, reason TermReason, insts []string, term string) {
	p.Traps++
	p.EmulatedTotal += uint64(length)
	t, ok := p.traces[start]
	if !ok {
		t = &TraceStat{StartRIP: start, Insts: insts, Terminator: term}
		p.traces[start] = t
	} else if t.Insts == nil && insts != nil {
		t.Insts, t.Terminator = insts, term
	}
	t.Count++
	t.TotalInsts += uint64(length)
	t.Len = length
	t.Reason = reason
}

// AvgSeqLen is the average number of instructions emulated per trap — the
// amortization factor of §4 (≈32 for Lorenz, ≈3 for Enzo).
func (p *SeqProfile) AvgSeqLen() float64 {
	if p.Traps == 0 {
		return 0
	}
	return float64(p.EmulatedTotal) / float64(p.Traps)
}

// NumTraces returns the number of distinct sequences observed.
func (p *SeqProfile) NumTraces() int { return len(p.traces) }

// Clone returns an independent copy of the profile (nil for nil), so a
// holder of the copy never sees later Record calls.
func (p *SeqProfile) Clone() *SeqProfile {
	if p == nil {
		return nil
	}
	c := *p
	c.traces = make(map[uint64]*TraceStat, len(p.traces))
	for start, t := range p.traces {
		tc := *t
		c.traces[start] = &tc
	}
	return &c
}

// ByPopularity returns traces sorted by emulated-instruction contribution
// (descending), the ordering behind Figures 7, 8 and 10.
func (p *SeqProfile) ByPopularity() []*TraceStat {
	out := make([]*TraceStat, 0, len(p.traces))
	for _, t := range p.traces {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		ei, ej := out[i].EmulatedInsts(), out[j].EmulatedInsts()
		if ei != ej {
			return ei > ej
		}
		return out[i].StartRIP < out[j].StartRIP
	})
	return out
}

// RankPopularityCDF returns, for each rank k (1-based), the cumulative
// percentage of emulated instructions covered by the top-k sequences
// (Figure 8).
func (p *SeqProfile) RankPopularityCDF() []float64 {
	traces := p.ByPopularity()
	out := make([]float64, len(traces))
	var cum uint64
	for i, t := range traces {
		cum += t.EmulatedInsts()
		if p.EmulatedTotal > 0 {
			out[i] = 100 * float64(cum) / float64(p.EmulatedTotal)
		}
	}
	return out
}

// LengthCDF returns (lengths, percentages): the percentage of distinct
// sequences with length <= L (Figure 9).
func (p *SeqProfile) LengthCDF() (lengths []int, pct []float64) {
	var ls []int
	for _, t := range p.traces {
		ls = append(ls, t.Len)
	}
	sort.Ints(ls)
	n := len(ls)
	for i, l := range ls {
		if i+1 < n && ls[i+1] == l {
			continue
		}
		lengths = append(lengths, l)
		pct = append(pct, 100*float64(i+1)/float64(n))
	}
	return lengths, pct
}

// WeightedRank returns, for each rank k, the average sequence length if
// only the top-k most popular sequences were cached (Figure 10). The curve
// converges to AvgSeqLen.
func (p *SeqProfile) WeightedRank() []float64 {
	traces := p.ByPopularity()
	out := make([]float64, len(traces))
	var insts, traps uint64
	for i, t := range traces {
		insts += t.EmulatedInsts()
		traps += t.Count
		if traps > 0 {
			out[i] = float64(insts) / float64(traps)
		}
	}
	return out
}

// Trace returns the rank-k (1-based) most popular trace, for Figure 7
// style dumps.
func (p *SeqProfile) Trace(rank int) (*TraceStat, error) {
	traces := p.ByPopularity()
	if rank < 1 || rank > len(traces) {
		return nil, fmt.Errorf("dcache: rank %d out of range (have %d traces)", rank, len(traces))
	}
	return traces[rank-1], nil
}

// CacheSizeEstimate returns the §6.3 estimate: convergence rank times
// average length at that rank, in entries. Convergence is taken at the
// rank covering pctCover percent of emulated instructions.
func (p *SeqProfile) CacheSizeEstimate(pctCover float64) int {
	cdf := p.RankPopularityCDF()
	w := p.WeightedRank()
	for i, c := range cdf {
		if c >= pctCover {
			return int(float64(i+1) * w[i])
		}
	}
	if n := len(cdf); n > 0 {
		return int(float64(n) * w[n-1])
	}
	return 0
}
