package dcache

import (
	"math"
	"math/rand"
	"testing"

	"fpvm/internal/isa"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(0)
	if _, ok := c.Lookup(0x100); ok {
		t.Error("hit on empty cache")
	}
	e := &Entry{Inst: isa.MakeNullary(isa.NOP), Supported: true}
	c.Insert(0x100, e)
	got, ok := c.Lookup(0x100)
	if !ok || got != e {
		t.Error("miss after insert")
	}
	if c.Stats.Misses != 1 || c.Stats.Hits != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
	if c.Len() != 1 {
		t.Error("len")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(4)
	for i := uint64(0); i < 8; i++ {
		c.Insert(i, &Entry{})
	}
	if c.Len() > 4 {
		t.Errorf("len %d over capacity", c.Len())
	}
	if c.Stats.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// FIFO: the newest entries survive.
	if _, ok := c.Lookup(7); !ok {
		t.Error("newest entry evicted")
	}
}

func TestCacheReinsert(t *testing.T) {
	c := NewCache(4)
	c.Insert(1, &Entry{Supported: false})
	c.Insert(1, &Entry{Supported: true})
	e, ok := c.Lookup(1)
	if !ok || !e.Supported {
		t.Error("reinsert did not replace")
	}
	if c.Len() != 1 {
		t.Error("duplicate entries")
	}
}

// buildProfile records synthetic sequences: three traces with distinct
// popularity and length.
func buildProfile() *SeqProfile {
	p := NewSeqProfile()
	// trace A: len 32, executed 100 times (dominant)
	for i := 0; i < 100; i++ {
		p.Record(0x100, 32, TermUnsupported, []string{"addsd ...", "mulsd ..."}, "add rcx, 1")
	}
	// trace B: len 4, executed 50 times
	for i := 0; i < 50; i++ {
		p.Record(0x200, 4, TermNoBoxedSource, nil, "")
	}
	// trace C: len 200, executed once (long but unpopular)
	p.Record(0x300, 200, TermLimit, nil, "")
	return p
}

func TestProfileTotals(t *testing.T) {
	p := buildProfile()
	if p.Traps != 151 {
		t.Errorf("traps %d", p.Traps)
	}
	wantEmul := uint64(100*32 + 50*4 + 200)
	if p.EmulatedTotal != wantEmul {
		t.Errorf("emulated %d want %d", p.EmulatedTotal, wantEmul)
	}
	if got := p.AvgSeqLen(); math.Abs(got-float64(wantEmul)/151) > 1e-9 {
		t.Errorf("avg %f", got)
	}
	if p.NumTraces() != 3 {
		t.Error("traces")
	}
	if !p.Known(0x100) || p.Known(0x999) {
		t.Error("Known")
	}
}

func TestByPopularityOrder(t *testing.T) {
	p := buildProfile()
	traces := p.ByPopularity()
	// A contributes 3200, B 200, C 200 -> A first; B vs C tie broken by RIP.
	if traces[0].StartRIP != 0x100 {
		t.Errorf("rank 1 = %#x", traces[0].StartRIP)
	}
	if traces[1].StartRIP != 0x200 || traces[2].StartRIP != 0x300 {
		t.Errorf("tie break: %#x %#x", traces[1].StartRIP, traces[2].StartRIP)
	}
}

func TestRankPopularityCDFMonotone(t *testing.T) {
	p := buildProfile()
	cdf := p.RankPopularityCDF()
	last := 0.0
	for i, v := range cdf {
		if v < last {
			t.Fatalf("CDF not monotone at %d: %f < %f", i, v, last)
		}
		last = v
	}
	if math.Abs(last-100) > 1e-9 {
		t.Errorf("CDF ends at %f", last)
	}
}

func TestLengthCDF(t *testing.T) {
	p := buildProfile()
	lengths, pct := p.LengthCDF()
	if len(lengths) != 3 {
		t.Fatalf("lengths: %v", lengths)
	}
	if lengths[0] != 4 || lengths[2] != 200 {
		t.Errorf("lengths: %v", lengths)
	}
	if pct[len(pct)-1] != 100 {
		t.Errorf("pct: %v", pct)
	}
}

// TestWeightedRankConverges checks the Figure 10 property: the weighted
// rank series converges to the overall average sequence length.
func TestWeightedRankConverges(t *testing.T) {
	p := buildProfile()
	w := p.WeightedRank()
	if math.Abs(w[len(w)-1]-p.AvgSeqLen()) > 1e-9 {
		t.Errorf("weighted rank tail %f != avg %f", w[len(w)-1], p.AvgSeqLen())
	}
}

// TestWeightedRankRandom fuzzes the convergence property.
func TestWeightedRankRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := NewSeqProfile()
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			count := 1 + r.Intn(100)
			length := 1 + r.Intn(64)
			for j := 0; j < count; j++ {
				p.Record(uint64(0x1000+i*16), length, TermUnsupported, nil, "")
			}
		}
		w := p.WeightedRank()
		if math.Abs(w[len(w)-1]-p.AvgSeqLen()) > 1e-9 {
			t.Fatalf("trial %d: tail %f != avg %f", trial, w[len(w)-1], p.AvgSeqLen())
		}
		cdf := p.RankPopularityCDF()
		if math.Abs(cdf[len(cdf)-1]-100) > 1e-9 {
			t.Fatalf("trial %d: cdf tail %f", trial, cdf[len(cdf)-1])
		}
	}
}

func TestTraceByRank(t *testing.T) {
	p := buildProfile()
	tr, err := p.Trace(1)
	if err != nil || tr.StartRIP != 0x100 {
		t.Errorf("rank1: %v %v", tr, err)
	}
	if len(tr.Insts) != 2 || tr.Terminator != "add rcx, 1" {
		t.Errorf("capture: %+v", tr)
	}
	if _, err := p.Trace(0); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, err := p.Trace(4); err == nil {
		t.Error("rank beyond range accepted")
	}
}

func TestCacheSizeEstimate(t *testing.T) {
	p := buildProfile()
	entries := p.CacheSizeEstimate(90)
	if entries <= 0 {
		t.Errorf("estimate %d", entries)
	}
}

func TestTermReasonString(t *testing.T) {
	if TermUnsupported.String() == "" || TermNoBoxedSource.String() == "" || TermLimit.String() == "" {
		t.Error("empty reason strings")
	}
}

// TestOrderCapBounded asserts the FIFO backing array does not grow without
// bound under sustained churn (the old order = order[1:] reslice pinned the
// array and appended forever).
func TestOrderCapBounded(t *testing.T) {
	const capacity = 64
	c := NewCache(capacity)
	for i := uint64(0); i < 10*capacity; i++ {
		c.Insert(i, &Entry{})
	}
	if c.Len() > capacity {
		t.Fatalf("len %d over capacity", c.Len())
	}
	// Compaction keeps the backing array proportional to the live
	// population, not the total insert count.
	if got := c.OrderCap(); got > 4*capacity {
		t.Errorf("order backing cap %d grew unbounded (capacity %d)", got, capacity)
	}
}

// mkTrace builds a synthetic trace of n entries at consecutive addresses.
func mkTrace(start uint64, n int) *Trace {
	t := &Trace{Start: start, Reason: TermUnsupported}
	for i := 0; i < n; i++ {
		in := isa.MakeNullary(isa.NOP)
		in.Addr = start + uint64(i)*4
		t.Entries = append(t.Entries, &Entry{Inst: in, Supported: true})
	}
	t.EndRIP = start + uint64(n)*4
	return t
}

func TestTraceInsertLookup(t *testing.T) {
	c := NewCache(0)
	if _, ok := c.LookupTrace(0x100); ok {
		t.Error("hit on empty trace table")
	}
	tr := mkTrace(0x100, 4)
	c.InsertTrace(tr)
	got, ok := c.LookupTrace(0x100)
	if !ok || got != tr {
		t.Error("miss after InsertTrace")
	}
	if c.TraceLen() != 1 {
		t.Error("TraceLen")
	}
	if c.Stats.TraceMisses != 1 || c.Stats.TraceHits != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
	if got.Len() != 4 {
		t.Errorf("trace len %d", got.Len())
	}
	// Empty traces are not cacheable.
	c.InsertTrace(&Trace{Start: 0x500})
	if c.TraceLen() != 1 {
		t.Error("empty trace cached")
	}
}

func TestTraceInvalidateByContainedRIP(t *testing.T) {
	c := NewCache(0)
	// Two traces overlapping at 0x108; one disjoint.
	a := mkTrace(0x100, 4) // 0x100..0x10c
	b := mkTrace(0x108, 4) // 0x108..0x114
	d := mkTrace(0x900, 2)
	c.InsertTrace(a)
	c.InsertTrace(b)
	c.InsertTrace(d)
	// 0x108 is inside a (entry 2) and is b's start.
	if n := c.InvalidateTraces(0x108); n != 2 {
		t.Fatalf("invalidated %d traces, want 2", n)
	}
	if _, ok := c.LookupTrace(0x100); ok {
		t.Error("trace a survived invalidation of contained RIP")
	}
	if _, ok := c.LookupTrace(0x108); ok {
		t.Error("trace b survived")
	}
	if _, ok := c.LookupTrace(0x900); !ok {
		t.Error("disjoint trace dropped")
	}
	if c.Stats.TraceInvalidations != 2 {
		t.Errorf("stats: %+v", c.Stats)
	}
	// Idempotent: nothing left containing 0x108.
	if n := c.InvalidateTraces(0x108); n != 0 {
		t.Errorf("second invalidation dropped %d", n)
	}
}

// TestInvalidateTracesAllOverlapping is the review repro: with three or
// more traces covering one rip, iterating the live ripIndex list while
// unindexTrace compacted it in place read shifted elements and let some
// traces survive invalidation.
func TestInvalidateTracesAllOverlapping(t *testing.T) {
	c := NewCache(0)
	c.InsertTrace(mkTrace(0x100, 4)) // covers 0x100..0x10c
	c.InsertTrace(mkTrace(0x104, 4)) // covers 0x104..0x110
	c.InsertTrace(mkTrace(0x108, 4)) // covers 0x108..0x114
	// 0x108 is inside all three.
	if n := c.InvalidateTraces(0x108); n != 3 {
		t.Fatalf("invalidated %d traces, want 3", n)
	}
	if c.TraceLen() != 0 {
		t.Errorf("%d traces survived invalidation of a shared RIP", c.TraceLen())
	}
	for _, start := range []uint64{0x100, 0x104, 0x108} {
		if _, ok := c.LookupTrace(start); ok {
			t.Errorf("trace %#x survived", start)
		}
	}
}

// TestTraceOrderBoundedUnderInvalidate asserts invalidate→rebuild churn
// below capacity neither grows the trace FIFO without bound nor leaves
// stale duplicate starts (which would make a freshly re-inserted trace
// the next eviction victim at capacity).
func TestTraceOrderBoundedUnderInvalidate(t *testing.T) {
	c := NewCache(64) // traceCap = 16
	for i := 0; i < 1000; i++ {
		c.InsertTrace(mkTrace(0x100, 4))
		if n := c.InvalidateTraces(0x104); n != 1 {
			t.Fatalf("cycle %d: invalidated %d traces, want 1", i, n)
		}
	}
	if got := c.TraceOrderCap(); got > 16 {
		t.Errorf("trace order backing cap %d grew under invalidate/reinsert churn", got)
	}
	if c.TraceLen() != 0 {
		t.Errorf("TraceLen %d after final invalidation", c.TraceLen())
	}
}

// TestOrderBoundedUnderInvalidate is the L1 analogue: Invalidate deletes
// the entry but leaves its queue slot, so re-inserting must not push a
// duplicate.
func TestOrderBoundedUnderInvalidate(t *testing.T) {
	c := NewCache(64)
	for i := 0; i < 1000; i++ {
		c.Insert(0x100, &Entry{})
		c.Invalidate(0x100)
	}
	if got := c.OrderCap(); got > 16 {
		t.Errorf("order backing cap %d grew under invalidate/reinsert churn", got)
	}
}

func TestInvalidateKillsDecodeAndTraces(t *testing.T) {
	c := NewCache(0)
	tr := mkTrace(0x100, 4)
	c.Insert(0x104, &Entry{})
	c.InsertTrace(tr)
	c.Invalidate(0x104) // mid-trace address
	if _, ok := c.Lookup(0x104); ok {
		t.Error("decode entry survived Invalidate")
	}
	if _, ok := c.LookupTrace(0x100); ok {
		t.Error("containing trace survived Invalidate")
	}
}

func TestTraceReplaceReindexes(t *testing.T) {
	c := NewCache(0)
	c.InsertTrace(mkTrace(0x100, 8)) // covers 0x100..0x11c
	c.InsertTrace(mkTrace(0x100, 2)) // re-walked shorter: covers 0x100..0x104
	if c.TraceLen() != 1 {
		t.Fatalf("TraceLen %d", c.TraceLen())
	}
	// 0x110 was only in the old, replaced trace.
	if n := c.InvalidateTraces(0x110); n != 0 {
		t.Errorf("stale index entry survived replace: dropped %d", n)
	}
	if n := c.InvalidateTraces(0x104); n != 1 {
		t.Errorf("new trace not indexed: dropped %d", n)
	}
}

func TestTraceEviction(t *testing.T) {
	c := NewCache(64) // traceCap = 16
	for i := 0; i < 40; i++ {
		c.InsertTrace(mkTrace(uint64(0x1000+i*0x100), 2))
	}
	if c.TraceLen() > 16 {
		t.Errorf("trace table size %d over capacity", c.TraceLen())
	}
	if c.Stats.TraceEvictions == 0 {
		t.Error("no trace evictions recorded")
	}
	// Newest survives; evicted traces left no index residue.
	if _, ok := c.LookupTrace(uint64(0x1000 + 39*0x100)); !ok {
		t.Error("newest trace evicted")
	}
	if n := c.InvalidateTraces(0x1000); n != 0 {
		t.Errorf("evicted trace still indexed: dropped %d", n)
	}
}

func TestCloneCopiesTraces(t *testing.T) {
	c := NewCache(0)
	tr := mkTrace(0x100, 4)
	c.InsertTrace(tr)
	c.Insert(0x100, tr.Entries[0])
	child := c.Clone()
	if child.TraceLen() != 1 || child.Len() != 1 {
		t.Fatalf("clone sizes: traces=%d entries=%d", child.TraceLen(), child.Len())
	}
	// The child's trace is its own copy.
	ct, _ := child.LookupTrace(0x100)
	if &ct.Entries[0] == &tr.Entries[0] {
		t.Error("child trace shares the parent's Entries backing array")
	}
	// Index is deep-copied: invalidating in the child leaves the parent.
	child.InvalidateTraces(0x104)
	if _, ok := c.LookupTrace(0x100); !ok {
		t.Error("child invalidation leaked into parent")
	}
	if child.TraceLen() != 0 {
		t.Error("child invalidation ineffective")
	}
}
