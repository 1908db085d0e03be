package dcache

import (
	"sync"
	"testing"

	"fpvm/internal/isa"
)

// ------------------------------------------------ fork/clone accounting

// TestCloneStatsStartFromZero pins the fork-stats bugfix: a child's
// counters must not include events the parent logged pre-fork (each event
// happened once, in the parent — a child reporting them double-counts).
func TestCloneStatsStartFromZero(t *testing.T) {
	c := NewCache(2)
	c.Insert(0x100, &Entry{})
	c.Insert(0x104, &Entry{})
	c.Insert(0x108, &Entry{}) // evicts
	c.Lookup(0x108)           // hit
	c.Lookup(0xdead)          // miss
	c.InsertTrace(mkTrace(0x100, 2))
	c.LookupTrace(0x100)  // trace hit
	c.LookupTrace(0x9999) // trace miss
	c.InvalidateTraces(0x100)
	if (c.Stats == Stats{}) {
		t.Fatal("parent accumulated no stats; test is vacuous")
	}

	child := c.Clone()
	if (child.Stats != Stats{}) {
		t.Errorf("fork child inherited parent stats: %+v", child.Stats)
	}

	// And the child counts its own events from there, independently.
	parentStats := c.Stats
	child.Lookup(0x108)
	if child.Stats.Hits != 1 {
		t.Errorf("child hit not counted: %+v", child.Stats)
	}
	if c.Stats != parentStats {
		t.Error("child activity mutated parent stats")
	}
}

// TestCloneTraceEntriesUnaliased pins the fork slice-header bugfix: the
// child's Trace structs must own their Entries/Insts arrays. A child
// replaying a trace mid-flight must be immune to anything the parent does
// to its own copy after the fork.
func TestCloneTraceEntriesUnaliased(t *testing.T) {
	c := NewCache(0)
	tr := mkTrace(0x100, 4)
	tr.Insts = []string{"a", "b", "c", "d"}
	c.InsertTrace(tr)

	child := c.Clone()
	// The child's in-flight replay holds this pointer.
	ct, ok := child.LookupTrace(0x100)
	if !ok {
		t.Fatal("child lost the trace")
	}
	inFlight := ct.Entries

	// Parent-side churn after fork: replace the trace at the same start
	// (re-walked after an invalidation) and clobber its old arrays.
	pt, _ := c.LookupTrace(0x100)
	pt.Entries[0] = &Entry{Inst: isa.MakeNullary(isa.NOP)} // corrupt parent copy
	pt.Insts[0] = "corrupted"
	c.InvalidateTraces(0x104)
	c.InsertTrace(mkTrace(0x100, 1))

	for i, e := range inFlight {
		if e == nil || e.Inst.Addr != 0x100+uint64(i)*4 {
			t.Fatalf("child entry %d corrupted by parent-side churn", i)
		}
	}
	if ct.Insts[0] != "a" {
		t.Errorf("child disassembly aliased to parent: %q", ct.Insts[0])
	}
	if got, _ := child.LookupTrace(0x100); got.Len() != 4 {
		t.Errorf("parent replacement leaked into child table: len %d", got.Len())
	}
}

// ------------------------------------------------ shared cache: adoption

// frozenStore trains a store for image from a private cache holding
// decodes at 0x100..0x10c and one four-instruction trace at 0x100.
func frozenStore(image any) (*SharedCache, []*Entry) {
	trainer := NewCache(0)
	tr := mkTrace(0x100, 4)
	for _, e := range tr.Entries {
		trainer.Insert(e.Inst.Addr, e)
	}
	trainer.InsertTrace(tr)
	return Freeze(trainer, image), tr.Entries
}

func TestSharedEntryAdoption(t *testing.T) {
	e := &Entry{Inst: isa.MakeNullary(isa.NOP), Supported: true}
	trainer := NewCache(0)
	trainer.Insert(0x100, e)
	s := Freeze(trainer, "img")
	b := NewCacheShared(0, s)

	got, ok := b.Lookup(0x100)
	if !ok || got != e {
		t.Fatal("B did not adopt the trained decode")
	}
	if b.Stats.SharedHits != 1 || b.Stats.Hits != 0 || b.Stats.Misses != 0 {
		t.Errorf("adoption miscounted: %+v", b.Stats)
	}
	// Adopted into B's local table: the next lookup is a plain local hit.
	if _, ok := b.Lookup(0x100); !ok || b.Stats.Hits != 1 || b.Stats.SharedHits != 1 {
		t.Errorf("adopted entry not local: %+v", b.Stats)
	}
	// B's own decodes stay local: the store never grows.
	b.Insert(0x200, &Entry{})
	b.InsertTrace(mkTrace(0x300, 2))
	if s.EntryLen() != 1 || s.TraceLen() != 0 {
		t.Errorf("a VM's inserts reached the frozen store: %d entries, %d traces", s.EntryLen(), s.TraceLen())
	}
}

func TestSharedTraceAdoptionIsSnapshot(t *testing.T) {
	trainer := NewCache(0)
	tr := mkTrace(0x100, 4)
	trainer.InsertTrace(tr)
	s := Freeze(trainer, "img")
	b := NewCacheShared(0, s)
	c := NewCacheShared(0, s)

	bt, ok := b.LookupTrace(0x100)
	if !ok {
		t.Fatal("B did not adopt the trained trace")
	}
	if b.Stats.SharedTraceHits != 1 || b.Stats.TraceMisses != 0 {
		t.Errorf("trace adoption miscounted: %+v", b.Stats)
	}
	if bt == tr {
		t.Fatal("adoption returned the training run's trace, not a snapshot")
	}

	// B's profiling replay backfills only B's copy.
	bt.EnsureDisassembly(nil)
	bt.Entries[0] = nil
	ct, _ := c.LookupTrace(0x100)
	if bt.Insts == nil || ct.Insts != nil {
		t.Error("B's disassembly backfill missing, or visible to C")
	}
	if ct.Entries[0] == nil {
		t.Error("B's entry mutation visible to C (shared backing array)")
	}
	if tr.Entries[0] == nil || tr.Insts != nil {
		t.Error("freezing or adoption mutated the training run's trace")
	}
}

// TestSharedInvalidationStaysLocal: a VM that distrusts an address drops
// it from its own tables and stops consulting the store, so it decodes
// again; the store and every other VM keep what they had.
func TestSharedInvalidationStaysLocal(t *testing.T) {
	s, trained := frozenStore("img")
	a := NewCacheShared(0, s)
	b := NewCacheShared(0, s)
	for _, c := range []*Cache{a, b} {
		if _, ok := c.LookupTrace(0x100); !ok {
			t.Fatal("setup: could not adopt the trained trace")
		}
	}

	a.Invalidate(0x104) // a mid-trace rip: kills a's trace and its decode
	if !a.Unshared() {
		t.Fatal("invalidation left the VM consulting the store")
	}
	if _, ok := a.LookupTrace(0x100); ok {
		t.Error("invalidating VM re-adopted the trace through its distrusted address")
	}
	if _, ok := a.Lookup(0x104); ok {
		t.Error("invalidating VM re-adopted its distrusted decode")
	}
	// a decodes again, privately.
	redecoded := &Entry{Inst: trained[1].Inst, Supported: true}
	a.Insert(0x104, redecoded)
	if got, ok := a.Lookup(0x104); !ok || got != redecoded {
		t.Error("re-decoded entry not served locally")
	}

	if s.EntryLen() != 4 || s.TraceLen() != 1 {
		t.Fatalf("invalidation reached the store: %d entries, %d traces", s.EntryLen(), s.TraceLen())
	}
	if got, _ := s.LookupEntry(0x104); got != trained[1] {
		t.Error("a VM's re-decode replaced the trained entry")
	}
	if b.Unshared() {
		t.Error("another VM's invalidation unshared B")
	}
	if bt, ok := b.LookupTrace(0x100); !ok || bt.Len() != 4 {
		t.Error("another VM's invalidation clobbered B's adopted trace")
	}
	if got, ok := b.Lookup(0x108); !ok || got != trained[2] {
		t.Error("B can no longer adopt trained decodes")
	}

	// InvalidateTraces alone unshares too, even when nothing local died.
	c := NewCacheShared(0, s)
	if n := c.InvalidateTraces(0x104); n != 0 || !c.Unshared() {
		t.Errorf("InvalidateTraces on an empty cache: killed %d, unshared %v", n, c.Unshared())
	}
	if _, ok := c.LookupTrace(0x100); ok {
		t.Error("unshared VM adopted a trace")
	}
}

// TestSharedBindFirstWins: a store is bound to the image it was trained
// on and refuses every other; an empty store serves any image.
func TestSharedBindFirstWins(t *testing.T) {
	img1, img2 := &struct{ n int }{1}, &struct{ n int }{2}
	s, _ := frozenStore(img1)
	if err := s.Check(img1); err != nil {
		t.Fatalf("store refused its own image: %v", err)
	}
	if err := s.Check(img2); err == nil {
		t.Fatal("store trained on one image accepted another")
	}
	empty := NewShared()
	if empty.Check(img1) != nil || empty.Check(img2) != nil {
		t.Error("an empty store refused an image")
	}
}

// TestSharedConcurrentTorture has many goroutines adopt from one frozen
// store while each mutates its own copies the way a profiling replay's
// disassembly backfill, invalidation and re-decoding do. Run under -race
// via make check and make fleet-soak: the store is never written after
// Freeze, so any write the detector sees is a bug. Afterwards the store
// must be exactly as trained, and a fresh adopter must receive the
// traces as trained.
func TestSharedConcurrentTorture(t *testing.T) {
	trainer := NewCache(0)
	for k := 0; k < 8; k++ {
		tr := mkTrace(uint64(0x1000+k*0x40), 4)
		for _, e := range tr.Entries {
			trainer.Insert(e.Inst.Addr, e)
		}
		trainer.InsertTrace(tr)
	}
	s := Freeze(trainer, "img")
	entries, traces := s.EntryLen(), s.TraceLen()

	const goroutines = 8
	const rounds = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewCacheShared(0, s)
			for i := 0; i < rounds; i++ {
				start := uint64(0x1000 + ((i/4+g)%8)*0x40)
				rip := start + uint64(i%4)*4
				switch (i + g) % 4 {
				case 0:
					c.Lookup(rip)
				case 1:
					if tr, ok := c.LookupTrace(start); ok {
						tr.EnsureDisassembly(nil) // a profiling replay's backfill, per-VM
					}
				case 2:
					c.Insert(rip, &Entry{Inst: isa.MakeNullary(isa.NOP)})
				case 3:
					if g%2 == 0 && i > rounds/2 {
						c.Invalidate(rip)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if s.EntryLen() != entries || s.TraceLen() != traces {
		t.Fatalf("store changed size: %d/%d entries, %d/%d traces", s.EntryLen(), entries, s.TraceLen(), traces)
	}
	adopter := NewCacheShared(0, s)
	for k := 0; k < 8; k++ {
		start := uint64(0x1000 + k*0x40)
		tr, ok := adopter.LookupTrace(start)
		if !ok {
			t.Fatalf("trained trace %#x lost", start)
		}
		if tr.Insts != nil {
			t.Errorf("trace %#x carries another VM's disassembly backfill", start)
		}
		for i, e := range tr.Entries {
			if e == nil || e.Inst.Addr != start+uint64(i)*4 {
				t.Fatalf("trace %#x entry %d corrupted by an adopter", start, i)
			}
		}
	}
}

// ------------------------------------------------ lazy disassembly

func TestEnsureDisassemblyBackfills(t *testing.T) {
	tr := mkTrace(0x100, 3)
	tr.Reason = TermUnsupported
	if tr.Insts != nil {
		t.Fatal("mkTrace grew disassembly; test is vacuous")
	}
	fetched := 0
	tr.EnsureDisassembly(func(rip uint64) (string, bool) {
		fetched++
		if rip != tr.EndRIP {
			t.Errorf("terminator fetched at %#x, want EndRIP %#x", rip, tr.EndRIP)
		}
		return "jmp somewhere", true
	})
	if len(tr.Insts) != 4 { // 3 entries + terminator
		t.Fatalf("insts: %v", tr.Insts)
	}
	if tr.Term != "jmp somewhere" || tr.Insts[3] != "jmp somewhere" {
		t.Errorf("terminator not recorded: term=%q insts=%v", tr.Term, tr.Insts)
	}
	if fetched != 1 {
		t.Errorf("terminator fetched %d times", fetched)
	}

	// Idempotent: a second call must not re-disassemble.
	tr.EnsureDisassembly(func(uint64) (string, bool) {
		t.Error("re-disassembled an already-filled trace")
		return "", false
	})
}

func TestEnsureDisassemblyTermLimit(t *testing.T) {
	tr := mkTrace(0x100, 2)
	tr.Reason = TermLimit // EndRIP is past-last-inst, not a terminator
	tr.EnsureDisassembly(func(uint64) (string, bool) {
		t.Error("fetched a terminator for a length-limited sequence")
		return "", false
	})
	if len(tr.Insts) != 2 || tr.Term != "" {
		t.Errorf("insts=%v term=%q", tr.Insts, tr.Term)
	}
}

func TestEnsureDisassemblyFetchFails(t *testing.T) {
	tr := mkTrace(0x100, 2)
	tr.EnsureDisassembly(func(uint64) (string, bool) { return "", false })
	if len(tr.Insts) != 2 || tr.Term != "" {
		t.Errorf("failed terminator fetch must still fill entries: insts=%v term=%q", tr.Insts, tr.Term)
	}
	// Nil fetcher and empty trace are both safe no-ops.
	empty := &Trace{Start: 1}
	empty.EnsureDisassembly(nil)
	if empty.Insts != nil {
		t.Error("empty trace grew disassembly")
	}
}

// TestRecordBackfillsInsts pins the profiling-off-builder → profiling-on-
// observer path: the first observation carries no disassembly (nil), a
// later one does, and the stat keeps it.
func TestRecordBackfillsInsts(t *testing.T) {
	p := NewSeqProfile()
	p.Record(0x100, 4, TermUnsupported, nil, "")
	if st, _ := p.Trace(1); st.Insts != nil {
		t.Fatal("first observation should have no disassembly")
	}
	insts := []string{"addsd", "mulsd", "jmp"}
	p.Record(0x100, 4, TermUnsupported, insts, "jmp")
	st, _ := p.Trace(1)
	if len(st.Insts) != 3 || st.Terminator != "jmp" {
		t.Errorf("backfill failed: insts=%v term=%q", st.Insts, st.Terminator)
	}
	if st.Count != 2 {
		t.Errorf("count %d", st.Count)
	}
	// Established disassembly is never replaced.
	p.Record(0x100, 4, TermUnsupported, []string{"other"}, "other")
	if st, _ := p.Trace(1); len(st.Insts) != 3 {
		t.Error("later observation replaced established disassembly")
	}
}
