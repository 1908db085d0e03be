package dcache

// SharedCache is a frozen decode/trace store for one program image. It is
// built once, by Freeze, from the cache of a single training run, and
// nothing writes to it afterwards: any number of VMs may read it
// concurrently without locks. A per-VM Cache backed by a store adopts
// from it on a local miss — a decode entry by pointer (entries are
// immutable, and carry their steps), a trace as its own copy — and keeps
// every insertion and invalidation local. Because the store never
// changes, a VM's virtual cycles depend only on its image, its
// configuration and the store's training run, never on which VMs ran
// before it or alongside it.
//
// Validity: entries and traces are pre-decoded from a specific program
// image, so a store is tagged with the image it was trained on and Check
// refuses any other. An empty store (NewShared) has no tag and behaves
// like no store at all.

import "fmt"

// SharedCache is safe for concurrent use: it is read-only once built.
type SharedCache struct {
	image   any
	entries map[uint64]*Entry
	traces  map[uint64]*Trace
}

// NewShared returns an empty store that serves any image. A cache backed
// by it behaves exactly like a private cache.
func NewShared() *SharedCache { return &SharedCache{} }

// Freeze builds the store for image from c, the cache of a finished
// training run: its decode entries (immutable, so shared by pointer) and
// copies of its traces. Nothing c does afterwards reaches the store.
func Freeze(c *Cache, image any) *SharedCache {
	s := &SharedCache{
		image:   image,
		entries: make(map[uint64]*Entry, len(c.entries)),
		traces:  make(map[uint64]*Trace, len(c.traces)),
	}
	for rip, e := range c.entries {
		s.entries[rip] = e
	}
	for start, t := range c.traces {
		s.traces[start] = t.snapshot()
	}
	return s
}

// Check reports whether VMs running image may use the store: a store
// trained on one image refuses every other.
func (s *SharedCache) Check(image any) error {
	if s.image != nil && s.image != image {
		return fmt.Errorf("dcache: shared cache was trained on a different image (one shared cache per distinct image)")
	}
	return nil
}

// LookupEntry returns the trained decode for rip, if present.
func (s *SharedCache) LookupEntry(rip uint64) (*Entry, bool) {
	e, ok := s.entries[rip]
	return e, ok
}

// LookupTrace returns the trained trace starting at start. It is the
// store's own copy: callers must snapshot it before replaying (the
// per-VM Cache.LookupTrace adoption path does).
func (s *SharedCache) LookupTrace(start uint64) (*Trace, bool) {
	t, ok := s.traces[start]
	return t, ok
}

// EntryLen returns the number of trained decode entries.
func (s *SharedCache) EntryLen() int { return len(s.entries) }

// TraceLen returns the number of trained traces.
func (s *SharedCache) TraceLen() int { return len(s.traces) }
