// Package checkpoint implements crash-consistent snapshots of the full
// virtual machine for FPVM's rollback supervisor. A snapshot captures
// everything the guest's re-execution can observe: the register file
// (including MXCSR), every writable memory page, the kernel's thread
// table and scheduler position, the stdout watermark, the NaN-box heap
// with live alternative-arithmetic values (deep-copied through
// alt.System's CloneValue hook so later in-place mutation of a live
// value cannot corrupt the image), and the telemetry watermarks the
// runtime needs to rewind its counters.
//
// Snapshots are incremental: the first Save copies every writable page,
// and later Saves overwrite only pages dirtied since (tracked by
// internal/mem's dirty-page set, enabled by New). Page buffers are
// immutable once written, which makes the image trivially fork-safe —
// Clone shares them with the child manager, in the same spirit as the
// trace cache's fork path.
//
// Restore is symmetric: only pages dirtied since the last Save differ
// from the image, so only those are copied back. The snapshot itself is
// never consumed — restore hands out a fresh allocator clone each time,
// so repeated rollbacks to the same checkpoint all see pristine state.
package checkpoint

import (
	"fpvm/internal/heap"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/telemetry"
)

// Snapshot is one crash-consistent VM image. All fields are effectively
// immutable after Save: page buffers are freshly allocated and never
// written again, the allocator is an isolated clone that Restore clones
// again before handing out, and the rest are value copies.
type Snapshot struct {
	CPU       machine.CPU
	Threads   kernel.ThreadState
	StdoutLen int
	Tel       telemetry.Breakdown

	// Extra carries opaque caller state (the FPVM runtime's own counter
	// watermarks) by value.
	Extra any

	pages map[uint64][]byte // page start address -> immutable page copy
	alloc *heap.Allocator   // isolated heap image (values deep-copied)
}

// Manager owns the snapshot for one address space. It is not safe for
// concurrent use (the trap handler is single-threaded per process).
type Manager struct {
	as   *mem.AddressSpace
	snap *Snapshot

	// Saves and Restores count successful operations.
	Saves    uint64
	Restores uint64
}

// New returns a manager bound to as and enables dirty-page tracking so
// subsequent saves and restores are incremental.
func New(as *mem.AddressSpace) *Manager {
	as.EnableDirtyTracking()
	return &Manager{as: as}
}

// Has reports whether a snapshot exists to roll back to.
func (m *Manager) Has() bool { return m != nil && m.snap != nil }

// Snapshot returns the current image (nil if none was saved yet).
func (m *Manager) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	return m.snap
}

// Save captures a crash-consistent snapshot: cpu is the register file at
// the consistency point (a trap boundary, before any emulation mutated
// it), p supplies the thread table and stdout, alloc is the live box
// heap, and cloneVal isolates generic alt-system values (pass the
// alt.System's CloneValue). tel and extra are counter watermarks
// restored verbatim on rollback.
func (m *Manager) Save(cpu machine.CPU, p *kernel.Process, alloc *heap.Allocator,
	cloneVal func(any) any, tel telemetry.Breakdown, extra any) {

	snap := &Snapshot{
		CPU:       cpu,
		Threads:   p.SnapshotThreads(),
		StdoutLen: p.Stdout.Len(),
		Tel:       tel,
		Extra:     extra,
		alloc:     alloc.CloneWith(cloneVal),
	}

	if m.snap == nil {
		// Full image: every writable page.
		snap.pages = make(map[uint64][]byte)
		for _, pa := range m.as.WritablePages() {
			snap.pages[pa] = copyPage(m.as, pa)
		}
	} else {
		// Incremental: start from the previous image (buffers are
		// immutable, so sharing them is safe) and overlay dirty pages.
		snap.pages = make(map[uint64][]byte, len(m.snap.pages))
		for pa, buf := range m.snap.pages {
			snap.pages[pa] = buf
		}
		for _, pa := range m.as.DirtyPages() {
			if buf := copyPage(m.as, pa); buf != nil {
				snap.pages[pa] = buf
			} else {
				delete(snap.pages, pa) // page unmapped since last save
			}
		}
	}

	m.as.ResetDirty()
	m.snap = snap
	m.Saves++
}

// Restore rewinds the VM to the last snapshot: memory pages dirtied
// since the save are copied back, the thread table and stdout watermark
// are reinstated, and a fresh isolated clone of the snapshot's heap is
// returned along with the register file and telemetry watermarks to
// reinstall. The snapshot remains valid for further restores.
//
// Restore panics with a diagnostic if no snapshot was ever saved —
// rewinding to nothing would hand back a zero CPU and a nil heap, which
// is never recoverable. Callers must check Has() first.
func (m *Manager) Restore(p *kernel.Process, cloneVal func(any) any) (
	cpu machine.CPU, alloc *heap.Allocator, tel telemetry.Breakdown, extra any) {

	snap := m.snap
	if snap == nil {
		panic("checkpoint: Restore called with no saved snapshot (check Has() first)")
	}
	for _, pa := range m.as.DirtyPages() {
		if !m.as.Mapped(pa) {
			continue // dirtied then unmapped; nothing to rewind
		}
		if buf, ok := snap.pages[pa]; ok {
			// Through OverwritePage, never into PageData's bytes: an
			// untouched page's are the shared zero page.
			m.as.OverwritePage(pa, buf)
		}
	}
	m.as.ResetDirty() // memory now equals the image again

	p.RestoreThreads(snap.Threads)
	if snap.StdoutLen < p.Stdout.Len() {
		p.Stdout.Truncate(snap.StdoutLen)
	}
	m.Restores++
	return snap.CPU, snap.alloc.CloneWith(cloneVal), snap.Tel, snap.Extra
}

// Clone returns a manager for a forked child bound to the child's
// address space (whose dirty set mem.AddressSpace.Clone already copied).
// The snapshot is shared: its page buffers and heap image are immutable,
// and each side's Restore clones the heap before use, so parent and
// child can both roll back to it without aliasing.
func (m *Manager) Clone(as *mem.AddressSpace) *Manager {
	if m == nil {
		return nil
	}
	as.EnableDirtyTracking()
	return &Manager{as: as, snap: m.snap, Saves: m.Saves, Restores: m.Restores}
}

// copyPage returns a fresh copy of the page at pa, or nil if unmapped.
func copyPage(as *mem.AddressSpace, pa uint64) []byte {
	data, ok := as.PageData(pa)
	if !ok {
		return nil
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	return buf
}
