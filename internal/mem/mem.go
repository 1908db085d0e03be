// Package mem implements the simulated paged virtual memory used by the
// machine, the kernel, and FPVM's conservative garbage collector (which
// scans all writable pages for NaN-boxed references, as in §2.5 of the
// paper).
//
// A mapped page gets its own bytes on its first write. Until then it is
// untouched: every read of it, by the guest or the host, sees one shared
// zero page, which nothing ever writes — every write path gives the page
// bytes of its own first, so no address space can observe another's
// writes through it. Allocation is host-side only: an untouched page is
// mapped, protected, cloned, scanned and captured exactly as an
// allocated page holding zeros.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// PageSize is the size of a virtual page in bytes.
const PageSize = 4096

// PageMask extracts the offset within a page.
const PageMask = PageSize - 1

// Perm is a page permission bitmask.
type Perm uint8

const (
	PermRead  Perm = 1 << 0
	PermWrite Perm = 1 << 1
	PermExec  Perm = 1 << 2

	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// FaultKind classifies a memory fault.
type FaultKind uint8

const (
	FaultUnmapped FaultKind = iota
	FaultProtection
)

// Fault is returned for invalid accesses; the kernel turns it into the
// simulated process dying (there is no demand paging in this model).
type Fault struct {
	Addr uint64
	Kind FaultKind
	Want Perm
}

func (f *Fault) Error() string {
	k := "unmapped"
	if f.Kind == FaultProtection {
		k = "protection"
	}
	return fmt.Sprintf("mem: %s fault at %#x (want %s)", k, f.Addr, f.Want)
}

type page struct {
	data *[PageSize]byte // &zeroPage until the page's first write
	perm Perm
}

// zeroPage backs every untouched page. It is only ever read.
var zeroPage [PageSize]byte

// newPage returns an untouched page.
func newPage(perm Perm) *page { return &page{data: &zeroPage, perm: perm} }

// allocated reports whether p has bytes of its own.
func (p *page) allocated() bool { return p.data != &zeroPage }

// own gives p bytes of its own, if it has none yet, and returns them.
func (p *page) own() *[PageSize]byte {
	if p.data == &zeroPage {
		p.data = new([PageSize]byte)
	}
	return p.data
}

// tlbSize is the number of entries in an address space's page TLB (a
// power of two; see tlbSlot).
const tlbSize = 64

// tlbSlot returns the TLB entry that caches page number pn. The segment
// bases are 2 MiB-aligned (512 pages), so the low bits of the page
// number alone would put the first page of .text, .rodata, .data and the
// heap in one slot; folding in the 2 MiB region number gives each its
// own.
func tlbSlot(pn uint64) uint64 { return (pn ^ pn>>9) % tlbSize }

// tlbEntry caches one page-number translation; p is nil when empty. r
// and w are the machine's fast path (Readable, Writable): the page's
// bytes when it is readable, and when it is writable and allocated; nil
// otherwise.
type tlbEntry struct {
	pn   uint64
	p    *page
	r, w *[PageSize]byte
}

// AddressSpace is a sparse paged address space. The zero value is an empty
// address space ready to use. It is not safe for concurrent use: even a
// read refills the page TLB.
type AddressSpace struct {
	pages map[uint64]*page // keyed by addr >> 12

	// tlb is a direct-mapped cache of pages in front of the pages map.
	// It is a host-side cache with no virtual-cycle cost. Every change
	// to a page's permissions, its bytes pointer or its presence
	// invalidates the page's entry.
	tlb [tlbSize]tlbEntry

	// regions records Map calls for introspection ([name, start, size]).
	regions []Region
}

// Region describes a mapped region (for debugging and /proc-like listings).
type Region struct {
	Name  string
	Start uint64
	Size  uint64
	Perm  Perm
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]*page)}
}

// Map creates pages covering [addr, addr+size) with the given permissions.
// addr and size are rounded out to page boundaries. New pages are
// untouched: they get bytes of their own on their first write. Mapping
// over an existing page replaces its permissions but preserves its
// contents.
func (as *AddressSpace) Map(name string, addr, size uint64, perm Perm) {
	if as.pages == nil {
		as.pages = make(map[uint64]*page)
	}
	first := addr / PageSize
	last := (addr + size + PageSize - 1) / PageSize
	for pn := first; pn < last; pn++ {
		if p, ok := as.pages[pn]; ok {
			p.perm = perm
			as.invalidate(pn)
		} else {
			as.pages[pn] = newPage(perm)
		}
	}
	as.regions = append(as.regions, Region{Name: name, Start: addr, Size: size, Perm: perm})
}

// Unmap removes pages covering [addr, addr+size).
func (as *AddressSpace) Unmap(addr, size uint64) {
	first := addr / PageSize
	last := (addr + size + PageSize - 1) / PageSize
	for pn := first; pn < last; pn++ {
		delete(as.pages, pn)
		as.invalidate(pn)
	}
}

// invalidate drops page pn's TLB entry, if it has one.
func (as *AddressSpace) invalidate(pn uint64) {
	if e := &as.tlb[tlbSlot(pn)]; e.pn == pn {
		*e = tlbEntry{}
	}
}

// Protect changes permissions on pages covering [addr, addr+size).
func (as *AddressSpace) Protect(addr, size uint64, perm Perm) error {
	first := addr / PageSize
	last := (addr + size + PageSize - 1) / PageSize
	for pn := first; pn < last; pn++ {
		p, ok := as.pages[pn]
		if !ok {
			return &Fault{Addr: pn * PageSize, Kind: FaultUnmapped, Want: perm}
		}
		p.perm = perm
		as.invalidate(pn)
	}
	return nil
}

// Regions returns the recorded mapping history.
func (as *AddressSpace) Regions() []Region { return as.regions }

// Mapped reports whether addr is backed by a page, allocated or not.
func (as *AddressSpace) Mapped(addr uint64) bool {
	_, ok := as.pages[addr/PageSize]
	return ok
}

// Allocated reports whether the page containing addr is mapped and has
// bytes of its own: it has been written since it was mapped. An
// untouched page reads as zeros.
func (as *AddressSpace) Allocated(addr uint64) bool {
	p, ok := as.pages[addr/PageSize]
	return ok && p.allocated()
}

// lookup returns the page containing addr after checking want against
// its permissions, refilling the TLB on a miss. A write must take the
// page's bytes through writable.
func (as *AddressSpace) lookup(addr uint64, want Perm) (*page, error) {
	pn := addr / PageSize
	e := &as.tlb[tlbSlot(pn)]
	p := e.p
	if p == nil || e.pn != pn {
		var ok bool
		if p, ok = as.pages[pn]; !ok {
			return nil, &Fault{Addr: addr, Kind: FaultUnmapped, Want: want}
		}
		as.fill(e, pn, p)
	}
	if p.perm&want != want {
		return nil, &Fault{Addr: addr, Kind: FaultProtection, Want: want}
	}
	return p, nil
}

// fill points TLB entry e at page p, number pn.
func (as *AddressSpace) fill(e *tlbEntry, pn uint64, p *page) {
	*e = tlbEntry{pn: pn, p: p}
	if p.perm&PermRead != 0 {
		e.r = p.data
	}
	if p.perm&PermWrite != 0 && p.allocated() {
		e.w = p.data
	}
}

// writable returns the bytes of page p, number pn, for a write that
// passed its permission check: its own, allocated on the page's first
// write (which refills its TLB entry).
func (as *AddressSpace) writable(pn uint64, p *page) *[PageSize]byte {
	if !p.allocated() {
		p.own()
		if e := &as.tlb[tlbSlot(pn)]; e.pn == pn {
			as.fill(e, pn, p)
		}
	}
	return p.data
}

// Readable returns the bytes of the page containing addr when the page
// TLB holds that page readable, and nil otherwise. It is the machine's
// fast path for loads: on nil, the Read methods take the access path,
// which refills the TLB or reports the fault.
func (as *AddressSpace) Readable(addr uint64) *[PageSize]byte {
	pn := addr / PageSize
	if e := &as.tlb[tlbSlot(pn)]; e.pn == pn {
		return e.r
	}
	return nil
}

// Writable is Readable for stores: the page's own bytes when the TLB
// holds it writable and allocated, so that a store in place needs
// nothing more; nil otherwise, and the Write methods take the access
// path, which allocates the page on its first write, refills the TLB or
// reports the fault.
func (as *AddressSpace) Writable(addr uint64) *[PageSize]byte {
	pn := addr / PageSize
	if e := &as.tlb[tlbSlot(pn)]; e.pn == pn {
		return e.w
	}
	return nil
}

// Read copies len(buf) bytes from addr into buf, honoring PermRead.
func (as *AddressSpace) Read(addr uint64, buf []byte) error {
	return as.access(addr, buf, PermRead, false)
}

// Write copies buf to addr, honoring PermWrite.
func (as *AddressSpace) Write(addr uint64, buf []byte) error {
	return as.access(addr, buf, PermWrite, true)
}

// Fetch copies len(buf) bytes from addr honoring PermExec (instruction
// fetch). Short fetches at the end of a mapped region succeed and report
// the number of valid bytes.
func (as *AddressSpace) Fetch(addr uint64, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		p, err := as.lookup(addr+uint64(n), PermExec)
		if err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		off := (addr + uint64(n)) & PageMask
		c := copy(buf[n:], p.data[off:])
		n += c
	}
	return n, nil
}

func (as *AddressSpace) access(addr uint64, buf []byte, want Perm, write bool) error {
	n := 0
	for n < len(buf) {
		p, err := as.lookup(addr+uint64(n), want)
		if err != nil {
			return err
		}
		off := (addr + uint64(n)) & PageMask
		if write {
			data := as.writable((addr+uint64(n))/PageSize, p)
			n += copy(data[off:], buf[n:])
		} else {
			n += copy(buf[n:], p.data[off:])
		}
	}
	return nil
}

// inPage returns the n bytes at addr straight from their page's backing
// array, after the permission check (a write gives the page its own
// bytes first).
// It returns nil and no error when the access straddles a page boundary.
func (as *AddressSpace) inPage(addr uint64, n int, want Perm) ([]byte, error) {
	off := addr & PageMask
	if off+uint64(n) > PageSize {
		return nil, nil
	}
	p, err := as.lookup(addr, want)
	if err != nil {
		return nil, err
	}
	data := p.data
	if want&PermWrite != 0 {
		data = as.writable(addr/PageSize, p)
	}
	return data[off : off+uint64(n)], nil
}

// load reads the little-endian n-byte (1, 2, 4 or 8) value at addr: in
// place when it fits in one page, through access when it straddles.
func (as *AddressSpace) load(addr uint64, n int) (uint64, error) {
	b, err := as.inPage(addr, n, PermRead)
	if err != nil {
		return 0, err
	}
	var tmp [8]byte
	if b == nil {
		b = tmp[:n]
		if err := as.access(addr, b, PermRead, false); err != nil {
			return 0, err
		}
	}
	switch n {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	}
	return binary.LittleEndian.Uint64(b), nil
}

// store writes v as a little-endian n-byte (1, 2, 4 or 8) value at addr:
// in place when it fits in one page, through access when it straddles.
func (as *AddressSpace) store(addr uint64, n int, v uint64) error {
	b, err := as.inPage(addr, n, PermWrite)
	if err != nil {
		return err
	}
	var tmp [8]byte
	straddles := b == nil
	if straddles {
		b = tmp[:n]
	}
	switch n {
	case 1:
		b[0] = uint8(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
	if straddles {
		return as.access(addr, b, PermWrite, true)
	}
	return nil
}

// ReadUint64 reads a little-endian uint64 at addr.
func (as *AddressSpace) ReadUint64(addr uint64) (uint64, error) { return as.load(addr, 8) }

// WriteUint64 writes a little-endian uint64 at addr.
func (as *AddressSpace) WriteUint64(addr uint64, v uint64) error { return as.store(addr, 8, v) }

// ReadUint32 reads a little-endian uint32 at addr.
func (as *AddressSpace) ReadUint32(addr uint64) (uint32, error) {
	v, err := as.load(addr, 4)
	return uint32(v), err
}

// WriteUint32 writes a little-endian uint32 at addr.
func (as *AddressSpace) WriteUint32(addr uint64, v uint32) error { return as.store(addr, 4, uint64(v)) }

// ReadUint16 reads a little-endian uint16 at addr.
func (as *AddressSpace) ReadUint16(addr uint64) (uint16, error) {
	v, err := as.load(addr, 2)
	return uint16(v), err
}

// WriteUint16 writes a little-endian uint16 at addr.
func (as *AddressSpace) WriteUint16(addr uint64, v uint16) error { return as.store(addr, 2, uint64(v)) }

// ReadUint8 reads a byte at addr.
func (as *AddressSpace) ReadUint8(addr uint64) (uint8, error) {
	v, err := as.load(addr, 1)
	return uint8(v), err
}

// WriteUint8 writes a byte at addr.
func (as *AddressSpace) WriteUint8(addr uint64, v uint8) error { return as.store(addr, 1, uint64(v)) }

// WritablePages returns the sorted start addresses of all writable
// pages, allocated or untouched. FPVM's conservative mark phase is
// charged for exactly these.
func (as *AddressSpace) WritablePages() []uint64 {
	var out []uint64
	for pn, p := range as.pages {
		if p.perm&PermWrite != 0 {
			out = append(out, pn*PageSize)
		}
	}
	slices.Sort(out)
	return out
}

// ScanWritable calls fn with the bytes of every allocated writable page,
// in no particular order, and returns the number of writable pages
// mapped, allocated or not: an untouched page reads as zeros, so fn never
// sees one. Unlike WritablePages it builds and sorts no list, for
// callers whose result does not depend on page order. fn must only read.
func (as *AddressSpace) ScanWritable(fn func(data *[PageSize]byte)) int {
	n := 0
	for _, p := range as.pages {
		if p.perm&PermWrite == 0 {
			continue
		}
		n++
		if p.allocated() {
			fn(p.data)
		}
	}
	return n
}

// PageData returns the bytes of the page containing addr, for reading
// only: an untouched page returns the shared zero page, which must never
// be written (OverwritePage and the Write methods give a page bytes of
// its own). ok is false if the page is unmapped.
func (as *AddressSpace) PageData(addr uint64) ([]byte, bool) {
	p, ok := as.pages[addr/PageSize]
	if !ok {
		return nil, false
	}
	return p.data[:], true
}

// OverwritePage replaces the contents of the page at addr (page-aligned)
// with data, bypassing permission checks — the snapshot-restore paths use
// it, and restores must not be subject to guest page protections. The
// page is mapped read-write if absent. data longer than a page is
// truncated; shorter data zero-fills the remainder. Nil data leaves the
// page untouched, dropping any bytes it had, so a restored VM allocates
// only the pages its snapshot holds data for.
func (as *AddressSpace) OverwritePage(addr uint64, data []byte) {
	if as.pages == nil {
		as.pages = make(map[uint64]*page)
	}
	pn := addr / PageSize
	p, ok := as.pages[pn]
	if !ok {
		p = newPage(PermRW)
		as.pages[pn] = p
	}
	if data == nil {
		p.data = &zeroPage
	} else {
		n := copy(p.own()[:], data)
		clear(p.data[n:])
	}
	as.invalidate(pn)
}

// PageCount returns the number of mapped pages.
func (as *AddressSpace) PageCount() int { return len(as.pages) }

// Clone returns a deep copy of the address space (fork()).
func (as *AddressSpace) Clone() *AddressSpace {
	out := NewAddressSpace()
	for pn, p := range as.pages {
		cp := newPage(p.perm)
		if p.allocated() {
			*cp.own() = *p.data
		}
		out.pages[pn] = cp
	}
	out.regions = append(out.regions, as.regions...)
	return out
}
