// Suspend/resume: the runtime can dump the entire VM — guest-visible
// architectural state plus the virtualization state that determines
// future cycle accounting and trap boundaries — into a checkpoint wire
// image at an event boundary, and reinstall such an image into a freshly
// constructed VM. Resumption is exact: a resumed run's stdout, trap
// stream and final architectural state are bit-identical to the
// uninterrupted run's, which the kill-resume harness enforces.

package fpvm

import (
	"bytes"
	"fmt"
	"sort"

	"fpvm/internal/alt"
	"fpvm/internal/checkpoint"
	"fpvm/internal/dcache"
	"fpvm/internal/heap"
	"fpvm/internal/mem"
)

// zeroPage is what CaptureImage compares each writable page against.
var zeroPage [mem.PageSize]byte

// Codec returns the alt system's value codec, or an error if the system
// cannot serialize its values (suspension is then impossible).
func (r *Runtime) valueCodec() (alt.Codec, error) {
	if c, ok := r.Cfg.Alt.(alt.Codec); ok {
		return c, nil
	}
	return nil, fmt.Errorf("fpvm: alt system %q has no value codec; cannot serialize the heap",
		r.Cfg.Alt.Name())
}

// CanSuspend reports whether the configured alt system supports heap
// serialization.
func (r *Runtime) CanSuspend() bool {
	_, ok := r.Cfg.Alt.(alt.Codec)
	return ok
}

// CaptureImage serializes the suspended VM into a wire image. It must be
// called at an event boundary (between kernel.Process.Step calls): no
// trap is in flight, so machine.CPU is the authoritative register file.
func (r *Runtime) CaptureImage(imageHash [32]byte, configSig string, steps uint64) (*checkpoint.Image, error) {
	codec, err := r.valueCodec()
	if err != nil {
		return nil, err
	}
	hp, err := r.alloc.Capture(func(v any) ([]byte, error) { return codec.EncodeValue(v) })
	if err != nil {
		return nil, err
	}

	// An all-zero page travels as its address alone: most writable pages
	// of a suspended guest (an untouched stack, an unused heap) are zero,
	// and restore zero-fills them. A page the guest never wrote is not
	// even compared.
	as := r.p.M.Mem
	writable := as.WritablePages()
	pages := make([]checkpoint.Page, 0, len(writable))
	for _, pa := range writable {
		pg := checkpoint.Page{Addr: pa}
		if as.Allocated(pa) {
			if data, _ := as.PageData(pa); !bytes.Equal(data, zeroPage[:]) {
				pg.Data = append([]byte(nil), data...)
			}
		}
		pages = append(pages, pg)
	}

	img := &checkpoint.Image{
		ImageHash: imageHash,
		AltName:   r.Cfg.Alt.Name(),
		ConfigSig: configSig,

		CPU:     r.m.CPU,
		Threads: r.p.SnapshotThreads(),
		Stdout:  append([]byte(nil), r.p.Stdout.Bytes()...),
		Steps:   steps,

		MachCycles:         r.m.Cycles,
		MachInstructions:   r.m.Instructions,
		MachFPInstructions: r.m.FPInstructions,
		KernelStats:        r.p.K.Stats,
		Tel:                r.Tel,

		Heap:  hp,
		Pages: pages,

		Cache: r.captureCache(),
		RT:    r.captureRT(),
	}
	return img, nil
}

func (r *Runtime) captureCache() checkpoint.CacheImage {
	ci := checkpoint.CacheImage{
		EntryRIPs: r.cache.EntryRIPs(),
		Stats:     r.cache.Stats,
		Unshared:  r.cache.Unshared(),
	}
	for _, t := range r.cache.TracesInOrder() {
		ti := checkpoint.TraceImage{
			Start:  t.Start,
			EndRIP: t.EndRIP,
			Reason: uint8(t.Reason),
		}
		for _, e := range t.Entries {
			ti.EntryRIPs = append(ti.EntryRIPs, e.Inst.Addr)
		}
		ci.Traces = append(ci.Traces, ti)
	}
	return ci
}

func (r *Runtime) captureRT() checkpoint.RuntimeImage {
	ri := checkpoint.RuntimeImage{
		Promotions:     r.Promotions,
		Demotions:      r.Demotions,
		Boxes:          r.Boxes,
		GCRuns:         r.GCRuns,
		SeqLimitHit:    r.SeqLimitHit,
		ThreadContexts: r.ThreadContexts,

		Retries:          r.Retries,
		Degradations:     r.Degradations,
		HeapFullDegrades: r.HeapFullDegrades,
		GCSkips:          r.GCSkips,
		PanicRecoveries:  r.PanicRecoveries,
		WatchdogAborts:   r.WatchdogAborts,
		FatalDetaches:    r.FatalDetaches,
		Aborted:          r.Aborted,

		Checkpoints:      r.Checkpoints,
		Rollbacks:        r.Rollbacks,
		RollbackFailures: r.RollbackFailures,
		Quarantines:      r.Quarantines,

		Detached:     r.detached,
		CkptInterval: r.ckptInterval,
	}
	for rip := range r.quarantined {
		ri.Quarantined = append(ri.Quarantined, rip)
	}
	sort.Slice(ri.Quarantined, func(i, j int) bool { return ri.Quarantined[i] < ri.Quarantined[j] })
	return ri
}

// RestoreImage reinstalls a wire image into a freshly constructed (and
// loaded) VM: every writable page is overwritten (a page recorded without
// data is zero-filled), the register file, thread table, stdout prefix,
// heap, caches and counters are reinstated, and the instruction cache is
// invalidated. The caller is responsible for having validated the
// image's bindings first.
func (r *Runtime) RestoreImage(img *checkpoint.Image) error {
	codec, err := r.valueCodec()
	if err != nil {
		return err
	}
	alloc, err := heap.FromImage(img.Heap, func(b []byte) (any, error) { return codec.DecodeValue(b) })
	if err != nil {
		return err
	}
	alloc.Threshold = r.alloc.Threshold
	alloc.MaxLive = r.alloc.MaxLive

	as := r.p.M.Mem
	for _, pg := range img.Pages {
		if len(pg.Data) != 0 && len(pg.Data) != mem.PageSize {
			return fmt.Errorf("fpvm: snapshot page %#x has %d bytes", pg.Addr, len(pg.Data))
		}
		as.OverwritePage(pg.Addr, pg.Data) // no data: a zero page
	}
	r.m.InvalidateICache()

	// CPU first, then the thread table: restoring a non-empty table
	// reinstates the current thread's registers into machine.CPU itself.
	r.m.CPU = img.CPU
	r.p.RestoreThreads(img.Threads)

	r.p.Stdout.Reset()
	r.p.Stdout.Write(img.Stdout)

	r.alloc = alloc
	r.Tel = img.Tel
	r.m.Cycles = img.MachCycles
	r.m.Instructions = img.MachInstructions
	r.m.FPInstructions = img.MachFPInstructions
	r.p.K.Stats = img.KernelStats

	if err := r.restoreCache(&img.Cache); err != nil {
		return err
	}
	r.restoreRT(&img.RT)
	return nil
}

func (r *Runtime) restoreRT(ri *checkpoint.RuntimeImage) {
	r.Promotions = ri.Promotions
	r.Demotions = ri.Demotions
	r.Boxes = ri.Boxes
	r.GCRuns = ri.GCRuns
	r.SeqLimitHit = ri.SeqLimitHit
	r.ThreadContexts = ri.ThreadContexts

	r.Retries = ri.Retries
	r.Degradations = ri.Degradations
	r.HeapFullDegrades = ri.HeapFullDegrades
	r.GCSkips = ri.GCSkips
	r.PanicRecoveries = ri.PanicRecoveries
	r.WatchdogAborts = ri.WatchdogAborts
	r.FatalDetaches = ri.FatalDetaches
	r.Aborted = ri.Aborted

	r.Checkpoints = ri.Checkpoints
	r.Rollbacks = ri.Rollbacks
	r.RollbackFailures = ri.RollbackFailures
	r.Quarantines = ri.Quarantines

	r.detached = ri.Detached
	if len(ri.Quarantined) > 0 {
		if r.quarantined == nil {
			r.quarantined = make(map[uint64]bool, len(ri.Quarantined))
		}
		for _, rip := range ri.Quarantined {
			r.quarantined[rip] = true
		}
	}

	// The in-memory rollback snapshot does not survive the process; a
	// resumed run re-establishes it at its next trap.
	if r.ckpt != nil {
		if ri.CkptInterval > 0 {
			r.ckptInterval = ri.CkptInterval
		}
		r.trapsSince = r.ckptInterval
	}
}

// restoreCache rebuilds both cache levels from their recorded shape.
// Entries are re-decoded from restored guest memory — deterministic, and
// charged to nobody: the suspended run already paid the decode cycles,
// which the restored telemetry carries.
func (r *Runtime) restoreCache(ci *checkpoint.CacheImage) error {
	rebuild := func(rip uint64) (*dcache.Entry, error) {
		in, err := r.m.FetchDecode(rip)
		if err != nil {
			return nil, fmt.Errorf("fpvm: rebuilding decode cache at %#x: %w", rip, err)
		}
		cls := classify(in.Op)
		return &dcache.Entry{Inst: in, Supported: cls != classUnsupported, Class: uint8(cls)}, nil
	}
	for _, rip := range ci.EntryRIPs {
		e, err := rebuild(rip)
		if err != nil {
			return err
		}
		r.cache.Insert(rip, e)
	}
	for _, ti := range ci.Traces {
		t := &dcache.Trace{
			Start:  ti.Start,
			EndRIP: ti.EndRIP,
			Reason: dcache.TermReason(ti.Reason),
		}
		for _, rip := range ti.EntryRIPs {
			e, err := rebuild(rip)
			if err != nil {
				return err
			}
			t.Entries = append(t.Entries, e)
		}
		r.cache.InsertTrace(t)
	}
	// Reinstate the suspended run's cache statistics after the rebuild so
	// the Insert calls above leave no trace in them.
	r.cache.Stats = ci.Stats
	if ci.Unshared {
		r.cache.Unshare()
	}
	return nil
}
