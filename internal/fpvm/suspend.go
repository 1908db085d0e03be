// Suspend/resume: the runtime can dump the entire VM — guest-visible
// architectural state plus the virtualization state that determines
// future cycle accounting and trap boundaries — into a checkpoint wire
// image at an event boundary, and reinstall such an image into a freshly
// constructed VM. Resumption is exact: a resumed run's stdout, trap
// stream and final architectural state are bit-identical to the
// uninterrupted run's, which the kill-resume harness enforces.
//
// The guest-visible half of that image (captureState, restoreState) is
// also the rollback supervisor's checkpoint (rollback.go): one capture
// and one restore of guest state serve both.

package fpvm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"fpvm/internal/alt"
	"fpvm/internal/checkpoint"
	"fpvm/internal/dcache"
	"fpvm/internal/heap"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
)

// zeroPage is what captureState compares each writable page against.
var zeroPage [mem.PageSize]byte

// errPolicySites refuses to suspend a precision-policy run: the engine's
// per-site tier table is not part of the image, so a resumed run would
// start every site over at the boxed tier.
var errPolicySites = errors.New("fpvm: a precision-policy run cannot be suspended: its per-site tier table is not in the snapshot image")

// valueCodec returns the alt system's value codec, or an error if the
// system cannot serialize its values (no image can then hold its heap).
func (r *Runtime) valueCodec() (alt.Codec, error) {
	if c, ok := r.Cfg.Alt.(alt.Codec); ok {
		return c, nil
	}
	return nil, fmt.Errorf("fpvm: alt system %q has no value codec; cannot serialize the heap",
		r.Cfg.Alt.Name())
}

// suspendErr reports why the VM cannot be suspended into a wire image:
// the precision policy's site table is not in it, and a system without a
// value codec cannot serialize its heap.
func (r *Runtime) suspendErr() error {
	if r.pol != nil {
		return errPolicySites
	}
	_, err := r.valueCodec()
	return err
}

// CanSuspend reports whether the VM can be suspended into a wire image:
// its alt system has a value codec and it is not a precision-policy run.
func (r *Runtime) CanSuspend() bool { return r.suspendErr() == nil }

// captureState records what the guest can observe: cpu (the register
// file at the capture point, which lives in machine.CPU between steps and
// in the trap's ucontext inside a handler), the thread table, stdout, the
// writable pages (an all-zero page as its address alone), the heap (each
// generic value through the alt system's codec) and the telemetry. The
// image shares nothing with the running VM.
func (r *Runtime) captureState(cpu machine.CPU) (*checkpoint.Image, error) {
	codec, err := r.valueCodec()
	if err != nil {
		return nil, err
	}
	hp, err := r.alloc.Capture(func(v any) ([]byte, error) { return codec.EncodeValue(v) })
	if err != nil {
		return nil, err
	}

	// Most writable pages of a guest (an untouched stack, an unused heap)
	// are zero, and restore zero-fills them. A page the guest never wrote
	// is not even compared.
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

	return &checkpoint.Image{
		CPU:     cpu,
		Threads: r.p.SnapshotThreads(),
		Stdout:  append([]byte(nil), r.p.Stdout.Bytes()...),
		Tel:     r.Tel,
		Heap:    hp,
		Pages:   pages,
	}, nil
}

// restoreState reinstalls what captureState recorded, except the
// register file and the telemetry, which each caller installs its own
// way: every recorded page is overwritten (a page without data is
// zero-filled), and the thread table, stdout and heap are reinstated.
// The image is only read, so it can be restored any number of times,
// and by a fork child as well as its parent. The heap is decoded before
// anything changes, so a heap that fails to decode leaves the VM as it
// was.
func (r *Runtime) restoreState(img *checkpoint.Image) error {
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
	r.p.RestoreThreads(img.Threads)
	r.p.Stdout.Reset()
	r.p.Stdout.Write(img.Stdout)
	r.alloc = alloc
	return nil
}

// CaptureImage serializes the suspended VM into a wire image. It must be
// called at an event boundary (between kernel.Process.Step calls): no
// trap is in flight, so machine.CPU is the authoritative register file.
// The image completes captureState's with its bindings, the machine and
// kernel counters, the cache shape and the runtime's counters.
func (r *Runtime) CaptureImage(imageHash [32]byte, configSig string, steps uint64) (*checkpoint.Image, error) {
	if err := r.suspendErr(); err != nil {
		return nil, err
	}
	img, err := r.captureState(r.m.CPU)
	if err != nil {
		return nil, err
	}
	img.ImageHash = imageHash
	img.AltName = r.Cfg.Alt.Name()
	img.ConfigSig = configSig
	img.Steps = steps
	img.MachCycles = r.m.Cycles
	img.MachInstructions = r.m.Instructions
	img.MachFPInstructions = r.m.FPInstructions
	img.KernelStats = r.p.K.Stats
	img.Cache = r.captureCache()
	img.RT = r.captureRT()
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
// loaded) VM: restoreState's guest state, the register file, the caches
// and counters, with the instruction cache invalidated. The caller is
// responsible for having validated the image's bindings first.
func (r *Runtime) RestoreImage(img *checkpoint.Image) error {
	if err := r.suspendErr(); err != nil {
		return err
	}
	// CPU first: restoring a non-empty thread table reinstates the
	// current thread's registers into machine.CPU itself.
	r.m.CPU = img.CPU
	if err := r.restoreState(img); err != nil {
		return err
	}
	r.m.InvalidateICache()

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

	// The rollback checkpoint is not part of the wire image; a resumed
	// run takes a new one at its next trap.
	if r.ckptInterval > 0 {
		if ri.CkptInterval > 0 {
			r.ckptInterval = ri.CkptInterval
		}
		r.trapsSince = r.ckptInterval
	}
}

// restoreCache rebuilds both cache levels from their recorded shape.
// Entries are re-decoded from restored guest memory, steps included —
// deterministic, and charged to nobody: the suspended run already paid
// the decode cycles, which the restored telemetry carries. Each address
// is decoded once, so the traces share their entries with the decode
// cache, as the walk that built them did.
func (r *Runtime) restoreCache(ci *checkpoint.CacheImage) error {
	built := make(map[uint64]*dcache.Entry, len(ci.EntryRIPs))
	rebuild := func(rip uint64) (*dcache.Entry, error) {
		if e, ok := built[rip]; ok {
			return e, nil
		}
		in, err := r.m.FetchDecode(rip)
		if err != nil {
			return nil, fmt.Errorf("fpvm: rebuilding decode cache at %#x: %w", rip, err)
		}
		e := newEntry(in)
		built[rip] = e
		return e, nil
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
