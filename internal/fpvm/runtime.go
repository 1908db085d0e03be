package fpvm

import (
	"errors"
	"fmt"

	"fpvm/internal/alt"
	"fpvm/internal/checkpoint"
	"fpvm/internal/dcache"
	"fpvm/internal/faultinject"
	"fpvm/internal/heap"
	"fpvm/internal/hostlib"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/obj"
	"fpvm/internal/telemetry"
)

// Runtime is the FPVM instance attached to one process, mirroring the
// paper's LD_PRELOAD library: per-process trap registration, per-thread
// execution contexts (clone() is intercepted via OnThreadStart and each
// thread's MXCSR traps independently), and constructors that re-run on
// fork (ForkChild).
type Runtime struct {
	Cfg   Config
	Costs CostParams

	p *kernel.Process
	m *machine.Machine

	alloc   *heap.Allocator
	cache   *dcache.Cache
	Profile *dcache.SeqProfile
	Tel     telemetry.Breakdown

	// ShortActive reports whether short-circuit delivery actually engaged
	// (Config.Short requested and the module was present).
	ShortActive bool

	// Stats beyond telemetry.
	Promotions     uint64
	Demotions      uint64
	Boxes          uint64
	GCRuns         uint64
	SeqLimitHit    uint64
	ThreadContexts uint64 // per-thread FPVM contexts created (§2.1)

	// Recovery ladder stats (see recovery.go).
	Retries          uint64 // transient faults resolved by retry
	Degradations     uint64 // operations degraded to native IEEE (or safely skipped)
	HeapFullDegrades uint64 // boxes degraded to plain bits at the MaxLiveBoxes cap
	GCSkips          uint64 // collections skipped after gc.scan fault budgets ran out
	PanicRecoveries  uint64 // emulator panics converted to degradations
	WatchdogAborts   uint64 // sequences cut short by the per-trap cycle watchdog
	FatalDetaches    uint64 // fatal errors resolved by clean detach
	Aborted          uint64 // traps observed after detach (not emulated)

	// Rollback supervisor stats (see rollback.go).
	Checkpoints      uint64 // snapshots captured
	Rollbacks        uint64 // fatal failures resolved by restore + re-execution
	RollbackFailures uint64 // rollback attempts that escalated down the ladder
	Quarantines      uint64 // distinct RIPs pinned to native execution

	// Trace cache state: flt is the alt system's allocation-free float
	// interface when it implements one (cached type assertion), traceOn
	// gates the L2 replay path, traceEnts is the reusable trace-builder
	// buffer for the walk path.
	flt       alt.FloatSystem
	traceOn   bool
	traceEnts []*dcache.Entry

	// pol is the adaptive precision policy engine when Cfg.Alt is one
	// (cached type assertion, like flt). handleTrap feeds it per-RIP trap
	// causes; the engine reads curRIP back through its bound runtime to
	// pick the numeric tier for each operation.
	pol *PolicyEngine

	// Reusable GC root buffers: root sets are rebuilt on every collection
	// (registers change between traps) but the backing arrays are hot-path
	// state worth keeping.
	rootsBuf  []heap.Roots
	rootsPtrs []*heap.Roots

	wrapped      map[string]bool   // foreign symbols wrapped (fcall accounting)
	wrapperAddrs map[string]uint64 // wrapper host addresses by symbol
	lib          *hostlib.Library  // the wrapped library
	magicAddr    uint64            // host address of the magic trap handler

	// Recovery ladder state.
	inject   *faultinject.Injector
	rec      recoveryState
	detached bool
	curUC    *kernel.Ucontext // ucontext of the trap being handled
	curRIP   uint64           // instruction the pipeline is working on
	curEntry *dcache.Entry    // decode of that instruction, once known
	phase    trapPhase

	// Rollback supervisor state (Config.CheckpointInterval > 0): ckpt is
	// the last crash-consistent snapshot (nil until the first save; an
	// unencoded image, only ever read once taken), trapsSince counts
	// traps toward the next save, ckptInterval is the current snapshot
	// interval (0 when the supervisor is off; doubled after every
	// rollback — exponential backoff under repeated faults), and
	// quarantined maps distrusted RIPs to the per-RIP native-execute pin
	// installed by a rollback.
	ckpt         *checkpoint.Image
	trapsSince   int
	ckptInterval int
	quarantined  map[uint64]bool

	err error // first fatal (detaching) emulation error
}

// Attach installs FPVM onto a process: it configures MXCSR to trap on
// every FP exception, registers trap delivery (short-circuit or SIGFPE),
// installs the SIGTRAP correctness handler, and maps the magic page.
// Attach must be called before the program image is loaded so that
// wrapper symbol resolution (LD_PRELOAD order) can take effect.
func Attach(p *kernel.Process, cfg Config) (*Runtime, error) {
	if cfg.Alt == nil {
		return nil, fmt.Errorf("fpvm: Config.Alt is required")
	}
	if _, ok := cfg.Alt.(alt.Codec); cfg.CheckpointInterval > 0 && !ok {
		// A rollback checkpoint holds the heap as encoded values.
		return nil, fmt.Errorf("fpvm: CheckpointInterval needs an alt system with a value codec (%q has none)", cfg.Alt.Name())
	}
	if cfg.SeqLimit == 0 {
		cfg.SeqLimit = 256
	}
	r := &Runtime{
		Cfg:     cfg,
		Costs:   DefaultCosts(),
		p:       p,
		m:       p.M,
		alloc:   heap.New(cfg.GCThreshold),
		cache:   dcache.NewCacheShared(cfg.CacheCapacity, cfg.Shared),
		wrapped: make(map[string]bool),
	}
	if cfg.Profile {
		r.Profile = dcache.NewSeqProfile()
	}
	r.flt, _ = cfg.Alt.(alt.FloatSystem)
	if pe, ok := cfg.Alt.(*PolicyEngine); ok {
		pe.bind(r)
		r.pol = pe
	}
	r.traceOn = cfg.Seq && !cfg.NoTraceCache
	r.inject = cfg.Inject
	r.alloc.MaxLive = cfg.MaxLiveBoxes
	p.Inject = cfg.Inject
	if cfg.CheckpointInterval > 0 {
		r.ckptInterval = cfg.CheckpointInterval
		// The first trap is the earliest crash-consistent point (the
		// register file only becomes meaningful once the image is loaded
		// and running), so arrange for it to snapshot immediately.
		r.trapsSince = cfg.CheckpointInterval
	}

	// FPVM manages mxcsr so every FP exception traps (§2.3).
	r.m.CPU.MXCSR = machine.MXCSRTrapAll

	r.attachDelivery()

	// Map the magic page (§5.2): cookie + demotion handler pointer.
	r.installMagicPage()
	return r, nil
}

// attachDelivery registers the trap delivery paths and interceptions on
// r's process — the constructor work the paper's LD_PRELOAD library does
// at startup and again after every fork (§2.1).
func (r *Runtime) attachDelivery() {
	p := r.p
	cfg := r.Cfg
	if cfg.FutureHW {
		// Future-work hardware: user-level trap vector + box-escape
		// detection; no kernel module, no signals, no patching.
		p.EnableHWUserTraps(r.handleTrap)
		p.SetBoxEscapeHook(r.handleBoxEscape)
		r.m.BoxEscapeCheck = true
	} else if cfg.Short {
		if err := p.RegisterFPVM(r.handleTrap); err == nil {
			r.ShortActive = true
		}
	}
	if !r.ShortActive && !cfg.FutureHW {
		p.Sigaction(kernel.SIGFPE, func(uc *kernel.Ucontext) { r.handleTrap(uc) })
	}
	p.Sigaction(kernel.SIGTRAP, r.handleCorrectnessTrap)

	// Intercept thread startup (§2.1): each new thread gets an FPVM
	// execution context; MXCSR trap-all propagates via clone's register
	// inheritance, so here we only account the context.
	p.OnThreadStart = func(tid int) { r.ThreadContexts++ }
}

// ForkChild builds the child's FPVM runtime after child := parent.Fork():
// the paper's constructors run "on every fork()", re-registering trap
// delivery (the /dev/fpvm registration is per-process) and taking
// ownership of the copied FPVM state. The allocator and decode cache are
// cloned (they live in the forked process image; boxes are immutable so
// values are shared), and every inherited host binding that pointed at
// the parent runtime — wrappers and the magic-page handler — is rebound
// at the same addresses to the child runtime, since those addresses are
// baked into the child's GOT slots and magic page.
func (r *Runtime) ForkChild(child *kernel.Process) *Runtime {
	c := &Runtime{
		Cfg:          r.Cfg,
		Costs:        r.Costs,
		p:            child,
		m:            child.M,
		alloc:        r.alloc.Clone(),
		cache:        r.cache.Clone(),
		wrapped:      r.wrapped,
		wrapperAddrs: r.wrapperAddrs,
		lib:          r.lib,
		magicAddr:    r.magicAddr,
	}
	if r.Cfg.Profile {
		c.Profile = dcache.NewSeqProfile()
	}
	c.flt = r.flt
	c.traceOn = r.traceOn
	// The recovery ladder's state is inherited but independent: the child
	// starts from the parent's counters and budgets (it is a copy of the
	// parent's process image) and diverges from there; faults in one never
	// mutate the other.
	c.inject = r.inject
	c.rec = r.rec.clone()
	c.detached = r.detached
	c.err = r.err
	c.Retries = r.Retries
	c.Degradations = r.Degradations
	c.HeapFullDegrades = r.HeapFullDegrades
	c.GCSkips = r.GCSkips
	c.PanicRecoveries = r.PanicRecoveries
	c.WatchdogAborts = r.WatchdogAborts
	c.FatalDetaches = r.FatalDetaches
	c.Aborted = r.Aborted
	// The rollback supervisor forks with the process: the snapshot is
	// shared (a restore only reads it, decoding a fresh heap and copying
	// pages and stdout out of it), the quarantine set and
	// interval/backoff state are copied.
	c.ckpt = r.ckpt
	c.trapsSince = r.trapsSince
	c.ckptInterval = r.ckptInterval
	if r.quarantined != nil {
		c.quarantined = make(map[uint64]bool, len(r.quarantined))
		for rip, v := range r.quarantined {
			c.quarantined[rip] = v
		}
	}
	c.Checkpoints = r.Checkpoints
	c.Rollbacks = r.Rollbacks
	c.RollbackFailures = r.RollbackFailures
	c.Quarantines = r.Quarantines
	c.attachDelivery()
	// Rebind inherited host functions to the child's runtime.
	if c.lib != nil {
		for name, addr := range c.wrapperAddrs {
			child.BindHost(addr, c.makeWrapper(name, c.lib.Funcs[name]))
		}
	}
	if c.magicAddr != 0 {
		child.BindHost(c.magicAddr, c.magicTrapHandler)
	}
	return c
}

// magicCookie marks a valid magic page.
const magicCookie = 0xF9B0_A11C_0FF1_0AD5

func (r *Runtime) installMagicPage() {
	as := r.m.Mem
	as.Map("fpvm:magic", obj.MagicPageAddr, mem.PageSize, mem.PermRead)
	// The page is mapped read-only for the guest; FPVM (the host side)
	// writes through a temporary RW window.
	as.Map("fpvm:magic", obj.MagicPageAddr, mem.PageSize, mem.PermRW)
	r.magicAddr = r.p.BindHostAuto(r.magicTrapHandler)
	_ = as.WriteUint64(obj.MagicPageAddr, magicCookie)
	_ = as.WriteUint64(obj.MagicPageAddr+8, r.magicAddr)
	as.Map("fpvm:magic", obj.MagicPageAddr, mem.PageSize, mem.PermRead)
}

// Err returns the first fatal error the runtime hit while emulating. A
// non-nil error means the runtime detached (see recovery.go): the guest
// kept running un-virtualized, but results past the detach point carry
// only native IEEE precision. The error records the trap RIP and the
// mnemonic of the instruction being handled.
func (r *Runtime) Err() error { return r.err }

// Detached reports whether the ladder's bottom rung fired: FPVM restored
// native FP semantics and stopped virtualizing this process.
func (r *Runtime) Detached() bool { return r.detached }

// Injector exposes the armed fault injector (nil when none).
func (r *Runtime) Injector() *faultinject.Injector { return r.inject }

// Allocator exposes the box allocator (tests and telemetry).
func (r *Runtime) Allocator() *heap.Allocator { return r.alloc }

// Cache exposes the decode/trace cache.
func (r *Runtime) Cache() *dcache.Cache { return r.cache }

// charge accounts cycles both to the telemetry category and the machine
// clock (the runtime runs on the virtualized CPU).
func (r *Runtime) charge(cat telemetry.Category, n uint64) {
	r.Tel.Add(cat, n)
	r.m.Charge(n)
}

// chargeDelivery records the delegation costs the kernel already charged
// to the machine clock, attributing them to hw/kernel/ret telemetry.
func (r *Runtime) chargeDelivery() {
	c := &r.p.K.Costs
	if r.Cfg.FutureHW {
		// Direct hardware vector: no kernel involvement at all.
		r.Tel.Add(telemetry.HW, c.HWUserDeliver)
		r.Tel.Add(telemetry.Ret, c.HWUserReturn)
		return
	}
	r.Tel.Add(telemetry.HW, c.HWDispatch)
	if r.ShortActive {
		r.Tel.Add(telemetry.Kernel, c.ShortDeliver+c.LandingPad)
		r.Tel.Add(telemetry.Ret, c.ShortReturn+c.LandingPad)
	} else {
		r.Tel.Add(telemetry.Kernel, c.SignalDeliver)
		r.Tel.Add(telemetry.Ret, c.Sigreturn)
	}
}

// handleTrap is the FP trap entry point (both delivery paths).
func (r *Runtime) handleTrap(uc *kernel.Ucontext) {
	if r.detached {
		// A stale trap arriving after detach (e.g. a thread whose parked
		// MXCSR still had trap-all set): observe it, mask this context
		// too, and let the guest run natively.
		r.Aborted++
		r.Tel.AbortedTraps++
		uc.CPU.MXCSR = machine.MXCSRDefault
		return
	}
	r.Tel.Traps++
	if uc.FPFlags != 0 {
		r.Tel.NoteTrapCauses(uc.FPFlags)
		if r.pol != nil {
			r.pol.noteTrap(uc.CPU.RIP, uc.FPFlags)
		}
	}
	r.chargeDelivery()
	r.rec.resetTrap()
	r.curUC = uc
	// Pin curRIP to this trap immediately: a panic before the walk sets
	// it (e.g. in maybeCheckpoint) must not see a previous trap's value.
	r.curRIP = uc.CPU.RIP
	trapRIP := uc.CPU.RIP
	defer func() {
		if pv := recover(); pv != nil {
			r.recoverTrapPanic(uc, pv)
		}
		if r.Cfg.Observer != nil {
			r.observeTrap(uc, trapRIP)
		}
		r.curUC, r.curEntry, r.phase = nil, nil, phaseNone
	}()

	// A quarantined RIP (distrusted after a rollback) is pinned to native
	// execution: no alt arithmetic, no sequence walk, no boxing.
	if r.quarantined != nil && r.quarantined[uc.CPU.RIP] {
		r.pinnedNative(uc)
		return
	}
	r.maybeCheckpoint(uc)

	start := uc.CPU.RIP
	rip := start
	count := 0
	reason := dcache.TermLimit
	trapStart := r.m.Cycles

	// L2 trace cache (§4.2): a trap at a known sequence start replays the
	// whole pre-decoded, pre-bound sequence straight through — no
	// per-instruction cache lookups, no re-decode, no re-disassembly. The
	// replay declines (returns done=false) only before emulating anything,
	// so falling through to the walk below is always safe.
	if r.traceOn {
		if tr, ok := r.cache.LookupTrace(start); ok {
			r.Tel.TraceHits++
			if r.replayTrace(uc, tr, trapStart) {
				return
			}
		} else {
			r.Tel.TraceMisses++
		}
	}

	profiling := r.Profile != nil
	var captureInsts []string
	var captureTerm string
	capture := profiling && !r.Profile.Known(start)

	// The walk doubles as the trace builder: entries emulated below are
	// collected and, if the sequence ends at a clean terminator, cached as
	// a trace for future replay. Aborted sequences (watchdog, mid-sequence
	// faults) are not representative shapes and are not cached.
	building := r.traceOn
	cacheable := true
	if building {
		r.traceEnts = r.traceEnts[:0]
	}

	for {
		if count > 0 && r.quarantined != nil && r.quarantined[rip] {
			// A quarantined instruction ends the sequence: the guest traps
			// on it next and takes the pinned native path. The shape is not
			// representative, so it is not cached as a trace.
			reason = dcache.TermUnsupported
			cacheable = false
			break
		}
		r.curRIP = rip
		entry, err := r.decodeAt(rip)
		if err != nil {
			if errors.Is(err, errDecodeFault) {
				// Decode retry budget exhausted. Mid-sequence the fault
				// degrades to a sequence terminator — the hardware runs
				// the instruction instead. On the faulting instruction
				// itself there is nothing to fall back to: roll back if
				// possible, detach otherwise.
				if count > 0 {
					r.degradeFault(faultinject.SiteDecode)
					reason = dcache.TermUnsupported
					cacheable = false
					break
				}
				r.failTrap(uc, rip, faultinject.SiteDecode, fmt.Errorf("decode: %w", err))
				return
			}
			r.failTrap(uc, rip, "", fmt.Errorf("decode: %w", err))
			return
		}
		if !entry.Supported {
			reason = dcache.TermUnsupported
			if capture {
				captureTerm = entry.Inst.String()
				captureInsts = append(captureInsts, captureTerm)
			}
			break
		}
		r.curEntry, r.phase = entry, phaseInst
		status, err := r.emulate(uc, entry, count == 0)
		r.curEntry, r.phase = nil, phaseNone
		if err != nil {
			// Bind/memory errors: mid-sequence the ladder degrades by
			// ending the sequence (the hardware re-runs the instruction
			// and raises its own fault if one is due); on the faulting
			// instruction FPVM cannot make progress.
			if count > 0 {
				r.Degradations++
				r.cache.InvalidateTraces(rip)
				reason = dcache.TermUnsupported
				cacheable = false
				break
			}
			r.failTrap(uc, rip, "", err)
			return
		}
		if status == emNotWarranted {
			reason = dcache.TermNoBoxedSource
			if capture {
				captureTerm = entry.Inst.String()
				captureInsts = append(captureInsts, captureTerm)
			}
			break
		}
		if capture {
			captureInsts = append(captureInsts, entry.Inst.String())
		}
		if building {
			r.traceEnts = append(r.traceEnts, entry)
		}
		count++
		rip = entry.Inst.Addr + uint64(entry.Inst.Len)
		r.Tel.EmulatedInsts++

		if r.m.Cycles-trapStart > r.trapCycleBudget() {
			// Watchdog: this trap has burned more virtual cycles than any
			// legitimate sequence should. With a checkpoint available the
			// runaway region is rolled back and its start quarantined;
			// otherwise cut the sequence and let the guest resume (it may
			// trap again, starting a fresh budget).
			r.WatchdogAborts++
			r.Tel.WatchdogAborts++
			if r.tryRollback(uc, start) {
				return
			}
			reason = dcache.TermLimit
			cacheable = false
			break
		}
		if !r.Cfg.Seq {
			// Single-instruction trap-and-emulate: stop after the
			// faulting instruction.
			reason = dcache.TermLimit
			break
		}
		if count >= r.Cfg.SeqLimit {
			r.SeqLimitHit++
			reason = dcache.TermLimit
			break
		}
	}

	if count == 0 {
		// The faulting instruction itself is unsupported: FPVM cannot
		// make progress virtualized. Detach (do no harm): the hardware
		// re-executes it natively with exceptions masked. (Rollback does
		// not help here — re-execution would hit the same instruction.)
		in, _ := r.m.FetchDecode(rip)
		r.fatal(uc, rip, fmt.Errorf("cannot emulate faulting instruction %q", in.String()))
		return
	}

	uc.CPU.RIP = rip

	if building && cacheable && count > 0 {
		r.cache.InsertTrace(&dcache.Trace{
			Start:   start,
			Entries: append([]*dcache.Entry(nil), r.traceEnts...),
			EndRIP:  rip,
			Reason:  reason,
			Insts:   captureInsts,
			Term:    captureTerm,
		})
	}

	if r.Profile != nil {
		r.Profile.Record(start, count, reason, captureInsts, captureTerm)
	}

	r.maybeGC(uc)
}

// errDecodeFault marks a decode whose injected-fault retry budget ran
// out; handleTrap picks the rung (degrade mid-sequence, detach at the
// faulting instruction).
var errDecodeFault = errors.New("fpvm: injected decode fault (retry budget exhausted)")

// decodeAt consults the decode cache, decoding and inserting on miss
// (the decode-cache/trace-cache behaviour of §2.4 and §4.2). A decode
// fault models a corrupted cache entry or fetch: the entry is distrusted
// (invalidated) and the decode retried.
func (r *Runtime) decodeAt(rip uint64) (*dcache.Entry, error) {
	for r.checkFault(faultinject.SiteDecode, rip) {
		r.cache.Invalidate(rip)
		if !r.retryFault(faultinject.SiteDecode) {
			return nil, errDecodeFault
		}
	}
	if e, ok := r.cache.Lookup(rip); ok {
		r.charge(telemetry.Decache, r.Costs.DecacheHit)
		return e, nil
	}
	r.charge(telemetry.Decache, r.Costs.DecacheHit)
	r.charge(telemetry.Decode, r.Costs.Decode)
	in, err := r.m.FetchDecode(rip)
	if err != nil {
		return nil, err
	}
	e := newEntry(in)
	r.cache.Insert(rip, e)
	return e, nil
}

// maybeGC runs a collection if the allocator crossed its threshold. The
// root set is every writable page plus every thread's register file: the
// trapping thread's registers come from the (possibly already mutated)
// ucontext, the others from their parked contexts.
func (r *Runtime) maybeGC(uc *kernel.Ucontext) {
	if !r.alloc.NeedsGC() {
		return
	}
	r.collect(r.gcRoots(uc))
}

// gcRoots assembles the collection root set into the runtime's reusable
// buffers (root sets are rebuilt per collection, but the backing arrays
// persist — collections are frequent enough under GC pressure that the
// slices showed up in the trap path's allocation profile). When uc is nil
// every parked CPU context is a root; otherwise uc stands in for the
// trapping thread.
func (r *Runtime) gcRoots(uc *kernel.Ucontext) []*heap.Roots {
	r.rootsBuf = r.rootsBuf[:0]
	if uc != nil {
		r.rootsBuf = append(r.rootsBuf, heap.Roots{GPR: uc.CPU.GPR, XMM: uc.CPU.XMM})
	}
	for _, cpu := range r.p.AllCPUs() {
		if uc != nil && cpu == &r.m.CPU {
			continue // the trapping thread: uc is authoritative
		}
		r.rootsBuf = append(r.rootsBuf, heap.Roots{GPR: cpu.GPR, XMM: cpu.XMM})
	}
	// Pointers are taken only after the buffer stops growing.
	r.rootsPtrs = r.rootsPtrs[:0]
	for i := range r.rootsBuf {
		r.rootsPtrs = append(r.rootsPtrs, &r.rootsBuf[i])
	}
	return r.rootsPtrs
}

// resolve turns raw lane bits into an alt value: a confirmed NaN-box
// yields its heap value; anything else (including application NaNs) is
// promoted.
// The IEEE sign bit lies outside the box pattern, so compiled
// sign-flips (xorpd with the sign mask) leave the handle intact: a box
// with the sign bit set decodes as the negated value.
func (r *Runtime) resolve(bits uint64) (alt.Value, bool) {
	if h, ok := isBox(bits); ok {
		if v, live := r.alloc.Get(h); live {
			if bits>>63 != 0 {
				nv, cost := r.Cfg.Alt.Neg(v)
				r.charge(telemetry.Altmath, cost)
				return nv, true
			}
			return v, true
		}
	}
	v, cost := r.Cfg.Alt.Promote(f64(bits))
	r.Promotions++
	r.charge(telemetry.Altmath, cost)
	return v, false
}

// box allocates a heap box for v and returns its NaN-boxed bit pattern,
// also allocating the alt system's per-op temporaries (which become
// garbage immediately — the gc pressure difference between Boxed IEEE and
// MPFR, §6.4).
//
// Invariant: boxes store magnitudes; the value's sign lives in the bit
// pattern's sign bit. This makes the compiler's xorpd/andpd sign idioms
// (negate, fabs) work natively on boxed values — flipping or clearing
// bit 63 of the pattern is exactly flipping or clearing the sign.
func (r *Runtime) box(v alt.Value) uint64 {
	for r.checkFault(faultinject.SiteHeapAlloc, r.curRIP) {
		if !r.retryFault(faultinject.SiteHeapAlloc) {
			// Allocation keeps failing: degrade this one result to a
			// plain IEEE double (precision loss, never corruption).
			r.degradeFault(faultinject.SiteHeapAlloc)
			return r.plainBits(v)
		}
	}
	for i := 0; i < r.Cfg.Alt.TempsPerOp(); i++ {
		r.alloc.Alloc(nil)
	}
	var sign uint64
	if r.Cfg.Alt.Signbit(v) {
		nv, cost := r.Cfg.Alt.Neg(v)
		r.charge(telemetry.Altmath, cost)
		v = nv
		sign = 1 << 63
	}
	return r.boxOrDegrade(v, sign)
}

// demote converts lane bits that may be boxed back to a plain IEEE
// double's bits, charging altmath for the conversion.
func (r *Runtime) demote(bits uint64) uint64 {
	return r.demoteTo(bits, telemetry.Altmath)
}

// demoteTo is demote with the altmath cost attributed to a specific
// category (correctness demotions count as corr/fcall, not altmath). A
// float box demotes through the FloatSystem, with no interface value.
func (r *Runtime) demoteTo(bits uint64, cat telemetry.Category) uint64 {
	h, ok := isBox(bits)
	if !ok {
		return bits
	}
	var f float64
	var cost uint64
	switch fv, kind := r.alloc.Lookup(h); {
	case kind == heap.Dead:
		return bits
	case kind == heap.Float && r.flt != nil:
		f, cost = r.flt.DemoteFloat(fv)
	default:
		v, _ := r.alloc.Get(h)
		f, cost = r.Cfg.Alt.Demote(v)
	}
	if bits>>63 != 0 {
		f = -f // sign-flipped box: decode as the negated value
	}
	r.Demotions++
	r.charge(cat, cost)
	return bits64(f)
}

// isBox confirms a bit pattern is one of OUR boxes (pattern match plus
// allocator membership — the ours-vs-theirs check of §2.2). The allocator
// check happens at the call sites that need liveness; here we only match
// the pattern and return the handle.
func isBox(bits uint64) (uint64, bool) {
	return nanboxHandle(bits)
}
