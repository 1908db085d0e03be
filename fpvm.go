// Package fpvm is a Go reproduction of "Virtualization So Light, it
// Floats! Accelerating Floating Point Virtualization" (HPDC '25): a
// floating point virtual machine that lets unmodified (simulated x64)
// binaries run on alternative arithmetic systems via trap-and-emulate,
// together with the paper's three accelerations — trap short-circuiting,
// instruction sequence emulation, and kernel-bypass correctness
// instrumentation.
//
// The public API orchestrates the full simulated stack: a paged address
// space, an x64-flavoured machine with precise SSE exception semantics, a
// kernel with POSIX signal delivery and the FPVM kernel module, the host
// libc/libm bridge, and the FPVM runtime itself.
//
// Quickstart:
//
//	img := workloads.Build(workloads.Lorenz, workloads.SmallParams())
//	res, err := fpvm.Run(img, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true})
//	fmt.Println(res.Stdout, res.Slowdown(native.Cycles))
package fpvm

import (
	"errors"
	"fmt"
	"math"

	"fpvm/internal/alt"
	"fpvm/internal/checkpoint"
	"fpvm/internal/dcache"
	"fpvm/internal/faultinject"
	"fpvm/internal/hostlib"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/obj"
	"fpvm/internal/telemetry"

	fpvmrt "fpvm/internal/fpvm"
)

// AltKind selects the alternative arithmetic system.
type AltKind string

const (
	// AltBoxed is the paper's "Boxed IEEE" worst-case system: hardware
	// doubles stored in heap boxes behind NaN-boxed pointers.
	AltBoxed AltKind = "boxed"
	// AltMPFR is the from-scratch arbitrary-precision binary float
	// system standing in for GNU MPFR (default 200 bits).
	AltMPFR AltKind = "mpfr"
	// AltPosit computes in 64-bit posit arithmetic (es=2).
	AltPosit AltKind = "posit"
	// AltPosit32 computes in 32-bit posits.
	AltPosit32 AltKind = "posit32"
	// AltInterval computes in outward-rounded interval arithmetic.
	AltInterval AltKind = "interval"
	// AltRational computes in exact rational arithmetic.
	AltRational AltKind = "rational"
)

// Config configures one virtualized run.
type Config struct {
	// Alt selects the alternative arithmetic system (default AltBoxed).
	Alt AltKind

	// Precision is the significand precision in bits for AltMPFR
	// (default 200, matching the paper's MPFR configuration).
	Precision uint

	// PrecisionPolicy enables the adaptive per-RIP precision policy
	// engine: every instruction site starts on boxed IEEE, sites where
	// exceptions cluster escalate to interval arithmetic, and sites whose
	// interval bounds grow wide escalate further to MPFR (decaying back
	// once bounds stay tight). Requires Alt to be AltBoxed (or empty) —
	// the engine layers boxed/interval/MPFR itself. Precision sets the
	// escalated MPFR precision. Policy runs can roll back, but cannot be
	// preempted or snapshotted: the per-site tier table is not in the
	// snapshot image.
	PrecisionPolicy bool

	// Seq enables instruction sequence emulation (§4).
	Seq bool

	// Short enables trap short-circuiting via the kernel module (§3).
	Short bool

	// MagicWraps selects Lief-style symbol rewriting for foreign function
	// wrappers instead of LD_PRELOAD forward wrapping (§5.3). Identical
	// cost; mechanism ablation only.
	MagicWraps bool

	// GCThreshold, CacheCapacity, SeqLimit tune the runtime (0 =
	// defaults: 4096 boxes, 64K entries, 256 instructions).
	GCThreshold   int
	CacheCapacity int
	SeqLimit      int

	// Profile collects per-sequence statistics (Figures 7-10).
	Profile bool

	// EmulateAll disables the "no NaN-boxed source" sequence termination
	// rule (ablation of the §4.1 tradeoff).
	EmulateAll bool

	// FutureHW enables the paper's §8 future-work hardware model:
	// user-level FP traps delivered without entering the kernel, and
	// hardware NaN-box escape detection that eliminates correctness
	// patching entirely. Overrides Short.
	FutureHW bool

	// MaxSteps bounds execution in event boundaries (0 = 500M).
	MaxSteps uint64

	// Inject, when set, arms deterministic fault injection at the trap
	// pipeline's named sites (see internal/faultinject.Sites). Injected
	// faults exercise the recovery ladder: bounded retry, degradation to
	// native IEEE, or clean detach.
	Inject *faultinject.Injector

	// MaxLiveBoxes caps the live NaN-box population (0 = unbounded). At
	// the cap FPVM forces a collection; if the heap is still full the
	// result degrades to a plain IEEE double instead of growing the heap.
	MaxLiveBoxes int

	// RetryBudget is the per-site, per-trap transient retry budget
	// (0 = default 3).
	RetryBudget int

	// RetryBackoffCycles, when > 0, makes the recovery ladder's retry
	// rung charge a jittered exponential virtual-cycle delay before each
	// re-attempt (~base·2^k ±25%, deterministic), spreading retry storms
	// out instead of re-executing immediately. 0 (the default) keeps the
	// immediate-retry accounting.
	RetryBackoffCycles uint64

	// TrapCycleBudget is the per-trap virtual-cycle watchdog limit
	// (0 = default 10M cycles).
	TrapCycleBudget uint64

	// NoTraceCache disables the L2 software trace cache (ablation): every
	// trap re-walks its sequence through the per-instruction decode cache
	// instead of replaying the cached pre-bound sequence.
	NoTraceCache bool

	// CheckpointInterval enables the rollback supervisor: every N traps
	// FPVM captures a crash-consistent snapshot of the whole VM, and
	// fatal-rung failures restore the last snapshot and re-execute with
	// the distrusted instruction quarantined to native execution instead
	// of detaching. 0 (the default) disables checkpointing.
	CheckpointInterval int

	// MaxRollbacks bounds rollback attempts per run (0 = default 8).
	MaxRollbacks int

	// Shared, when set, backs the VM's private decode/trace cache with a
	// frozen store trained on the same image (see TrainSharedCache): a
	// local miss adopts the trained decode or trace, and the VM's own
	// decodes, trace builds and invalidations stay local. The store is
	// read-only, so a run's cycles depend on the store's training, never
	// on other runs. Prepare refuses a store trained on another image.
	Shared *SharedCache

	// PreemptQuantum, when > 0, preempts the run after roughly that many
	// virtual cycles at the next event boundary (never mid-trap). Run then
	// returns a Result with Preempted set and Snapshot holding the
	// serialized VM, which Resume continues from — in this process or
	// another one; VM.RunSlice instead keeps the preempted VM live and
	// continues it in place. Refused for PrecisionPolicy runs, whose
	// per-site tier table is not in the snapshot image.
	PreemptQuantum uint64

	// Observer, when set, receives a NaN-box-normalized architectural
	// snapshot after every handled trap (passive: no cycles are charged).
	// Harnesses use it to compare trap streams across runs.
	Observer func(*TrapState)
}

// TrapState is the per-trap architectural snapshot delivered to
// Config.Observer (see internal/fpvm.TrapState).
type TrapState = fpvmrt.TrapState

// SharedCache is a frozen decode/trace store that many concurrent runs of
// one image read without locks. See internal/dcache.SharedCache for
// semantics.
type SharedCache = dcache.SharedCache

// NewSharedCache returns an empty store: runs backed by it behave exactly
// like runs with a private cache. The argument is unused; it is kept so
// existing callers compile. TrainSharedCache builds a store worth
// sharing.
func NewSharedCache(capacity int) *SharedCache {
	return dcache.NewShared()
}

// TrainSharedCache builds img's shared store from one training run: a VM
// with a private cache runs img to completion under cfg, without Inject,
// Observer or a preemption quantum, and its final decode entries and
// traces (replay counters zeroed) are frozen into a store tagged with
// img. Training is deterministic, so two stores trained on the same image
// and config are interchangeable. A failed or panicking training run
// returns an error and no store.
func TrainSharedCache(img *obj.Image, cfg Config) (s *SharedCache, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("fpvm: training run panicked: %v", p)
		}
	}()
	cfg.Shared, cfg.Inject, cfg.Observer, cfg.PreemptQuantum = nil, nil, nil, 0
	vm, err := Prepare(img, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := vm.RunSlice(); err != nil {
		return nil, fmt.Errorf("fpvm: training run: %w", err)
	}
	return dcache.Freeze(vm.rt.Cache(), img), nil
}

// ConfigName renders the paper's config label (NONE/SEQ/SHORT/SEQ SHORT).
func (c Config) ConfigName() string {
	switch {
	case c.Seq && c.Short:
		return "SEQ SHORT"
	case c.Seq:
		return "SEQ"
	case c.Short:
		return "SHORT"
	}
	return "NONE"
}

// NewAltSystem instantiates the configured alternative arithmetic system.
func NewAltSystem(kind AltKind, precision uint) (alt.System, error) {
	if precision == 0 {
		precision = 200
	}
	switch kind {
	case AltBoxed, "":
		return alt.NewBoxedIEEE(), nil
	case AltMPFR:
		return alt.NewMPFR(precision), nil
	case AltPosit:
		return alt.NewPosit(), nil
	case AltPosit32:
		return alt.NewPosit32(), nil
	case AltInterval:
		return alt.NewInterval(), nil
	case AltRational:
		return alt.NewRational(), nil
	}
	return nil, fmt.Errorf("fpvm: unknown alternative arithmetic system %q", kind)
}

// newSystemFor instantiates the run's alt system, wrapping the adaptive
// policy engine around it when Config.PrecisionPolicy is set.
func newSystemFor(cfg Config) (alt.System, error) {
	if cfg.PrecisionPolicy {
		if cfg.Alt != AltBoxed && cfg.Alt != "" {
			return nil, fmt.Errorf("fpvm: PrecisionPolicy layers boxed/interval/mpfr itself; Alt must be boxed (got %q)", cfg.Alt)
		}
		return fpvmrt.NewPolicyEngine(fpvmrt.PolicyConfig{MPFRPrecision: cfg.Precision}), nil
	}
	return NewAltSystem(cfg.Alt, cfg.Precision)
}

// PolicyStats is the adaptive precision policy engine's activity snapshot
// (see internal/fpvm.PolicyStats).
type PolicyStats = fpvmrt.PolicyStats

// Result reports a completed run.
type Result struct {
	Stdout   string
	ExitCode int

	// Cycles is the total virtual cycle count (guest + kernel + FPVM).
	Cycles uint64

	// Instructions / FPInstructions are natively retired counts.
	Instructions   uint64
	FPInstructions uint64

	// Traps is the number of FP trap deliveries; EmulatedInsts the
	// instructions FPVM emulated.
	Traps         uint64
	EmulatedInsts uint64

	// Breakdown is the telemetry cost breakdown (nil for native runs).
	Breakdown *telemetry.Breakdown

	// SeqProfile holds sequence statistics when Config.Profile was set.
	SeqProfile *dcache.SeqProfile

	// ShortActive reports whether the kernel-module path engaged.
	ShortActive bool

	// GCRuns, Promotions, Demotions, DecodeCacheEntries expose runtime
	// internals for the evaluation harness.
	GCRuns             uint64
	Promotions         uint64
	Demotions          uint64
	DecodeCacheEntries int

	// Trace cache outcomes (§4.2 L2 trace table). TraceHits/TraceMisses
	// count sequence traps served by replay vs walked; TraceDivergences
	// replays that exited early on a boxedness divergence; ReplayedInsts
	// instructions emulated via replay; TraceCacheEntries the cached
	// sequence count at exit.
	TraceHits         uint64
	TraceMisses       uint64
	TraceDivergences  uint64
	ReplayedInsts     uint64
	TraceCacheEntries int

	// JITExecs is TraceHits (replays, each running its entries' steps)
	// and JITDeopts is TraceDivergences (replays that left through the
	// divergence exit on a step's guard); both are kept for callers that
	// read them.
	JITExecs  uint64
	JITDeopts uint64

	// Shared-cache adoptions (Config.Shared != nil): local misses served
	// by the trained store's decode (SharedHits) or a copy of its trace
	// (SharedTraceHits). Zero on private-cache runs.
	SharedHits      uint64
	SharedTraceHits uint64

	// KernelStats snapshots delegation counters.
	KernelStats kernel.Stats

	// Recovery ladder outcomes. Detached means the fatal rung fired:
	// FPVM restored native FP semantics mid-run and the guest finished
	// un-virtualized (results past that point are native IEEE only).
	Detached        bool
	Retries         uint64
	BackoffCycles   uint64
	Degradations    uint64
	WatchdogAborts  uint64
	PanicRecoveries uint64
	AbortedTraps    uint64

	// Rollback supervisor outcomes (Config.CheckpointInterval > 0).
	// Checkpoints counts snapshots captured; Rollbacks fatal failures
	// resolved by restoring a snapshot and re-executing (the run stayed
	// fully virtualized); RollbackFailures attempts that escalated down
	// the ladder instead; Quarantines distinct RIPs pinned to native
	// execution after a rollback.
	Checkpoints      uint64
	Rollbacks        uint64
	RollbackFailures uint64
	Quarantines      uint64

	// FaultReport is the injector's per-site ledger ("" when no injector
	// was armed).
	FaultReport string

	// Policy holds the adaptive precision policy engine's stats when
	// Config.PrecisionPolicy was set (nil otherwise).
	Policy *PolicyStats

	// Preempted is set when Config.PreemptQuantum expired before the
	// guest exited. A preempted Result reports the state so far: partial
	// stdout, no exit code. From Run or Resume, Snapshot holds the
	// serialized VM (the checkpoint wire format) for Resume; from
	// VM.RunSlice it is nil, because the VM itself stays live.
	Preempted bool
	Snapshot  []byte

	// Resumed is set when the VM's state came from snapshot bytes
	// (Resume or VM.Restore), on that slice and every later one.
	Resumed bool

	// Final is the NaN-box-normalized end-of-run architectural state
	// (registers, MXCSR, RFLAGS, stdout length). Nil for native runs and
	// preempted results.
	Final *TrapState
}

// TraceHitRate returns the fraction of sequence traps served by trace
// replay (0 when the trace cache never engaged).
func (r *Result) TraceHitRate() float64 {
	t := r.TraceHits + r.TraceMisses
	if t == 0 {
		return 0
	}
	return float64(r.TraceHits) / float64(t)
}

// AltmathCycles returns cycles spent in the alternative arithmetic system
// (the paper's intrinsic lower-bound component).
func (r *Result) AltmathCycles() uint64 {
	if r.Breakdown == nil {
		return 0
	}
	return r.Breakdown.Cycles[telemetry.Altmath]
}

// Slowdown returns this run's slowdown relative to a native cycle count.
func (r *Result) Slowdown(nativeCycles uint64) float64 {
	if nativeCycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(nativeCycles)
}

// LowerBoundSlowdown returns the intrinsic slowdown of the alternative
// arithmetic alone: (native + altmath) / native (§6.1).
func (r *Result) LowerBoundSlowdown(nativeCycles uint64) float64 {
	if nativeCycles == 0 {
		return 0
	}
	return float64(nativeCycles+r.AltmathCycles()) / float64(nativeCycles)
}

// SlowdownFromLowerBound returns slowdown relative to the lower bound
// (Figure 5: 1.0 = zero virtualization overhead).
func (r *Result) SlowdownFromLowerBound(nativeCycles uint64) float64 {
	lb := nativeCycles + r.AltmathCycles()
	if lb == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(lb)
}

const defaultMaxSteps = 500_000_000

// RunNative executes img without FPVM (MXCSR fully masked) and returns
// the baseline result.
func RunNative(img *obj.Image) (*Result, error) {
	as := mem.NewAddressSpace()
	m := machine.New(as)
	k := kernel.New()
	p := kernel.NewProcess(k, m, img.Name)
	lib := hostlib.Install(p)

	if err := loadAndStart(p, img, resolverFor(img, lib)); err != nil {
		return nil, err
	}
	err := p.Run(defaultMaxSteps)
	res := &Result{
		Stdout:         p.Stdout.String(),
		ExitCode:       p.ExitCode,
		Cycles:         m.Cycles,
		Instructions:   m.Instructions,
		FPInstructions: m.FPInstructions,
		KernelStats:    k.Stats,
	}
	return res, err
}

// Run executes img under FPVM with cfg.
func Run(img *obj.Image, cfg Config) (*Result, error) {
	vm, err := Prepare(img, cfg)
	if err != nil {
		return nil, err
	}
	return vm.Run()
}

// Resume continues a preempted run from its serialized snapshot (the
// Snapshot field of a Preempted Result, or the bytes of a snapshot file):
// Prepare followed by VM.Resume. img and cfg must match the original run:
// the snapshot binds to the image's hash, the alt system's name and the
// semantic configuration, and Resume rejects any mismatch. The resumed
// execution is exact — stdout, trap stream and final architectural state
// are bit-identical to an uninterrupted run.
func Resume(img *obj.Image, cfg Config, snapshot []byte) (*Result, error) {
	vm, err := Prepare(img, cfg)
	if err != nil {
		return nil, err
	}
	return vm.Resume(snapshot)
}

// ConfigSignature fingerprints the configuration fields that affect
// execution semantics (not observation or bookkeeping): a snapshot may
// only resume under a configuration that would have produced the
// identical execution. VM.Snapshot writes it into every snapshot, and
// VM.Restore refuses a snapshot whose signature differs from its VM's.
func ConfigSignature(cfg Config) string {
	sig := fmt.Sprintf("seq=%t short=%t magicwraps=%t gc=%d cache=%d seqlim=%d emulall=%t futurehw=%t maxboxes=%d retries=%d watchdog=%d notrace=%t ckpt=%d maxrb=%d prec=%d backoff=%d",
		cfg.Seq, cfg.Short, cfg.MagicWraps, cfg.GCThreshold, cfg.CacheCapacity,
		cfg.SeqLimit, cfg.EmulateAll, cfg.FutureHW, cfg.MaxLiveBoxes,
		cfg.RetryBudget, cfg.TrapCycleBudget, cfg.NoTraceCache,
		cfg.CheckpointInterval, cfg.MaxRollbacks, cfg.Precision, cfg.RetryBackoffCycles)
	// Appended only when enabled so every pre-policy snapshot signature is
	// preserved byte-for-byte.
	if cfg.PrecisionPolicy {
		sig += " policy=1"
	}
	return sig
}

// VM is one virtual machine: address space mapped, image loaded, FPVM
// attached with wrappers installed, entry point armed, MXCSR trapping.
// Prepare builds one. RunSlice executes it one preemption quantum at a
// time, and a preempted VM stays live: the next RunSlice continues it in
// place, with nothing serialized. Snapshot turns a preempted VM into
// checkpoint wire bytes, and Restore loads such bytes into a fresh VM;
// both are needed only when the state must leave the VM (a file, another
// process). Run and Resume are the one-shot forms: one slice, and a
// preempted VM comes back as bytes in Result.Snapshot and is spent.
//
// A VM lives for one job. Once it finishes (or is spent as bytes) every
// further call fails. It is not safe for concurrent use, but may be
// handed from one goroutine to another between slices.
//
// Prepare is split from execution so a caller can restore a snapshot
// into a fresh VM, or set its quantum, before the first slice. fpvmd
// builds one VM per job when the job is dispatched and drops it when the
// job ends. Everything captured at Prepare time is semantic
// configuration; the preemption quantum is a scheduling knob
// (deliberately outside ConfigSignature) and may be adjusted per slice
// with SetPreemptQuantum.
type VM struct {
	img   *obj.Image
	cfg   Config
	sys   alt.System
	m     *machine.Machine
	k     *kernel.Kernel
	p     *kernel.Process
	rt    *fpvmrt.Runtime
	phase vmPhase
	steps uint64 // event boundaries executed so far; travels in snapshots
	// fromBytes is set once Restore loaded the VM's state from a
	// snapshot (Result.Resumed).
	fromBytes bool
}

// vmPhase is a VM's position in its single life.
type vmPhase uint8

const (
	vmFresh     vmPhase = iota // prepared; never run or restored
	vmSuspended                // preempted or restored; RunSlice continues it
	vmDone                     // finished, failed, or spent as bytes
)

// Prepare builds the full virtual machine for img without executing it.
// The returned VM runs cfg's configuration exactly as Run(img, cfg)
// would; RunSlice, Run and Resume on it are the execution halves of that
// call.
func Prepare(img *obj.Image, cfg Config) (*VM, error) {
	sys, err := newSystemFor(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Shared != nil {
		// Trained decodes/traces are only valid for the image they were
		// built from; one shared store serves exactly one image.
		if err := cfg.Shared.Check(img); err != nil {
			return nil, err
		}
	}

	as := mem.NewAddressSpace()
	m := machine.New(as)
	k := kernel.New()
	if cfg.Short {
		k.LoadModule()
	}
	p := kernel.NewProcess(k, m, img.Name)
	lib := hostlib.Install(p)

	rt, err := fpvmrt.Attach(p, fpvmrt.Config{
		Alt:                sys,
		Seq:                cfg.Seq,
		Short:              cfg.Short,
		MagicWraps:         cfg.MagicWraps,
		GCThreshold:        cfg.GCThreshold,
		CacheCapacity:      cfg.CacheCapacity,
		SeqLimit:           cfg.SeqLimit,
		Profile:            cfg.Profile,
		EmulateAll:         cfg.EmulateAll,
		FutureHW:           cfg.FutureHW,
		Inject:             cfg.Inject,
		MaxLiveBoxes:       cfg.MaxLiveBoxes,
		RetryBudget:        cfg.RetryBudget,
		RetryBackoffCycles: cfg.RetryBackoffCycles,
		TrapCycleBudget:    cfg.TrapCycleBudget,
		NoTraceCache:       cfg.NoTraceCache,
		CheckpointInterval: cfg.CheckpointInterval,
		MaxRollbacks:       cfg.MaxRollbacks,
		Shared:             cfg.Shared,
		Observer:           cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	rt.InstallWrappers(lib)

	runImg := img
	if cfg.MagicWraps {
		runImg = img.Clone()
		rt.ApplyMagicWraps(runImg)
	}

	if err := loadAndStart(p, runImg, rt.WrapResolver(resolverFor(runImg, lib))); err != nil {
		return nil, err
	}
	// FPVM's Attach set MXCSR before the machine was started; make sure
	// program start didn't reset it.
	m.CPU.MXCSR = machine.MXCSRTrapAll

	return &VM{img: img, cfg: cfg, sys: sys, m: m, k: k, p: p, rt: rt}, nil
}

// SetPreemptQuantum sets the length of the next slices. Quantum is
// excluded from ConfigSignature, so a VM prepared under one quantum may
// execute (and resume snapshots taken) under another.
func (vm *VM) SetPreemptQuantum(q uint64) { vm.cfg.PreemptQuantum = q }

// Cycles reports the VM's virtual clock: the cycles consumed so far, or
// the snapshot's clock right after Restore.
func (vm *VM) Cycles() uint64 { return vm.m.Cycles }

// Memory returns the guest address space and the function that demotes
// a live NaN box to the IEEE double bits it stands for (any other bits
// pass through), so a harness can compare guest memory across runs
// whose box handles differ. Neither charges cycles.
func (vm *VM) Memory() (*mem.AddressSpace, func(bits uint64) uint64) {
	return vm.m.Mem, vm.rt.NormalizeBits
}

// Run executes a fresh VM from its entry point: to completion, or until
// the preemption quantum expires, in which case the Result carries the
// serialized VM in Snapshot and this VM is spent (Resume continues from
// the bytes). RunSlice is the form that keeps a preempted VM live.
func (vm *VM) Run() (*Result, error) {
	if vm.phase != vmFresh {
		return nil, errVMUsed
	}
	return vm.spend()
}

// Resume restores a serialized snapshot into a fresh VM and runs it like
// Run, subject to Restore's bindings.
func (vm *VM) Resume(snapshot []byte) (*Result, error) {
	if err := vm.Restore(snapshot); err != nil {
		return nil, err
	}
	return vm.spend()
}

// Restore loads a serialized snapshot into a fresh VM without running
// it; the next RunSlice continues from the snapshot's preemption point.
// The snapshot must match the VM's image hash, alt system and semantic
// configuration.
func (vm *VM) Restore(snapshot []byte) error {
	if vm.phase != vmFresh {
		return errVMUsed
	}
	snap, err := checkpoint.Decode(snapshot)
	if err != nil {
		return err
	}
	if err := snap.Validate(vm.img.Hash(), vm.sys.Name(), ConfigSignature(vm.cfg)); err != nil {
		return err
	}
	// A failed restore leaves the VM half-written: never run it.
	vm.phase = vmDone
	if err := vm.rt.RestoreImage(snap); err != nil {
		return err
	}
	vm.steps = snap.Steps
	vm.fromBytes = true
	vm.phase = vmSuspended
	return nil
}

// Snapshot serializes a preempted (or restored, not yet run) VM into the
// checkpoint wire format, bound to the image hash, alt system and
// semantic configuration. The VM itself is untouched: its next RunSlice
// continues in place, and Resume of the bytes in a fresh VM continues
// bit-identically.
func (vm *VM) Snapshot() ([]byte, error) {
	if vm.phase != vmSuspended {
		return nil, errors.New("fpvm: Snapshot needs a preempted VM")
	}
	wi, err := vm.rt.CaptureImage(vm.img.Hash(), ConfigSignature(vm.cfg), vm.steps)
	if err != nil {
		return nil, err
	}
	return wi.Encode()
}

var (
	errVMUsed = errors.New("fpvm: VM already executed or restored (Run, Resume and Restore need a fresh VM)")
	errVMDone = errors.New("fpvm: VM has finished (a VM runs one job, once)")
)

// spend runs one slice and hands a preempted VM off as bytes: the
// one-shot contract of Run and Resume.
func (vm *VM) spend() (*Result, error) {
	res, err := vm.RunSlice()
	if err != nil || !res.Preempted {
		return res, err
	}
	if res.Snapshot, err = vm.Snapshot(); err != nil {
		return nil, err
	}
	vm.phase = vmDone
	return res, nil
}

// RunSlice executes the VM for one preemption quantum, or to completion
// when the quantum is 0: from the entry point on a fresh VM, from where
// it stopped on a preempted or restored one. A preempted Result reports
// the state so far and carries no Snapshot; the VM stays live for the
// next RunSlice (or Snapshot). Any other Result is final, and the VM is
// done.
func (vm *VM) RunSlice() (*Result, error) {
	if vm.phase == vmDone {
		return nil, errVMDone
	}
	cfg, m, p, rt := vm.cfg, vm.m, vm.p, vm.rt
	if cfg.PreemptQuantum > 0 && !rt.CanSuspend() {
		// Every AltKind has a value codec, so the one VM that cannot
		// suspend is a precision-policy run.
		return nil, fmt.Errorf("fpvm: PreemptQuantum cannot suspend %q: the precision policy's per-site tier table is not in the snapshot image", vm.sys.Name())
	}
	// Done until the slice ends in a clean preemption: a slice that
	// errors (or panics) leaves nothing to continue.
	vm.phase = vmDone

	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	// A VM restored at or past its step limit runs one boundary, then
	// fails.
	budget := uint64(1)
	if vm.steps < maxSteps {
		budget = maxSteps - vm.steps
	}
	// Once this slice has consumed the preemption quantum on the virtual
	// clock, the run suspends at the next event boundary (a point where
	// no trap is in flight and machine.CPU is authoritative).
	until := uint64(math.MaxUint64)
	if q := cfg.PreemptQuantum; q > 0 && m.Cycles < math.MaxUint64-q {
		until = m.Cycles + q
	}
	n := p.RunFor(budget, until)
	vm.steps += n

	var runErr error
	preempted := false
	if n == budget {
		runErr = fmt.Errorf("kernel: process %s exceeded %d steps", p.Name, maxSteps)
	} else {
		preempted = !p.Exited // RunFor stopped on the clock
		if runErr = p.Err; runErr == nil {
			runErr = rt.Err()
		}
	}

	res := vm.result()
	if preempted && runErr == nil {
		res.Preempted = true
		vm.phase = vmSuspended
		return res, nil
	}
	final := rt.CaptureFinal()
	res.Final = &final
	return res, runErr
}

// result assembles the counter surface shared by completed and preempted
// results. The Result owns copies of the live telemetry and profile: a
// preempted VM keeps running, and an earlier slice's Result must not
// change under whoever holds it. (A copy also means no Result keeps its
// VM reachable.)
func (vm *VM) result() *Result {
	p, m, k, rt := vm.p, vm.m, vm.k, vm.rt
	tel := rt.Tel
	res := &Result{
		Stdout:             p.Stdout.String(),
		ExitCode:           p.ExitCode,
		Cycles:             m.Cycles,
		Instructions:       m.Instructions,
		FPInstructions:     m.FPInstructions,
		Traps:              rt.Tel.Traps,
		EmulatedInsts:      rt.Tel.EmulatedInsts,
		Breakdown:          &tel,
		SeqProfile:         rt.Profile.Clone(),
		ShortActive:        rt.ShortActive,
		GCRuns:             rt.GCRuns,
		Promotions:         rt.Promotions,
		Demotions:          rt.Demotions,
		DecodeCacheEntries: rt.Cache().Len(),
		TraceHits:          rt.Tel.TraceHits,
		TraceMisses:        rt.Tel.TraceMisses,
		TraceDivergences:   rt.Tel.TraceDivergences,
		ReplayedInsts:      rt.Tel.ReplayedInsts,
		JITExecs:           rt.Tel.TraceHits,
		JITDeopts:          rt.Tel.TraceDivergences,
		TraceCacheEntries:  rt.Cache().TraceLen(),
		SharedHits:         rt.Cache().Stats.SharedHits,
		SharedTraceHits:    rt.Cache().Stats.SharedTraceHits,
		KernelStats:        k.Stats,
		Detached:           rt.Detached(),
		Retries:            rt.Retries,
		BackoffCycles:      rt.Tel.BackoffCycles,
		Degradations:       rt.Degradations,
		WatchdogAborts:     rt.WatchdogAborts,
		PanicRecoveries:    rt.PanicRecoveries,
		AbortedTraps:       rt.Aborted,
		Checkpoints:        rt.Checkpoints,
		Rollbacks:          rt.Rollbacks,
		RollbackFailures:   rt.RollbackFailures,
		Quarantines:        rt.Quarantines,
		Policy:             rt.PolicyStats(),
		Resumed:            vm.fromBytes,
	}
	if vm.cfg.Inject != nil {
		res.FaultReport = vm.cfg.Inject.Report()
	}
	return res
}

// resolverFor builds the base dynamic-link namespace: program symbols
// first, then the host library (ld.so search order).
func resolverFor(img *obj.Image, lib *hostlib.Library) obj.Resolver {
	return func(name string) (uint64, bool) {
		if sym, ok := img.Lookup(name); ok {
			return sym.Addr, true
		}
		addr, ok := lib.Exports[name]
		return addr, ok
	}
}

// loadAndStart maps the stack and guest heap, loads the image, and points
// the machine at the entry.
func loadAndStart(p *kernel.Process, img *obj.Image, resolve obj.Resolver) error {
	as := p.M.Mem
	as.Map("stack", obj.StackTop-obj.StackSize, obj.StackSize, mem.PermRW)
	as.Map("heap", obj.HeapBase, obj.HeapSize, mem.PermRW)
	if err := img.Load(as, resolve); err != nil {
		return err
	}
	p.M.InvalidateICache()
	p.M.CPU.RIP = img.Entry
	p.M.CPU.GPR[4] = obj.StackTop - 64 // rsp, leave a landing area
	return nil
}
