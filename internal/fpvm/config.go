// Package fpvm implements the floating point virtual machine runtime: the
// trap handlers that decode, bind and emulate instructions against an
// alternative arithmetic system (§2), NaN-box promotion/demotion (§2.2),
// garbage collection of boxes (§2.5), instruction sequence emulation (§4),
// trap short-circuiting via the kernel module (§3), and kernel-bypass
// correctness instrumentation (§5).
package fpvm

import (
	"fpvm/internal/alt"
	"fpvm/internal/dcache"
	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
)

// Config selects the acceleration techniques, mirroring the paper's
// evaluation axes (NONE / SEQ / SHORT / SEQ SHORT, plus magic traps and
// wraps).
type Config struct {
	// Alt is the alternative arithmetic system (required).
	Alt alt.System

	// Seq enables instruction sequence emulation (§4): emulate multiple
	// instructions per trap, amortizing delivery costs.
	Seq bool

	// Short enables trap short-circuiting (§3): register with the kernel
	// module's /dev/fpvm instead of receiving SIGFPE. If the module is
	// not loaded, FPVM falls back to signals (and reports it).
	Short bool

	// MagicWraps uses symbol-table rewriting for foreign function
	// wrappers (§5.3) instead of LD_PRELOAD-order forward wrapping. The
	// two have identical runtime cost; the knob exists for the ablation.
	MagicWraps bool

	// GCThreshold is the live-box count that triggers collection
	// (0 = default 4096).
	GCThreshold int

	// CacheCapacity bounds the decode/trace cache (0 = 64K entries).
	CacheCapacity int

	// SeqLimit caps instructions emulated per trap (0 = 256).
	SeqLimit int

	// Profile enables sequence statistics collection (§6.3).
	Profile bool

	// FutureHW enables the paper's §8 future-work hardware model:
	// user-level FP trap delivery that bypasses the kernel entirely
	// (~150 cycles round trip instead of signals or even the kernel
	// module) and hardware NaN-box escape detection that makes binary
	// patching for memory-escape correctness unnecessary. "In a fully
	// virtualizable architecture, the corr and fcall costs would not
	// exist" (§2.6).
	FutureHW bool

	// EmulateAll disables the §4.2 condition-(2) termination rule:
	// emulatable instructions are emulated even when no source operand is
	// NaN-boxed. This is the "unwarranted emulation" ablation of the
	// §4.1 tradeoff discussion — longer sequences, but software-emulating
	// work the hardware would have done faster.
	EmulateAll bool

	// Inject, when set, arms fault injection at the pipeline's named
	// sites (alt.op, heap.alloc, decode, kernel.deliver, corr.trap,
	// gc.scan, ckpt.save, ckpt.restore). Injected faults are fed to the
	// recovery ladder: bounded retry, checkpoint rollback, degradation
	// to native IEEE, or clean detach.
	Inject *faultinject.Injector

	// MaxLiveBoxes is a hard cap on the live box population (0 =
	// unbounded). At the cap the runtime forces a collection; if the heap
	// is still full, the result is stored as a plain IEEE double (a
	// degradation) instead of growing without bound.
	MaxLiveBoxes int

	// RetryBudget is the per-site, per-trap transient retry budget of the
	// recovery ladder (0 = default 3). When a site's budget is exhausted
	// within one trap, further faults there degrade instead of retrying.
	RetryBudget int

	// RetryBackoffCycles, when > 0, makes the retry rung wait before
	// re-attempting: the k-th retry of a site within one trap charges
	// ~RetryBackoffCycles·2^k virtual cycles ±25% deterministic jitter
	// (seeded by the running retry ordinal, so identical runs charge
	// identical delays). Spreads retry storms out instead of re-executing
	// immediately in lockstep. 0 (the default) retries immediately,
	// preserving the pre-backoff cycle accounting.
	RetryBackoffCycles uint64

	// TrapCycleBudget is the per-trap virtual-cycle watchdog: sequence
	// emulation that charges more than this many cycles within a single
	// trap is aborted (the sequence ends early; the guest simply traps
	// again). 0 = default 10M cycles.
	TrapCycleBudget uint64

	// NoTraceCache disables the L2 trace table (ablation): every trap
	// re-walks the sequence through the per-instruction decode cache,
	// running the same steps replay would. With Seq off the trace cache is
	// inert regardless (single-instruction traps have no sequence to
	// cache).
	NoTraceCache bool

	// CheckpointInterval enables the rollback supervisor: every N traps
	// the runtime captures a crash-consistent snapshot of the guest
	// (registers, memory, box heap, thread table, stdout), and fatal-rung
	// failures restore the last snapshot and re-execute with the
	// distrusted RIP quarantined instead of detaching. The snapshot holds
	// the heap through the alt system's value codec, so Attach refuses a
	// system without one. 0 (the default) disables checkpointing; the
	// ladder then behaves as before.
	CheckpointInterval int

	// MaxRollbacks bounds rollback attempts per run (0 = default 8).
	// When exhausted, fatal failures fall through to the degrade/detach
	// rungs as if checkpointing were disabled.
	MaxRollbacks int

	// Observer, when set, receives a NaN-box-normalized architectural
	// state snapshot at every handled FP trap boundary (see TrapState).
	// Observation is passive — no cycles are charged — so an observed run
	// is cycle-identical to an unobserved one. Used by the differential
	// conformance oracle (internal/oracle); nil in production configs.
	Observer func(*TrapState)

	// Shared, when set, backs this VM's private decode/trace cache with a
	// frozen store trained on the same image (dcache.Freeze): local misses
	// adopt its decodes and copies of its traces, and everything the VM
	// inserts or invalidates stays local. Nil keeps the cache fully
	// private.
	Shared *dcache.SharedCache
}

// DefaultRetryBudget is the per-site per-trap retry budget when
// Config.RetryBudget is 0.
const DefaultRetryBudget = 3

// DefaultTrapCycleBudget is the watchdog budget when Config.TrapCycleBudget
// is 0 — far above any legitimate trap (a full 256-instruction MPFR
// sequence stays under ~3M cycles).
const DefaultTrapCycleBudget = 10_000_000

// DefaultMaxRollbacks bounds rollback attempts when Config.MaxRollbacks
// is 0 and checkpointing is enabled. Combined with exponential snapshot
// interval backoff it guarantees a run cannot live-lock re-executing the
// same faulty region.
const DefaultMaxRollbacks = 8

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

// CostParams prices the runtime's own work in virtual cycles. Defaults
// approximate the paper's Figure 1 components on its testbed.
type CostParams struct {
	DecacheHit  uint64 // decode cache hit lookup
	Decode      uint64 // full decode on a cache miss (Capstone-equivalent)
	BindArith   uint64 // operand binding for arithmetic
	BindMove    uint64 // operand binding for moves
	EmulArith   uint64 // emulator dispatch for arithmetic (excl. altmath)
	EmulMove    uint64 // emulator dispatch for moves
	CorrHandler uint64 // demotion handler body for correctness events
	WrapCall    uint64 // wrapper stub overhead per foreign call
	MagicCall   uint64 // double-indirect call+return of a magic trap
	TraceHit    uint64 // L2 trace-table lookup on trap entry (once per replay)
	TraceInst   uint64 // per-instruction replay step (vs DecacheHit per walked inst)
	CkptSave    uint64 // checkpoint snapshot capture (amortized per save)
	CkptRestore uint64 // checkpoint restore during a rollback
}

// DefaultCosts returns the testbed-calibrated runtime costs.
func DefaultCosts() CostParams {
	return CostParams{
		DecacheHit:  25,
		Decode:      950,
		BindArith:   70,
		BindMove:    25,
		EmulArith:   90,
		EmulMove:    35,
		CorrHandler: 120,
		WrapCall:    90,
		MagicCall:   50,
		TraceHit:    30,
		TraceInst:   6,
		CkptSave:    1500,
		CkptRestore: 3000,
	}
}

// emulClass classifies how the runtime treats an opcode during (sequence)
// emulation.
type emulClass uint8

const (
	classUnsupported emulClass = iota // condition (1) terminator
	classMove                         // supported data movement
	classScalarArith                  // addsd .. maxsd, sqrtsd
	classPackedArith
	classScalarCmp // cmpxxsd
	classPackedCmp
	classCompare // ucomisd/comisd (flags)
	classCvtToInt
	classCvtFromInt
	classRound
)

// classify maps an opcode to its emulation class. The supported move set
// mirrors §4.2: scalar and full-vector moves, GPR moves, and GPR<->XMM
// transfers are supported (~40 opcodes); partial-vector moves (movhpd,
// movlpd), shuffles/unpacks, push/pop, lea, all integer ALU and all
// control flow are not, and terminate sequences.
func classify(op isa.Op) emulClass {
	switch op {
	case isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.SQRTSD, isa.MINSD, isa.MAXSD:
		return classScalarArith
	case isa.ADDPD, isa.SUBPD, isa.MULPD, isa.DIVPD, isa.SQRTPD, isa.MINPD, isa.MAXPD:
		return classPackedArith
	case isa.CMPEQSD, isa.CMPLTSD, isa.CMPLESD, isa.CMPUNORDSD,
		isa.CMPNEQSD, isa.CMPNLTSD, isa.CMPNLESD, isa.CMPORDSD:
		return classScalarCmp
	case isa.CMPEQPD, isa.CMPLTPD, isa.CMPLEPD, isa.CMPNEQPD:
		return classPackedCmp
	case isa.UCOMISD, isa.COMISD:
		return classCompare
	case isa.CVTSD2SI, isa.CVTTSD2SI:
		return classCvtToInt
	case isa.CVTSI2SD:
		return classCvtFromInt
	case isa.ROUNDSD:
		return classRound

	case isa.MOV64RR, isa.MOV64RM, isa.MOV64MR, isa.MOV64RI,
		isa.MOV32RR, isa.MOV32RM, isa.MOV32MR, isa.MOV32RI,
		isa.MOV16RM, isa.MOV16MR, isa.MOV8RM, isa.MOV8MR,
		isa.MOVZX8, isa.MOVZX16, isa.MOVSX8, isa.MOVSX16, isa.MOVSXD,
		isa.MOVSDXX, isa.MOVSDXM, isa.MOVSDMX,
		isa.MOVAPDXX, isa.MOVAPDXM, isa.MOVAPDMX,
		isa.MOVUPDXM, isa.MOVUPDMX,
		isa.MOVQXG, isa.MOVQGX, isa.MOVQXM, isa.MOVQMX,
		isa.MOVDXG, isa.MOVDGX,
		isa.MOVDQAXX, isa.MOVDQAXM, isa.MOVDQAMX,
		isa.MOVDQUXM, isa.MOVDQUMX,
		isa.MOVDDUP:
		return classMove
	}
	return classUnsupported
}
