// Package oracle is the differential conformance oracle: it executes one
// guest program under a matrix of FPVM configurations plus a native IEEE
// baseline and diffs architectural state — FP registers, GPRs, RFLAGS,
// MXCSR, dirtied memory, stdout — at every trap boundary and at program
// exit, reporting the first divergent trap (index and RIP) with both
// states rendered side by side. It also audits each run's telemetry
// against the runtime's structural invariants (traps ≥ trace activity,
// ladder counters consistent, clean runs fault-free).
//
// Comparison model. Configurations that share an alt system, a sequence
// mode, a trace-cache setting and an image take identical trap streams
// by construction (short-circuit delivery, checkpointing and fleet
// sharing change only virtual cycle accounting), so they form a
// comparison *group*: their per-trap state streams must match record
// for record. Configurations with different trap boundaries sit in
// their own groups — NONE vs SEQ obviously, but also trace-on vs
// trace-off: replay ends a sequence where the recorded trace ends, so
// a replayed run may resume native earlier and take an extra trap that
// the walk would have absorbed. Those pairs are instead joined by an
// *exit group*: different boundaries, same final architectural state.
// Boxed-IEEE specs are additionally compared against the native
// baseline at exit — the paper's bit-for-bit conformance property —
// while bigfp groups are only required to be internally consistent
// (their results deliberately differ from IEEE).
//
// Per-trap states are digested (FNV-1a over the normalized record), so a
// full conformance pass over a long workload stores 24 bytes per trap;
// only when a digest stream diverges does the oracle re-execute the two
// configurations to recover the full states at the first divergent index.
package oracle

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"fpvm"
	"fpvm/internal/hostlib"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/obj"
	"fpvm/internal/telemetry"
)

// Spec names one configuration of the matrix.
type Spec struct {
	Name string

	// Alt names the arithmetic system as an fpvm.AltKind: "" or "boxed"
	// for Boxed IEEE, "mpfr" for the arbitrary-precision bigfp system,
	// "posit"/"posit32" for 64/32-bit posits (es=2), "interval" for
	// outward-rounded interval arithmetic, "rational" for exact
	// (denominator-bounded) rationals. Any other name fails the spec
	// with a run error.
	Alt string

	Seq        bool
	Short      bool
	NoTrace    bool
	EmulateAll bool
	FutureHW   bool

	// Ckpt enables the rollback supervisor with this snapshot interval.
	Ckpt int

	// Fleet, when > 1, runs this many concurrent copies of the VM on one
	// shared decode/trace cache (fpvm.TrainSharedCache); every copy must
	// produce the group's exact trap stream and final state.
	Fleet int

	// Preempt, when > 0, is the preemption axis: the spec's VM runs in
	// slices of this many virtual cycles. By default every slice
	// continues the live VM (VM.RunSlice, resident slicing); Serialize
	// instead hands each preempted VM off as snapshot bytes and resumes
	// them in a fresh VM (VM.Run, then VM.Resume per slice). Slicing is
	// invisible to the guest, so both belong to their unsliced twin's
	// Group.
	Preempt   uint64
	Serialize bool

	// Group keys trap-stream comparison: all specs with the same
	// non-empty Group must produce identical per-trap state streams. The
	// first spec listed in a group is its reference. Specs whose trap
	// boundaries are unique (e.g. EmulateAll) leave Group empty and are
	// only compared at exit.
	Group string

	// ExitGroup keys exit-state comparison for specs whose trap
	// boundaries legitimately differ but whose final architectural state
	// must not: trace replay ends sequences where the recorded trace
	// ends (§4.2 divergence exits included), so a trace-on run can take
	// more, shorter traps than the trace-off walk while computing the
	// same result.
	ExitGroup string

	// VsNative requires the final state (stdout, exit code, registers,
	// dirtied memory) to match the native IEEE baseline bit for bit.
	VsNative bool
}

// Program bundles the image forms the matrix runs. Native is the original
// image (the baseline runs it un-instrumented); Patched carries the §5
// correctness instrumentation and is what FPVM configurations execute.
// When Patched is nil the FPVM configurations run Native directly (fuzz
// programs have no memory-escape sites worth profiling).
type Program struct {
	Name    string
	Native  *obj.Image
	Patched *obj.Image
}

// NewProgram profiles img for memory-escape sites and patches them with
// magic traps (fpvm.PrepareForFPVM): the twin the FPVM configurations
// run. An image without such sites has no twin.
func NewProgram(name string, img *obj.Image) (Program, error) {
	patched, err := fpvm.PrepareForFPVM(img, true)
	if err != nil {
		return Program{}, fmt.Errorf("oracle: prepare %s: %w", name, err)
	}
	p := Program{Name: name, Native: img}
	if patched != img {
		p.Patched = patched
	}
	return p, nil
}

// image returns the image spec runs: the patched twin, or Native when
// there is none or when the spec models the future-work hardware, which
// detects box escapes in silicon (its trap RIPs differ from the patched
// twin's, so FutureHW specs must not share a Group with it).
func (p Program) image(spec Spec) *obj.Image {
	if p.Patched == nil || spec.FutureHW {
		return p.Native
	}
	return p.Patched
}

// Options tunes a conformance check.
type Options struct {
	// Specs is the configuration matrix (nil = DefaultMatrix).
	Specs []Spec

	// MaxSteps bounds each run (0 = 500M machine steps).
	MaxSteps uint64

	// MPFRPrecision is the bigfp mantissa width (0 = 96 bits).
	MPFRPrecision uint
}

const defaultMaxSteps = 500_000_000

// TrapRec is the digested per-trap record: the faulting RIP (kept raw so
// divergence reports can name the site without a re-run) and an FNV-1a
// digest of the full normalized TrapState.
type TrapRec struct {
	RIP uint64
	Sum uint64
}

// Page is a normalized image of one writable guest page.
type Page struct {
	Addr uint64
	Data []byte
}

// Capture is everything observed from one run.
type Capture struct {
	Spec     Spec
	Stdout   string
	ExitCode int
	RunErr   error
	Detached bool

	Recs   []TrapRec
	Final  fpvm.TrapState
	Mem    []Page
	Tel    telemetry.Breakdown
	Cycles uint64 // the VM's virtual clock at exit

	// Full is the complete state at the requested trap index when the
	// runner was asked for one (divergence re-runs); nil otherwise.
	Full *fpvm.TrapState
}

// Divergence describes the first observed disagreement between two runs.
type Divergence struct {
	Program string
	A, B    string // spec names ("native" for the baseline)
	Kind    string // trap-stream | stdout | exit-code | final-state | memory | invariant | run-error
	Index   uint64 // 1-based trap ordinal for trap-stream divergences
	RIP     uint64
	Detail  string
}

func (d *Divergence) String() string {
	s := fmt.Sprintf("%s: %s vs %s: %s divergence", d.Program, d.A, d.B, d.Kind)
	if d.Kind == "trap-stream" {
		s += fmt.Sprintf(" at trap #%d rip=%#x", d.Index, d.RIP)
	}
	if d.Detail != "" {
		s += "\n" + d.Detail
	}
	return s
}

// digestState folds a normalized trap record into an FNV-1a sum. The trap
// ordinal is positional (implied by the stream index) and virtual cycles
// are configuration-dependent by design, so neither is hashed.
func digestState(st *fpvm.TrapState) uint64 {
	const offset, prime = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(st.TrapRIP)
	mix(st.ResumeRIP)
	mix(uint64(st.MXCSR))
	mix(st.RFLAGS)
	mix(uint64(st.StdoutLen))
	for _, g := range st.GPR {
		mix(g)
	}
	for _, x := range st.XMM {
		mix(x[0])
		mix(x[1])
	}
	return h
}

func (o Options) maxSteps() uint64 {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return defaultMaxSteps
}

func (o Options) precision() uint {
	if o.MPFRPrecision > 0 {
		return o.MPFRPrecision
	}
	return 96
}

// config is the fpvm.Config spec runs under.
func (s Spec) config(opt Options) fpvm.Config {
	return fpvm.Config{
		Alt:                fpvm.AltKind(s.Alt),
		Precision:          opt.precision(),
		Seq:                s.Seq,
		Short:              s.Short,
		NoTraceCache:       s.NoTrace,
		EmulateAll:         s.EmulateAll,
		FutureHW:           s.FutureHW,
		CheckpointInterval: s.Ckpt,
		MaxSteps:           opt.maxSteps(),
		PreemptQuantum:     s.Preempt,
	}
}

// RunNative executes prog's original image without FPVM and captures its
// final state and dirtied memory (raw — native words need no box
// normalization). It builds its own machine rather than use
// fpvm.Prepare, so the baseline is a reference independent of the VM
// under test.
func RunNative(prog Program, maxSteps uint64) *Capture {
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	as := mem.NewAddressSpace()
	m := machine.New(as)
	p := kernel.NewProcess(kernel.New(), m, prog.Name)
	lib := hostlib.Install(p)
	as.Map("stack", obj.StackTop-obj.StackSize, obj.StackSize, mem.PermRW)
	as.Map("heap", obj.HeapBase, obj.HeapSize, mem.PermRW)
	c := &Capture{Spec: Spec{Name: "native"}}
	resolve := func(name string) (uint64, bool) {
		if sym, ok := prog.Native.Lookup(name); ok {
			return sym.Addr, true
		}
		a, ok := lib.Exports[name]
		return a, ok
	}
	if err := prog.Native.Load(as, resolve); err != nil {
		c.RunErr = err
		return c
	}
	m.InvalidateICache()
	m.CPU.RIP = prog.Native.Entry
	m.CPU.GPR[isa.RSP] = obj.StackTop - 64
	c.RunErr = p.Run(maxSteps)
	c.Stdout = p.Stdout.String()
	c.ExitCode = p.ExitCode
	c.Final = captureCPU(&m.CPU, p.Stdout.Len())
	c.Mem = capturePages(as, nil, gotSlots(prog.Native), m.CPU.GPR[isa.RSP])
	return c
}

// Run builds prog's VM for spec with fpvm.Prepare, runs it and captures
// the per-trap digest stream, final normalized state, normalized dirtied
// memory and telemetry. A preemption-axis spec runs slice by slice: on
// the one live VM, or, for Serialize, through snapshot bytes into a fresh
// VM per slice; the capture comes from the VM that ran the last slice.
// wantIdx, when non-zero, additionally retains the complete TrapState at
// that trap ordinal (divergence re-runs). shared, when non-nil, backs the
// VM's cache (fleet specs).
func Run(prog Program, spec Spec, opt Options, wantIdx uint64, shared *fpvm.SharedCache) *Capture {
	img := prog.image(spec)
	c := &Capture{Spec: spec}
	cfg := spec.config(opt)
	cfg.Shared = shared
	cfg.Observer = func(st *fpvm.TrapState) {
		// A rollback rewinds the trap ordinal with the restored timeline;
		// truncate so the stream reflects the surviving history.
		if n := int(st.Index); n <= len(c.Recs) {
			c.Recs = c.Recs[:n-1]
		}
		c.Recs = append(c.Recs, TrapRec{RIP: st.TrapRIP, Sum: digestState(st)})
		if wantIdx != 0 && st.Index == wantIdx {
			full := *st
			c.Full = &full
		}
	}
	vm, err := fpvm.Prepare(img, cfg)
	if err != nil {
		c.RunErr = err
		return c
	}
	var res *fpvm.Result
	if spec.Serialize {
		res, err = vm.Run()
	} else {
		res, err = vm.RunSlice()
	}
	for err == nil && res.Preempted {
		if !spec.Serialize {
			res, err = vm.RunSlice()
		} else if vm, err = fpvm.Prepare(img, cfg); err == nil {
			res, err = vm.Resume(res.Snapshot)
		}
	}
	c.RunErr = err
	if res == nil || res.Preempted {
		return c
	}
	c.Stdout = res.Stdout
	c.ExitCode = res.ExitCode
	c.Detached = res.Detached
	c.Tel = *res.Breakdown
	c.Cycles = res.Cycles
	c.Final = *res.Final
	// Final's registers are normalized, but RSP holds a stack address,
	// which is never a NaN box, so it is the raw final RSP.
	as, norm := vm.Memory()
	c.Mem = capturePages(as, norm, gotSlots(img), c.Final.GPR[isa.RSP])
	return c
}

// captureCPU snapshots a raw (un-normalized) register file — the native
// baseline holds no boxes.
func captureCPU(cpu *machine.CPU, stdoutLen int) fpvm.TrapState {
	st := fpvm.TrapState{
		TrapRIP:   cpu.RIP,
		ResumeRIP: cpu.RIP,
		MXCSR:     cpu.MXCSR,
		RFLAGS:    cpu.RFLAGS,
		StdoutLen: stdoutLen,
	}
	st.GPR = cpu.GPR
	st.XMM = cpu.XMM
	return st
}

// gotSlots collects the image's GOT slot addresses. Slot contents are
// resolved host bridge addresses — simulation plumbing whose values
// legitimately differ between the native baseline (direct library
// exports) and FPVM runs (wrapper stubs) — so memory comparison masks
// exactly these words.
func gotSlots(img *obj.Image) map[uint64]bool {
	if len(img.Relocs) == 0 {
		return nil
	}
	slots := make(map[uint64]bool, len(img.Relocs))
	for _, r := range img.Relocs {
		slots[r.SlotAddr] = true
	}
	return slots
}

// capturePages copies every writable page (a full content sweep, so
// every run is compared on the same pages), rewriting live NaN
// boxes to their IEEE values when norm is non-nil so images are
// comparable across runs whose heap handles differ. Two kinds of
// non-architectural bytes are masked to zero: GOT slots (host bridge
// addresses, see gotSlots) and dead stack below the final RSP (residue
// of abandoned frames — return addresses there differ between the
// patched and unpatched image by construction).
func capturePages(as *mem.AddressSpace, norm func(uint64) uint64, got map[uint64]bool, rsp uint64) []Page {
	stackBase := uint64(obj.StackTop - obj.StackSize)
	var out []Page
	for _, pa := range as.WritablePages() {
		data, ok := as.PageData(pa)
		if !ok {
			continue
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		if norm != nil {
			for off := 0; off+8 <= len(cp); off += 8 {
				bits := binary.LittleEndian.Uint64(cp[off:])
				if nb := norm(bits); nb != bits {
					binary.LittleEndian.PutUint64(cp[off:], nb)
				}
			}
		}
		for off := 0; off+8 <= len(cp); off += 8 {
			if got[pa+uint64(off)] {
				binary.LittleEndian.PutUint64(cp[off:], 0)
			}
		}
		if pa >= stackBase && pa < obj.StackTop && rsp > pa {
			dead := rsp - pa
			if dead > uint64(len(cp)) {
				dead = uint64(len(cp))
			}
			for i := uint64(0); i < dead; i++ {
				cp[i] = 0
			}
		}
		out = append(out, Page{Addr: pa, Data: cp})
	}
	return out
}

// Invariants audits a capture's telemetry against the runtime's
// structural guarantees. Clean-matrix runs (no fault injection) must also
// show an untouched recovery ladder.
func Invariants(c *Capture) error {
	t := &c.Tel
	var errs []string
	add := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if t.TraceHits+t.TraceMisses > t.Traps {
		add("trace lookups %d exceed traps %d", t.TraceHits+t.TraceMisses, t.Traps)
	}
	if t.TraceDivergences > t.TraceHits {
		add("trace divergences %d exceed hits %d", t.TraceDivergences, t.TraceHits)
	}
	if t.ReplayedInsts > t.EmulatedInsts {
		add("replayed insts %d exceed emulated %d", t.ReplayedInsts, t.EmulatedInsts)
	}
	if !c.Detached && t.AbortedTraps == 0 && t.EmulatedInsts < t.Traps {
		add("emulated insts %d below traps %d (every handled trap emulates at least one)", t.EmulatedInsts, t.Traps)
	}
	if !t.FaultsReconciled() {
		add("fault ledger does not reconcile: injected %d != retried %d + rolledback %d + degraded %d + fatal %d",
			t.FaultsInjected, t.FaultsRetried, t.FaultsRolledBack, t.FaultsDegraded, t.FaultsFatal)
	}
	if t.Checkpoints > t.Traps {
		add("checkpoints %d exceed traps %d", t.Checkpoints, t.Traps)
	}
	if c.Spec.Ckpt > 0 && t.Traps > uint64(c.Spec.Ckpt) && t.Checkpoints == 0 {
		add("checkpointing enabled (interval %d, %d traps) but no snapshot was taken", c.Spec.Ckpt, t.Traps)
	}
	if c.Spec.Ckpt == 0 && t.Checkpoints != 0 {
		add("checkpoints %d with checkpointing disabled", t.Checkpoints)
	}
	// The clean matrix injects nothing: the whole ladder must be silent.
	if t.FaultsInjected != 0 || t.PanicRecoveries != 0 || t.WatchdogAborts != 0 ||
		t.Rollbacks != 0 || t.RollbackFailures != 0 || t.Quarantines != 0 || c.Detached {
		add("clean run shows ladder activity: injected %d, panics %d, watchdog %d, rollbacks %d (failed %d), quarantines %d, detached %v",
			t.FaultsInjected, t.PanicRecoveries, t.WatchdogAborts, t.Rollbacks, t.RollbackFailures, t.Quarantines, c.Detached)
	}
	if n := uint64(len(c.Recs)); n != t.Traps {
		add("observer recorded %d trap states for %d traps", n, t.Traps)
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(errs, "; "))
}

// compareStreams returns the first index (0-based) where the digest
// streams differ, or -1 when identical. A length mismatch diverges at the
// end of the shorter stream.
func compareStreams(a, b []TrapRec) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// diffFinal compares final states; withMXCSR is false for the vs-native
// comparison (trap-all sticky semantics vs masked sticky semantics differ
// by design), and withRIP is false when the two runs executed different
// image twins (magic-trap patching shifts code addresses, so the final
// RIP is not comparable between the patched and unpatched image).
// Returns "" when equal.
func diffFinal(a, b *fpvm.TrapState, withMXCSR, withRIP bool) string {
	var diffs []string
	if withRIP && a.TrapRIP != b.TrapRIP {
		diffs = append(diffs, fmt.Sprintf("rip %#x != %#x", a.TrapRIP, b.TrapRIP))
	}
	if a.RFLAGS != b.RFLAGS {
		diffs = append(diffs, fmt.Sprintf("rflags %#x != %#x", a.RFLAGS, b.RFLAGS))
	}
	if withMXCSR && a.MXCSR != b.MXCSR {
		diffs = append(diffs, fmt.Sprintf("mxcsr %#x != %#x", a.MXCSR, b.MXCSR))
	}
	for i := range a.GPR {
		if a.GPR[i] != b.GPR[i] {
			diffs = append(diffs, fmt.Sprintf("%s %#x != %#x", isa.GPRName(isa.Reg(i)), a.GPR[i], b.GPR[i]))
		}
	}
	for i := range a.XMM {
		if a.XMM[i] != b.XMM[i] {
			diffs = append(diffs, fmt.Sprintf("xmm%d %x:%x != %x:%x", i,
				a.XMM[i][1], a.XMM[i][0], b.XMM[i][1], b.XMM[i][0]))
		}
	}
	return strings.Join(diffs, ", ")
}

// diffMem compares normalized memory images. Returns "" when equal.
func diffMem(a, b []Page) string {
	am := make(map[uint64][]byte, len(a))
	for _, p := range a {
		am[p.Addr] = p.Data
	}
	bm := make(map[uint64][]byte, len(b))
	for _, p := range b {
		bm[p.Addr] = p.Data
	}
	for _, p := range a {
		od, ok := bm[p.Addr]
		if !ok {
			return fmt.Sprintf("page %#x dirtied only by the first run", p.Addr)
		}
		for i := range p.Data {
			if i < len(od) && p.Data[i] != od[i] {
				word := i &^ 7
				return fmt.Sprintf("page %#x differs at +%#x: %x != %x",
					p.Addr, word, p.Data[word:word+8], od[word:word+8])
			}
		}
	}
	for _, p := range b {
		if _, ok := am[p.Addr]; !ok {
			return fmt.Sprintf("page %#x dirtied only by the second run", p.Addr)
		}
	}
	return ""
}

// runFleet executes spec.Fleet concurrent copies of spec on one shared
// decode/trace cache, trained from a private run of the spec
// (fpvm.TrainSharedCache), and returns every copy's capture. The store is
// frozen, so every copy must spend the same virtual cycles.
func runFleet(prog Program, spec Spec, opt Options) []*Capture {
	n := spec.Fleet
	shared, err := fpvm.TrainSharedCache(prog.image(spec), spec.config(opt))
	if err != nil {
		return []*Capture{{Spec: spec, RunErr: err}}
	}
	caps := make([]*Capture, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			caps[i] = Run(prog, spec, opt, 0, shared)
		}(i)
	}
	wg.Wait()
	for i, c := range caps[1:] {
		if c.RunErr == nil && caps[0].RunErr == nil && c.Cycles != caps[0].Cycles {
			c.RunErr = fmt.Errorf("fleet copy %d spent %d virtual cycles, copy 0 spent %d on the same frozen store",
				i+1, c.Cycles, caps[0].Cycles)
		}
	}
	return caps
}
