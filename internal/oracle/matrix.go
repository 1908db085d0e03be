package oracle

import (
	"fmt"
	"strings"
)

// DefaultMatrix is the full conformance matrix: every acceleration axis
// the repo implements, grouped by trap-boundary semantics.
//
//   - boxed-seq: sequence emulation with trace replay, signal vs
//     short-circuit delivery, two checkpoint cadences, a 4-VM fleet on a
//     shared cache, and the preemption axis (50k-cycle slices, resident
//     and serialize-every-slice) — all must take identical trap streams,
//     and the group must match native bit for bit at exit.
//   - boxed/SEQ-notrace: same semantics with replay off. Trap boundaries
//     legitimately differ from the replay group (a trace ends where it
//     was recorded, not where a fresh walk would stop), so it anchors to
//     the native baseline instead of the replay group's trap stream.
//   - boxed-none: single-instruction trap-and-emulate (signal and
//     short-circuit), also bit-identical to native.
//   - mpfr-seq: the bigfp system with checkpointing — internally
//     consistent, deliberately not IEEE; its trace-off twin must reach
//     the identical final state (mpfr-exit).
//   - posit/posit32/interval/rational groups: the remaining alt systems,
//     promoted to the same first-class treatment as mpfr. Each gets a
//     trap-stream group spanning the acceleration axes (checkpointing,
//     fleet sharing, preemption — all invisible in the trap stream by
//     construction) plus a trace-off twin joined through an exit group.
//     Like mpfr, they are internally consistent only: their arithmetic
//     deliberately differs from IEEE, so no VsNative anchoring. The
//     interval group also carries the preemption axis, so slicing is
//     proved on a non-IEEE value codec too.
func DefaultMatrix() []Spec {
	return []Spec{
		{Name: "boxed/SEQ", Seq: true, Group: "boxed-seq", VsNative: true},
		{Name: "boxed/SEQ+SHORT", Seq: true, Short: true, Group: "boxed-seq"},
		{Name: "boxed/SEQ+ckpt25", Seq: true, Ckpt: 25, Group: "boxed-seq"},
		{Name: "boxed/SEQ+SHORT+ckpt7", Seq: true, Short: true, Ckpt: 7, Group: "boxed-seq"},
		{Name: "boxed/SEQ-fleet4", Seq: true, Fleet: 4, Group: "boxed-seq"},
		// Preemption axis: the same run cut into 50k-cycle slices, either
		// continuing the live VM each slice or round-tripping it through
		// snapshot bytes into a fresh VM. Both must be invisible.
		{Name: "boxed/SEQ-resident", Seq: true, Preempt: slice50k, Group: "boxed-seq", VsNative: true},
		{Name: "boxed/SEQ-serialize", Seq: true, Preempt: slice50k, Serialize: true, Group: "boxed-seq", VsNative: true},
		{Name: "boxed/SEQ-notrace", Seq: true, NoTrace: true, VsNative: true},
		{Name: "boxed/NONE", Group: "boxed-none", VsNative: true},
		{Name: "boxed/SHORT", Short: true, Group: "boxed-none"},
		{Name: "mpfr/SEQ", Alt: "mpfr", Seq: true, Group: "mpfr-seq", ExitGroup: "mpfr-exit"},
		{Name: "mpfr/SEQ+ckpt25", Alt: "mpfr", Seq: true, Ckpt: 25, Group: "mpfr-seq"},
		{Name: "mpfr/SEQ-notrace", Alt: "mpfr", Seq: true, NoTrace: true, ExitGroup: "mpfr-exit"},
		{Name: "posit/SEQ", Alt: "posit", Seq: true, Group: "posit-seq", ExitGroup: "posit-exit"},
		{Name: "posit/SEQ+ckpt25", Alt: "posit", Seq: true, Ckpt: 25, Group: "posit-seq"},
		{Name: "posit/SEQ-notrace", Alt: "posit", Seq: true, NoTrace: true, ExitGroup: "posit-exit"},
		{Name: "posit32/SEQ", Alt: "posit32", Seq: true, Group: "posit32-seq", ExitGroup: "posit32-exit"},
		{Name: "posit32/SEQ-notrace", Alt: "posit32", Seq: true, NoTrace: true, ExitGroup: "posit32-exit"},
		{Name: "interval/SEQ", Alt: "interval", Seq: true, Group: "interval-seq", ExitGroup: "interval-exit"},
		{Name: "interval/SEQ-fleet4", Alt: "interval", Seq: true, Fleet: 4, Group: "interval-seq"},
		{Name: "interval/SEQ-resident", Alt: "interval", Seq: true, Preempt: slice50k, Group: "interval-seq"},
		{Name: "interval/SEQ-serialize", Alt: "interval", Seq: true, Preempt: slice50k, Serialize: true, Group: "interval-seq"},
		{Name: "interval/SEQ-notrace", Alt: "interval", Seq: true, NoTrace: true, ExitGroup: "interval-exit"},
		{Name: "rational/SEQ", Alt: "rational", Seq: true, Group: "rational-seq", ExitGroup: "rational-exit"},
		{Name: "rational/SEQ+ckpt25", Alt: "rational", Seq: true, Ckpt: 25, Group: "rational-seq"},
		{Name: "rational/SEQ-notrace", Alt: "rational", Seq: true, NoTrace: true, ExitGroup: "rational-exit"},
	}
}

// slice50k is the preemption axis's quantum: small enough that every
// request-sized workload is cut into dozens of slices.
const slice50k = 50_000

// FuzzMatrix is the lean matrix the fuzzer drives per input: one spec per
// distinct trap-boundary/arithmetic semantics plus the cheap same-group
// variants most likely to expose replay or recovery bugs.
func FuzzMatrix() []Spec {
	return []Spec{
		{Name: "boxed/SEQ", Seq: true, Group: "boxed-seq", VsNative: true},
		{Name: "boxed/SEQ-notrace", Seq: true, NoTrace: true, VsNative: true},
		{Name: "boxed/SEQ+SHORT+ckpt5", Seq: true, Short: true, Ckpt: 5, Group: "boxed-seq"},
		{Name: "boxed/NONE", VsNative: true},
		{Name: "mpfr/SEQ", Alt: "mpfr", Seq: true, ExitGroup: "mpfr-exit"},
		{Name: "mpfr/SEQ-notrace", Alt: "mpfr", Seq: true, NoTrace: true, ExitGroup: "mpfr-exit"},
		{Name: "posit/SEQ", Alt: "posit", Seq: true, Group: "posit-seq", ExitGroup: "posit-exit"},
		{Name: "posit/SEQ-notrace", Alt: "posit", Seq: true, NoTrace: true, ExitGroup: "posit-exit"},
		{Name: "posit32/SEQ", Alt: "posit32", Seq: true, ExitGroup: "posit32-exit"},
		{Name: "posit32/SEQ-notrace", Alt: "posit32", Seq: true, NoTrace: true, ExitGroup: "posit32-exit"},
		{Name: "interval/SEQ", Alt: "interval", Seq: true, ExitGroup: "interval-exit"},
		{Name: "interval/SEQ-notrace", Alt: "interval", Seq: true, NoTrace: true, ExitGroup: "interval-exit"},
		{Name: "rational/SEQ", Alt: "rational", Seq: true, ExitGroup: "rational-exit"},
		{Name: "rational/SEQ-notrace", Alt: "rational", Seq: true, NoTrace: true, ExitGroup: "rational-exit"},
	}
}

// SpecResult summarizes one spec's run for reporting.
type SpecResult struct {
	Spec   Spec
	Traps  uint64
	Emul   uint64
	Stdout int
	Err    error // run error (not a divergence)
	OK     bool
}

// Report is the outcome of one program's conformance check.
type Report struct {
	Program     string
	Rows        []SpecResult
	Divergences []*Divergence
}

// OK reports a fully conformant program: every spec ran clean and no
// comparison diverged.
func (r *Report) OK() bool {
	if len(r.Divergences) > 0 {
		return false
	}
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return true
}

// FirstDivergence returns the first recorded divergence (nil when
// conformant).
func (r *Report) FirstDivergence() *Divergence {
	if len(r.Divergences) == 0 {
		return nil
	}
	return r.Divergences[0]
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d specs, %d divergences\n", r.Program, len(r.Rows), len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(&sb, "  %s\n", d.String())
	}
	return sb.String()
}

// Check runs prog under the native baseline plus every spec in the matrix
// and cross-compares. Specs sharing a Group are compared trap-by-trap
// against the group's first (reference) spec; VsNative specs are compared
// against the baseline at exit; every FPVM capture is audited against the
// telemetry invariants.
func Check(prog Program, opt Options) *Report {
	specs := opt.Specs
	if specs == nil {
		specs = DefaultMatrix()
	}
	rep := &Report{Program: prog.Name}
	diverge := func(d *Divergence) {
		d.Program = prog.Name
		rep.Divergences = append(rep.Divergences, d)
	}

	native := RunNative(prog, opt.MaxSteps)
	if native.RunErr != nil {
		diverge(&Divergence{A: "native", B: "native", Kind: "run-error", Detail: native.RunErr.Error()})
		return rep
	}

	refs := make(map[string]*Capture)     // group -> reference capture
	exitRefs := make(map[string]*Capture) // exit group -> reference capture
	for _, spec := range specs {
		var caps []*Capture
		if spec.Fleet > 1 {
			caps = runFleet(prog, spec, opt)
		} else {
			caps = []*Capture{Run(prog, spec, opt, 0, nil)}
		}
		row := SpecResult{Spec: spec, OK: true}
		for ci, c := range caps {
			name := spec.Name
			if spec.Fleet > 1 {
				name = fmt.Sprintf("%s[%d]", spec.Name, ci)
			}
			if c.RunErr != nil {
				row.Err = c.RunErr
				row.OK = false
				diverge(&Divergence{A: name, B: name, Kind: "run-error", Detail: c.RunErr.Error()})
				continue
			}
			row.Traps = c.Tel.Traps
			row.Emul = c.Tel.EmulatedInsts
			row.Stdout = len(c.Stdout)
			if err := Invariants(c); err != nil {
				row.OK = false
				diverge(&Divergence{A: name, B: name, Kind: "invariant", Detail: err.Error()})
			}
			if spec.Group != "" {
				if ref, ok := refs[spec.Group]; !ok {
					refs[spec.Group] = c
				} else if d := compareGroup(prog, ref, c, name, opt); d != nil {
					row.OK = false
					diverge(d)
				}
			}
			if spec.ExitGroup != "" {
				if ref, ok := exitRefs[spec.ExitGroup]; !ok {
					exitRefs[spec.ExitGroup] = c
				} else if d := compareExit(ref, c, name); d != nil {
					row.OK = false
					diverge(d)
				}
			}
			if spec.VsNative {
				sameText := prog.image(spec) == prog.Native
				if d := compareNative(native, c, name, sameText); d != nil {
					row.OK = false
					diverge(d)
				}
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// compareGroup diffs a capture against its group reference: digest stream
// first (re-running both specs for full states at the first divergent
// index), then stdout/exit and the normalized final state and memory.
func compareGroup(prog Program, ref, c *Capture, name string, opt Options) *Divergence {
	if i := compareStreams(ref.Recs, c.Recs); i >= 0 {
		idx := uint64(i + 1)
		d := &Divergence{A: ref.Spec.Name, B: name, Kind: "trap-stream", Index: idx}
		switch {
		case i >= len(ref.Recs):
			d.RIP = c.Recs[i].RIP
			d.Detail = fmt.Sprintf("%s stopped after %d traps; %s trapped again at %#x",
				ref.Spec.Name, len(ref.Recs), name, c.Recs[i].RIP)
		case i >= len(c.Recs):
			d.RIP = ref.Recs[i].RIP
			d.Detail = fmt.Sprintf("%s stopped after %d traps; %s trapped again at %#x",
				name, len(c.Recs), ref.Spec.Name, ref.Recs[i].RIP)
		default:
			d.RIP = c.Recs[i].RIP
			d.Detail = statePair(prog, ref.Spec, c.Spec, idx, opt)
		}
		return d
	}
	if ref.Stdout != c.Stdout {
		return &Divergence{A: ref.Spec.Name, B: name, Kind: "stdout",
			Detail: fmt.Sprintf("%q != %q", clip(ref.Stdout), clip(c.Stdout))}
	}
	if ref.ExitCode != c.ExitCode {
		return &Divergence{A: ref.Spec.Name, B: name, Kind: "exit-code",
			Detail: fmt.Sprintf("%d != %d", ref.ExitCode, c.ExitCode)}
	}
	if diff := diffFinal(&ref.Final, &c.Final, true, true); diff != "" {
		return &Divergence{A: ref.Spec.Name, B: name, Kind: "final-state", Detail: diff}
	}
	if diff := diffMem(ref.Mem, c.Mem); diff != "" {
		return &Divergence{A: ref.Spec.Name, B: name, Kind: "memory", Detail: diff}
	}
	return nil
}

// compareExit diffs two captures whose trap boundaries legitimately
// differ (trace replay on vs off) but whose final architectural state
// must agree: stdout, exit code, registers and writable memory. MXCSR is
// excluded — the emulated/native split differs between the runs, so the
// sticky accumulation path does too.
func compareExit(ref, c *Capture, name string) *Divergence {
	if ref.Stdout != c.Stdout {
		return &Divergence{A: ref.Spec.Name, B: name, Kind: "stdout",
			Detail: fmt.Sprintf("%q != %q", clip(ref.Stdout), clip(c.Stdout))}
	}
	if ref.ExitCode != c.ExitCode {
		return &Divergence{A: ref.Spec.Name, B: name, Kind: "exit-code",
			Detail: fmt.Sprintf("%d != %d", ref.ExitCode, c.ExitCode)}
	}
	if diff := diffFinal(&ref.Final, &c.Final, false, true); diff != "" {
		return &Divergence{A: ref.Spec.Name, B: name, Kind: "final-state", Detail: diff}
	}
	if diff := diffMem(ref.Mem, c.Mem); diff != "" {
		return &Divergence{A: ref.Spec.Name, B: name, Kind: "memory", Detail: diff}
	}
	return nil
}

// compareNative enforces the paper's conformance property: a Boxed-IEEE
// FPVM run is observationally identical to native IEEE at exit — stdout,
// exit code, registers (boxes demoted) and writable memory. MXCSR is
// excluded: trap-all semantics clear status per trap where masked native
// execution accumulates sticky bits. sameText is false when the FPVM run
// executed the magic-trap patched twin, whose code addresses (and thus
// final RIP) are shifted relative to the native image.
func compareNative(native, c *Capture, name string, sameText bool) *Divergence {
	if native.Stdout != c.Stdout {
		return &Divergence{A: "native", B: name, Kind: "stdout",
			Detail: fmt.Sprintf("%q != %q", clip(native.Stdout), clip(c.Stdout))}
	}
	if native.ExitCode != c.ExitCode {
		return &Divergence{A: "native", B: name, Kind: "exit-code",
			Detail: fmt.Sprintf("%d != %d", native.ExitCode, c.ExitCode)}
	}
	if diff := diffFinal(&native.Final, &c.Final, false, sameText); diff != "" {
		return &Divergence{A: "native", B: name, Kind: "final-state", Detail: diff}
	}
	if diff := diffMem(native.Mem, c.Mem); diff != "" {
		return &Divergence{A: "native", B: name, Kind: "memory", Detail: diff}
	}
	return nil
}

// statePair re-executes two specs retaining the full architectural state
// at the divergent trap ordinal and renders both for the report.
func statePair(prog Program, a, b Spec, idx uint64, opt Options) string {
	ca := Run(prog, a, opt, idx, nil)
	cb := Run(prog, b, opt, idx, nil)
	var sb strings.Builder
	for _, p := range []struct {
		spec Spec
		c    *Capture
	}{{a, ca}, {b, cb}} {
		fmt.Fprintf(&sb, "--- %s ---\n", p.spec.Name)
		if p.c.Full != nil {
			sb.WriteString(p.c.Full.Dump())
		} else {
			fmt.Fprintf(&sb, "(state at trap #%d not reproduced: %d traps this run)\n", idx, len(p.c.Recs))
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

func clip(s string) string {
	const max = 160
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
