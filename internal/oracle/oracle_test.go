package oracle

import (
	"strings"
	"testing"

	"fpvm/internal/telemetry"
	"fpvm/internal/workloads"
)

// TestDetectsArithmeticDivergence is the oracle's self-test: putting the
// bigfp system in the same comparison group as Boxed IEEE must produce a
// trap-stream divergence (their normalized register states differ from
// the first rounded operation on), and the report must carry both full
// states at the divergent ordinal.
func TestDetectsArithmeticDivergence(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram("lorenz-micro", img)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(prog, Options{Specs: []Spec{
		{Name: "boxed/SEQ", Seq: true, Group: "mixed"},
		{Name: "mpfr/SEQ", Alt: "mpfr", Seq: true, Group: "mixed"},
	}})
	if rep.OK() {
		t.Fatal("oracle failed to distinguish mpfr from boxed IEEE")
	}
	d := rep.FirstDivergence()
	if d.Kind != "trap-stream" {
		t.Fatalf("divergence kind = %s, want trap-stream\n%s", d.Kind, d.String())
	}
	if d.Index == 0 || d.RIP == 0 {
		t.Errorf("divergence missing location: index %d rip %#x", d.Index, d.RIP)
	}
	if !strings.Contains(d.Detail, "boxed/SEQ") || !strings.Contains(d.Detail, "mpfr/SEQ") ||
		!strings.Contains(d.Detail, "xmm0") {
		t.Errorf("divergence detail does not render both states:\n%s", d.Detail)
	}
}

// TestDetectsTrapBoundaryDivergence: NONE and SEQ have different trap
// boundaries by design; grouping them must be reported, not silently
// averaged away.
func TestDetectsTrapBoundaryDivergence(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Pendulum)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram("pendulum-micro", img)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(prog, Options{Specs: []Spec{
		{Name: "boxed/SEQ", Seq: true, Group: "g"},
		{Name: "boxed/NONE", Group: "g"},
	}})
	if rep.OK() {
		t.Fatal("oracle failed to distinguish SEQ from NONE trap streams")
	}
	if d := rep.FirstDivergence(); d.Kind != "trap-stream" {
		t.Fatalf("divergence kind = %s, want trap-stream", d.Kind)
	}
}

// TestUnknownAltSystemFails: a spec naming an arithmetic system package
// fpvm does not have must fail with a run error that names the system,
// not run Boxed IEEE under the unknown name and pass.
func TestUnknownAltSystemFails(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram("lorenz-micro", img)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(prog, Options{Specs: []Spec{{Name: "wide/SEQ", Alt: "posit64", Seq: true}}})
	if rep.OK() {
		t.Fatal("a spec with Alt posit64 passed")
	}
	if d := rep.FirstDivergence(); d.Kind != "run-error" || !strings.Contains(d.Detail, "posit64") {
		t.Fatalf("divergence does not name the unknown system as a run error:\n%s", d.String())
	}
}

// TestInvariantsCatchInconsistentTelemetry exercises the audit directly
// with hand-built counter sets.
func TestInvariantsCatchInconsistentTelemetry(t *testing.T) {
	clean := func() *Capture {
		c := &Capture{Spec: Spec{Name: "t", Seq: true}}
		c.Tel = telemetry.Breakdown{Traps: 10, EmulatedInsts: 50, TraceHits: 4, TraceMisses: 6, ReplayedInsts: 20}
		c.Recs = make([]TrapRec, 10)
		return c
	}
	if err := Invariants(clean()); err != nil {
		t.Fatalf("clean capture rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Capture)
		want string
	}{
		{"trace-lookups-exceed-traps", func(c *Capture) { c.Tel.TraceHits = 20 }, "trace lookups"},
		{"divergences-exceed-hits", func(c *Capture) { c.Tel.TraceDivergences = 5 }, "trace divergences"},
		{"replay-exceeds-emulated", func(c *Capture) { c.Tel.ReplayedInsts = 60 }, "replayed insts"},
		{"emulated-below-traps", func(c *Capture) { c.Tel.EmulatedInsts = 5; c.Tel.ReplayedInsts = 0 }, "below traps"},
		{"unreconciled-ledger", func(c *Capture) { c.Tel.FaultsInjected = 3 }, "ledger"},
		{"ladder-activity", func(c *Capture) { c.Tel.Rollbacks = 1 }, "ladder activity"},
		{"phantom-checkpoints", func(c *Capture) { c.Tel.Checkpoints = 2 }, "checkpointing disabled"},
		{"missing-observations", func(c *Capture) { c.Recs = c.Recs[:3] }, "observer recorded"},
		{"detached", func(c *Capture) { c.Detached = true }, "ladder activity"},
	}
	for _, tc := range cases {
		c := clean()
		tc.mut(c)
		err := Invariants(c)
		if err == nil {
			t.Errorf("%s: audit passed, want violation", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	missing := clean()
	missing.Spec.Ckpt = 3
	if err := Invariants(missing); err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Errorf("checkpoint-cadence violation not caught: %v", err)
	}
}
