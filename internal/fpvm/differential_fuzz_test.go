package fpvm_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/asm"
	"fpvm/internal/fpmath"
	fpvmrt "fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/nanbox"
	"fpvm/internal/obj"
)

// TestDifferentialFuzz generates random straight-line programs over the
// FPVM-supported instruction set and requires bit-for-bit agreement
// between native execution and every FPVM configuration under Boxed IEEE
// — the paper's own validation methodology ("we expect to get bit-for-bit
// equal results to the baseline, and we have validated this to be true"),
// applied to randomized programs instead of fixed benchmarks.
func TestDifferentialFuzz(t *testing.T) {
	const (
		programs     = 60
		instructions = 40
	)
	r := rand.New(rand.NewSource(0xF9B0))
	for pi := 0; pi < programs; pi++ {
		img := genProgram(t, r, instructions, pi)
		native := runNativeRig(t, img)

		for _, cfg := range []fpvmrt.Config{
			{Alt: alt.NewBoxedIEEE()},
			{Alt: alt.NewBoxedIEEE(), Seq: true},
			{Alt: alt.NewBoxedIEEE(), Seq: true, NoTraceCache: true},
			{Alt: alt.NewBoxedIEEE(), Seq: true, Short: true},
			{Alt: alt.NewBoxedIEEE(), Seq: true, FutureHW: true},
			{Alt: alt.NewBoxedIEEE(), Seq: true, EmulateAll: true},
		} {
			got := newRig(t, img, cfg, true).run(t)
			if got != native {
				t.Fatalf("program %d under %s diverged:\n fpvm:   %q\n native: %q",
					pi, cfgLabel(cfg), got, native)
			}
		}
	}
}

// TestCorruptedBoxCorpus feeds the trap pipeline 64-bit words that *look*
// like FPVM NaN boxes but are not live allocations: high handles near the
// encoding limit (small handles would risk colliding with genuinely live
// boxes), sign-flipped boxes, a quiet NaN carrying the tag bit, a tagless
// signaling NaN, and the canonical NaN. The runtime must fall back on the
// allocator's liveness check, treat each as an application NaN, and stay
// bit-for-bit with native — never crash or dereference a stale handle.
func TestCorruptedBoxCorpus(t *testing.T) {
	corpus := []struct {
		name string
		bits uint64
	}{
		{"box-max-handle", nanbox.Box(nanbox.MaxHandle)},
		{"box-max-handle-1", nanbox.Box(nanbox.MaxHandle - 1)},
		{"box-high-bit-handle", nanbox.Box(1 << 49)},
		{"box-sign-flipped", 1<<63 | nanbox.Box(nanbox.MaxHandle)},
		{"quiet-nan-with-tag", fpmath.ExpMask | fpmath.QuietBit | 1<<50 | 42},
		{"tagless-snan", fpmath.ExpMask | 7},
		{"canonical-nan", nanbox.Canonical()},
	}
	for _, c := range corpus {
		if got := nanbox.Classify(c.bits); c.name[:3] == "box" != (got == nanbox.KindBoxPattern) {
			t.Fatalf("%s: Classify = %v (corpus word mislabeled)", c.name, got)
		}
		img := genPoisonProgram(t, c.name, c.bits)
		native := runNativeRig(t, img)
		for _, cfg := range []fpvmrt.Config{
			{Alt: alt.NewBoxedIEEE()},
			{Alt: alt.NewBoxedIEEE(), Seq: true},
			{Alt: alt.NewBoxedIEEE(), Seq: true, NoTraceCache: true},
			{Alt: alt.NewBoxedIEEE(), Seq: true, Short: true},
		} {
			got := newRig(t, img, cfg, true).run(t)
			if got != native {
				t.Errorf("%s under %s diverged:\n fpvm:   %q\n native: %q",
					c.name, cfgLabel(cfg), got, native)
			}
		}
	}
}

// genPoisonProgram loads the poison word, consumes it in arithmetic (the
// signaling variants trap), round-trips it through a GPR, compares it,
// and prints both the arithmetic result and the round-tripped value.
func genPoisonProgram(t *testing.T, name string, bits uint64) *obj.Image {
	t.Helper()
	b := asm.NewBuilder("poison-" + name)
	b.Quad("poison", bits)
	b.RoDouble("one", 1)
	b.Func("main")
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM0), "poison")
	b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM1), "one")
	b.RM(isa.ADDSD, isa.XMM(isa.XMM1), isa.XMM(isa.XMM0)) // consume poison
	b.RM(isa.MOVQGX, isa.GPR(isa.RBX), isa.XMM(isa.XMM0)) // raw pattern to GPR
	b.RM(isa.MOVQXG, isa.XMM(isa.XMM2), isa.GPR(isa.RBX)) // and back
	b.RM(isa.UCOMISD, isa.XMM(isa.XMM2), isa.XMM(isa.XMM1))
	b.Branch(isa.JNE, "skip")
	b.RM(isa.ADDSD, isa.XMM(isa.XMM1), isa.XMM(isa.XMM1))
	b.Label("skip")
	b.RM(isa.MOVSDXX, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1))
	b.CallImport("print_f64")
	b.RM(isa.MOVSDXX, isa.XMM(isa.XMM0), isa.XMM(isa.XMM2))
	b.CallImport("print_f64")
	b.MI(isa.MOV64RI, isa.GPR(isa.RAX), 60)
	b.Op0(isa.SYSCALL)
	b.SetEntry("main")
	img, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return img
}

func cfgLabel(cfg fpvmrt.Config) string {
	l := cfg.ConfigName()
	if cfg.FutureHW {
		l += "+FUTUREHW"
	}
	if cfg.EmulateAll {
		l += "+EMULATEALL"
	}
	if cfg.NoTraceCache {
		l += "+NOTRACE"
	}
	return l
}

// genProgram builds a random program: a pool of interesting double
// constants, a scratch buffer, then a random instruction stream over
// xmm0-xmm9, gpr rbx/rcx/rdx, and buffer slots, ending by printing every
// xmm register's low lane.
func genProgram(t *testing.T, r *rand.Rand, n int, seed int) *obj.Image {
	t.Helper()
	b := asm.NewBuilder(fmt.Sprintf("fuzz%d", seed))

	consts := []float64{
		1, 3, 0.5, -2.25, 1e-3, 7.75, 1.0 / 3.0, -1e10, 3.141592653589793,
		0, math.Inf(1), 5e-324, 1e308,
	}
	for i, c := range consts {
		b.RoDouble(fmt.Sprintf("c%d", i), c)
	}
	b.RoDouble("cpair", 2, 5)
	b.RoDouble("signmask", math.Float64frombits(1<<63))
	b.RoDouble("absmask", math.Float64frombits(1<<63-1))
	b.Space("buf", 128)

	b.Func("main")
	b.LeaData(isa.RDI, "buf")
	// Seed registers from constants.
	for reg := 0; reg < 10; reg++ {
		b.RMData(isa.MOVSDXM, isa.XMM(isa.Reg(reg)), fmt.Sprintf("c%d", r.Intn(len(consts))))
	}

	xr := func() isa.Operand { return isa.XMM(isa.Reg(r.Intn(10))) }
	slot := func() isa.Operand { return isa.Mem(isa.RDI, int32(8*r.Intn(16))) }
	slot16 := func() isa.Operand { return isa.Mem(isa.RDI, int32(16*r.Intn(8))) }

	scalarOps := []isa.Op{isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD,
		isa.MINSD, isa.MAXSD, isa.SQRTSD, isa.CMPLTSD, isa.CMPEQSD, isa.CMPNLESD}
	packedOps := []isa.Op{isa.ADDPD, isa.SUBPD, isa.MULPD, isa.DIVPD, isa.CMPLTPD}

	for i := 0; i < n; i++ {
		switch r.Intn(12) {
		case 0, 1, 2, 3: // scalar arithmetic reg/reg or reg/mem
			op := scalarOps[r.Intn(len(scalarOps))]
			if r.Intn(3) == 0 {
				b.RM(op, xr(), slot())
			} else {
				b.RM(op, xr(), xr())
			}
		case 4: // packed arithmetic
			op := packedOps[r.Intn(len(packedOps))]
			if r.Intn(3) == 0 {
				b.RM(op, xr(), slot16())
			} else {
				b.RM(op, xr(), xr())
			}
		case 5: // scalar moves
			switch r.Intn(3) {
			case 0:
				b.RM(isa.MOVSDXX, xr(), xr())
			case 1:
				b.RM(isa.MOVSDMX, xr(), slot())
			default:
				b.RM(isa.MOVSDXM, xr(), slot())
			}
		case 6: // packed moves
			if r.Intn(2) == 0 {
				b.RM(isa.MOVAPDMX, xr(), slot16())
			} else {
				b.RM(isa.MOVAPDXM, xr(), slot16())
			}
		case 7: // gpr traffic
			switch r.Intn(4) {
			case 0:
				b.RM(isa.MOVQGX, isa.GPR(isa.RBX), xr())
			case 1:
				b.RM(isa.MOVQXG, xr(), isa.GPR(isa.RBX))
			case 2:
				b.RM(isa.MOV64MR, isa.GPR(isa.RBX), slot())
			default:
				b.RM(isa.MOV64RM, isa.GPR(isa.RCX), slot())
			}
		case 8: // ucomisd + branch over one instruction
			label := fmt.Sprintf("L%d", i)
			b.RM(isa.UCOMISD, xr(), xr())
			b.Branch([]isa.Op{isa.JB, isa.JA, isa.JE, isa.JNE, isa.JBE, isa.JAE}[r.Intn(6)], label)
			b.RM(isa.ADDSD, xr(), xr())
			b.Label(label)
		case 9: // conversions
			if r.Intn(2) == 0 {
				b.RM(isa.CVTTSD2SI, isa.GPR(isa.RDX), xr())
			} else {
				b.RM(isa.CVTSI2SD, xr(), isa.GPR(isa.RDX))
			}
		case 10: // sign games — only the compiler idioms: zeroing
			// (xorpd self) and sign-mask xor/and through xmm15. Arbitrary
			// bitwise ops on FP registers are the paper's §2.6
			// unvirtualizable surface and diverge by design.
			switch r.Intn(3) {
			case 0:
				reg := xr()
				b.RM(isa.XORPD, reg, reg)
			case 1:
				b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM15), "signmask")
				b.RM(isa.XORPD, xr(), isa.XMM(isa.XMM15))
			default:
				b.RMData(isa.MOVSDXM, isa.XMM(isa.XMM15), "absmask")
				b.RM(isa.ANDPD, xr(), isa.XMM(isa.XMM15))
			}
		default: // unsupported-by-FPVM but valid moves (sequence breakers)
			switch r.Intn(3) {
			case 0:
				b.RM(isa.MOVHPDXM, xr(), slot())
			case 1:
				b.RM(isa.UNPCKLPD, xr(), xr())
			default:
				b.RMI(isa.SHUFPD, xr(), xr(), int64(r.Intn(4)))
			}
		}
	}

	// Print every register's low lane.
	for reg := 0; reg < 10; reg++ {
		if reg != 0 {
			b.RM(isa.MOVSDXX, isa.XMM(isa.XMM0), isa.XMM(isa.Reg(reg)))
		}
		b.CallImport("print_f64")
	}
	b.MI(isa.MOV64RI, isa.GPR(isa.RAX), 60)
	b.Op0(isa.SYSCALL)
	b.SetEntry("main")

	img, err := b.Build()
	if err != nil {
		t.Fatalf("program %d: %v", seed, err)
	}
	return img
}
