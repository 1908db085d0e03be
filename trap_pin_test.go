package fpvm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/obj"
	"fpvm/internal/workloads"
)

// pinnedTrapPathDigest is the digest TestTrapPathPinned computes. It was
// recorded with the compiled scalar-arithmetic step resolving each
// operand through three separate heap lookups, Boxed IEEE computing
// exception flags it then discarded, and every compiled step calling a
// nil fault injector, so any change to what the trap path charges,
// counts or computes shows up as a mismatch.
const pinnedTrapPathDigest = "cd5e97d6f37b481fd90c472d1ee5f9d81e56bfa01e030943bac3c65d5e6cb1b9"

// trapPinImage is one image under the pin, patched for FPVM with magic
// traps (magic) and with int3 traps (int3); orig is the unpatched build.
type trapPinImage struct {
	name              string
	orig, magic, int3 *obj.Image
}

// TestTrapPathPinned runs the trap path under every configuration whose
// host-side work it shares and hashes what each run reports: its
// Cycles, Instructions, Traps, EmulatedInsts, Promotions, Demotions and
// GCRuns, the trace counters, every Breakdown category and counter, the
// kernel's delivery counters, the recovery ladder's counters and fault
// ledger, stdout and the NaN-box-normalized final state.
//
// Boxed IEEE and interval arithmetic run on all eleven images (the six
// paper images and the five micro images); MPFR, posit and rational on
// the micro images only. Boxed IEEE also runs one instruction per trap,
// with signal delivery (int3-patched), with EmulateAll, with a 64-box
// cap, with the future-work hardware on the unpatched image, with an
// injector armed at alt.op, heap.alloc, decode and kernel.deliver, and
// with one fatal alt.op fault that detaches the run part way.
func TestTrapPathPinned(t *testing.T) {
	var paper, micro []trapPinImage
	for _, name := range workloads.All() {
		img, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		paper = append(paper, patchedPinImage(t, img))
	}
	for _, name := range workloads.MicroAll() {
		img, err := workloads.BuildMicro(name)
		if err != nil {
			t.Fatal(err)
		}
		micro = append(micro, patchedPinImage(t, img))
	}
	all := append(append([]trapPinImage(nil), paper...), micro...)

	seqShort := func(alt fpvm.AltKind) fpvm.Config {
		return fpvm.Config{Alt: alt, Seq: true, Short: true}
	}
	type variant struct {
		label string
		imgs  []trapPinImage
		cfg   func() fpvm.Config
		pick  func(trapPinImage) *obj.Image
	}
	magic := func(p trapPinImage) *obj.Image { return p.magic }
	injected := func(spec string) func() fpvm.Config {
		return func() fpvm.Config {
			in, err := faultinject.ParseSpec(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			c := seqShort(fpvm.AltBoxed)
			c.Inject = in
			return c
		}
	}
	variants := []variant{
		{"boxed", all, func() fpvm.Config { return seqShort(fpvm.AltBoxed) }, magic},
		{"interval", all, func() fpvm.Config { return seqShort(fpvm.AltInterval) }, magic},
		{"mpfr", micro, func() fpvm.Config { return seqShort(fpvm.AltMPFR) }, magic},
		{"posit", micro, func() fpvm.Config { return seqShort(fpvm.AltPosit) }, magic},
		{"rational", micro, func() fpvm.Config { return seqShort(fpvm.AltRational) }, magic},
		{"boxed-noseq", all, func() fpvm.Config { return fpvm.Config{Alt: fpvm.AltBoxed, Short: true} }, magic},
		{"boxed-signal", all, func() fpvm.Config { return fpvm.Config{Alt: fpvm.AltBoxed, Seq: true} },
			func(p trapPinImage) *obj.Image { return p.int3 }},
		{"boxed-emulateall", all, func() fpvm.Config {
			c := seqShort(fpvm.AltBoxed)
			c.EmulateAll = true
			return c
		}, magic},
		{"boxed-maxlive64", all, func() fpvm.Config {
			c := seqShort(fpvm.AltBoxed)
			c.MaxLiveBoxes = 64
			return c
		}, magic},
		{"boxed-futurehw", all, func() fpvm.Config {
			return fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, FutureHW: true}
		}, func(p trapPinImage) *obj.Image { return p.orig }},
		{"boxed-inject", all, injected("alt.op:prob=0.25;heap.alloc:prob=0.25;decode:prob=0.05;kernel.deliver:every=5"), magic},
		{"boxed-detach", all, injected("alt.op:every=2000,limit=1,sev=fatal"), magic},
	}

	h := sha256.New()
	for _, v := range variants {
		for _, p := range v.imgs {
			// A run the recovery ladder detached reports its error beside
			// a full Result; the error is part of what is pinned.
			res, err := fpvm.Run(v.pick(p), v.cfg())
			if res == nil {
				t.Fatalf("%s on %s: %v", v.label, p.name, err)
			}
			fmt.Fprintf(h, "%s/%s\n%v\n", v.label, p.name, err)
			hashTrapRun(h, res)
			t.Logf("%s/%s: %d cycles, %d traps, %d emulated, %d gc, %d retries, %d degradations, detached %v",
				v.label, p.name, res.Cycles, res.Traps, res.EmulatedInsts, res.GCRuns,
				res.Retries, res.Degradations, res.Detached)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != pinnedTrapPathDigest {
		t.Errorf("trap path moved: digest %s, pinned %s", got, pinnedTrapPathDigest)
	}
}

// patchedPinImage patches img both ways for the pin.
func patchedPinImage(t *testing.T, img *obj.Image) trapPinImage {
	t.Helper()
	magic, err := fpvm.PrepareForFPVM(img, true)
	if err != nil {
		t.Fatal(err)
	}
	int3, err := fpvm.PrepareForFPVM(img, false)
	if err != nil {
		t.Fatal(err)
	}
	return trapPinImage{name: img.Name, orig: img, magic: magic, int3: int3}
}

// hashTrapRun folds everything res reports about the trap path into h.
func hashTrapRun(h hash.Hash, res *fpvm.Result) {
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	put(res.Cycles, res.Instructions, res.FPInstructions, res.Traps, res.EmulatedInsts,
		res.Promotions, res.Demotions, res.GCRuns,
		res.TraceHits, res.TraceMisses, res.TraceDivergences, res.ReplayedInsts,
		res.Retries, res.BackoffCycles, res.Degradations, res.WatchdogAborts,
		res.PanicRecoveries, res.AbortedTraps, uint64(res.ExitCode))
	if res.Detached {
		put(1)
	}
	if res.Breakdown != nil {
		fmt.Fprintf(h, "%+v\n", *res.Breakdown)
	}
	fmt.Fprintf(h, "%+v\n%s\n", res.KernelStats, res.FaultReport)
	h.Write([]byte(res.Stdout))
	if f := res.Final; f != nil {
		put(f.TrapRIP, f.ResumeRIP, uint64(f.MXCSR), f.RFLAGS, uint64(f.StdoutLen))
		put(f.GPR[:]...)
		for _, x := range f.XMM {
			put(x[0], x[1])
		}
	}
}
