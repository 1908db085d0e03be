package alt_test

import (
	"bytes"
	"math"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/bigfp"
	fpvmrt "fpvm/internal/fpvm"
	"fpvm/internal/heap"
	"fpvm/internal/rational"
)

// Every image of the VM, the rollback supervisor's in-memory checkpoint
// as well as the wire snapshot, holds the NaN-box heap as encoded
// values, so a checkpoint's copy of a value is its codec round trip.

// codecSpecials are the values most likely to expose a lossy or shallow
// round trip: signed zeros, the denormal floor, the overflow boundary,
// infinities and NaNs with payloads.
var codecSpecials = []float64{
	0, math.Copysign(0, -1), 1.5, 1.0 / 3.0,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7FF8_0000_DEAD_BEEF), math.Float64frombits(0xFFF8_0000_0000_0001),
}

// codecCase is one system under the codec tests: promote makes its
// values, and sys encodes, decodes and demotes them and answers Signbit
// and IsNaN.
type codecCase struct {
	sys     alt.System
	promote func(float64) (alt.Value, uint64)
}

// codecCases lists every shipped system with a codec: the seven of
// systems(), Flaky around MPFR, and the precision policy engine at each
// of its tiers (unbound, it promotes at the boxed tier; interval and
// MPFR values are made by those systems and tagged by their type).
func codecCases() map[string]codecCase {
	cases := map[string]codecCase{}
	for name, sys := range systems() {
		cases[name] = codecCase{sys, sys.Promote}
	}
	flaky := alt.NewFlaky(alt.NewMPFR(200), 0)
	cases["flaky-mpfr"] = codecCase{flaky, flaky.Promote}
	pol := fpvmrt.NewPolicyEngine(fpvmrt.PolicyConfig{})
	cases["policy-boxed"] = codecCase{pol, pol.Promote}
	cases["policy-interval"] = codecCase{pol, alt.NewInterval().Promote}
	cases["policy-mpfr"] = codecCase{pol, alt.NewMPFR(200).Promote}
	return cases
}

// roundTrip encodes v through sys's codec and decodes the bytes.
func roundTrip(t *testing.T, sys alt.System, v alt.Value) (alt.Value, []byte) {
	t.Helper()
	c, ok := sys.(alt.Codec)
	if !ok {
		t.Fatalf("%s has no codec", sys.Name())
	}
	b, err := c.EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.DecodeValue(b)
	if err != nil {
		t.Fatal(err)
	}
	return d, b
}

// TestCodecSpecials: for every system, a decoded special encodes to the
// same bytes as its original, demotes to exactly the same bits and
// agrees on sign and NaN-ness.
func TestCodecSpecials(t *testing.T) {
	for name, tc := range codecCases() {
		t.Run(name, func(t *testing.T) {
			for _, f := range codecSpecials {
				v, _ := tc.promote(f)
				d, b := roundTrip(t, tc.sys, v)
				if _, again := roundTrip(t, tc.sys, d); !bytes.Equal(again, b) {
					t.Errorf("%g: decoded value encodes to %x, original to %x", f, again, b)
				}
				dv, _ := tc.sys.Demote(v)
				dd, _ := tc.sys.Demote(d)
				if math.Float64bits(dv) != math.Float64bits(dd) {
					t.Errorf("%g: decoded value demotes to bits %#x, original to %#x",
						f, math.Float64bits(dd), math.Float64bits(dv))
				}
				if tc.sys.IsNaN(v) != tc.sys.IsNaN(d) {
					t.Errorf("%g: decoded value disagrees on IsNaN", f)
				}
				if tc.sys.Signbit(v) != tc.sys.Signbit(d) {
					t.Errorf("%g: decoded value disagrees on Signbit", f)
				}
			}
		})
	}
}

// TestBoxedCloneNaNPayloadRoundTrip: Boxed IEEE's representation is the
// raw float64, so an application NaN's payload must survive promote →
// encode → decode → demote bit for bit.
func TestBoxedCloneNaNPayloadRoundTrip(t *testing.T) {
	sys := alt.NewBoxedIEEE()
	for _, bits := range []uint64{
		0x7FF8_0000_DEAD_BEEF, // quiet NaN with payload
		0xFFF8_0000_0000_0001, // negative quiet NaN, minimal payload
		0x7FF8_0000_0000_0000, // canonical quiet NaN
	} {
		v, _ := sys.Promote(math.Float64frombits(bits))
		c, _ := roundTrip(t, sys, v)
		d, _ := sys.Demote(c)
		if got := math.Float64bits(d); got != bits {
			t.Errorf("NaN payload %#x round-tripped to %#x", bits, got)
		}
	}
}

// TestMPFRCloneMutationIndependence: bigfp operations mutate their
// receiver, so a decoded MPFR value must share nothing with the one it
// was encoded from. Mutating either side must not be visible through
// the other — in both directions, and for NaN (whose limb slice is nil,
// an easy aliasing special case to get wrong).
func TestMPFRCloneMutationIndependence(t *testing.T) {
	sys := alt.NewMPFR(200)

	v, _ := sys.Promote(1.5)
	c, _ := roundTrip(t, sys, v)
	v.(*bigfp.Float).SetFloat64(-99)
	if got, _ := sys.Demote(c); got != 1.5 {
		t.Errorf("mutating the original changed the decoded value: %g, want 1.5", got)
	}

	w, _ := sys.Promote(2.25)
	cw, _ := roundTrip(t, sys, w)
	cw.(*bigfp.Float).SetFloat64(-7)
	if got, _ := sys.Demote(w); got != 2.25 {
		t.Errorf("mutating the decoded value changed the original: %g, want 2.25", got)
	}

	n, _ := sys.Promote(math.NaN())
	cn, _ := roundTrip(t, sys, n)
	n.(*bigfp.Float).SetFloat64(0)
	if !sys.IsNaN(cn) {
		t.Error("decoded NaN lost its NaN-ness when the original was overwritten")
	}
}

// TestRationalCloneIsDeepCopy: the rational system's values wrap a
// mutable big.Rat, so decoding must return a distinct object that
// demotes identically.
func TestRationalCloneIsDeepCopy(t *testing.T) {
	sys := alt.NewRational()
	v, _ := sys.Promote(1.0 / 3.0)
	c, _ := roundTrip(t, sys, v)
	if v.(*rational.Rational) == c.(*rational.Rational) {
		t.Fatal("decoding returned the same *Rational")
	}
	dv, _ := sys.Demote(v)
	dc, _ := sys.Demote(c)
	if dv != dc {
		t.Errorf("decoded value demotes to %g, original to %g", dc, dv)
	}
}

// TestDecodedHeapIndependentAcrossRestores drives the codec through the
// heap image the way the rollback supervisor does: capture a heap
// holding a live mutable MPFR box, corrupt the live value in place,
// restore, corrupt the *restored* value, and restore again. Both
// restores must see the capture-time value: the image aliases neither
// the live heap nor any heap restored from it.
func TestDecodedHeapIndependentAcrossRestores(t *testing.T) {
	sys := alt.NewMPFR(200)
	alloc := heap.New(0)
	v, _ := sys.Promote(1.5)
	h := alloc.Alloc(v)

	img, err := alloc.Capture(func(x any) ([]byte, error) { return sys.EncodeValue(x) })
	if err != nil {
		t.Fatal(err)
	}
	restore := func() alt.Value {
		t.Helper()
		a, err := heap.FromImage(img, func(b []byte) (any, error) { return sys.DecodeValue(b) })
		if err != nil {
			t.Fatal(err)
		}
		rv, ok := a.Get(h)
		if !ok {
			t.Fatal("restored heap lost the live box")
		}
		return rv
	}

	v.(*bigfp.Float).SetFloat64(-99)
	rv := restore()
	if got, _ := sys.Demote(rv); got != 1.5 {
		t.Fatalf("first restore gave %g, want capture-time 1.5", got)
	}
	rv.(*bigfp.Float).SetFloat64(7)
	if got, _ := sys.Demote(restore()); got != 1.5 {
		t.Errorf("second restore gave %g, want 1.5 (the image aliased a restored heap)", got)
	}
}

// TestPolicyCodecRefusesBadTier: the policy engine's codec tags each
// value with its tier, and a tag it does not have (or none) is refused.
func TestPolicyCodecRefusesBadTier(t *testing.T) {
	pol := fpvmrt.NewPolicyEngine(fpvmrt.PolicyConfig{})
	v, _ := pol.Promote(2.5)
	b, err := pol.EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{nil, append([]byte{3}, b[1:]...), append([]byte{0xFF}, b[1:]...)} {
		if _, err := pol.DecodeValue(bad); err == nil {
			t.Errorf("policy codec decoded %x", bad)
		}
	}
	iv, _ := alt.NewInterval().Promote(2.5)
	if ib, err := pol.EncodeValue(iv); err != nil || ib[0] == b[0] {
		t.Errorf("interval value encoded with the boxed tier tag: %x, %v", ib, err)
	}
}
