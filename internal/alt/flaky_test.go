package alt_test

import (
	"math"
	"testing"

	"fpvm/internal/alt"
	"fpvm/internal/fpmath"
)

// TestFlakyDelegates: outside its panic schedule, Flaky is transparent —
// every System method (and the optional codec) reaches the wrapped
// system unchanged, so fault-tolerance tests measure panic recovery, not
// wrapper drift.
func TestFlakyDelegates(t *testing.T) {
	inner := alt.NewBoxedIEEE()
	f := alt.NewFlaky(inner, 0) // 0 disables the panic schedule

	if f.Name() != inner.Name()+"+flaky" {
		t.Fatalf("Name() = %q", f.Name())
	}
	a, _ := f.Promote(3.0)
	b, _ := f.Promote(-1.5)
	sum, _ := f.Op(fpmath.OpAdd, a, b)
	if got, _ := f.Demote(sum); got != 1.5 {
		t.Fatalf("3 + -1.5 = %v through the wrapper", got)
	}
	if cr, _ := f.Compare(a, b); !cr.Greater || cr.Less || cr.Equal || cr.Unordered {
		t.Fatalf("Compare(3, -1.5) = %+v", cr)
	}
	neg, _ := f.Neg(a)
	if got, _ := f.Demote(neg); got != -3.0 {
		t.Fatalf("Neg(3) = %v", got)
	}
	if !f.Signbit(neg) || f.Signbit(a) {
		t.Fatal("Signbit did not delegate")
	}
	nan, _ := f.Promote(math.NaN())
	if !f.IsNaN(nan) || f.IsNaN(a) {
		t.Fatal("IsNaN did not delegate")
	}
	if f.TempsPerOp() != inner.TempsPerOp() {
		t.Fatal("TempsPerOp did not delegate")
	}

	// The codec delegates when the wrapped system has one…
	enc, err := f.EncodeValue(a)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Demote(dec); got != 3.0 {
		t.Fatalf("codec round trip through the wrapper: %v", got)
	}
	// …and refuses cleanly when it does not.
	bare := alt.NewFlaky(codecless{inner}, 0)
	if _, err := bare.EncodeValue(a); err == nil {
		t.Fatal("EncodeValue through a codec-less system did not error")
	}
	if _, err := bare.DecodeValue(enc); err == nil {
		t.Fatal("DecodeValue through a codec-less system did not error")
	}
}

// codecless strips the codec from a system: embedding the System
// interface promotes only its methods, so the wrapper's method set never
// satisfies alt.Codec regardless of the dynamic value.
type codecless struct{ alt.System }

// TestFlakyPanicSchedule pins the injected-bug cadence: every Nth Op
// panics and the panic counter advances.
func TestFlakyPanicSchedule(t *testing.T) {
	f := alt.NewFlaky(alt.NewBoxedIEEE(), 2)
	a, _ := f.Promote(1)
	b, _ := f.Promote(2)
	if _, _ = f.Op(fpmath.OpAdd, a, b); f.Panics != 0 {
		t.Fatal("first op panicked early")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second op did not panic")
			}
		}()
		f.Op(fpmath.OpAdd, a, b)
	}()
	if f.Panics != 1 {
		t.Fatalf("Panics = %d after one scheduled panic", f.Panics)
	}
}
