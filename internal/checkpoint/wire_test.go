// Durability edge cases: every corruption class — torn write, bit rot,
// version skew, foreign bindings — must map to its own sentinel error
// and never to any other, and decode must never hand back a partially
// restored image.

package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fpvm/internal/heap"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
)

// sampleImage builds a synthetic but fully populated wire image — no VM
// required; the wire layer is pure serialization.
func sampleImage() *Image {
	var cpu machine.CPU
	cpu.RIP = 0x40_1000
	cpu.MXCSR = 0x1f80
	page := make([]byte, mem.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	return &Image{
		ImageHash: [32]byte{1, 2, 3, 4},
		AltName:   "boxed",
		ConfigSig: "seq=true short=true",

		CPU:    cpu,
		Stdout: []byte("partial output\n"),
		Steps:  12345,

		MachCycles:         9_000_000,
		MachInstructions:   400_000,
		MachFPInstructions: 70_000,

		Heap: &heap.Image{
			Kinds:     []byte{heap.SlotFloat, heap.SlotFree},
			Floats:    []float64{3.5},
			Free:      []uint64{1},
			Live:      1,
			Threshold: 4096,
		},
		Pages: []Page{{Addr: 0x1000, Data: page}},
		Cache: CacheImage{EntryRIPs: []uint64{0x40_1000, 0x40_1004}},
		RT:    RuntimeImage{Promotions: 8, Quarantined: []uint64{0x40_1008}},
	}
}

// allSentinels enumerates the decode/validate failure classes; each test
// case asserts its own sentinel and the absence of every other.
var allSentinels = []error{
	ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum,
	ErrEncoding, ErrImageMismatch, ErrAltMismatch, ErrConfigMismatch,
}

func wantExactly(t *testing.T, err, want error) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption went undetected, want %v", want)
	}
	for _, s := range allSentinels {
		if s == want {
			if !errors.Is(err, s) {
				t.Errorf("error %v does not match its class %v", err, want)
			}
		} else if errors.Is(err, s) {
			t.Errorf("error %v also matches foreign class %v — classes must be distinct", err, s)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	img := sampleImage()
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img, got) {
		t.Errorf("round trip changed the image")
	}
	if err := got.Validate(img.ImageHash, img.AltName, img.ConfigSig); err != nil {
		t.Errorf("self-validation failed: %v", err)
	}
}

func TestDecodeRejectsEveryCorruptionClassDistinctly(t *testing.T) {
	img := sampleImage()
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		sentinel error
	}{
		{"empty file", func(b []byte) []byte { return nil }, ErrBadMagic},
		{"garbage magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "NOTASNAP")
			return c
		}, ErrBadMagic},
		{"torn inside header", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"torn after version", func(b []byte) []byte { return b[:16] }, ErrTruncated},
		{"torn payload", func(b []byte) []byte { return b[:len(b)-10] }, ErrTruncated},
		{"wrong version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[8:], Version+1)
			return c
		}, ErrVersion},
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x01
			return c
		}, ErrChecksum},
		{"flipped header length", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[12] ^= 0x01
			return c
		}, ErrTruncated},
		{"valid frame around garbage payload", func(b []byte) []byte {
			payload := []byte("this is not a gob stream")
			c := append([]byte(nil), b[:8]...)
			c = binary.LittleEndian.AppendUint32(c, Version)
			c = binary.LittleEndian.AppendUint64(c, uint64(len(payload)))
			c = binary.LittleEndian.AppendUint32(c, crc32.ChecksumIEEE(payload))
			return append(c, payload...)
		}, ErrEncoding},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.mutate(append([]byte(nil), data...)))
			wantExactly(t, err, tc.sentinel)
		})
	}
}

func TestValidateRejectsForeignBindings(t *testing.T) {
	img := sampleImage()

	err := img.Validate([32]byte{9, 9, 9}, img.AltName, img.ConfigSig)
	wantExactly(t, err, ErrImageMismatch)

	err = img.Validate(img.ImageHash, "posit", img.ConfigSig)
	wantExactly(t, err, ErrAltMismatch)

	err = img.Validate(img.ImageHash, img.AltName, "seq=false short=true")
	wantExactly(t, err, ErrConfigMismatch)
}

func TestWriteImageFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vm.snap")

	img := sampleImage()
	if err := WriteImageFile(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img, got) {
		t.Errorf("file round trip changed the image")
	}

	// Overwrite with a newer image: the rename must replace wholesale.
	img2 := sampleImage()
	img2.Steps = 99999
	if err := WriteImageFile(path, img2); err != nil {
		t.Fatal(err)
	}
	got, err = ReadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != 99999 {
		t.Errorf("overwrite did not replace the snapshot (Steps=%d)", got.Steps)
	}

	// No temp-file debris may survive a successful publish.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "vm.snap" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("directory not clean after atomic writes: %v", names)
	}
}

func TestReadImageFileMissing(t *testing.T) {
	_, err := ReadImageFile(filepath.Join(t.TempDir(), "absent.snap"))
	if err == nil {
		t.Fatal("reading a missing snapshot succeeded")
	}
	for _, s := range allSentinels {
		if errors.Is(err, s) {
			t.Errorf("missing-file error %v must not claim corruption class %v", err, s)
		}
	}
}
