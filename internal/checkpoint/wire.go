// Package checkpoint is the image of a suspended VM and its on-disk
// serialization. The runtime captures guest state into an Image in one
// place (internal/fpvm's suspend.go): the rollback supervisor keeps such
// an image in memory, never encoded, and preemption completes it with
// the machine, cache and runtime counters for the wire.
//
// The wire format is what makes FPVM's snapshots durable: a versioned,
// CRC-guarded image of everything a resumed run can observe that a
// freshly prepared VM cannot rebuild —
// CPU (including MXCSR), thread table, the full stdout prefix, the
// writable pages (an all-zero page as its address alone, any other with
// its 4 KiB), the NaN-box heap packed as one kind byte per slot plus the
// float and encoded-value payloads in slot order (values encoded per
// alternative arithmetic system), virtual-clock and telemetry counters,
// and the decode/trace cache shape (so resumed cycle accounting and trap
// boundaries match an uninterrupted run bit-for-bit).
//
// Layout:
//
//	magic   "FPVMSNAP"                 8 bytes
//	version u32 little-endian          (Version)
//	length  u64 little-endian          payload byte count
//	crc     u32 little-endian          CRC-32 (IEEE) of the payload
//	payload gob-encoded Image
//
// Every corruption class maps to a distinct sentinel error, and decode
// never hands out a partially-restored image. A file of any other version
// is refused with ErrVersion, never translated: its job runs fresh. Files
// are written with an atomic temp-file + fsync + rename dance so a crash
// mid-save leaves the previous good snapshot intact.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"fpvm/internal/dcache"
	"fpvm/internal/heap"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// Version is the current wire format version. Version 2 records zero
// pages by address and packs the heap; version 1 files are refused.
// Dropping a field needs no bump: gob skips stream fields the receiving
// struct lacks, so version 2 files that still carry the retired per-trace
// replay counters and JIT telemetry restore unchanged.
const Version = 2

const wireMagic = "FPVMSNAP"

const headerLen = 8 + 4 + 8 + 4

// Decode/validate failure classes. Each is distinct so callers (and the
// durability tests) can tell a torn write from bit rot from a snapshot
// that simply belongs to a different binary.
var (
	// ErrBadMagic: the file does not start with the snapshot magic.
	ErrBadMagic = errors.New("checkpoint: not a snapshot file (bad magic)")
	// ErrVersion: the snapshot was written by an incompatible format version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrTruncated: the file is shorter than its header declares (torn write).
	ErrTruncated = errors.New("checkpoint: truncated snapshot")
	// ErrChecksum: the payload CRC does not match (bit corruption).
	ErrChecksum = errors.New("checkpoint: snapshot checksum mismatch")
	// ErrEncoding: the CRC matched but the payload would not decode.
	ErrEncoding = errors.New("checkpoint: undecodable snapshot payload")
	// ErrImageMismatch: the snapshot binds to a different program image.
	ErrImageMismatch = errors.New("checkpoint: snapshot belongs to a different image")
	// ErrAltMismatch: the snapshot was taken under a different alt system.
	ErrAltMismatch = errors.New("checkpoint: snapshot belongs to a different alt system")
	// ErrConfigMismatch: semantically relevant run configuration differs.
	ErrConfigMismatch = errors.New("checkpoint: snapshot belongs to a different configuration")
)

// Page is one writable guest page in a wire image. Data is the page's
// 4 KiB, or empty when the page is all zero.
type Page struct {
	Addr uint64
	Data []byte
}

// TraceImage is the shape of one L2 trace-cache entry: enough to rebuild
// the trace (entries are re-decoded from restored guest memory, which is
// deterministic) without re-charging decode cycles. It carries no replay
// counters and no emulator: re-decoding an entry builds its step, as a
// decode on the trap path does.
type TraceImage struct {
	Start     uint64
	EndRIP    uint64
	Reason    uint8
	EntryRIPs []uint64
}

// CacheImage is the decode/trace cache shape in FIFO order. Cold caches
// at resume would change both cycle accounting and trap boundaries (a
// walk that should have been a replay), so the shape is part of the
// architectural image.
type CacheImage struct {
	EntryRIPs []uint64
	Traces    []TraceImage
	Stats     dcache.Stats
	// Unshared records that the cache had stopped consulting its shared
	// store (dcache.Cache.Unshared), so the restored cache does too.
	Unshared bool
}

// RuntimeImage carries the FPVM runtime's counters and supervisor state.
type RuntimeImage struct {
	Promotions     uint64
	Demotions      uint64
	Boxes          uint64
	GCRuns         uint64
	SeqLimitHit    uint64
	ThreadContexts uint64

	Retries          uint64
	Degradations     uint64
	HeapFullDegrades uint64
	GCSkips          uint64
	PanicRecoveries  uint64
	WatchdogAborts   uint64
	FatalDetaches    uint64
	Aborted          uint64

	Checkpoints      uint64
	Rollbacks        uint64
	RollbackFailures uint64
	Quarantines      uint64

	Detached     bool
	Quarantined  []uint64
	CkptInterval int
}

// Image is one suspended VM. A wire image fills every field; the
// rollback supervisor's in-memory checkpoint fills only the guest state
// (CPU, Threads, Stdout, Tel, Heap and Pages).
type Image struct {
	// Binding: a snapshot only resumes against the exact program image,
	// alternative arithmetic system and semantic configuration that wrote
	// it.
	ImageHash [32]byte
	AltName   string
	ConfigSig string

	CPU     machine.CPU
	Threads kernel.ThreadState
	Stdout  []byte
	Steps   uint64

	MachCycles         uint64
	MachInstructions   uint64
	MachFPInstructions uint64
	KernelStats        kernel.Stats
	Tel                telemetry.Breakdown

	Heap  *heap.Image
	Pages []Page

	Cache CacheImage
	RT    RuntimeImage
}

// Encode serializes the image into the framed wire format. The payload
// is encoded behind a reserved header that is then filled in place, so
// the payload is never copied.
func (img *Image) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, headerLen))
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	out := buf.Bytes()
	copy(out, wireMagic)
	binary.LittleEndian.PutUint32(out[8:], Version)
	binary.LittleEndian.PutUint64(out[12:], uint64(len(out)-headerLen))
	binary.LittleEndian.PutUint32(out[20:], crc32.ChecksumIEEE(out[headerLen:]))
	return out, nil
}

// Decode parses a framed wire image, distinguishing every corruption
// class. It never returns a partially-decoded image.
func Decode(b []byte) (*Image, error) {
	if len(b) < len(wireMagic) || string(b[:len(wireMagic)]) != wireMagic {
		return nil, ErrBadMagic
	}
	if len(b) < len(wireMagic)+4 {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(b), headerLen)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != Version {
		return nil, fmt.Errorf("%w: file has v%d, this build reads v%d", ErrVersion, v, Version)
	}
	if len(b) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(b), headerLen)
	}
	plen := binary.LittleEndian.Uint64(b[12:])
	crc := binary.LittleEndian.Uint32(b[20:])
	payload := b[headerLen:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: header declares %d payload bytes, file has %d",
			ErrTruncated, plen, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("%w: want %08x, have %08x", ErrChecksum, crc, got)
	}
	img := new(Image)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(img); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEncoding, err)
	}
	return img, nil
}

// Validate checks the snapshot's bindings against the run that is about
// to adopt it.
func (img *Image) Validate(imageHash [32]byte, altName, configSig string) error {
	if img.ImageHash != imageHash {
		return fmt.Errorf("%w: snapshot %x…, image %x…",
			ErrImageMismatch, img.ImageHash[:4], imageHash[:4])
	}
	if img.AltName != altName {
		return fmt.Errorf("%w: snapshot %q, run %q", ErrAltMismatch, img.AltName, altName)
	}
	if img.ConfigSig != configSig {
		return fmt.Errorf("%w: snapshot %q, run %q", ErrConfigMismatch, img.ConfigSig, configSig)
	}
	return nil
}

// WriteImageFile atomically persists img at path: the bytes land in a
// temporary file in the same directory, are fsynced, and are then renamed
// over path. A crash at any point leaves either the old snapshot or the
// new one, never a hybrid.
func WriteImageFile(path string, img *Image) error {
	data, err := img.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// WriteFileAtomic persists already-encoded snapshot bytes (the framed
// wire format, e.g. fpvm.Result.Snapshot) with the same atomic
// temp-file + fsync + rename + directory-fsync dance as WriteImageFile.
// The directory fsync matters: fsyncing only the temp file makes the
// *contents* durable, but the rename that publishes the new name lives
// in the directory, and on a power failure an unsynced directory can
// forget the rename — leaving the previous snapshot (or nothing) behind.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: publishing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: syncing snapshot dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// failure. It is a package variable so the durability test can observe
// that the path is exercised on every successful publish.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadImageFile reads and decodes a snapshot file.
func ReadImageFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading snapshot: %w", err)
	}
	return Decode(data)
}
