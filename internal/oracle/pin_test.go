package oracle_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"fpvm/internal/oracle"
	"fpvm/internal/workloads"
)

// pinnedCapturesDigest is the digest TestOracleCapturesPinned computes. It
// was recorded while the oracle assembled the VM of every unsliced spec
// itself and only the preemption-axis specs ran through package fpvm's
// VM API, so any change to how a spec's VM is built, run or captured
// shows up as a mismatch.
const pinnedCapturesDigest = "0b53fcac8b0134bd257b4b5b32f54014d565c2456c09e9350fd4fb99e87c048a"

// TestOracleCapturesPinned hashes everything the oracle captures from the
// native baseline and from every spec of the default matrix except the
// fleet specs, on the five micro images: stdout, exit code, run error,
// the detach flag, the per-trap digest stream, the normalized final
// state, the normalized memory pages, the virtual clock and the
// telemetry breakdown.
func TestOracleCapturesPinned(t *testing.T) {
	h := sha256.New()
	for _, name := range workloads.MicroAll() {
		img, err := workloads.BuildMicro(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := oracle.NewProgram(string(name), img)
		if err != nil {
			t.Fatal(err)
		}
		hashCapture(h, string(name), oracle.RunNative(prog, 0))
		for _, spec := range oracle.DefaultMatrix() {
			if spec.Fleet > 1 {
				continue
			}
			hashCapture(h, string(name), oracle.Run(prog, spec, oracle.Options{}, 0, nil))
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != pinnedCapturesDigest {
		t.Errorf("oracle captures moved: digest %s, pinned %s", got, pinnedCapturesDigest)
	}
}

// hashCapture folds one capture of workload name into h.
func hashCapture(h hash.Hash, name string, c *oracle.Capture) {
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(h, "%s/%s\n%q\n%d\n%v\n%t\n", name, c.Spec.Name, c.Stdout, c.ExitCode, c.RunErr, c.Detached)
	put(uint64(len(c.Recs)))
	for _, r := range c.Recs {
		put(r.RIP, r.Sum)
	}
	f := &c.Final
	put(f.Index, f.TrapRIP, f.ResumeRIP, uint64(f.MXCSR), f.RFLAGS, uint64(f.StdoutLen))
	put(f.GPR[:]...)
	for _, x := range f.XMM {
		put(x[0], x[1])
	}
	put(uint64(len(c.Mem)))
	for _, p := range c.Mem {
		put(p.Addr, uint64(len(p.Data)))
		h.Write(p.Data)
	}
	put(c.Cycles)
	fmt.Fprintf(h, "%+v\n", c.Tel)
}
