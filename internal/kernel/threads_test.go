package kernel_test

import (
	"math"
	"slices"
	"testing"

	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
)

// buildThreadProgram: main spawns a worker that stores 7 into a shared
// cell and writes the cell to stdout, then both threads exit. Layout:
//
//	main:   mov rdi, worker; mov rsi, childStack; mov rax, 56; syscall
//	        (rax = tid) ; spin until [cell] != 0 ; exit(0)
//	worker: mov [cell], 7 ; write(1, cell, 8) ; exit(0)
func buildThreadProgram(t *testing.T, k *kernel.Kernel) *kernel.Process {
	t.Helper()
	const cell = 0x800000
	const childStack = 0x60A000

	// Assemble with explicit layout: compute worker address after main.
	mk := func(workerAddr uint64) []isa.Inst {
		return []isa.Inst{
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), int64(workerAddr)),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RSI), childStack),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysClone),
			isa.MakeNullary(isa.SYSCALL),
			// spin: mov rbx, [cell]; cmp rbx, 0; je spin
			isa.MakeRM(isa.MOV64RM, isa.GPR(isa.RBX), isa.MemAbs(cell)),
			isa.MakeMI(isa.CMP64I, isa.GPR(isa.RBX), 0),
			isa.MakeRel(isa.JE, 0), // patched to jump back to the spin load
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysExit),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), 0),
			isa.MakeNullary(isa.SYSCALL),
			// worker:
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RCX), 7),
			isa.MakeRM(isa.MOV64MR, isa.GPR(isa.RCX), isa.MemAbs(cell)),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysWrite),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), 1),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RSI), cell),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDX), 8),
			isa.MakeNullary(isa.SYSCALL),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysExit),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), 0),
			isa.MakeNullary(isa.SYSCALL),
		}
	}

	// Two-pass: lengths are stable, compute offsets with a dummy address.
	insts := mk(0)
	offs := make([]int, len(insts)+1)
	for i := range insts {
		l, err := isa.EncodedLen(&insts[i])
		if err != nil {
			t.Fatal(err)
		}
		offs[i+1] = offs[i] + l
	}
	workerAddr := uint64(codeBase + offs[10])
	insts = mk(workerAddr)
	// Patch the spin branch: JE at index 6 targets the load at index 4.
	insts[6].Imm = int64(offs[4]) - int64(offs[7])

	p := buildProcess(t, k, insts...)
	return p
}

func TestCloneAndJoin(t *testing.T) {
	k := kernel.New()
	p := buildThreadProgram(t, k)
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.ExitCode != 0 {
		t.Errorf("exit %d", p.ExitCode)
	}
	v, err := p.M.Mem.ReadUint64(0x800000)
	if err != nil || v != 7 {
		t.Errorf("cell = %d, %v", v, err)
	}
	if k.Stats.ThreadsCreated != 1 {
		t.Errorf("threads created: %d", k.Stats.ThreadsCreated)
	}
	if k.Stats.ContextSwitches == 0 {
		t.Error("no context switches")
	}
}

func TestOnThreadStartHook(t *testing.T) {
	k := kernel.New()
	p := buildThreadProgram(t, k)
	var tids []int
	p.OnThreadStart = func(tid int) { tids = append(tids, tid) }
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(tids) != 1 || tids[0] != 2 {
		t.Errorf("thread start hooks: %v", tids)
	}
}

func TestCloneBadStack(t *testing.T) {
	k := kernel.New()
	p := buildProcess(t, k,
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), codeBase),
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RSI), 0), // bad stack
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysClone),
		isa.MakeNullary(isa.SYSCALL),
	)
	if err := p.Run(0); err == nil {
		t.Error("clone with null stack succeeded")
	}
}

func TestExitGroupTerminatesAllThreads(t *testing.T) {
	k := kernel.New()
	// main clones a spinning worker, then exit_group(5)s: the process
	// must end even though the worker never exits.
	const childStack = 0x60A000
	spin := isa.MakeRel(isa.JMP, 0)
	spinLen, _ := isa.EncodedLen(&spin)
	spin.Imm = -int64(spinLen)

	mk := func(workerAddr uint64) []isa.Inst {
		return []isa.Inst{
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), int64(workerAddr)),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RSI), childStack),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysClone),
			isa.MakeNullary(isa.SYSCALL),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysExitGroup),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), 5),
			isa.MakeNullary(isa.SYSCALL),
			spin, // worker: jmp self
		}
	}
	insts := mk(0)
	off := 0
	for i := 0; i < 7; i++ {
		l, _ := isa.EncodedLen(&insts[i])
		off += l
	}
	insts = mk(uint64(codeBase + off))
	p := buildProcess(t, k, insts...)
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.ExitCode != 5 {
		t.Errorf("exit_group code %d", p.ExitCode)
	}
}

func TestAllCPUs(t *testing.T) {
	k := kernel.New()
	p := buildThreadProgram(t, k)
	// Before any clone: one CPU (the machine's).
	if got := p.AllCPUs(); len(got) != 1 || got[0] != &p.M.CPU {
		t.Errorf("single-thread AllCPUs: %d", len(got))
	}
	if p.CurrentThread() != 1 {
		t.Error("current thread before clone")
	}
	// Step until the clone happens, then expect two register sets.
	for i := 0; i < 10_000 && k.Stats.ThreadsCreated == 0; i++ {
		if !p.Step() {
			t.Fatal("process exited before clone")
		}
	}
	if got := p.AllCPUs(); len(got) != 2 {
		t.Errorf("post-clone AllCPUs: %d", len(got))
	}
	if len(p.Threads()) != 2 {
		t.Error("thread table")
	}
}

// TestThreadSnapshotRoundTrip: the checkpoint subsystem's view of the
// scheduler. A snapshot taken mid-run with two live threads is
// self-contained (by-value CPU copies, current thread's live registers
// folded in) and restoring it reinstates the table, the rotation, and
// the current thread's registers into the machine.
func TestThreadSnapshotRoundTrip(t *testing.T) {
	k := kernel.New()
	p := buildThreadProgram(t, k)

	// Never-threaded: empty snapshot, and restoring it is the identity.
	if st := p.SnapshotThreads(); len(st.Threads) != 0 {
		t.Fatalf("fresh process snapshot has %d threads", len(st.Threads))
	}
	p.RestoreThreads(kernel.ThreadState{})

	for i := 0; i < 10_000 && k.Stats.ThreadsCreated == 0; i++ {
		if !p.Step() {
			t.Fatal("process exited before clone")
		}
	}
	st := p.SnapshotThreads()
	if len(st.Threads) != 2 {
		t.Fatalf("post-clone snapshot has %d threads, want 2", len(st.Threads))
	}
	wantRIP := st.Threads[st.Current].CPU.RIP
	if wantRIP != p.M.CPU.RIP {
		t.Errorf("snapshot did not fold live registers: %#x vs %#x", wantRIP, p.M.CPU.RIP)
	}

	// Diverge, then rewind. The snapshot must be unaffected by the
	// machine's progress (by-value copies).
	for i := 0; i < 50; i++ {
		if !p.Step() {
			break
		}
	}
	p.RestoreThreads(st)
	if p.M.CPU.RIP != wantRIP {
		t.Errorf("restore left RIP %#x, want %#x", p.M.CPU.RIP, wantRIP)
	}
	if got := p.SnapshotThreads(); len(got.Threads) != 2 || got.Current != st.Current {
		t.Errorf("restore reinstated %d threads current %d, want 2/%d",
			len(got.Threads), got.Current, st.Current)
	}
	// Restored table must not alias the snapshot: mutating the live CPU
	// leaves the snapshot's copy intact for a later rollback.
	p.M.CPU.RIP = 0xDEAD
	if st.Threads[st.Current].CPU.RIP != wantRIP {
		t.Error("snapshot aliased the live CPU")
	}
	p.RestoreThreads(st)
	if p.M.CPU.RIP != wantRIP {
		t.Error("snapshot not reusable for a second restore")
	}
}

// threadEnd is where a run of the thread program ended.
type threadEnd struct {
	cpu        machine.CPU
	cycles     uint64
	insts      uint64
	stats      kernel.Stats
	stdout     string
	boundaries uint64
}

// TestRunForMatchesStepLoop: a clone() program ends in the same state
// (CPU, cycles, context switches, stdout) after the same count of
// boundaries whether it runs through Run, one RunFor, RunFor cut into
// short clock slices, or a p.Step() loop that checks the clock after
// every boundary. RunFor crosses from the machine's inner loop to
// boundary-by-boundary stepping when clone() adds the second thread, so
// the scheduler still rotates every 64 boundaries.
func TestRunForMatchesStepLoop(t *testing.T) {
	const maxBoundaries = 100_000 // the program exits after under 100
	// run drives a fresh copy of the program; drive returns the
	// boundaries of each slice it ran.
	run := func(drive func(p *kernel.Process) []uint64) (threadEnd, []uint64) {
		k := kernel.New()
		p := buildThreadProgram(t, k)
		slices := drive(p)
		if p.Err != nil || !p.Exited {
			t.Fatalf("exited %v, err %v", p.Exited, p.Err)
		}
		var n uint64
		for _, s := range slices {
			n += s
		}
		return threadEnd{p.M.CPU, p.M.Cycles, p.M.Instructions, k.Stats, p.Stdout.String(), n}, slices
	}
	// sliced runs the program in slices of 3 cycles (a slice ends at
	// nearly every boundary) until it exits.
	sliced := func(slice func(p *kernel.Process, until uint64) uint64) func(p *kernel.Process) []uint64 {
		return func(p *kernel.Process) []uint64 {
			var slices []uint64
			for len(slices) < maxBoundaries && !p.Exited {
				slices = append(slices, slice(p, p.M.Cycles+3))
			}
			return slices
		}
	}
	stepUntil := func(p *kernel.Process, until uint64) uint64 {
		var n uint64
		for n < maxBoundaries && p.Step() {
			n++
			if p.M.Cycles >= until {
				break
			}
		}
		return n
	}

	want, _ := run(func(p *kernel.Process) []uint64 {
		return []uint64{stepUntil(p, math.MaxUint64)}
	})
	if want.stats.ContextSwitches == 0 || want.stdout != "\x07\x00\x00\x00\x00\x00\x00\x00" {
		t.Fatalf("reference run: %d context switches, stdout %q", want.stats.ContextSwitches, want.stdout)
	}
	got, _ := run(func(p *kernel.Process) []uint64 {
		if err := p.Run(maxBoundaries); err != nil {
			t.Fatal(err)
		}
		return []uint64{want.boundaries} // Run does not count
	})
	if got != want {
		t.Errorf("Run:\n got %+v\nwant %+v", got, want)
	}
	got, _ = run(func(p *kernel.Process) []uint64 {
		return []uint64{p.RunFor(maxBoundaries, math.MaxUint64)}
	})
	if got != want {
		t.Errorf("RunFor:\n got %+v\nwant %+v", got, want)
	}

	gotSliced, gotSlices := run(sliced(func(p *kernel.Process, until uint64) uint64 {
		return p.RunFor(maxBoundaries, until)
	}))
	wantSliced, wantSlices := run(sliced(stepUntil))
	if len(wantSlices) < 20 || wantSliced != want {
		t.Fatalf("stepped in %d slices:\n got %+v\nwant %+v", len(wantSlices), wantSliced, want)
	}
	if !slices.Equal(gotSlices, wantSlices) {
		t.Errorf("boundaries per slice:\nRunFor %v\nStep   %v", gotSlices, wantSlices)
	}
	if gotSliced != want {
		t.Errorf("sliced RunFor:\n got %+v\nwant %+v", gotSliced, want)
	}
}
