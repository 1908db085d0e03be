package fpvm

import (
	"fpvm/internal/kernel"
	"fpvm/internal/obj"
	"fpvm/internal/oracle"

	fpvmrt "fpvm/internal/fpvm"
)

// The conformance oracle's preemption axis runs through this package's
// VM API, so "slicing is invisible to the guest" is proved on the calls
// fleet and fpvmd make, not on a copy of them.
func init() { oracle.RegisterSliceRunner(runOracleSlices) }

// runOracleSlices runs img under an oracle preemption-axis spec: a
// RunSlice loop on one live VM (resident), or a Run/Resume loop that
// round-trips every slice through snapshot bytes into a fresh VM
// (Serialize). It returns the process and runtime of the VM that ran the
// last slice, for the oracle to capture.
func runOracleSlices(img *obj.Image, spec oracle.Spec, precision uint, maxSteps uint64,
	observe func(*TrapState)) (*kernel.Process, *fpvmrt.Runtime, error) {
	cfg := Config{
		Alt:                AltKind(spec.Alt),
		Precision:          precision,
		Seq:                spec.Seq,
		Short:              spec.Short,
		NoTraceCache:       spec.NoTrace,
		EmulateAll:         spec.EmulateAll,
		FutureHW:           spec.FutureHW,
		CheckpointInterval: spec.Ckpt,
		MaxSteps:           maxSteps,
		PreemptQuantum:     spec.Preempt,
		Observer:           observe,
	}
	vm, err := Prepare(img, cfg)
	if err != nil {
		return nil, nil, err
	}
	if !spec.Serialize {
		res, err := vm.RunSlice()
		for err == nil && res.Preempted {
			res, err = vm.RunSlice()
		}
		return vm.p, vm.rt, err
	}
	res, err := vm.Run()
	for err == nil && res.Preempted {
		if vm, err = Prepare(img, cfg); err != nil {
			return nil, nil, err
		}
		res, err = vm.Resume(res.Snapshot)
	}
	return vm.p, vm.rt, err
}
