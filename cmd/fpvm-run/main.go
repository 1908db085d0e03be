// Command fpvm-run executes a workload under floating point
// virtualization (or natively) and reports timing and telemetry.
//
// Usage:
//
//	fpvm-run -workload lorenz_attractor [-alt boxed|mpfr|posit|posit32|interval|rational]
//	         [-precision-policy]
//	         [-seq] [-short] [-no-trace] [-native] [-nopatch] [-int3] [-scale N] [-stats]
//	         [-inject SPEC] [-inject-seed N] [-max-boxes N]
//	         [-checkpoint-interval N] [-max-rollbacks N]
//	         [-parallel N] [-jobs M] [-preempt-quantum N]
//
// With -seq, each trap emulates a whole instruction sequence, and the
// software trace cache replays a sequence seen before, running the same
// per-instruction steps the walk runs. The "trace cache:" line on stderr
// reports replays and divergence exits. -no-trace turns the trace cache
// off (the §4.2 ablation).
//
// Fleet mode (-parallel N with N > 1, or -jobs M with M > 1) executes M
// copies of the workload (-jobs, default N) on a pool of N concurrent
// VMs, each with its own decode/trace cache, so every copy spends the
// virtual cycles of a serial run. Guest output is printed once (all
// copies are identical); the fleet summary goes to stderr, and the exit
// code is the most severe outcome across the fleet.
//
// Preemption: -preempt-quantum N preempts each VM every ~N virtual
// cycles at a trap-safe boundary and reschedules it, still live, on the
// fleet's work-stealing runqueue (long jobs migrate between workers).
// It switches to fleet scheduling even with -parallel 1. Nothing is
// written to disk: durable, crash-recoverable jobs are fpvmd's.
//
// Fault injection (-inject) arms the runtime's recovery ladder at named
// pipeline sites. SPEC grammar: "site:key=value[,key=value];site:..."
// with sites alt.op, heap.alloc, decode, kernel.deliver, corr.trap,
// gc.scan, ckpt.save, ckpt.restore (or "all") and keys prob, every, rip,
// limit, sev (sev=fatal makes a rule's faults unclearable by retry — they
// go to the fatal rung, where checkpoint rollback gets its chance).
// Example:
//
//	fpvm-run -workload lorenz_attractor -seq -checkpoint-interval 50 \
//	         -inject 'alt.op:every=1000,sev=fatal;decode:prob=0.001'
//
// Exit codes report how virtualization ended:
//
//	0  clean: the run completed fully virtualized (rollbacks may have
//	   occurred only if also degraded/detached — see below)
//	1  hard error (bad flags, workload failure, non-detach run error)
//	10 degraded: one or more operations fell back to native IEEE
//	11 detached: the fatal rung fired; the guest finished un-virtualized
//	12 rolled-back: failures occurred but checkpoint rollback recovered
//	   them all; the run stayed fully virtualized and bit-identical
//
// Precedence when several apply: detached > degraded > rolled-back.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/fleet"
	"fpvm/internal/telemetry"
	"fpvm/internal/workloads"
)

// Exit codes (see package comment).
const (
	exitClean      = 0
	exitError      = 1
	exitDegraded   = 10
	exitDetached   = 11
	exitRolledBack = 12
)

func main() {
	workload := flag.String("workload", "lorenz_attractor", "workload name: "+names())
	altKind := flag.String("alt", "boxed", "alternative arithmetic system")
	precision := flag.Uint("precision", 200, "MPFR precision in bits")
	precisionPolicy := flag.Bool("precision-policy", false, "adaptive per-RIP precision: escalate exception-clustered sites boxed -> interval -> mpfr (requires -alt boxed)")
	seq := flag.Bool("seq", false, "enable instruction sequence emulation (§4)")
	short := flag.Bool("short", false, "enable trap short-circuiting (§3)")
	noTrace := flag.Bool("no-trace", false, "disable the software trace cache (sequence replay)")
	native := flag.Bool("native", false, "run without FPVM")
	nopatch := flag.Bool("nopatch", false, "skip correctness patching")
	int3 := flag.Bool("int3", false, "use int3 correctness traps instead of magic traps")
	magicWraps := flag.Bool("magicwraps", false, "use symbol-rewrite wrapping (§5.3)")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	stats := flag.Bool("stats", false, "print the telemetry breakdown")
	injectSpec := flag.String("inject", "", "fault injection spec, e.g. 'alt.op:every=1000,sev=fatal' or 'all:prob=0.0001'")
	injectSeed := flag.Uint64("inject-seed", 1, "fault injector PRNG seed (deterministic)")
	maxBoxes := flag.Int("max-boxes", 0, "hard cap on live NaN boxes (0 = unbounded)")
	ckptInterval := flag.Int("checkpoint-interval", 0, "snapshot the VM every N traps for rollback recovery (0 = disabled)")
	maxRollbacks := flag.Int("max-rollbacks", 0, "bound rollback attempts per run (0 = default 8)")
	parallel := flag.Int("parallel", 1, "run the workload as a fleet of N concurrent VMs")
	fleetJobs := flag.Int("jobs", 0, "fleet mode: total job count (0 = -parallel)")
	preemptQuantum := flag.Uint64("preempt-quantum", 0, "preempt each VM every ~N virtual cycles (0 = run to completion)")
	flag.Parse()

	img, err := workloads.Build(workloads.Name(*workload), *scale)
	if err != nil {
		fatal(err)
	}

	if *native {
		res, err := fpvm.RunNative(img)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Stdout)
		fmt.Fprintf(os.Stderr, "native: %d cycles, %d instructions (%d FP)\n",
			res.Cycles, res.Instructions, res.FPInstructions)
		return
	}

	runImg := img
	if !*nopatch {
		if runImg, err = fpvm.PrepareForFPVM(img, !*int3); err != nil {
			fatal(err)
		}
	}
	nat, err := fpvm.RunNative(img)
	if err != nil {
		fatal(err)
	}
	cfg := fpvm.Config{
		Alt:                fpvm.AltKind(*altKind),
		Precision:          *precision,
		PrecisionPolicy:    *precisionPolicy,
		Seq:                *seq,
		Short:              *short,
		MagicWraps:         *magicWraps,
		NoTraceCache:       *noTrace,
		Profile:            true,
		MaxLiveBoxes:       *maxBoxes,
		CheckpointInterval: *ckptInterval,
		MaxRollbacks:       *maxRollbacks,
	}
	if *injectSpec != "" {
		inj, perr := faultinject.ParseSpec(*injectSpec, *injectSeed)
		if perr != nil {
			fatal(perr)
		}
		cfg.Inject = inj
	}
	if count, ok := fleetJobCount(*parallel, *fleetJobs, *preemptQuantum); ok {
		jobs := make([]fleet.Job, count)
		for i := range jobs {
			jobs[i] = fleet.Job{Name: *workload, Image: runImg, Config: cfg}
		}
		opts := fleet.Options{Workers: *parallel, PreemptQuantum: *preemptQuantum}
		os.Exit(runFleet(os.Stdout, os.Stderr, jobs, opts))
	}
	res, err := fpvm.Run(runImg, cfg)
	if err != nil {
		if res == nil || !res.Detached {
			fatal(err)
		}
		// Fatal rung: FPVM detached but the guest finished natively —
		// report the failure, keep the output.
		fmt.Fprintln(os.Stderr, "fpvm-run: detached (guest completed natively):", err)
	}
	fmt.Print(res.Stdout)
	fmt.Fprintf(os.Stderr,
		"fpvm[%s,%s]: %d cycles, slowdown %.1fx (lower bound %.2fx, ratio %.2fx)\n",
		cfg.ConfigName(), *altKind, res.Cycles,
		res.Slowdown(nat.Cycles), res.LowerBoundSlowdown(nat.Cycles),
		res.SlowdownFromLowerBound(nat.Cycles))
	fmt.Fprintf(os.Stderr,
		"traps %d, emulated %d (%.1f insts/trap), gc runs %d, corr %d, fcall %d\n",
		res.Traps, res.EmulatedInsts, res.Breakdown.AvgSeqLen(),
		res.GCRuns, res.Breakdown.CorrEvents, res.Breakdown.FCallEvents)
	if res.TraceHits+res.TraceMisses > 0 {
		fmt.Fprintf(os.Stderr,
			"trace cache: %d traces, hit rate %.3f, %d replayed insts, %d divergence exits\n",
			res.TraceCacheEntries, res.TraceHitRate(), res.ReplayedInsts, res.TraceDivergences)
	}
	if res.Policy != nil {
		fmt.Fprintln(os.Stderr, res.Policy.Line())
	}
	if line := res.Breakdown.FaultLine(); line != "" {
		fmt.Fprintln(os.Stderr, line)
	}
	if res.FaultReport != "" {
		fmt.Fprint(os.Stderr, res.FaultReport)
		if !res.Breakdown.FaultsReconciled() {
			fmt.Fprintln(os.Stderr, "warning: fault ledger does not reconcile (injected != retried+rolledback+degraded+fatal)")
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, telemetry.Header())
		fmt.Fprintln(os.Stderr, res.Breakdown.Row(cfg.ConfigName()))
		if line := res.Breakdown.CauseLine(); line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	os.Exit(outcomeExit(res))
}

// fleetJobCount picks the run mode from the -parallel, -jobs and
// -preempt-quantum flags: a fleet of jobs copies (default one per
// worker) when they ask for more than one worker, more than one job or
// preemption, and otherwise (ok false) one serial fpvm.Run.
func fleetJobCount(parallel, jobs int, quantum uint64) (count int, ok bool) {
	if parallel <= 1 && jobs <= 1 && quantum == 0 {
		return 0, false
	}
	if jobs <= 0 {
		jobs = max(parallel, 1)
	}
	return jobs, true
}

// runFleet executes jobs on a pool of concurrent VMs and returns the
// exit code (most severe job outcome).
func runFleet(stdout, stderr io.Writer, jobs []fleet.Job, opts fleet.Options) int {
	rep := fleet.Run(jobs, opts)
	exit := fleetExit(stdout, stderr, rep.Results)
	fmt.Fprint(stderr, rep.Summary())
	return exit
}

// fleetExit reports each job's outcome on stderr, prints the first
// successful job's guest output on stdout (all copies of one workload
// are identical), and aggregates the fleet's exit code by severity.
// The codes themselves are API and not ordered; the severity ranking is
// error > detached > degraded > rolled-back > clean.
func fleetExit(stdout, stderr io.Writer, results []fleet.JobResult) int {
	rank := map[int]int{exitClean: 0, exitRolledBack: 1, exitDegraded: 2, exitDetached: 3, exitError: 4}
	exit := exitClean
	printed := false
	for _, jr := range results {
		e := exitError
		if jr.Err != nil && (jr.Result == nil || !jr.Result.Detached) {
			fmt.Fprintf(stderr, "fpvm-run: %s: %v\n", jr.Name, jr.Err)
		} else {
			if jr.Err != nil {
				// Fatal rung: FPVM detached but the guest finished
				// natively — same classification as the serial path.
				fmt.Fprintf(stderr, "fpvm-run: %s: detached (guest completed natively): %v\n", jr.Name, jr.Err)
			}
			if !printed {
				fmt.Fprint(stdout, jr.Result.Stdout)
				printed = true
			}
			e = outcomeExit(jr.Result)
		}
		if rank[e] > rank[exit] {
			exit = e
		}
	}
	return exit
}

// outcomeExit maps the run's recovery outcome to the documented exit
// codes, most severe first.
func outcomeExit(res *fpvm.Result) int {
	switch {
	case res.Detached:
		return exitDetached
	case res.Degradations > 0:
		return exitDegraded
	case res.Rollbacks > 0:
		return exitRolledBack
	}
	return exitClean
}

func names() string {
	var all []string
	for _, n := range workloads.All() {
		all = append(all, string(n))
	}
	return strings.Join(all, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpvm-run:", err)
	os.Exit(exitError)
}
