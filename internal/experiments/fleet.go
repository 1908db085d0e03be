package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"

	"fpvm"
	"fpvm/internal/fleet"
	"fpvm/internal/workloads"
)

// FleetBenchRow is one worker-count's shared-vs-private fleet comparison
// over the request-sized workload mix. The headline figures are on the
// virtual clock — completion time (makespan) of the worker-pool schedule
// in virtual cycles, and jobs per Gcycle derived from it — which are
// deterministic and host-independent, like every other figure in this
// repo. Wall-clock throughput (VMs/sec, best of five interleaved
// passes) rides along as an informational column; on a loaded or
// single-core host its noise exceeds the few-percent warm-up signal.
//
// The shared figures count the jobs only. Before dispatch the shared
// fleet also runs one private training run per image (fleet.Run trains
// each image's store), which costs what one private job of the image
// does: CyclesPrivate / fleetRepeats in all.
type FleetBenchRow struct {
	Workers int `json:"workers"`
	Jobs    int `json:"jobs"`

	VMakespanPrivate   uint64  `json:"virtual_makespan_cycles_private"`
	VMakespanShared    uint64  `json:"virtual_makespan_cycles_shared"`
	VThroughputPrivate float64 `json:"jobs_per_gcycle_private"`
	VThroughputShared  float64 `json:"jobs_per_gcycle_shared"`
	VThroughputGainPct float64 `json:"virtual_throughput_gain_pct"`

	ThroughputPrivate float64 `json:"jobs_per_sec_private"`
	ThroughputShared  float64 `json:"jobs_per_sec_shared"`
	ThroughputGainPct float64 `json:"wall_throughput_gain_pct"`

	CyclesPrivate   uint64  `json:"cycles_private"`
	CyclesShared    uint64  `json:"cycles_shared"`
	CycleSavingsPct float64 `json:"cycle_savings_pct"`

	SharedDecodeAdoptions uint64 `json:"shared_decode_adoptions"`
	SharedTraceAdoptions  uint64 `json:"shared_trace_adoptions"`

	TraceHitRatePrivate float64 `json:"trace_hit_rate_private"`
	TraceHitRateShared  float64 `json:"trace_hit_rate_shared"`
}

// fleetRepeats is how many copies of each micro workload the job mix
// holds. With 5 micro workloads this yields a 120-job fleet: enough
// that each timed pass runs long relative to timer/scheduler jitter
// (every extra private job pays its own warm-up while an extra shared
// job does not, so the relative signal is repeat-count invariant),
// small enough that the whole sweep finishes in seconds.
const fleetRepeats = 24

// fleetWorkerSweep is the worker counts compared.
var fleetWorkerSweep = []int{1, 2, 4, 8}

// FleetBench measures fleet throughput with one shared decode/trace cache
// per image vs fully private caches, across the worker sweep. Jobs are
// the request-sized micro workloads: at that granularity trap-pipeline
// warm-up (decode + trace build) is a visible fraction of each run, which
// is the regime cache sharing targets. The decisive comparison is the
// virtual-clock one: the shared fleet's makespan is deterministically
// shorter because adopted traces replay at DecacheHit cost instead of
// paying full decode + walk, so jobs/Gcycle improves at every worker
// count. The training runs that build the stores precede dispatch and
// are not in that figure (see FleetBenchRow). Wall clock is also
// measured (pairwise interleaved, best-of-5) but on a single-core host
// the parallelism itself cannot add real throughput and the residual
// warm-up saving sits inside scheduler/GC noise — the wall columns are
// informational.
func FleetBench(progress io.Writer) ([]FleetBenchRow, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}

	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	var jobs []fleet.Job
	for _, name := range workloads.MicroAll() {
		img, err := workloads.BuildMicro(name)
		if err != nil {
			return nil, err
		}
		patched, err := fpvm.PrepareForFPVM(img, true)
		if err != nil {
			return nil, err
		}
		for r := 0; r < fleetRepeats; r++ {
			jobs = append(jobs, fleet.Job{Name: string(name), Image: patched, Config: cfg})
		}
	}

	var rows []FleetBenchRow
	for _, workers := range fleetWorkerSweep {
		logf("== fleet bench: %d jobs on %d workers\n", len(jobs), workers)
		row := FleetBenchRow{Workers: workers, Jobs: len(jobs)}

		// Wall-clock passes run pairwise interleaved (private, shared,
		// private, shared, ...) so both modes sample the same noise
		// environment — back-to-back blocks let allocator or scheduler
		// drift bias whichever mode runs second. The collector is held off
		// during each timed pass (explicit collection between passes), so
		// a GC cycle landing inside one mode's window doesn't masquerade
		// as a throughput difference. One untimed warm-up pair stabilizes
		// the heap, then best-of-5 per mode. The shared caches are trained
		// again on every pass (fleet.Run trains them before dispatch), so
		// each shared pass pays its training runs in wall time.
		run := func(share bool) (*fleet.Report, error) {
			runtime.GC()
			prev := debug.SetGCPercent(-1)
			r := fleet.Run(jobs, fleet.Options{Workers: workers, Share: share})
			debug.SetGCPercent(prev)
			if r.Failures > 0 {
				return nil, fmt.Errorf("fleet bench (share=%v, workers=%d): %d failures",
					share, workers, r.Failures)
			}
			return r, nil
		}
		tpPriv, tpShared := math.Inf(-1), math.Inf(-1)
		var priv, shared *fleet.Report
		for pass := -1; pass < 5; pass++ { // pass -1 is the discarded warm-up pair
			p, err := run(false)
			if err != nil {
				return nil, err
			}
			s, err := run(true)
			if err != nil {
				return nil, err
			}
			priv, shared = p, s
			if pass < 0 {
				continue
			}
			if tp := p.Throughput(); tp > tpPriv {
				tpPriv = tp
			}
			if tp := s.Throughput(); tp > tpShared {
				tpShared = tp
			}
		}

		// Cache sharing must never change guest results: byte-identical
		// stdout per job position.
		for i := range priv.Results {
			if priv.Results[i].Result.Stdout != shared.Results[i].Result.Stdout {
				return nil, fmt.Errorf("fleet bench: job %d (%s) output diverged between private and shared caches",
					i, priv.Results[i].Name)
			}
		}

		row.VMakespanPrivate = priv.VirtualMakespan()
		row.VMakespanShared = shared.VirtualMakespan()
		row.VThroughputPrivate = priv.VirtualThroughput()
		row.VThroughputShared = shared.VirtualThroughput()
		if row.VThroughputPrivate > 0 {
			row.VThroughputGainPct = 100 * (row.VThroughputShared - row.VThroughputPrivate) / row.VThroughputPrivate
		}
		row.ThroughputPrivate, row.ThroughputShared = tpPriv, tpShared
		if tpPriv > 0 {
			row.ThroughputGainPct = 100 * (tpShared - tpPriv) / tpPriv
		}
		row.CyclesPrivate, row.CyclesShared = priv.TotalCycles, shared.TotalCycles
		if priv.TotalCycles > 0 {
			row.CycleSavingsPct = 100 * float64(priv.TotalCycles-shared.TotalCycles) / float64(priv.TotalCycles)
		}
		row.SharedDecodeAdoptions = shared.SharedHits
		row.SharedTraceAdoptions = shared.SharedTraceHits
		row.TraceHitRatePrivate = priv.Breakdown.TraceHitRate()
		row.TraceHitRateShared = shared.Breakdown.TraceHitRate()

		logf("   virtual %.2f -> %.2f jobs/Gcycle (%+.1f%%); wall %.0f -> %.0f jobs/s (%+.1f%%); cycles %d -> %d (-%.1f%%)\n",
			row.VThroughputPrivate, row.VThroughputShared, row.VThroughputGainPct,
			tpPriv, tpShared, row.ThroughputGainPct,
			row.CyclesPrivate, row.CyclesShared, row.CycleSavingsPct)
		rows = append(rows, row)
	}
	return rows, nil
}

// FleetTable prints the `-fig fleet` table. The v-* columns are the
// deterministic virtual-clock result (jobs per Gcycle of pool makespan);
// the wall columns are informational (noisy on shared hosts).
func FleetTable(w io.Writer, rows []FleetBenchRow) {
	fmt.Fprintln(w, "Fleet throughput: shared decode/trace cache vs private caches (request-sized jobs, SEQ SHORT, Boxed IEEE)")
	fmt.Fprintln(w, "virtual columns (jobs/Gcycle of pool makespan) are deterministic; wall columns are informational")
	fmt.Fprintln(w, "v-shrd and cyc-sav count the jobs only, not the shared fleet's training runs (one private run per image)")
	fmt.Fprintf(w, "%7s %5s %9s %9s %8s %12s %12s %9s %8s %10s\n",
		"workers", "jobs", "v-priv", "v-shrd", "v-gain",
		"wall-priv/s", "wall-shrd/s", "wall-gain", "cyc-sav", "adopt-trc")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %5d %9.2f %9.2f %+7.1f%% %12.0f %12.0f %+8.1f%% %7.1f%% %10d\n",
			r.Workers, r.Jobs,
			r.VThroughputPrivate, r.VThroughputShared, r.VThroughputGainPct,
			r.ThroughputPrivate, r.ThroughputShared, r.ThroughputGainPct,
			r.CycleSavingsPct, r.SharedTraceAdoptions)
	}
}

// WriteFleetJSON writes the rows as the BENCH_4.json regression artifact.
func WriteFleetJSON(path string, rows []FleetBenchRow) error {
	doc := struct {
		Benchmark string          `json:"benchmark"`
		Config    string          `json:"config"`
		Host      string          `json:"host"`
		Rows      []FleetBenchRow `json:"rows"`
	}{
		Benchmark: "fleet-shared-vs-private-cache",
		Config:    "SEQ SHORT, Boxed IEEE, micro workloads",
		Host:      fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		Rows:      rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
