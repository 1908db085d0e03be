package experiments

import (
	"fmt"
	"io"
	"time"

	"fpvm"
	"fpvm/internal/fleet"
	"fpvm/internal/oracle"
	"fpvm/internal/workloads"
)

// PreemptBenchRow is one preemption-quantum setting's fleet run over the
// full-size workload mix: scheduling churn (slices cut short, cross-
// worker migrations, snapshot bytes moved) against the invariant that
// the guests cannot tell — stdout, virtual cycles and final
// architectural state are bit-identical at every quantum, enforced
// in-bench against the quantum-off baseline.
type PreemptBenchRow struct {
	Quantum     uint64 `json:"preempt_quantum_cycles"`
	Jobs        int    `json:"jobs"`
	Preemptions int    `json:"preemptions"`
	Migrations  int    `json:"migrations"`

	VirtualMakespan uint64        `json:"virtual_makespan_cycles"`
	TotalCycles     uint64        `json:"total_cycles"`
	Wall            time.Duration `json:"wall_ns"`

	// SnapshotBytes is the serialized VM size summed over every
	// preemption — the migration traffic a distributed fleet would move.
	// The in-process fleet hands live VMs between workers and moves none.
	SnapshotBytes uint64 `json:"snapshot_bytes"`
}

// preemptQuantumSweep: 0 is the run-to-completion baseline the others
// must match bit-for-bit.
var preemptQuantumSweep = []uint64{0, 4_000_000, 1_000_000}

// PreemptBench runs the same fleet at each preemption quantum and
// verifies every job's observables against the quantum-off baseline.
// Private caches keep per-job virtual cycles schedule-independent, so
// the comparison is exact, not statistical.
func PreemptBench(progress io.Writer) ([]PreemptBenchRow, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}

	cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}
	var jobs []fleet.Job
	for _, name := range []workloads.Name{workloads.Pendulum, workloads.Lorenz} {
		img, err := workloads.Build(name, 1)
		if err != nil {
			return nil, err
		}
		for r := 0; r < 2; r++ {
			jobs = append(jobs, fleet.Job{Name: string(name), Image: img, Config: cfg})
		}
	}

	var rows []PreemptBenchRow
	var baseline *fleet.Report
	for _, q := range preemptQuantumSweep {
		logf("== preempt bench: %d jobs, quantum %d\n", len(jobs), q)
		var snapBytes uint64
		opts := fleet.Options{Workers: 2, PreemptQuantum: q}
		rep := fleet.Run(jobs, opts)
		if rep.Failures > 0 {
			return nil, fmt.Errorf("preempt bench (quantum=%d): %d failures", q, rep.Failures)
		}
		if q == 0 {
			baseline = rep
		} else {
			for i := range rep.Results {
				a, b := baseline.Results[i].Result, rep.Results[i].Result
				if a.Stdout != b.Stdout || a.Cycles != b.Cycles {
					return nil, fmt.Errorf("preempt bench: job %d (%s) diverged at quantum %d",
						i, rep.Results[i].Name, q)
				}
				if d := oracle.DiffFinal(a.Final, b.Final); d != "" {
					return nil, fmt.Errorf("preempt bench: job %d (%s) final state diverged at quantum %d: %s",
						i, rep.Results[i].Name, q, d)
				}
			}
			// Estimate migration traffic by reslicing one job once.
			probe := jobs[0].Config
			probe.PreemptQuantum = q
			if res, err := fpvm.Run(jobs[0].Image, probe); err == nil && res.Preempted {
				snapBytes = uint64(len(res.Snapshot)) * uint64(rep.Preemptions)
			}
		}
		rows = append(rows, PreemptBenchRow{
			Quantum:         q,
			Jobs:            rep.Jobs,
			Preemptions:     rep.Preemptions,
			Migrations:      rep.Migrations,
			VirtualMakespan: rep.VirtualMakespan(),
			TotalCycles:     rep.TotalCycles,
			Wall:            rep.Elapsed,
			SnapshotBytes:   snapBytes,
		})
		logf("   preemptions %d, migrations %d, makespan %d cycles\n",
			rep.Preemptions, rep.Migrations, rep.VirtualMakespan())
	}
	return rows, nil
}

// PreemptTable prints the `-fig preempt` table.
func PreemptTable(w io.Writer, rows []PreemptBenchRow) {
	fmt.Fprintln(w, "Preemptive fleet scheduling: virtual-cycle quantum vs run-to-completion (Boxed IEEE, SEQ SHORT)")
	fmt.Fprintln(w, "guest observables are verified bit-identical at every quantum; churn columns show the scheduling cost")
	fmt.Fprintf(w, "%10s %5s %8s %6s %14s %14s %12s\n",
		"quantum", "jobs", "preempt", "migr", "v-makespan", "total-cycles", "snap-bytes")
	for _, r := range rows {
		q := "off"
		if r.Quantum > 0 {
			q = fmt.Sprintf("%d", r.Quantum)
		}
		fmt.Fprintf(w, "%10s %5d %8d %6d %14d %14d %12d\n",
			q, r.Jobs, r.Preemptions, r.Migrations, r.VirtualMakespan, r.TotalCycles, r.SnapshotBytes)
	}
}
