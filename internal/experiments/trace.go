package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	"fpvm"
	"fpvm/internal/workloads"
)

// TraceBenchRow is one workload's two-tier comparison — cold decode
// (trace cache off: every trap walks and decodes) and replay (trace
// cache on: a repeated sequence replays its entries' steps) — as real
// simulator cost (wall-clock ns/op and Go allocs/op of a full virtualized
// run, measured with testing.Benchmark) plus the virtual-cycle and
// trace-cache statistics of instrumented runs. The ns/op columns are
// host time on a shared machine, informational only; the cycle columns
// are exact.
type TraceBenchRow struct {
	Workload string `json:"workload"`

	NsOpOn          float64 `json:"ns_op_trace_on"`
	NsOpOff         float64 `json:"ns_op_trace_off"`
	NsReductionPct  float64 `json:"ns_op_reduction_pct"`
	AllocsOpOn      float64 `json:"allocs_op_trace_on"`
	AllocsOpOff     float64 `json:"allocs_op_trace_off"`
	AllocsReduction float64 `json:"allocs_op_reduction_pct"`

	AvgSeqLen      float64 `json:"avg_seq_len"`
	TraceHitRate   float64 `json:"trace_hit_rate"`
	DivergenceRate float64 `json:"divergence_exit_rate"`
	CyclesOn       uint64  `json:"cycles_trace_on"`
	CyclesOff      uint64  `json:"cycles_trace_off"`
}

// traceBenchConfig is the measured configuration: the paper's fully
// accelerated SEQ SHORT with Boxed IEEE, trace cache on or off.
func traceBenchConfig(traceOff bool) fpvm.Config {
	return fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, NoTraceCache: traceOff}
}

// TraceBench measures trace-replay on vs off for every paper workload.
// The build + patch happens once per workload outside the timed region.
func TraceBench(scale int, progress io.Writer) ([]TraceBenchRow, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	var rows []TraceBenchRow
	for _, name := range workloads.All() {
		logf("== trace bench %s (scale=%d)\n", name, scale)
		img, err := workloads.Build(name, scale)
		if err != nil {
			return nil, err
		}
		patched, err := fpvm.PrepareForFPVM(img, true)
		if err != nil {
			return nil, err
		}

		row := TraceBenchRow{Workload: string(name)}

		// Instrumented single runs for cycle counts and trace stats.
		on, err := fpvm.Run(patched, traceBenchConfig(false))
		if err != nil {
			return nil, fmt.Errorf("%s trace-on: %w", name, err)
		}
		off, err := fpvm.Run(patched, traceBenchConfig(true))
		if err != nil {
			return nil, fmt.Errorf("%s trace-off: %w", name, err)
		}
		if on.Stdout != off.Stdout {
			return nil, fmt.Errorf("%s: trace replay changed program output", name)
		}
		row.CyclesOn, row.CyclesOff = on.Cycles, off.Cycles
		row.AvgSeqLen = on.Breakdown.AvgSeqLen()
		row.TraceHitRate = on.TraceHitRate()
		row.DivergenceRate = on.Breakdown.DivergenceRate()

		// Real simulator cost, measured like a go test -bench run. Best of
		// three passes with a GC barrier in between, so one config's garbage
		// and scheduler noise don't bleed into the other's numbers.
		var benchErr error
		measure := func(traceOff bool) (float64, float64) {
			ns, allocs := math.Inf(1), math.Inf(1)
			for pass := 0; pass < 3; pass++ {
				runtime.GC()
				r := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := fpvm.Run(patched, traceBenchConfig(traceOff)); err != nil {
							benchErr = err
							return
						}
					}
				})
				ns = math.Min(ns, float64(r.NsPerOp()))
				allocs = math.Min(allocs, float64(r.AllocsPerOp()))
			}
			return ns, allocs
		}
		row.NsOpOn, row.AllocsOpOn = measure(false)
		row.NsOpOff, row.AllocsOpOff = measure(true)
		if benchErr != nil {
			return nil, fmt.Errorf("%s: %w", name, benchErr)
		}
		row.NsReductionPct = reductionPct(row.NsOpOn, row.NsOpOff)
		row.AllocsReduction = reductionPct(row.AllocsOpOn, row.AllocsOpOff)
		logf("   ns/op %.0f -> %.0f (-%.1f%%), allocs/op %.0f -> %.0f (-%.1f%%)\n",
			row.NsOpOff, row.NsOpOn, row.NsReductionPct,
			row.AllocsOpOff, row.AllocsOpOn, row.AllocsReduction)
		rows = append(rows, row)
	}
	return rows, nil
}

func reductionPct(on, off float64) float64 {
	if off == 0 {
		return 0
	}
	return 100 * (off - on) / off
}

// TraceTable prints the trace-cache comparison (the `-fig trace` table):
// per workload, the real ns/op with the trace cache off and on and the
// reduction replay buys, the exact virtual cycles of both tiers, and the
// amortization/hit-rate statistics.
func TraceTable(w io.Writer, rows []TraceBenchRow) {
	fmt.Fprintln(w, "Trace cache: cold decode vs replay (SEQ SHORT, Boxed IEEE)")
	fmt.Fprintf(w, "%-22s %12s %12s %7s %12s %12s %9s %8s %8s\n",
		"workload", "ns/op-off", "ns/op-replay", "ns-red",
		"cycles-off", "cycles-on", "insts/trap", "hit-rate", "div-rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %12.0f %12.0f %6.1f%% %12d %12d %9.2f %8.3f %8.3f\n",
			r.Workload, r.NsOpOff, r.NsOpOn, r.NsReductionPct,
			r.CyclesOff, r.CyclesOn, r.AvgSeqLen, r.TraceHitRate, r.DivergenceRate)
	}
}

// WriteTraceJSON writes the rows as the BENCH_*.json regression artifact.
func WriteTraceJSON(path string, rows []TraceBenchRow) error {
	doc := struct {
		Benchmark string          `json:"benchmark"`
		Config    string          `json:"config"`
		Rows      []TraceBenchRow `json:"rows"`
	}{
		Benchmark: "trace-cache-off-vs-replay",
		Config:    "SEQ SHORT, Boxed IEEE",
		Rows:      rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
