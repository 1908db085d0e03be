// Command fpvmbench is the repository's benchmark. It runs one named
// workload through the entry points FPVM's users call — fpvm.Run,
// fleet.Run, or fpvmd's HTTP handler — checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as a
// JSON object on the last line of standard output.
//
//	go run . -workload paper-batch -seed 1 -seconds 20 -trace 0
//
// design.json records why each workload exists, which per-layer metric
// should move which end-to-end metric, and how steady each metric is.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

//go:embed design.json
var designJSON []byte

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type design struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// rig is one workload set up and ready to run passes.
type rig interface {
	// pass runs pass p of the seeded job list (p < 0 is the warm-up);
	// tr is nil on untraced passes.
	pass(p int, tr *tracer) passOut
	// slowdown is the geometric mean of FPVM ÷ native virtual cycles.
	slowdown() float64
	// layers adds the workload's per-layer metrics after a traced run.
	layers(tr *tracer, m map[string]float64) error
	close()
}

type workloadDef struct {
	newRig func(seed uint64, workdir string, tr *tracer) (rig, error)
	// passSeconds is a pass's nominal length on a 2-vCPU host; it fixes
	// how many passes -seconds buys, so every run of a workload does the
	// same number of jobs however fast the host happens to be.
	passSeconds float64
	jobsPerPass int
}

var workloadDefs = map[string]workloadDef{
	"paper-batch": {
		newRig:      func(seed uint64, _ string, _ *tracer) (rig, error) { return newPaperBatch(seed) },
		passSeconds: 0.16, jobsPerPass: 6,
	},
	"fleet-sliced": {
		newRig:      func(seed uint64, _ string, _ *tracer) (rig, error) { return newFleetSliced(seed) },
		passSeconds: 0.75, jobsPerPass: 6,
	},
	"serve-durable": {
		newRig:      newServeDurable,
		passSeconds: 0.2, jobsPerPass: 5 * servePerImage,
	},
}

const (
	// workers is the number of workers or clients of every workload: the
	// target host's vCPUs, so each workload keeps both busy.
	workers = 2
	// setupReps set-ups are timed and the median reported; the last one
	// serves the timed phase.
	setupReps = 5
	// replayReps repeats the traced slice replay for per-slice medians.
	replayReps = 2
)

// passOut is one pass's measurements.
type passOut struct {
	wall, cpu         time.Duration
	latencies         []float64 // ms, one per job
	attempted, failed int
	errs              []string
}

func (o *passOut) record(job string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.errs = append(o.errs, job+": "+err.Error())
	}
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpvmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-batch, fleet-sliced or serve-durable")
	seed := fs.Uint64("seed", 1, "orders the jobs and requests; never changes which jobs run")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for snapshots and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloadDefs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fpvmbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var d design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		fmt.Fprintf(stderr, "fpvmbench: design.json: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "fpvmbench: %v\n", err)
		return 2
	}
	res, err := measure(*name, def, *seed, *seconds, *trace == 1, *workdir, d, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "fpvmbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "fpvmbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloadDefs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// passCount is the fixed number of timed passes for a run of seconds,
// and the least number that leaves ten samples beyond the pooled p90 and
// beyond the median of the per-pass medians.
func passCount(def workloadDef, seconds int) (n, least int) {
	n = int(math.Ceil(float64(seconds) / def.passSeconds))
	least = max((10*minTail+def.jobsPerPass-1)/def.jobsPerPass, 2*minTail)
	if n < least {
		n = least
	}
	return n, least
}

// overrun bounds a timed phase on a host much slower than passSeconds
// assumes: past overrun × seconds the run stops after the current pass,
// once it has its least passes, and says so.
const overrun = 1.5

// goSample holds the Go runtime's cumulative allocation and CPU counters.
type goSample struct{ allocBytes, gcCPU, totalCPU float64 }

var goMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// readGo returns the runtime's counters and its live heap in MiB.
func readGo() (goSample, float64) {
	s := make([]metrics.Sample, len(goMetrics))
	for i, name := range goMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}, val(s[3].Value) / (1 << 20)
}

func (a goSample) minus(b goSample) goSample {
	return goSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a goSample) plus(b goSample) goSample {
	return goSample{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// phase collects the passes of one kind (traced or untraced).
type phase struct {
	passes            int
	rates, cpuPerJob  []float64 // per pass: completed jobs/s, CPU ms per completed job
	medianLatencies   []float64 // per pass: the median job latency
	latencies         []float64
	attempted, failed int
	goRT              goSample
	live, rss         []float64 // per pass: live heap and peak RSS, MiB
}

func (ph *phase) add(o passOut, g goSample, live, rss float64) {
	ph.passes++
	done := float64(o.attempted - o.failed)
	ph.rates = append(ph.rates, done/o.wall.Seconds())
	ph.cpuPerJob = append(ph.cpuPerJob, ratio(ms(o.cpu), done))
	ph.medianLatencies = append(ph.medianLatencies, median(o.latencies))
	ph.latencies = append(ph.latencies, o.latencies...)
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.goRT = ph.goRT.plus(g)
	ph.live = append(ph.live, live)
	ph.rss = append(ph.rss, rss)
}

func (ph *phase) jobs() float64 { return float64(ph.attempted - ph.failed) }

// jobsPerSec is the median pass's completed jobs ÷ its wall-clock
// seconds: a neighbour's burst that slows a few passes moves a median
// less than a total.
func (ph *phase) jobsPerSec() float64 { return median(ph.rates) }

// measure sets the workload up, runs its timed passes and returns the
// result line.
func measure(name string, def workloadDef, seed uint64, seconds int, traced bool, workdir string, d design, out io.Writer) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Set up several times and report the median; each set-up ends with
	// a discarded warm-up pass that must be correct.
	var setups []float64
	var r rig
	for k := 0; k < setupReps; k++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = def.newRig(seed, workdir, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if w := r.pass(-1, nil); w.failed > 0 {
			r.close()
			return nil, fmt.Errorf("warm-up pass: %d of %d jobs wrong: %s", w.failed, w.attempted, strings.Join(w.errs, "; "))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()

	// Traced runs alternate traced and untraced passes, so the tracing
	// overhead is measured under the same host conditions.
	var plain, withSpans phase
	var errs []string
	n, least := passCount(def, seconds)
	if traced {
		// Only the untraced half of the passes feeds the percentiles.
		least *= 2
		n = max(n, least)
	}
	steal0, ticks0 := hostTicks()
	start := time.Now()
	for p := 0; p < n; p++ {
		if p >= least && time.Since(start).Seconds() > overrun*float64(seconds) {
			fmt.Fprintf(out, "host too slow: stopped after %d of %d passes\n", p, n)
			break
		}
		var ptr *tracer
		if traced && p%2 == 0 {
			ptr = tr
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		g0, _ := readGo()
		o := r.pass(p, ptr)
		g, _ := readGo()
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		// A full collection between passes leaves only the state the
		// process retains; the live heap a concurrent GC reports mid-pass
		// counts whatever was allocated while it marked, which follows
		// host load.
		runtime.GC()
		_, live := readGo()
		if ptr != nil {
			withSpans.add(o, g.minus(g0), live, rss)
		} else {
			plain.add(o, g.minus(g0), live, rss)
		}
		errs = append(errs, o.errs...)
	}
	steal1, ticks1 := hostTicks()
	stealShare := ratio(steal1-steal0, ticks1-ticks0)
	all := plain
	if traced {
		all.attempted += withSpans.attempted
		all.failed += withSpans.failed
	}
	res := &result{
		Correct:   all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   make(map[string]metricValue),
	}
	for i, e := range errs {
		if i == 5 {
			fmt.Fprintf(out, "... and %d more wrong outputs\n", len(errs)-i)
			break
		}
		fmt.Fprintf(out, "WRONG OUTPUT %s\n", e)
	}

	// These are measured in both modes from the untraced passes. Only
	// setup_s, heap_live_mb and slowdown_x repeat between runs on a
	// shared host well enough to gate on; throughput, CPU per job and the
	// latencies move 15-34% with the share of the vCPUs neighbours take,
	// so they belong to the per-layer set (see design.json).
	//
	// The six paper jobs split 3/3 around a latency gap, so the pooled
	// median of their latencies lands between two job kinds and jumps
	// with noise; the median of each pass's median does not.
	p50, err := percentile(plain.medianLatencies, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(plain.latencies, 90)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"heap_live_mb":   median(plain.live),
		"slowdown_x":     r.slowdown(),
		"jobs_per_s":     plain.jobsPerSec(),
		"cpu_ms_per_job": median(plain.cpuPerJob),
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
	}
	var defs []metricDef
	if !traced {
		defs = d.EndToEnd
		fmt.Fprintf(out, "%s seed %d: %d passes, %d jobs attempted, %d failed (failed_frac %.4f); %d latency samples; set-ups %v s; host steal %.1f%%\n",
			name, seed, plain.passes, plain.attempted, plain.failed,
			ratio(float64(plain.failed), float64(plain.attempted)), len(plain.latencies), roundAll(setups), 100*stealShare)
		for _, m := range d.PerLayer {
			if v, ok := vals[m.Name]; ok {
				fmt.Fprintf(out, "  %-34s %14.6g %s (per-layer set)\n", m.Name, v, m.Unit)
			}
		}
	} else {
		defs = d.PerLayer
		for _, m := range defs {
			if _, ok := vals[m.Name]; !ok {
				vals[m.Name] = 0 // a layer the workload never crosses did no work
			}
		}
		if err := r.layers(tr, vals); err != nil {
			return nil, err
		}
		vals["go.alloc_mb_per_job"] = ratio(plain.goRT.allocBytes, plain.jobs()) / (1 << 20)
		vals["go.gc_cpu_share"] = ratio(plain.goRT.gcCPU, plain.goRT.totalCPU)
		vals["go.peak_rss_mb"] = maxOf(plain.rss)
		vals["trace.overhead_share"] = 1 - ratio(withSpans.jobsPerSec(), plain.jobsPerSec())
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%s seed %d: %d traced + %d untraced passes, %d jobs attempted, %d failed; host steal %.1f%%; spans in %s\n",
			name, seed, withSpans.passes, plain.passes, all.attempted, all.failed, 100*stealShare, path)
	}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
