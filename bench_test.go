package fpvm_test

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§6), plus ablations for the design choices DESIGN.md
// calls out. Each benchmark executes complete virtualized runs and reports
// the paper's metrics via b.ReportMetric:
//
//	slowdown-x        end-to-end slowdown vs native (Figures 4, 11)
//	lbratio-x         slowdown from the altmath lower bound (Figures 5, 12)
//	cyc/emul-inst     amortized per-instruction cost (Figures 1, 6, 13)
//	insts/trap        sequence amortization factor (§4, Figure 10)
//	cyc/trap          trap delegation cost (Figure 2)
//	cyc/corr-event    correctness trap cost (Figure 3)
//
// Absolute wall-clock ns/op measures the *simulator*, not the paper's
// system; the reported custom metrics are the reproduction targets.

import (
	"fmt"
	"testing"

	"fpvm"
	"fpvm/internal/alt"
	"fpvm/internal/experiments"
	"fpvm/internal/faultinject"
	fpvmrt "fpvm/internal/fpvm"
	"fpvm/internal/hostlib"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/obj"
	"fpvm/internal/telemetry"
	"fpvm/internal/workloads"
)

// prepared caches built+patched workload images and native baselines so
// the benchmark loop measures runs, not compilation.
type prepared struct {
	img    *obj.Image // patched with magic traps
	orig   *obj.Image // unpatched original
	native *fpvm.Result
}

var prepCache = map[workloads.Name]*prepared{}

func prep(b *testing.B, name workloads.Name) *prepared {
	b.Helper()
	if p, ok := prepCache[name]; ok {
		return p
	}
	img, err := workloads.Build(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	patched, err := fpvm.PrepareForFPVM(img, true)
	if err != nil {
		b.Fatal(err)
	}
	native, err := fpvm.RunNative(img)
	if err != nil {
		b.Fatal(err)
	}
	p := &prepared{img: patched, orig: img, native: native}
	prepCache[name] = p
	return p
}

func runCfg(b *testing.B, p *prepared, cfg fpvm.Config) *fpvm.Result {
	b.Helper()
	res, err := fpvm.Run(p.img, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

var benchConfigs = []fpvm.Config{
	{Alt: fpvm.AltBoxed},
	{Alt: fpvm.AltBoxed, Seq: true},
	{Alt: fpvm.AltBoxed, Short: true},
	{Alt: fpvm.AltBoxed, Seq: true, Short: true},
}

// BenchmarkFig1Baseline reproduces Figure 1: the per-emulated-instruction
// cost breakdown of unaccelerated FPVM (NONE) under Boxed IEEE.
func BenchmarkFig1Baseline(b *testing.B) {
	for _, name := range workloads.All() {
		b.Run(string(name), func(b *testing.B) {
			p := prep(b, name)
			var res *fpvm.Result
			for i := 0; i < b.N; i++ {
				res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed})
			}
			per := res.Breakdown.PerInst()
			total := 0.0
			for _, v := range per {
				total += v
			}
			b.ReportMetric(total, "cyc/emul-inst")
			b.ReportMetric(per[telemetry.Kernel], "kern-cyc/inst")
			b.ReportMetric(per[telemetry.Altmath], "altmath-cyc/inst")
		})
	}
}

// BenchmarkFig2TrapDelivery reproduces Figure 2: per-trap delegation cost
// via POSIX signals vs the kernel module's short-circuit path (~8x).
func BenchmarkFig2TrapDelivery(b *testing.B) {
	for _, mode := range []struct {
		name  string
		short bool
	}{{"signal", false}, {"short-circuit", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var m *experiments.MicroDelivery
			var err error
			for i := 0; i < b.N; i++ {
				m, err = experiments.RunMicroDelivery(500)
				if err != nil {
					b.Fatal(err)
				}
			}
			if mode.short {
				b.ReportMetric(m.ShortPerTrap, "cyc/trap")
			} else {
				b.ReportMetric(m.SignalPerTrap, "cyc/trap")
			}
			b.ReportMetric(m.Reduction, "reduction-x")
		})
	}
}

// BenchmarkFig3MagicTrap reproduces Figure 3: correctness trap cost, int3
// vs magic traps (paper: 14-120x).
func BenchmarkFig3MagicTrap(b *testing.B) {
	var m *experiments.MicroCorrectness
	var err error
	for i := 0; i < b.N; i++ {
		m, err = experiments.RunMicroCorrectness(500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Int3PerEvent, "int3-cyc/event")
	b.ReportMetric(m.MagicPerEvent, "magic-cyc/event")
	b.ReportMetric(m.Reduction, "reduction-x")
}

// BenchmarkFig4Slowdown reproduces Figure 4 (and the Figure 5 lower-bound
// ratios): end-to-end slowdown for every workload × configuration.
func BenchmarkFig4Slowdown(b *testing.B) {
	for _, name := range workloads.All() {
		for _, cfg := range benchConfigs {
			b.Run(fmt.Sprintf("%s/%s", name, cfg.ConfigName()), func(b *testing.B) {
				p := prep(b, name)
				var res *fpvm.Result
				for i := 0; i < b.N; i++ {
					res = runCfg(b, p, cfg)
				}
				b.ReportMetric(res.Slowdown(p.native.Cycles), "slowdown-x")
				b.ReportMetric(res.SlowdownFromLowerBound(p.native.Cycles), "lbratio-x")
			})
		}
	}
}

// BenchmarkFig6Breakdown reproduces Figure 6: optimized per-instruction
// breakdowns and the per-configuration reduction factors.
func BenchmarkFig6Breakdown(b *testing.B) {
	for _, name := range workloads.All() {
		b.Run(string(name), func(b *testing.B) {
			p := prep(b, name)
			var none, both *fpvm.Result
			for i := 0; i < b.N; i++ {
				none = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed})
				both = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true})
			}
			perNone := perInstTotal(none)
			perBoth := perInstTotal(both)
			b.ReportMetric(perBoth, "cyc/emul-inst")
			b.ReportMetric(perNone/perBoth, "reduction-x")
			b.ReportMetric(both.Breakdown.PerInst()[telemetry.Altmath]/perBoth, "altmath-frac")
		})
	}
}

func perInstTotal(r *fpvm.Result) float64 {
	if r.EmulatedInsts == 0 {
		return 0
	}
	return float64(r.Breakdown.Total()) / float64(r.EmulatedInsts)
}

// BenchmarkFig8to10SeqProfile reproduces the §6.3 sequence statistics:
// distinct traces, amortization factor, and trace cache sizing (Figures
// 8, 9, 10 and the cache-size discussion).
func BenchmarkFig8to10SeqProfile(b *testing.B) {
	for _, name := range workloads.All() {
		b.Run(string(name), func(b *testing.B) {
			p := prep(b, name)
			var res *fpvm.Result
			for i := 0; i < b.N; i++ {
				res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, Profile: true})
			}
			prof := res.SeqProfile
			b.ReportMetric(float64(prof.NumTraces()), "traces")
			b.ReportMetric(prof.AvgSeqLen(), "insts/trap")
			b.ReportMetric(float64(prof.CacheSizeEstimate(90)), "cache-entries@90%")
		})
	}
}

// BenchmarkFig11to13MPFR reproduces Figures 11-13: the same sweep under
// the 200-bit MPFR-like system, where altmath dominates.
func BenchmarkFig11to13MPFR(b *testing.B) {
	for _, name := range workloads.All() {
		for _, base := range []fpvm.Config{
			{Alt: fpvm.AltMPFR},
			{Alt: fpvm.AltMPFR, Seq: true, Short: true},
		} {
			b.Run(fmt.Sprintf("%s/%s", name, base.ConfigName()), func(b *testing.B) {
				p := prep(b, name)
				var res *fpvm.Result
				for i := 0; i < b.N; i++ {
					res = runCfg(b, p, base)
				}
				b.ReportMetric(res.Slowdown(p.native.Cycles), "slowdown-x")
				b.ReportMetric(res.SlowdownFromLowerBound(p.native.Cycles), "lbratio-x")
				b.ReportMetric(res.Breakdown.PerInst()[telemetry.Altmath]/perInstTotal(res), "altmath-frac")
			})
		}
	}
}

// BenchmarkCorrTable reproduces the §5.1 comparison: profiled vs static
// patch-site counts and the resulting correctness event rates.
func BenchmarkCorrTable(b *testing.B) {
	for _, name := range []workloads.Name{workloads.ThreeBody, workloads.Enzo} {
		b.Run(string(name), func(b *testing.B) {
			img, err := workloads.Build(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			var nProf, nStatic int
			for i := 0; i < b.N; i++ {
				prof, _, err := fpvm.ProfileSites(img)
				if err != nil {
					b.Fatal(err)
				}
				static, _, err := fpvm.AnalyzeSites(img)
				if err != nil {
					b.Fatal(err)
				}
				nProf, nStatic = len(prof), len(static)
			}
			b.ReportMetric(float64(nProf), "profiled-sites")
			b.ReportMetric(float64(nStatic), "static-sites")
		})
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationDecodeCache: shrink the decode cache until it thrashes
// (capacity 32 entries vs the 64K default) — decode costs replace decache
// hits, inflating per-instruction cost.
func BenchmarkAblationDecodeCache(b *testing.B) {
	for _, cap := range []int{32, 0} {
		label := "default-64k"
		if cap != 0 {
			label = fmt.Sprintf("cap-%d", cap)
		}
		b.Run(label, func(b *testing.B) {
			p := prep(b, workloads.Enzo)
			var res *fpvm.Result
			for i := 0; i < b.N; i++ {
				res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, CacheCapacity: cap})
			}
			b.ReportMetric(perInstTotal(res), "cyc/emul-inst")
			b.ReportMetric(res.Breakdown.PerInst()[telemetry.Decode], "decode-cyc/inst")
		})
	}
}

// BenchmarkAblationTraceCache: the §4.2 software trace cache on vs off.
// With traces on, repeated traps replay pre-bound sequences (ns/op and
// allocs/op drop, decache cycles shrink); off, every trap re-walks the
// sequence through the per-instruction decode cache. Reported metrics:
// sequence amortization (insts/trap), trace hit rate, and divergence-exit
// rate per workload.
func BenchmarkAblationTraceCache(b *testing.B) {
	for _, w := range []workloads.Name{workloads.Lorenz, workloads.Enzo} {
		for _, mode := range []struct {
			name string
			off  bool
		}{{"trace-on", false}, {"trace-off", true}} {
			b.Run(fmt.Sprintf("%s/%s", w, mode.name), func(b *testing.B) {
				p := prep(b, w)
				b.ReportAllocs()
				var res *fpvm.Result
				for i := 0; i < b.N; i++ {
					res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, NoTraceCache: mode.off})
				}
				b.ReportMetric(res.Breakdown.AvgSeqLen(), "insts/trap")
				b.ReportMetric(res.TraceHitRate(), "trace-hit-rate")
				if res.TraceHits > 0 {
					b.ReportMetric(float64(res.TraceDivergences)/float64(res.TraceHits), "divergence-exit-rate")
				} else {
					b.ReportMetric(0, "divergence-exit-rate")
				}
				b.ReportMetric(perInstTotal(res), "cyc/emul-inst")
			})
		}
	}
}

// BenchmarkAblationGCThreshold sweeps the collector trigger: low
// thresholds collect often (high gc cost), high thresholds let boxes pile
// up (bigger heap scans, fewer collections).
func BenchmarkAblationGCThreshold(b *testing.B) {
	for _, thr := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("threshold-%d", thr), func(b *testing.B) {
			p := prep(b, workloads.Enzo)
			var res *fpvm.Result
			for i := 0; i < b.N; i++ {
				res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, GCThreshold: thr})
			}
			b.ReportMetric(res.Breakdown.PerInst()[telemetry.GC], "gc-cyc/inst")
			b.ReportMetric(float64(res.GCRuns), "gc-runs")
		})
	}
}

// BenchmarkAblationSeqTermination compares the §4.2 condition-(2) rule
// (stop when no source is NaN-boxed) against emulating everything
// emulatable — the paper's "unwarranted emulation" loss.
func BenchmarkAblationSeqTermination(b *testing.B) {
	for _, mode := range []struct {
		name string
		all  bool
	}{{"stop-on-unboxed", false}, {"emulate-everything", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := prep(b, workloads.FFbench)
			var res *fpvm.Result
			for i := 0; i < b.N; i++ {
				res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, EmulateAll: mode.all})
			}
			b.ReportMetric(res.Slowdown(p.native.Cycles), "slowdown-x")
			b.ReportMetric(res.Breakdown.AvgSeqLen(), "insts/trap")
		})
	}
}

// BenchmarkAblationPatching compares profiler-guided patching against the
// conservative static-analysis site set (§5.1): more sites, more
// correctness traps, more overhead.
func BenchmarkAblationPatching(b *testing.B) {
	img, err := workloads.Build(workloads.ThreeBody, 1)
	if err != nil {
		b.Fatal(err)
	}
	profSites, _, err := fpvm.ProfileSites(img)
	if err != nil {
		b.Fatal(err)
	}
	staticSites, _, err := fpvm.AnalyzeSites(img)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		sites []uint64
	}{{"profiled", profSites}, {"static", staticSites}} {
		b.Run(mode.name, func(b *testing.B) {
			patched, err := fpvm.PatchImage(img, mode.sites, fpvm.PatchMagic)
			if err != nil {
				b.Fatal(err)
			}
			var res *fpvm.Result
			for i := 0; i < b.N; i++ {
				res, err = fpvm.Run(patched, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Breakdown.CorrEvents), "corr-events")
			b.ReportMetric(res.Breakdown.PerInst()[telemetry.Corr], "corr-cyc/inst")
		})
	}
}

// BenchmarkAblationWrapStyle verifies §5.3's claim that magic wrapping and
// forward (LD_PRELOAD) wrapping have identical performance.
func BenchmarkAblationWrapStyle(b *testing.B) {
	for _, mode := range []struct {
		name  string
		magic bool
	}{{"forward", false}, {"magic", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := prep(b, workloads.ThreeBody)
			var res *fpvm.Result
			for i := 0; i < b.N; i++ {
				res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, MagicWraps: mode.magic})
			}
			b.ReportMetric(res.Breakdown.PerInst()[telemetry.FCall], "fcall-cyc/inst")
			b.ReportMetric(float64(res.Cycles), "total-cycles")
		})
	}
}

// BenchmarkAblationRollback prices the rollback supervisor's host time:
// paper lorenz under SEQ SHORT with a snapshot every 25 traps and one
// fatal alt.op fault, which one rollback absorbs. Virtual cycles are the
// same on any host; ns/op is what the saves and the restore cost the
// simulator.
func BenchmarkAblationRollback(b *testing.B) {
	p := prep(b, workloads.Lorenz)
	var res *fpvm.Result
	for i := 0; i < b.N; i++ {
		inj := faultinject.New(0xF417)
		inj.Arm(faultinject.SiteAltOp, faultinject.Rule{Every: 997, Limit: 1, Fatal: true})
		res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, Inject: inj, CheckpointInterval: 25})
	}
	if res.Rollbacks == 0 || res.Detached {
		b.Fatalf("fatal fault not rolled back: %d rollbacks, detached %v", res.Rollbacks, res.Detached)
	}
	b.ReportMetric(float64(res.Checkpoints), "checkpoints")
	b.ReportMetric(float64(res.Rollbacks), "rollbacks")
}

// BenchmarkAblationPrecision sweeps MPFR precision: altmath cost grows
// with limb count (quadratically for mul/div), dragging slowdown with it.
func BenchmarkAblationPrecision(b *testing.B) {
	for _, prec := range []uint{64, 200, 512, 1024} {
		b.Run(fmt.Sprintf("prec-%d", prec), func(b *testing.B) {
			p := prep(b, workloads.Lorenz)
			var res *fpvm.Result
			for i := 0; i < b.N; i++ {
				res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltMPFR, Precision: prec, Seq: true, Short: true})
			}
			b.ReportMetric(res.Slowdown(p.native.Cycles), "slowdown-x")
		})
	}
}

// BenchmarkSimulatorThroughput measures the host-side simulator itself
// (useful when hacking on the interpreter, not a paper figure) over the
// three step-loop stages a workload set-up runs, for each paper
// workload: a native run, the profiler's run (ProfileSites) and a
// virtualized run (Boxed, SEQ, SHORT). host-ns/guest-inst divides host
// time by the unpatched program's retired instruction count, so the
// stages share one scale; allocations expose per-step or per-trap
// garbage. The fpvm stage also reports its traps and emulated
// instructions per run, and host-ns/emulated-inst: the whole run's host
// time over the instructions FPVM emulated, the trap path's cost in one
// number per image.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, name := range workloads.All() {
		b.Run(string(name), func(b *testing.B) {
			p := prep(b, name)
			perInst := func(b *testing.B) {
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/float64(p.native.Instructions), "host-ns/guest-inst")
			}
			b.Run("native", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := fpvm.RunNative(p.orig); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(p.native.Instructions), "guest-insts/run")
				perInst(b)
			})
			b.Run("profile", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := fpvm.ProfileSites(p.orig); err != nil {
						b.Fatal(err)
					}
				}
				perInst(b)
			})
			b.Run("fpvm", func(b *testing.B) {
				b.ReportAllocs()
				var res *fpvm.Result
				for i := 0; i < b.N; i++ {
					res = runCfg(b, p, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true})
				}
				perInst(b)
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(float64(res.Traps), "traps/run")
				b.ReportMetric(float64(res.EmulatedInsts), "emulated-insts/run")
				b.ReportMetric(ns/float64(res.EmulatedInsts), "host-ns/emulated-inst")
			})
		})
	}
}

// BenchmarkFutureHW evaluates the paper's §8 future-work hardware model
// (user-level FP traps + hardware box-escape detection) against the best
// software configuration. No kernel module, no signal path, no binary
// patching — the remaining overhead is decode/bind/emul/altmath.
func BenchmarkFutureHW(b *testing.B) {
	for _, name := range workloads.All() {
		for _, mode := range []struct {
			label string
			cfg   fpvm.Config
		}{
			{"SEQ-SHORT", fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}},
			{"SEQ-FUTUREHW", fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, FutureHW: true}},
		} {
			b.Run(fmt.Sprintf("%s/%s", name, mode.label), func(b *testing.B) {
				p := prep(b, name)
				// FutureHW removes the need for patching: it runs the
				// unpatched original; the software config needs the
				// patched image.
				img := p.img
				if mode.cfg.FutureHW {
					img = p.orig
				}
				var res *fpvm.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = fpvm.Run(img, mode.cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Slowdown(p.native.Cycles), "slowdown-x")
				b.ReportMetric(res.SlowdownFromLowerBound(p.native.Cycles), "lbratio-x")
			})
		}
	}
}

// BenchmarkAblationMPFRTemps models §6.4's suggested future optimization:
// eliminating MPFR's per-operation temporary allocations, which the paper
// observes as extra gc overhead (particularly in Enzo).
func BenchmarkAblationMPFRTemps(b *testing.B) {
	img, err := workloads.Build(workloads.Enzo, 1)
	if err != nil {
		b.Fatal(err)
	}
	patched, err := fpvm.PrepareForFPVM(img, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		temps int
	}{{"with-temps", 2}, {"temp-free", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			sys := alt.NewMPFR(200).WithTemps(mode.temps)
			var tel *telemetry.Breakdown
			for i := 0; i < b.N; i++ {
				res, err := runWithSystem(patched, sys)
				if err != nil {
					b.Fatal(err)
				}
				tel = res
			}
			b.ReportMetric(tel.PerInst()[telemetry.GC], "gc-cyc/inst")
		})
	}
}

// The MPFR-temps ablation's hand-built VM must be the VM fpvm.Run builds
// for the same system: with-temps MPFR at 200 bits on patched enzo spends
// the same cycles in every category, and takes the same traps, either way.
func TestRunWithSystemMatchesRun(t *testing.T) {
	img, err := workloads.Build(workloads.Enzo, 1)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := fpvm.PrepareForFPVM(img, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runWithSystem(patched, alt.NewMPFR(200))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fpvm.Run(patched, fpvm.Config{Alt: fpvm.AltMPFR, Precision: 200, Seq: true, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Breakdown.Cycles || got.Traps != want.Traps || got.EmulatedInsts != want.EmulatedInsts {
		t.Fatalf("runWithSystem: %d traps, %d emulated, cycles %v; fpvm.Run: %d traps, %d emulated, cycles %v",
			got.Traps, got.EmulatedInsts, got.Cycles, want.Traps, want.EmulatedInsts, want.Breakdown.Cycles)
	}
}

// runWithSystem runs an image under a custom alt.System instance (the
// public Config only names systems; ablations need instances).
func runWithSystem(img *obj.Image, sys alt.System) (*telemetry.Breakdown, error) {
	as := mem.NewAddressSpace()
	m := machine.New(as)
	k := kernel.New()
	k.LoadModule()
	p := kernel.NewProcess(k, m, img.Name)
	lib := hostlib.Install(p)
	rt, err := fpvmrt.Attach(p, fpvmrt.Config{Alt: sys, Seq: true, Short: true})
	if err != nil {
		return nil, err
	}
	rt.InstallWrappers(lib)
	// The guest's stack and heap, mapped as fpvm.Prepare maps them: the
	// collector is charged for every writable page.
	as.Map("stack", obj.StackTop-obj.StackSize, obj.StackSize, mem.PermRW)
	as.Map("heap", obj.HeapBase, obj.HeapSize, mem.PermRW)
	if err := img.Load(as, rt.WrapResolver(func(n string) (uint64, bool) {
		if s, ok := img.Lookup(n); ok {
			return s.Addr, true
		}
		a, ok := lib.Exports[n]
		return a, ok
	})); err != nil {
		return nil, err
	}
	m.InvalidateICache()
	m.CPU.RIP = img.Entry
	m.CPU.GPR[4] = obj.StackTop - 64
	m.CPU.MXCSR = machine.MXCSRTrapAll
	if err := p.Run(500_000_000); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	return &rt.Tel, nil
}
