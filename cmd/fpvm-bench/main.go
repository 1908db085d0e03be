// Command fpvm-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	fpvm-bench [-fig all|NAME] [-scale N] [-json FILE] [-cpuprofile FILE] [-memprofile FILE] [-v]
//
// where NAME is one of figureNames (-h prints them); any other name is an
// error.
//
// Figures 1-10 run with Boxed IEEE (the paper's worst-case system);
// figures 11-13 rerun the sweep with the MPFR-like 200-bit system. The
// trace figure benchmarks the software trace cache on vs off, the preempt
// figure sweeps the fleet's preemption quantum, and the service figure
// drives fpvmd over HTTP at nominal load and 2x overload; with -json,
// trace, coverflow and service write their regression artifact. The
// conform figure runs the differential conformance oracle's full matrix
// over the request-sized workloads and exits non-zero on any divergence.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"fpvm"
	"fpvm/internal/experiments"
	"fpvm/internal/workloads"
)

// figureNames lists every -fig name besides "all".
var figureNames = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
	"corr", "cache", "resil", "trace", "preempt", "conform", "frontier", "coverflow", "service"}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, or one of "+strings.Join(figureNames, ", "))
	scale := flag.Int("scale", 1, "workload scale multiplier")
	rank := flag.Int("rank", 3, "trace rank for -fig 7")
	jsonPath := flag.String("json", "", "write -fig trace, coverflow or service results to this JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	verbose := flag.Bool("v", false, "print per-run progress")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	if err := run(fig, scale, rank, jsonPath, verbose); err != nil {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		fatal(err)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle live objects before snapshotting the heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
	}
}

func run(fig *string, scale, rank *int, jsonPath *string, verbose *bool) error {
	if *fig != "all" && !slices.Contains(figureNames, *fig) {
		return fmt.Errorf("unknown -fig %q: want all or one of %s", *fig, strings.Join(figureNames, ", "))
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	out := os.Stdout
	need := func(f string) bool { return *fig == "all" || *fig == f }

	var boxed, mpfr *experiments.Suite
	var err error
	needBoxed := false
	for _, f := range []string{"1", "4", "5", "6", "7", "8", "9", "10", "corr", "cache"} {
		needBoxed = needBoxed || need(f)
	}
	if needBoxed {
		if boxed, err = experiments.Run(fpvm.AltBoxed, *scale, progress); err != nil {
			return err
		}
	}
	if need("11") || need("12") || need("13") {
		if mpfr, err = experiments.Run(fpvm.AltMPFR, *scale, progress); err != nil {
			return err
		}
	}

	if need("1") {
		boxed.Fig1(out)
		fmt.Fprintln(out)
	}
	if need("2") {
		if err := experiments.Fig2(out, int64(2000**scale)); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if need("3") {
		if err := experiments.Fig3(out, int64(1000**scale)); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if need("4") {
		boxed.Fig4(out)
		avg, best, bestName := boxed.AvgReduction()
		fmt.Fprintf(out, "SEQ SHORT reduction vs NONE: avg %.1fx, best %.1fx (%s)\n\n", avg, best, bestName)
	}
	if need("5") {
		boxed.Fig5(out)
		fmt.Fprintln(out)
	}
	if need("6") {
		boxed.Fig6(out)
		fmt.Fprintln(out)
	}
	if need("7") {
		if err := boxed.Fig7(out, workloads.Lorenz, *rank); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if need("8") {
		boxed.Fig8(out)
		fmt.Fprintln(out)
	}
	if need("9") {
		boxed.Fig9(out)
		fmt.Fprintln(out)
	}
	if need("10") {
		boxed.Fig10(out)
		fmt.Fprintln(out)
	}
	if need("corr") {
		boxed.CorrTable(out)
		fmt.Fprintln(out)
	}
	if need("cache") {
		boxed.CacheTable(out)
		fmt.Fprintln(out)
	}
	if need("11") {
		mpfr.Fig4(out)
		fmt.Fprintln(out)
	}
	if need("12") {
		mpfr.Fig5(out)
		fmt.Fprintln(out)
	}
	if need("13") {
		mpfr.Fig6(out)
		fmt.Fprintln(out)
	}
	if need("resil") {
		if err := experiments.ResilienceTable(out, fpvm.AltBoxed, *scale, progress); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if need("trace") {
		rows, err := experiments.TraceBench(*scale, progress)
		if err != nil {
			return err
		}
		experiments.TraceTable(out, rows)
		fmt.Fprintln(out)
		if *jsonPath != "" {
			if err := experiments.WriteTraceJSON(*jsonPath, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *jsonPath)
		}
	}
	if need("conform") {
		if err := experiments.ConformTable(out, progress); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if need("frontier") {
		if err := experiments.FrontierTable(out, progress); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if need("coverflow") {
		rep, err := experiments.FlowCoverage(progress)
		if err != nil {
			return err
		}
		experiments.FlowTable(out, rep)
		fmt.Fprintln(out)
		if *jsonPath != "" {
			if err := experiments.WriteFlowJSON(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *jsonPath)
		}
	}
	if need("preempt") {
		rows, err := experiments.PreemptBench(progress)
		if err != nil {
			return err
		}
		experiments.PreemptTable(out, rows)
		fmt.Fprintln(out)
	}
	if need("service") {
		rows, err := experiments.ServiceBench(1000**scale, progress)
		if err != nil {
			return err
		}
		experiments.ServiceTable(out, rows)
		fmt.Fprintln(out)
		if *jsonPath != "" {
			if err := experiments.WriteServiceJSON(*jsonPath, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *jsonPath)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpvm-bench:", err)
	os.Exit(1)
}
