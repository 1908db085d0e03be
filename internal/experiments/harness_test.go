package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The figure harnesses are the repo's regenerable artifacts; each one is
// smoke-tested here at request size so `go test ./...` proves the whole
// bench surface still runs end to end, and the acceptance claims baked
// into the tables (zero divergences, adaptive dominance) hold on every
// push — not only when someone regenerates the figures by hand.

// TestConformTableZeroDivergences: the full default oracle matrix over
// every stock workload must report zero divergences — ConformTable errs
// otherwise, so the assertion is the nil error plus the closing line.
func TestConformTableZeroDivergences(t *testing.T) {
	var buf bytes.Buffer
	if err := ConformTable(&buf, nil); err != nil {
		t.Fatalf("conformance diverged:\n%s\n%v", buf.String(), err)
	}
	if !strings.Contains(buf.String(), "zero divergences") {
		t.Fatalf("table is missing the zero-divergence tally:\n%s", buf.String())
	}
}

// TestFrontierTableAdaptiveDominates: the accuracy-vs-cycles frontier
// must show the adaptive policy strictly dominating always-MPFR on at
// least two workloads — FrontierTable errs below that bar.
func TestFrontierTableAdaptiveDominates(t *testing.T) {
	var buf bytes.Buffer
	if err := FrontierTable(&buf, nil); err != nil {
		t.Fatalf("frontier:\n%s\n%v", buf.String(), err)
	}
	out := buf.String()
	if !strings.Contains(out, "adaptive dominates always-mpfr") {
		t.Fatalf("frontier table is missing the dominance summary:\n%s", out)
	}
	for _, sys := range []string{"boxed", "adaptive", "mpfr200"} {
		if !strings.Contains(out, sys) {
			t.Fatalf("frontier table is missing the %s rows:\n%s", sys, out)
		}
	}
}

// TestResilienceTableHeadline: for both workloads, the fatal alt.op
// fault ends rolled back and undegraded once checkpoints are taken, and
// detached without them, and every row's fault ledger reconciles.
func TestResilienceTableHeadline(t *testing.T) {
	var buf bytes.Buffer
	if err := ResilienceTable(&buf, "boxed", 1, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rows := map[string][]string{} // "workload/scenario" -> injected..undegr
	for _, line := range strings.Split(out, "\n") {
		for _, sc := range resilScenarios {
			if i := strings.Index(line, " "+sc.name+" "); i > 0 {
				rows[strings.TrimSpace(line[:i])+"/"+sc.name] = strings.Fields(line[i+len(sc.name)+2:])
			}
		}
	}
	for _, w := range []string{"lorenz_attractor", "three_body_simulation"} {
		for _, sc := range resilScenarios {
			if f := rows[w+"/"+sc.name]; len(f) != 9 || f[5] != "yes" {
				t.Errorf("%s %s: recon not yes in %q", w, sc.name, f)
			}
		}
		// Columns: injected retried rlbk degr fatal recon ckpts outcome undegr.
		ck := rows[w+"/fatal alt.op ckpt"]
		if len(ck) != 9 || ck[7] != "rolledback" || ck[8] != "yes" || ck[6] == "0" {
			t.Errorf("%s fatal alt.op ckpt: %q, want rolledback/yes with checkpoints", w, ck)
		}
		no := rows[w+"/fatal alt.op no-ckpt"]
		if len(no) != 9 || no[7] != "detached" || no[8] != "NO" {
			t.Errorf("%s fatal alt.op no-ckpt: %q, want detached/NO", w, no)
		}
	}
	if t.Failed() {
		t.Logf("table:\n%s", out)
	}
}

// TestParseFloats pins the stdout scraper the frontier scores with.
func TestParseFloats(t *testing.T) {
	got := parseFloats("x=1.50 y=-0.25e+2 n=7 z=3.0E-1 inf nan")
	want := []float64{1.5, -25, 0.3}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	if out := parseFloats("no floats here, just 42 and words"); out != nil {
		t.Fatalf("bare integers scraped as floats: %v", out)
	}
}

// TestAccuracyMetric pins the digit bucketing: exact agreement caps at
// maxDigits, relative error maps through -log10, and shape mismatches
// score zero.
func TestAccuracyMetric(t *testing.T) {
	if d, rel := accuracy([]float64{1, 2}, []float64{1, 2}); d != maxDigits || rel != 0 {
		t.Fatalf("exact match scored %d digits, rel %g", d, rel)
	}
	if d, _ := accuracy([]float64{1.0001}, []float64{1}); d != 3 && d != 4 {
		t.Fatalf("1e-4 relative error scored %d digits, want ~4", d)
	}
	if d, rel := accuracy([]float64{1}, []float64{1, 2}); d != 0 || !math.IsInf(rel, 1) {
		t.Fatalf("shape mismatch scored %d digits, rel %g", d, rel)
	}
	if d, rel := accuracy(nil, nil); d != 0 || !math.IsInf(rel, 1) {
		t.Fatalf("empty reference scored %d digits, rel %g", d, rel)
	}
	// Against a zero reference the error is absolute.
	if d, rel := accuracy([]float64{0.01}, []float64{0}); rel != 0.01 || d != 2 {
		t.Fatalf("absolute error vs zero scored %d digits, rel %g; want 2, 0.01", d, rel)
	}
}

// TestServiceBenchSmoke drives the serving benchmark at a small offered
// load: every response must carry a deliberate status (Other == 0), the
// overload phase must shed rather than collapse, and the JSON artifact
// must round-trip. The service sheds only when a queue is full, and a
// micro job finishes in about a millisecond, so the overload phase needs
// enough clients to outrun 4 workers: 32 offered puts 64 clients against
// a queue bound of 4.
func TestServiceBenchSmoke(t *testing.T) {
	rows, err := ServiceBench(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Phase != "nominal" || rows[1].Phase != "overload" {
		t.Fatalf("phases = %+v, want nominal then overload", rows)
	}
	for _, r := range rows {
		if r.Other != 0 {
			t.Fatalf("%s phase returned %d accidental statuses", r.Phase, r.Other)
		}
		if r.Completed == 0 {
			t.Fatalf("%s phase completed nothing", r.Phase)
		}
	}
	if rows[0].Shed != 0 {
		t.Fatalf("nominal phase shed %d jobs with queues sized to the load", rows[0].Shed)
	}
	if rows[1].Shed == 0 {
		t.Fatal("overload phase shed nothing against queues bounded below the load")
	}
	ServiceTable(io.Discard, rows)

	path := filepath.Join(t.TempDir(), "service.json")
	if err := WriteServiceJSON(path, rows); err != nil {
		t.Fatal(err)
	}
	assertJSONRows(t, path, len(rows))
}

// TestMicroFigures: the trap-delivery and correctness microbenchmark
// figures render at a small iteration count.
func TestMicroFigures(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf, 200); err != nil {
		t.Fatal(err)
	}
	if err := Fig3(&buf, 100); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("micro figures rendered nothing")
	}
}

func assertJSONRows(t *testing.T, path string, want int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmark string           `json:"benchmark"`
		Rows      []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s is not a JSON benchmark doc: %v", path, err)
	}
	if doc.Benchmark == "" || len(doc.Rows) != want {
		t.Fatalf("%s holds benchmark %q with %d rows, want %d", path, doc.Benchmark, len(doc.Rows), want)
	}
}
