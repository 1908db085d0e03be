package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fpvm"
	"fpvm/internal/workloads"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ pct, refused, enough int }{
		{50, 19, 20},
		{90, 99, 100},
		{99, 999, 1000},
	} {
		if _, err := percentile(seq(tc.refused), tc.pct); err == nil {
			t.Errorf("p%d of %d samples: want a refusal", tc.pct, tc.refused)
		}
		if _, err := percentile(seq(tc.enough), tc.pct); err != nil {
			t.Errorf("p%d of %d samples: %v", tc.pct, tc.enough, err)
		}
	}
	if got, err := percentile(seq(100), 50); err != nil || got != 50.5 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50.5", got, err)
	}
	if got, err := percentile(seq(101), 90); err != nil || got != 91 {
		t.Errorf("p90 of 1..101 = %v, %v; want 91", got, err)
	}
}

func TestPassOrderIsSeededAndKeepsTheJobs(t *testing.T) {
	for _, shape := range []struct{ kinds, per int }{{6, 1}, {5, servePerImage}} {
		differs := false
		for p := 0; p < 20; p++ {
			a := passOrder(1, p, shape.kinds, shape.per)
			if !reflect.DeepEqual(a, passOrder(1, p, shape.kinds, shape.per)) {
				t.Fatalf("pass %d: the same seed gave two orders", p)
			}
			b := passOrder(2, p, shape.kinds, shape.per)
			differs = differs || !reflect.DeepEqual(a, b)
			sa, sb := append([]int(nil), a...), append([]int(nil), b...)
			sort.Ints(sa)
			sort.Ints(sb)
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("pass %d: seeds 1 and 2 ran different jobs: %v vs %v", p, a, b)
			}
			count := make(map[int]int)
			for _, k := range a {
				count[k]++
			}
			for k := 0; k < shape.kinds; k++ {
				if count[k] != shape.per {
					t.Fatalf("pass %d: job %d appears %d times, want %d", p, k, count[k], shape.per)
				}
			}
		}
		if !differs {
			t.Errorf("%d kinds: seeds 1 and 2 gave identical orders in every pass", shape.kinds)
		}
	}
}

func TestCheckRejectsDoctoredOutput(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := fpvm.PrepareForFPVM(img, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fpvm.Run(patched, paperConfig)
	if err != nil {
		t.Fatal(err)
	}
	want := expect{stdout: res.Stdout, cycles: res.Cycles, digest: digestOf(res.Final)}
	if err := want.check(res.Stdout, res.Cycles, digestOf(res.Final)); err != nil {
		t.Fatalf("the run's own output was rejected: %v", err)
	}
	doctored := []byte(res.Stdout)
	doctored[len(doctored)/2] ^= 1
	if err := want.check(string(doctored), res.Cycles, want.digest); err == nil {
		t.Error("a doctored stdout was accepted")
	}
	badDigest := "0" + want.digest[1:]
	if badDigest == want.digest {
		badDigest = "1" + want.digest[1:]
	}
	if err := want.check(res.Stdout, res.Cycles, badDigest); err == nil {
		t.Error("a doctored digest was accepted")
	}
	if err := want.check(res.Stdout, res.Cycles+1, want.digest); err == nil {
		t.Error("a doctored cycle count was accepted")
	}
}

// BENCHMARK.json at the repository root names the same metrics, units
// and directions as design.json, which the program reads.
func TestBenchmarkJSONMatchesDesign(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b design
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var d design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		t.Fatal(err)
	}
	strip := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
		}
		return out
	}
	if !reflect.DeepEqual(strip(b.EndToEnd), d.EndToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\ndesign.json    %v", strip(b.EndToEnd), d.EndToEnd)
	}
	if !reflect.DeepEqual(strip(b.PerLayer), d.PerLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %v\ndesign.json    %v", strip(b.PerLayer), d.PerLayer)
	}
}

// One short run per mode: the last line is the result object, the run is
// correct, and it reports exactly the metrics design.json names.
func TestServeDurableRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	var d design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		t.Fatal(err)
	}
	for trace, defs := range map[string][]metricDef{"0": d.EndToEnd, "1": d.PerLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"-workload", "serve-durable", "-seed", "7", "-seconds", "1", "-trace", trace, "-workdir", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, design names %d", trace, len(res.Metrics), len(defs))
		}
		for _, m := range defs {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.Name, v, m.Unit)
			}
		}
	}
}
