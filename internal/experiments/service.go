package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"fpvm"
	"fpvm/internal/service"
	"fpvm/internal/workloads"
)

// ServiceBenchRow is one load phase of the fpvmd serving benchmark:
// nominal (offered load the admission policy accepts in full) and
// overload (2x offered load against the same bounded queues, where the
// daemon must shed rather than collapse). Latencies are wall-clock and
// host-dependent — this benchmark measures the serving stack, not the
// guest — so the regression signal is structural: under overload the
// daemon sheds the excess, keeps admitted p99 in the same regime as
// nominal p99, and never returns an accidental status.
type ServiceBenchRow struct {
	Phase   string `json:"phase"`
	Offered int    `json:"offered_jobs"`
	Workers int    `json:"workers"`

	Completed int `json:"completed"`
	Shed      int `json:"shed"`
	Other     int `json:"other"`

	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	AdmittedP50Ms float64 `json:"admitted_p50_ms"`
	AdmittedP99Ms float64 `json:"admitted_p99_ms"`

	WallSec    float64 `json:"wall_sec"`
	JobsPerSec float64 `json:"jobs_per_sec"` // completed / wall: saturation throughput
}

// serviceBenchWorkers is the daemon's worker-pool size for both phases.
const serviceBenchWorkers = 4

// ServiceBench stands up a full fpvmd service (HTTP handler, admission,
// queues, workers) and drives it over real HTTP with `offered`
// concurrent request-sized jobs, then again at 2x offered against the
// same queue bounds. Every client goroutine issues one POST /v1/jobs
// and blocks for its outcome, so `offered` is true concurrency, not an
// arrival rate.
func ServiceBench(offered int, progress io.Writer) ([]ServiceBenchRow, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	if offered <= 0 {
		offered = 1000
	}

	phases := []struct {
		name  string
		jobs  int
		depth int // per-tenant queue bound
	}{
		// Nominal: the queue admits the entire offered load.
		{"nominal", offered, offered},
		// Overload: 2x the load against a queue bounded well below it —
		// the daemon must shed the excess quickly and keep the admitted
		// tail bounded.
		{"overload", 2 * offered, max(1, offered/8)},
	}

	var rows []ServiceBenchRow
	for _, ph := range phases {
		row, err := serviceBenchPhase(ph.name, ph.jobs, ph.depth, logf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func serviceBenchPhase(phase string, jobs, depth int, logf func(string, ...any)) (*ServiceBenchRow, error) {
	dir, err := os.MkdirTemp("", "fpvmd-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	s := service.New(service.Config{
		Workers:        serviceBenchWorkers,
		PreemptQuantum: 100_000,
		SnapshotDir:    dir,
		// Priority 1 keeps the load tenant off the degradation ladder's
		// shed rung, so the only backpressure in play is the bounded
		// queue itself — nominal admits everything, overload sheds the
		// overflow.
		Tenants: map[string]service.TenantConfig{
			"load": {QueueDepth: depth, Priority: 1},
		},
	})
	if _, err := s.Start(); err != nil {
		return nil, err
	}
	defer s.Drain()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	// Register the request-sized workload mix through the image API,
	// exactly as a tenant would.
	var imageIDs []string
	for _, name := range workloads.MicroAll() {
		body, _ := json.Marshal(map[string]string{"workload": string(name)})
		resp, err := client.Post(srv.URL+"/v1/images", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		var reg struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reg)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("service bench: registering %s: status %d err %v", name, resp.StatusCode, err)
		}
		imageIDs = append(imageIDs, reg.ID)
	}

	logf("== service bench: %s, %d concurrent jobs, queue depth %d\n", phase, jobs, depth)

	type sample struct {
		latency time.Duration
		status  string
		code    int
	}
	samples := make([]sample, jobs)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := service.JobRequest{
				Tenant:  "load",
				ImageID: imageIDs[i%len(imageIDs)],
				Alt:     fpvm.AltBoxed,
			}
			body, _ := json.Marshal(req)
			t0 := time.Now()
			resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				samples[i] = sample{latency: time.Since(t0), status: "transport-error"}
				return
			}
			var out service.JobOutcome
			decErr := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			st := string(out.Status)
			if decErr != nil {
				st = "decode-error"
			}
			samples[i] = sample{latency: time.Since(t0), status: st, code: resp.StatusCode}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	row := &ServiceBenchRow{Phase: phase, Offered: jobs, Workers: serviceBenchWorkers, WallSec: wall.Seconds()}
	var all, admitted []time.Duration
	for i, smp := range samples {
		all = append(all, smp.latency)
		switch smp.status {
		case string(service.StatusCompleted):
			row.Completed++
			admitted = append(admitted, smp.latency)
		case string(service.StatusShed):
			row.Shed++
		default:
			row.Other++
			if row.Other == 1 {
				logf("   first non-completed/shed outcome: job %d status %q http %d\n", i, smp.status, smp.code)
			}
		}
	}
	row.P50Ms = percentileMs(all, 0.50)
	row.P99Ms = percentileMs(all, 0.99)
	row.AdmittedP50Ms = percentileMs(admitted, 0.50)
	row.AdmittedP99Ms = percentileMs(admitted, 0.99)
	if wall > 0 {
		row.JobsPerSec = float64(row.Completed) / wall.Seconds()
	}

	if row.Completed == 0 {
		return nil, fmt.Errorf("service bench (%s): nothing completed", phase)
	}
	if phase == "overload" && row.Shed == 0 {
		return nil, fmt.Errorf("service bench (overload): no request was shed — backpressure never engaged")
	}
	if row.Other > 0 {
		return nil, fmt.Errorf("service bench (%s): %d requests ended outside completed/shed", phase, row.Other)
	}

	logf("   %d completed, %d shed in %.1fs; p50 %.0fms p99 %.0fms (admitted p99 %.0fms); %.1f jobs/s\n",
		row.Completed, row.Shed, row.WallSec, row.P50Ms, row.P99Ms, row.AdmittedP99Ms, row.JobsPerSec)
	return row, nil
}

func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// ServiceTable prints the `-fig service` table.
func ServiceTable(w io.Writer, rows []ServiceBenchRow) {
	fmt.Fprintln(w, "fpvmd serving benchmark: concurrent request-sized jobs over HTTP (Boxed IEEE, SEQ SHORT)")
	fmt.Fprintln(w, "latencies are wall-clock (host-dependent); the regression signal is shed behavior and tail containment")
	fmt.Fprintf(w, "%9s %8s %8s %10s %6s %9s %9s %13s %10s\n",
		"phase", "offered", "workers", "completed", "shed", "p50-ms", "p99-ms", "adm-p99-ms", "jobs/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%9s %8d %8d %10d %6d %9.0f %9.0f %13.0f %10.1f\n",
			r.Phase, r.Offered, r.Workers, r.Completed, r.Shed,
			r.P50Ms, r.P99Ms, r.AdmittedP99Ms, r.JobsPerSec)
	}
}

// WriteServiceJSON writes the rows as the BENCH_8.json regression
// artifact.
func WriteServiceJSON(path string, rows []ServiceBenchRow) error {
	doc := struct {
		Benchmark string            `json:"benchmark"`
		Config    string            `json:"config"`
		Host      string            `json:"host"`
		Rows      []ServiceBenchRow `json:"rows"`
	}{
		Benchmark: "fpvmd-serving-load",
		Config:    "SEQ SHORT, Boxed IEEE, micro workloads over HTTP, nominal + 2x overload",
		Host:      fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		Rows:      rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
