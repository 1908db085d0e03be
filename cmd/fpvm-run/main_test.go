package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/fleet"
	"fpvm/internal/obj"
	"fpvm/internal/workloads"
)

// prepMicro builds the request-sized Lorenz workload patched for FPVM —
// small enough that the whole exit-code table runs in well under a
// second, but with enough alternative-arithmetic traffic that every
// injected fault schedule actually fires.
func prepMicro(t *testing.T) *obj.Image {
	t.Helper()
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	runImg, err := fpvm.PrepareForFPVM(img, true)
	if err != nil {
		t.Fatal(err)
	}
	return runImg
}

// runExit mirrors the serial path in main(): a run error is fatal unless
// the result says the VM detached (the guest still finished natively),
// and the exit code comes from outcomeExit.
func runExit(t *testing.T, img *obj.Image, cfg fpvm.Config) (int, *fpvm.Result) {
	t.Helper()
	res, err := fpvm.Run(img, cfg)
	if err != nil && (res == nil || !res.Detached) {
		t.Fatalf("run failed without detaching: %v", err)
	}
	return outcomeExit(res), res
}

// TestExitCodeTable drives each documented exit code through the real
// recovery ladder with injected faults: clean (0), retry-budget
// exhaustion degrading to native IEEE (10), a fatal fault with no
// checkpoint detaching the VM (11), and the same fatal fault absorbed by
// checkpoint rollback (12). The rolled-back run must also stay
// undegraded and bit-identical to the fault-free run — otherwise it
// would classify as 10, not 12.
func TestExitCodeTable(t *testing.T) {
	img := prepMicro(t)

	clean, err := fpvm.Run(img, fpvm.Config{Alt: fpvm.AltBoxed, Seq: true})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		spec string // faultinject.ParseSpec grammar; "" = no injection
		ckpt int
		want int
	}{
		{name: "clean", want: exitClean},
		{name: "degraded", spec: "alt.op:every=1", want: exitDegraded},
		{name: "detached", spec: "alt.op:every=10,limit=1,sev=fatal", want: exitDetached},
		{name: "rolledback", spec: "alt.op:every=10,limit=1,sev=fatal", ckpt: 2, want: exitRolledBack},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, CheckpointInterval: tc.ckpt}
			if tc.spec != "" {
				inj, err := faultinject.ParseSpec(tc.spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Inject = inj
			}
			got, res := runExit(t, img, cfg)
			if got != tc.want {
				t.Errorf("exit code %d, want %d (detached=%v degr=%d rlbk=%d)",
					got, tc.want, res.Detached, res.Degradations, res.Rollbacks)
			}
			if res.Stdout != clean.Stdout {
				t.Errorf("guest output diverged from the fault-free run under %q", tc.spec)
			}
			switch tc.want {
			case exitRolledBack:
				if res.Rollbacks == 0 || res.Degradations != 0 {
					t.Errorf("rolled-back run: rollbacks=%d degradations=%d, want >0/0",
						res.Rollbacks, res.Degradations)
				}
			case exitDetached:
				if !res.Detached {
					t.Error("detach case did not set Detached")
				}
			}
		})
	}
}

// TestFleetExitSeverityRanking checks the aggregation order directly:
// error > detached > degraded > rolled-back > clean, regardless of job
// order, with guest output printed exactly once and per-job failures
// reported on stderr.
func TestFleetExitSeverityRanking(t *testing.T) {
	cleanJR := fleet.JobResult{Name: "clean", Result: &fpvm.Result{Stdout: "guest-out\n"}}
	rolled := fleet.JobResult{Name: "rolled", Result: &fpvm.Result{Rollbacks: 1}}
	degraded := fleet.JobResult{Name: "degraded", Result: &fpvm.Result{Degradations: 3}}
	detached := fleet.JobResult{
		Name:   "detached",
		Err:    errors.New("fatal rung"),
		Result: &fpvm.Result{Detached: true, Stdout: "guest-out\n"},
	}
	hardErr := fleet.JobResult{Name: "broken", Err: errors.New("boom")}

	cases := []struct {
		name    string
		results []fleet.JobResult
		want    int
	}{
		{"all clean", []fleet.JobResult{cleanJR, cleanJR}, exitClean},
		{"rollback outranks clean", []fleet.JobResult{cleanJR, rolled}, exitRolledBack},
		{"degrade outranks rollback", []fleet.JobResult{rolled, degraded, cleanJR}, exitDegraded},
		{"detach outranks degrade", []fleet.JobResult{degraded, detached, rolled}, exitDetached},
		{"error outranks everything", []fleet.JobResult{detached, hardErr, degraded}, exitError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := fleetExit(&stdout, &stderr, tc.results); got != tc.want {
				t.Errorf("fleet exit %d, want %d", got, tc.want)
			}
		})
	}

	// Output discipline: two successful copies print the guest output
	// once; the detached job's failure is reported on stderr only.
	var stdout, stderr bytes.Buffer
	fleetExit(&stdout, &stderr, []fleet.JobResult{cleanJR, cleanJR, detached, hardErr})
	if got := stdout.String(); got != "guest-out\n" {
		t.Errorf("stdout %q, want the guest output exactly once", got)
	}
	if !strings.Contains(stderr.String(), "detached (guest completed natively)") {
		t.Errorf("stderr missing the detach report: %q", stderr.String())
	}
	if !strings.Contains(stderr.String(), "boom") {
		t.Errorf("stderr missing the hard error: %q", stderr.String())
	}
}

// TestRunFleetHeterogeneous runs a real mixed-severity fleet — one clean
// job, one that degrades, one that rolls back — through runFleet. The
// fleet's exit code must be the most severe outcome
// (degraded), the guest output must print once, and the summary must
// land on stderr.
func TestRunFleetHeterogeneous(t *testing.T) {
	img := prepMicro(t)

	mkInject := func(spec string) *faultinject.Injector {
		inj, err := faultinject.ParseSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	base := fpvm.Config{Alt: fpvm.AltBoxed, Seq: true}
	degraded := base
	degraded.Inject = mkInject("alt.op:every=1")
	rolled := base
	rolled.Inject = mkInject("alt.op:every=10,limit=1,sev=fatal")
	rolled.CheckpointInterval = 2

	jobs := []fleet.Job{
		{Name: "clean", Image: img, Config: base},
		{Name: "degraded", Image: img, Config: degraded},
		{Name: "rolled", Image: img, Config: rolled},
	}
	var stdout, stderr bytes.Buffer
	if got := runFleet(&stdout, &stderr, jobs, fleet.Options{Workers: 2}); got != exitDegraded {
		t.Errorf("heterogeneous fleet exit %d, want %d (degraded outranks rolled-back)\nstderr:\n%s",
			got, exitDegraded, stderr.String())
	}

	ref, err := fpvm.RunNative(img)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != ref.Stdout {
		t.Errorf("fleet stdout %q, want the guest output once (%q)", stdout.String(), ref.Stdout)
	}
	if !strings.Contains(stderr.String(), "fleet:") && stderr.Len() == 0 {
		t.Error("fleet summary missing from stderr")
	}
}

// TestFleetJobCount: -jobs above 1 selects a fleet on its own, as do
// -parallel above 1 and a preemption quantum; a job count defaults to
// one per worker, and the default flags run one serial job.
func TestFleetJobCount(t *testing.T) {
	for _, tc := range []struct {
		parallel, jobs int
		quantum        uint64
		want           int
		fleet          bool
	}{
		{parallel: 1, jobs: 0, want: 0, fleet: false},
		{parallel: 1, jobs: 1, want: 0, fleet: false},
		{parallel: 1, jobs: 8, want: 8, fleet: true},
		{parallel: 4, jobs: 0, want: 4, fleet: true},
		{parallel: 4, jobs: 2, want: 2, fleet: true},
		{parallel: 1, jobs: 0, quantum: 500_000, want: 1, fleet: true},
		{parallel: 0, jobs: 0, quantum: 500_000, want: 1, fleet: true},
	} {
		got, fleet := fleetJobCount(tc.parallel, tc.jobs, tc.quantum)
		if got != tc.want || fleet != tc.fleet {
			t.Errorf("fleetJobCount(-parallel %d, -jobs %d, -preempt-quantum %d) = %d, %v; want %d, %v",
				tc.parallel, tc.jobs, tc.quantum, got, fleet, tc.want, tc.fleet)
		}
	}
}
