package service

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpvm"
	"fpvm/internal/oracle"
)

// altJobSystems are the alternative arithmetic systems jobs may request
// beyond boxed/mpfr — promoted into the conformance matrix, so the
// service must run and recover them like any first-class system.
var altJobSystems = []fpvm.AltKind{
	fpvm.AltPosit, fpvm.AltPosit32, fpvm.AltInterval, fpvm.AltRational,
}

// digestOf renders a result's final-state digest exactly like
// outcomeFrom so tests can compare service outcomes against direct runs.
func digestOf(t *testing.T, res *fpvm.Result) string {
	t.Helper()
	if res.Final == nil {
		t.Fatal("reference run carries no final state")
	}
	rec := oracle.Digest(res.Final)
	return fmt.Sprintf("%016x-%016x", rec.RIP, rec.Sum)
}

// TestJobAltSystems: a job may request any promoted alt system via the
// `alt` request param, and the service's run is indistinguishable from a
// direct fpvm.Run under the same config — same stdout, same final-state
// digest. A request the job's VM could not be built from — a bogus
// system, a precision past maxPrecision, an inject spec that does not
// parse — is refused at admission with 400 and never journaled.
func TestJobAltSystems(t *testing.T) {
	dir := t.TempDir()
	s := startService(t, Config{Workers: 2, SnapshotDir: dir})
	e := registerLorenz(t, s)

	for _, a := range altJobSystems {
		a := a
		t.Run(string(a), func(t *testing.T) {
			ref, err := fpvm.Run(e.Image, jobVMConfig(e, a, 0))
			if err != nil {
				t.Fatal(err)
			}
			o := s.Submit(JobRequest{Tenant: "alt", ImageID: e.ID, Alt: a})
			if o.Status != StatusCompleted {
				t.Fatalf("status = %s (%s), want completed", o.Status, o.Detail)
			}
			if o.Stdout != ref.Stdout {
				t.Errorf("stdout diverged from direct %s run:\n got %q\nwant %q", a, o.Stdout, ref.Stdout)
			}
			if want := digestOf(t, ref); o.Digest != want {
				t.Errorf("digest = %s, want %s (direct %s run)", o.Digest, want, a)
			}
		})
	}

	for _, bad := range []struct {
		field string
		req   JobRequest
		named string // what the refusal's detail must name
	}{
		{"alt", JobRequest{Alt: "no-such-system"}, "no-such-system"},
		{"precision", JobRequest{Alt: fpvm.AltMPFR, Precision: maxPrecision + 1}, fmt.Sprint(maxPrecision + 1)},
		{"inject", JobRequest{Alt: fpvm.AltBoxed, InjectSpec: "no-such-site:every=1"}, "no-such-site"},
	} {
		req := bad.req
		req.Tenant, req.ImageID = "alt", e.ID
		o := s.Submit(req)
		if o.Status != StatusFailed || o.Reason != ReasonInvalid || !strings.Contains(o.Detail, bad.named) {
			t.Fatalf("bad %s: %s/%s (%s), want failed/%s naming %q",
				bad.field, o.Status, o.Reason, o.Detail, ReasonInvalid, bad.named)
		}
		if got := httpStatus(o); got != http.StatusBadRequest {
			t.Fatalf("bad %s maps to HTTP %d, want 400", bad.field, got)
		}
		data, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), o.ID) {
			t.Fatalf("the request with a bad %s was journaled as %s", bad.field, o.ID)
		}
	}
}

// TestDrainRestartAltBitIdentity: an alt-system job suspended mid-flight
// by a drain must recover on the next boot by resuming its snapshot —
// through the alt system's value codec — and finish with exactly the
// final-state digest and stdout of an uninterrupted run.
func TestDrainRestartAltBitIdentity(t *testing.T) {
	for _, a := range []fpvm.AltKind{fpvm.AltPosit, fpvm.AltInterval} {
		a := a
		t.Run(string(a), func(t *testing.T) {
			dir := t.TempDir()
			s := New(Config{Workers: 1, PreemptQuantum: 2_000, SnapshotDir: dir})
			if _, err := s.Start(); err != nil {
				t.Fatal(err)
			}
			e := registerLorenz(t, s)

			ref, err := fpvm.Run(e.Image, jobVMConfig(e, a, 0))
			if err != nil {
				t.Fatal(err)
			}

			// Deterministic mid-flight suspension: the dispatch hook parks
			// the worker until the drain flag flips, so the job's first
			// preemption boundary lands inside the drain window and the
			// worker suspends it with a snapshot.
			started := holdDispatchUntilDrain(s)

			out := make(chan *JobOutcome, 1)
			go func() {
				out <- s.Submit(JobRequest{Tenant: "d", ImageID: e.ID, Alt: a})
			}()
			<-started
			if n := s.Drain(); n != 1 {
				t.Fatalf("drain suspended %d jobs, want 1", n)
			}
			o := <-out
			if o.Status != StatusSuspended {
				t.Fatalf("drained job ended %s (%s), want suspended", o.Status, o.Detail)
			}
			snap := filepath.Join(dir, "job-"+o.ID+".snap")
			if _, err := os.Stat(snap); err != nil {
				t.Fatalf("suspended %s job left no snapshot: %v", a, err)
			}

			s2 := New(Config{Workers: 1, SnapshotDir: dir})
			recovered, err := s2.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Drain()
			if recovered != 1 {
				t.Fatalf("recovered %d jobs, want 1", recovered)
			}
			got, ok := s2.Outcome(o.ID)
			if !ok {
				t.Fatalf("recovered job %s has no outcome", o.ID)
			}
			if got.Status != StatusRecovered {
				t.Fatalf("recovered job ended %s (%s)", got.Status, got.Detail)
			}
			if !strings.Contains(got.Detail, "resumed from snapshot") {
				t.Fatalf("recovery ran fresh instead of resuming the snapshot: %s", got.Detail)
			}
			if got.Stdout != ref.Stdout {
				t.Errorf("recovered stdout diverged:\n got %q\nwant %q", got.Stdout, ref.Stdout)
			}
			if want := digestOf(t, ref); got.Digest != want {
				t.Errorf("recovered digest %s != uninterrupted run's %s", got.Digest, want)
			}
		})
	}
}
