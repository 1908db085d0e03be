package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fpvm"
	"fpvm/internal/oracle"
)

// altJobSystems are the alternative arithmetic systems jobs may request
// beyond boxed/mpfr — promoted into the conformance matrix, so the
// service must run, pool, and recover them like any first-class system.
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
// digest. A bogus system fails cleanly, never crashes a worker.
func TestJobAltSystems(t *testing.T) {
	s := startService(t, Config{Workers: 2})
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

	o := s.Submit(JobRequest{Tenant: "alt", ImageID: e.ID, Alt: "no-such-system"})
	if o.Status != StatusFailed || !strings.Contains(o.Detail, "no-such-system") {
		t.Fatalf("bogus alt system: %s (%s), want clean failure naming it", o.Status, o.Detail)
	}
}

// TestPoolKeySeparatesAltSystems pins the warm pool's fungibility rule:
// shells are keyed by (image, alt, precision), so a checkout for one
// system must never be served a shell built for another — and distinct
// mpfr precisions are distinct keys too.
func TestPoolKeySeparatesAltSystems(t *testing.T) {
	r := NewRegistry()
	e, err := r.Register("lorenz_attractor")
	if err != nil {
		t.Fatal(err)
	}
	p := newVMPool(2)
	defer p.close()

	if n := p.prewarm(e, fpvm.AltBoxed, 0); n != 2 {
		t.Fatalf("prewarm built %d boxed shells, want 2", n)
	}
	// A posit checkout must miss — the parked boxed shells are not
	// fungible across systems.
	if vm := p.checkout(e, fpvm.AltPosit, 0); vm != nil {
		t.Fatal("posit checkout was served a shell while only boxed shells were parked")
	}
	// The boxed free-list is untouched by the posit miss.
	if vm := p.checkout(e, fpvm.AltBoxed, 0); vm == nil {
		t.Fatal("boxed checkout missed though boxed shells were parked")
	}
	// Same system, different precision: also a distinct key.
	if n := p.prewarm(e, fpvm.AltMPFR, 100); n == 0 {
		t.Fatal("prewarm built no mpfr@100 shells")
	}
	if vm := p.checkout(e, fpvm.AltMPFR, 200); vm != nil {
		t.Fatal("mpfr@200 checkout was served an mpfr@100 shell")
	}

	st := p.stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("pool counters hits=%d misses=%d, want 1/2", st.Hits, st.Misses)
	}
}

// TestWarmPoolServesAltJobsBitIdentically: an alt-system job served from
// a warm shell must be indistinguishable from one constructed cold.
func TestWarmPoolServesAltJobsBitIdentically(t *testing.T) {
	s := startService(t, Config{Workers: 1, PoolSize: 2})
	e := registerLorenz(t, s)

	req := JobRequest{Tenant: "p", ImageID: e.ID, Alt: fpvm.AltInterval}
	cold := s.Submit(req) // first interval job: pool miss, kicks a refill
	if cold.Status != StatusCompleted {
		t.Fatalf("cold run: %s (%s)", cold.Status, cold.Detail)
	}
	waitFor(t, func() bool { return s.PoolStats().Shells > 0 })

	warm := s.Submit(req)
	if warm.Status != StatusCompleted {
		t.Fatalf("warm run: %s (%s)", warm.Status, warm.Detail)
	}
	if st := s.PoolStats(); st.Hits == 0 {
		t.Fatalf("second interval job never hit the warm pool: %+v", st)
	}
	if warm.Stdout != cold.Stdout || warm.Digest != cold.Digest {
		t.Fatalf("warm shell diverged from cold construction:\n got %q/%s\nwant %q/%s",
			warm.Stdout, warm.Digest, cold.Stdout, cold.Digest)
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
			started := make(chan struct{})
			var once sync.Once
			s.testHookDispatch = func(*job) {
				once.Do(func() { close(started) })
				waitFor(t, s.isDraining)
			}

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
