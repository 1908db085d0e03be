package service

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fpvm"
	"fpvm/internal/faultinject"
	"fpvm/internal/oracle"
)

// The chaos soak drives the full service stack — admission, queues,
// dispatch, execution, persistence, response — with mixed tenants,
// injected service-layer faults, per-job VM faults and impossible
// deadlines, and holds it to the fault-containment contract: every
// submission ends in a deliberate status, nothing panics the daemon,
// fault ledgers reconcile, and undamaged jobs still produce
// bit-identical results.
func TestServiceChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}

	inj := faultinject.New(0xC0FFEE)
	inj.ArmAllService(faultinject.Rule{Every: 7})

	dir := t.TempDir()
	s := New(Config{
		Workers:        4,
		PreemptQuantum: 20_000,
		SnapshotDir:    dir,
		Inject:         inj,
		Seed:           0xC0FFEE,
		Tenants: map[string]TenantConfig{
			"alpha": {QueueDepth: 8, Priority: 1},
			"beta":  {QueueDepth: 4, Priority: 0},
		},
	})
	// Persist at every preemption: request-sized jobs never reach the
	// default interval, and the storm must keep reaching svc.persist.
	s.persistEvery = 1
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}

	type variant struct {
		workload string
		alt      fpvm.AltKind
	}
	variants := []variant{
		{"lorenz_attractor", fpvm.AltBoxed},
		{"double_pendulum", fpvm.AltPosit},
		{"three_body_simulation", fpvm.AltInterval},
	}

	// Uninterrupted references, one per variant: stdout plus the
	// oracle's final-state digest. The digest is cycle- and
	// schedule-independent, so it holds across the service's shared
	// caches and preemption slicing.
	type ref struct {
		stdout string
		digest string
		exit   int
	}
	refs := make(map[variant]ref)
	images := make(map[variant]string)
	for _, v := range variants {
		e, err := s.Registry().Register(v.workload)
		if err != nil {
			t.Fatal(err)
		}
		images[v] = e.ID
		res, err := fpvm.Run(e.Image, fpvm.Config{Alt: v.alt, Seq: true, Short: true})
		if err != nil {
			t.Fatal(err)
		}
		rec := oracle.Digest(res.Final)
		refs[v] = ref{stdout: res.Stdout, digest: fmt.Sprintf("%016x-%016x", rec.RIP, rec.Sum), exit: res.ExitCode}
	}

	// The storm's deadline jobs are all tenant-beta submissions racing
	// the other 54, and any of them may be shed or refused. One more
	// deadline job runs first, on the idle service: no queue is full, no
	// shedding state is set, and every service site is at its first
	// check, which an every=7 rule never fires on. It takes the last
	// slot of outs and is held to the same checks as the storm's jobs,
	// so the deadline path is exercised on every run.
	const jobs = 72
	outs := make([]*JobOutcome, jobs+1)
	kinds := make([]string, jobs+1)
	kinds[jobs] = "deadline"
	outs[jobs] = s.Submit(JobRequest{ImageID: images[variants[jobs%len(variants)]],
		Alt: variants[jobs%len(variants)].alt, Tenant: "beta", DeadlineCycles: 4_000})
	if o := outs[jobs]; o.Status != StatusDeadline {
		t.Fatalf("the pre-storm deadline job ended %s at %d cycles (%s), want %s",
			o.Status, o.Cycles, o.Detail, StatusDeadline)
	}
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		v := variants[i%len(variants)]
		req := JobRequest{ImageID: images[v], Alt: v.alt}
		switch i % 4 {
		case 0:
			req.Tenant = "alpha"
			kinds[i] = "clean"
		case 1:
			// Same clean job through the async API: submit returns at the
			// pending phase and the outcome is polled to its terminal
			// status, racing the event/outcome machinery against the
			// blocking path under the same fault storm.
			req.Tenant = "alpha"
			kinds[i] = "async"
		case 2:
			// VM-level fault storm inside the guest's pipeline: the
			// runtime ladder absorbs it (retry/degrade), the service
			// reports completed or degraded.
			req.Tenant = "alpha"
			req.InjectSpec = "alt.op:every=40"
			req.InjectSeed = uint64(i)
			kinds[i] = "vmfault"
		case 3:
			// Impossible deadline: must cancel at a trap boundary.
			req.Tenant = "beta"
			req.DeadlineCycles = 4_000
			kinds[i] = "deadline"
		}
		wg.Add(1)
		go func(i int, req JobRequest) {
			defer wg.Done()
			if kinds[i] == "async" {
				o := s.SubmitAsync(req)
				deadline := time.Now().Add(2 * time.Minute)
				for !terminalStatus(o.Status) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
					if cur, ok := s.Outcome(o.ID); ok {
						o = cur
					}
				}
				outs[i] = o
				return
			}
			outs[i] = s.Submit(req)
		}(i, req)
	}
	wg.Wait()

	counts := map[Status]int{}
	for i, o := range outs {
		if o == nil {
			t.Fatalf("job %d got no outcome", i)
		}
		counts[o.Status]++
		switch o.Status {
		case StatusCompleted, StatusDegraded, StatusDeadline, StatusShed:
			// every one of these is a deliberate disposition
		default:
			t.Fatalf("job %d (%s) ended %s (%s): not a deliberate soak status",
				i, kinds[i], o.Status, o.Detail)
		}
		v := variants[i%len(variants)]
		if (kinds[i] == "clean" || kinds[i] == "async") && o.Status == StatusCompleted {
			if o.Stdout != refs[v].stdout || o.Digest != refs[v].digest || o.ExitCode != refs[v].exit {
				t.Fatalf("job %d completed with diverged output/digest", i)
			}
		}
		if kinds[i] == "deadline" && o.Status == StatusDeadline && o.Cycles < 4_000 {
			t.Fatalf("job %d cancelled before its deadline: %d cycles", i, o.Cycles)
		}
	}
	if counts[StatusCompleted] == 0 {
		t.Fatal("soak completed nothing")
	}
	if counts[StatusDeadline] == 0 {
		t.Fatal("no deadline job was cancelled — the deadline path went unexercised")
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(outs) {
		t.Fatalf("outcome conservation broken: %d outcomes for %d jobs", total, len(outs))
	}

	s.Drain()

	// The service-layer fault ledger must reconcile: every fired fault
	// was resolved exactly once, by a deliberate rung.
	if !inj.Reconciled() || !inj.Consistent() {
		t.Fatalf("service fault ledger does not reconcile:\n%s", inj.Report())
	}
	fired := uint64(0)
	for _, site := range faultinject.ServiceSites() {
		fired += inj.Stats(site).Fired
	}
	if fired == 0 {
		t.Fatal("no service-site fault fired — the soak injected nothing")
	}
	if inj.Stats(faultinject.SiteSvcPersist).Fired == 0 {
		t.Fatal("no svc.persist fault fired — the storm never reached the persist path")
	}
}

// Kill-recovery harness, the service's version of the fleet's crash
// test: a child daemon journals and snapshots its in-flight jobs, the
// parent SIGKILLs it mid-run, recovers in-process from the same
// snapshot directory, and every interrupted job must complete with the
// recovered status and an output bit-identical (stdout + oracle
// final-state digest) to an uninterrupted reference.
const (
	svcCrashHelperEnv = "FPVM_SVC_CRASH_HELPER"
	svcCrashDirEnv    = "FPVM_SVC_CRASH_DIR"
)

type svcCrashVariant struct {
	workload string
	alt      fpvm.AltKind
}

func svcCrashVariants() []svcCrashVariant {
	return []svcCrashVariant{
		{"lorenz_attractor", fpvm.AltBoxed},
		{"double_pendulum", fpvm.AltPosit},
		{"three_body_simulation", fpvm.AltRational},
		{"fbench", fpvm.AltInterval},
	}
}

// TestServiceCrashHelper is the child half: submit one job per variant
// with a tiny quantum and a snapshot persisted at every preemption (many
// slices, many snapshots), then hang until the parent kills the process.
func TestServiceCrashHelper(t *testing.T) {
	if os.Getenv(svcCrashHelperEnv) != "1" {
		t.Skip("harness child; run via TestServiceKillRecover")
	}
	s := New(Config{
		Workers:        2,
		PreemptQuantum: 500,
		SnapshotDir:    os.Getenv(svcCrashDirEnv),
	})
	s.persistEvery = 1
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, v := range svcCrashVariants() {
		e, err := s.Registry().Register(v.workload)
		if err != nil {
			t.Fatal(err)
		}
		go s.Submit(JobRequest{Tenant: "crash", ImageID: e.ID, Alt: v.alt})
	}
	time.Sleep(5 * time.Minute) // SIGKILL arrives long before this
}

func TestServiceKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run", "TestServiceCrashHelper")
	cmd.Env = append(os.Environ(), svcCrashHelperEnv+"=1", svcCrashDirEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Kill once at least two jobs have persisted a preemption snapshot —
	// they are then provably mid-flight.
	deadline := time.Now().Add(60 * time.Second)
	for {
		snaps, _ := filepath.Glob(filepath.Join(dir, "job-*.snap"))
		if len(snaps) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never persisted two in-flight snapshots")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	pending, _, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) == 0 {
		t.Fatal("child was killed with nothing pending in the journal")
	}

	// Recover in-process.
	s := New(Config{Workers: 2, SnapshotDir: dir})
	recovered, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	if recovered == 0 {
		t.Fatal("restart recovered nothing")
	}

	// References: uninterrupted private-cache runs of each variant.
	type ref struct {
		stdout string
		digest string
		exit   int
	}
	refs := make(map[string]ref) // by workload
	for _, v := range svcCrashVariants() {
		e, rerr := s.Registry().Register(v.workload)
		if rerr != nil {
			t.Fatal(rerr)
		}
		res, rerr := fpvm.Run(e.Image, fpvm.Config{Alt: v.alt, Seq: true, Short: true})
		if rerr != nil {
			t.Fatal(rerr)
		}
		rec := oracle.Digest(res.Final)
		refs[v.workload] = ref{stdout: res.Stdout, digest: fmt.Sprintf("%016x-%016x", rec.RIP, rec.Sum), exit: res.ExitCode}
	}

	resumedSomething := false
	for _, rec := range pending {
		o, ok := s.Outcome(rec.ID)
		if !ok {
			t.Fatalf("pending job %s has no recovered outcome", rec.ID)
		}
		if o.Status != StatusRecovered {
			t.Fatalf("pending job %s ended %s (%s), want recovered", rec.ID, o.Status, o.Detail)
		}
		want := refs[rec.Workload]
		if o.Stdout != want.stdout || o.Digest != want.digest || o.ExitCode != want.exit {
			t.Fatalf("recovered job %s (%s) is not bit-identical to the uninterrupted reference:\nstdout match %v, digest %s vs %s",
				rec.ID, rec.Workload, o.Stdout == want.stdout, o.Digest, want.digest)
		}
		if strings.Contains(o.Detail, "resumed from snapshot") {
			resumedSomething = true
		}
	}
	if !resumedSomething {
		t.Fatal("no recovered job resumed from a snapshot — the resume path went unexercised")
	}

	// The journal is closed out: a second restart recovers nothing.
	s2 := New(Config{Workers: 1, SnapshotDir: dir})
	again, err := s2.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if again != 0 {
		t.Fatalf("second restart re-recovered %d jobs; journal not closed out", again)
	}
}
