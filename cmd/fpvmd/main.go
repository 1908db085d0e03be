// Command fpvmd is the multi-tenant FP-virtualization daemon: a
// long-running service that accepts guest jobs over an HTTP/JSON API,
// runs them under FPVM with per-tenant admission control, bounded
// queues, virtual-cycle deadlines and preemptive scheduling, and
// survives both graceful shutdown and being killed outright.
//
// Usage:
//
//	fpvmd [-addr :8037] [-state DIR] [-workers N] [-quantum CYCLES]
//	      [-deadline CYCLES] [-rate R] [-burst B] [-depth D]
//	      [-tenant name:key=val,...]... [-inject SPEC] [-inject-seed N]
//	      [-preload]
//
// API:
//
//	POST /v1/images           {"workload": "lorenz_attractor"}    -> image ID (content hash)
//	POST /v1/jobs             {"tenant": ..., "image": ..., ...}  -> blocks; returns the job outcome
//	POST /v1/jobs?async=1     same body                           -> 202 + job ID immediately
//	GET  /v1/jobs/{id}                                            -> outcome by job ID (202 while in flight)
//	GET  /v1/jobs/{id}/events                                     -> SSE status stream (?poll=1 long-polls)
//	GET  /healthz, /readyz, /metrics
//
// -preload registers every request-sized micro workload at startup and
// logs each image ID, so clients can submit jobs without registering
// first. Every job's VM is built when the job is dispatched.
//
// On SIGTERM or SIGINT the daemon stops admitting, snapshots every
// in-flight job at its next trap boundary, journals it, and exits.
// A later fpvmd on the same -state directory resumes the survivors
// bit-identically; so does one started after a SIGKILL.
//
// Exit codes: 0 for a clean drain with no interrupted work left behind,
// 13 when suspended jobs await a restart, 1 for startup or serve errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fpvm/internal/faultinject"
	"fpvm/internal/service"
	"fpvm/internal/workloads"
)

const (
	exitClean     = 0
	exitError     = 1
	exitSuspended = 13 // suspended in-flight jobs await recovery by the next start on -state
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8037", "HTTP listen address")
	state := flag.String("state", "fpvmd-state", "journal + snapshot directory (durability root)")
	workers := flag.Int("workers", 0, "worker pool size (0 = default)")
	quantum := flag.Uint64("quantum", 0, "preemption quantum in virtual cycles (0 = default)")
	deadline := flag.Uint64("deadline", 0, "default per-job deadline in virtual cycles (0 = none)")
	rate := flag.Float64("rate", 0, "default tenant admission rate, jobs/sec (0 = unlimited)")
	burst := flag.Float64("burst", 0, "default tenant burst size")
	depth := flag.Int("depth", 0, "default tenant queue depth (0 = default)")
	inject := flag.String("inject", "", "fault-injection spec (site:prob=P,every=N,...; sites include svc.*)")
	injectSeed := flag.Uint64("inject-seed", 1, "fault-injection seed")
	preload := flag.Bool("preload", false, "register every micro workload at startup and log the image IDs")

	tenants := map[string]service.TenantConfig{}
	flag.Func("tenant", "per-tenant policy name:rate=R,burst=B,depth=D,priority=P (repeatable)", func(v string) error {
		name, tc, err := parseTenant(v)
		if err != nil {
			return err
		}
		tenants[name] = tc
		return nil
	})
	flag.Parse()

	logger := log.New(os.Stderr, "fpvmd: ", log.LstdFlags)

	var inj *faultinject.Injector
	if *inject != "" {
		var err error
		if inj, err = faultinject.ParseSpec(*inject, *injectSeed); err != nil {
			logger.Print(err)
			return exitError
		}
		logger.Printf("fault injection armed: %s (seed %d)", *inject, *injectSeed)
	}

	s := service.New(service.Config{
		Workers:               *workers,
		PreemptQuantum:        *quantum,
		DefaultDeadlineCycles: *deadline,
		SnapshotDir:           *state,
		Inject:                inj,
		DefaultTenant: service.TenantConfig{
			RatePerSec: *rate,
			Burst:      *burst,
			QueueDepth: *depth,
		},
		Tenants: tenants,
	})
	recovered, err := s.Start()
	if err != nil {
		logger.Print(err)
		return exitError
	}
	if recovered > 0 {
		logger.Printf("recovered %d interrupted job(s) from %s", recovered, *state)
	}

	if *preload {
		for _, name := range workloads.MicroAll() {
			e, rerr := s.Registry().Register(string(name))
			if rerr != nil {
				logger.Printf("preload %s: %v", name, rerr)
				continue
			}
			logger.Printf("preloaded %s as %s", name, e.ID)
		}
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	logger.Printf("serving on %s (state %s, %s)", *addr, *state, s.State())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-serveErr:
		logger.Print(err)
		return exitError
	case got := <-sig:
		logger.Printf("%s: draining — no new admissions, suspending in-flight jobs at trap boundaries", got)
	}

	// Drain first: it unblocks every in-flight POST /v1/jobs with a
	// suspended (or terminal) outcome, so the subsequent HTTP shutdown
	// has no stuck handlers to wait out.
	suspended := s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}

	if suspended > 0 {
		logger.Printf("drained with %d suspended job(s); restart fpvmd -state %s to resume them", suspended, *state)
		return exitSuspended
	}
	logger.Print("drained clean")
	return exitClean
}

// parseTenant parses "name:rate=R,burst=B,depth=D,priority=P".
func parseTenant(v string) (string, service.TenantConfig, error) {
	name, args, ok := strings.Cut(v, ":")
	if !ok || name == "" {
		return "", service.TenantConfig{}, fmt.Errorf("tenant %q: want name:key=val,...", v)
	}
	var tc service.TenantConfig
	for _, kv := range strings.Split(args, ",") {
		k, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return "", tc, fmt.Errorf("tenant %q: bad key=val %q", name, kv)
		}
		switch k {
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", tc, fmt.Errorf("tenant %q: bad rate %q", name, val)
			}
			tc.RatePerSec = f
		case "burst":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", tc, fmt.Errorf("tenant %q: bad burst %q", name, val)
			}
			tc.Burst = f
		case "depth":
			n, err := strconv.Atoi(val)
			if err != nil {
				return "", tc, fmt.Errorf("tenant %q: bad depth %q", name, val)
			}
			tc.QueueDepth = n
		case "priority":
			n, err := strconv.Atoi(val)
			if err != nil {
				return "", tc, fmt.Errorf("tenant %q: bad priority %q", name, val)
			}
			tc.Priority = n
		default:
			return "", tc, fmt.Errorf("tenant %q: unknown key %q", name, k)
		}
	}
	return name, tc, nil
}
