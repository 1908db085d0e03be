package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"fpvm"
	"fpvm/internal/service"
	"fpvm/internal/workloads"
)

const (
	serveQuantum  = 250_000
	servePerImage = 2 // requests per image in one pass
	serveTenant   = "bench"

	// The client's span travels to the server-side wrapper in headers,
	// so the handler span can name its parent.
	spanHeader = "X-Fpvmbench-Span"
	jobHeader  = "X-Fpvmbench-Job"
)

// serveImage is one registered request-sized image.
type serveImage struct {
	name   string
	entry  *service.ImageEntry
	native uint64 // RunNative cycles of the unpatched image
	ref    *fpvm.Result
	want   expect
}

// serveDurable drives an in-process fpvmd service over loopback HTTP with
// snapshots and the journal fsynced to disk and the warm pool prewarmed.
type serveDurable struct {
	seed    uint64
	workdir string
	dir     string
	svc     *service.Service
	srv     *httptest.Server
	images  []serveImage

	pool0  service.PoolStats // at the first timed pass
	served int               // jobs completed in timed passes
	cycles map[string]uint64 // served virtual cycles per image
	mu     sync.Mutex
}

// timedHandler is the server-side span: it times Service.Handler for
// every request that carries a client span.
type timedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	sp := 0
	if parent != 0 {
		sp = t.tr.begin("http.handler", r.Header.Get(jobHeader), parent)
	}
	t.h.ServeHTTP(w, r)
	t.tr.end(sp)
}

func newServeDurable(seed uint64, workdir string, tr *tracer) (rig, error) {
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{
		Workers:     workers,
		SnapshotDir: dir,
		// Priority 1 keeps the tenant off the shedding rung; with two
		// clients in a closed loop the queue never fills anyway.
		Tenants: map[string]service.TenantConfig{serveTenant: {Priority: 1}},
	})
	s := &serveDurable{seed: seed, workdir: workdir, dir: dir, svc: svc, cycles: make(map[string]uint64)}
	if _, err := svc.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = httptest.NewServer(timedHandler{h: svc.Handler(), tr: tr})
	if err := s.register(); err != nil {
		s.close()
		return nil, err
	}
	svc.WarmPools(fpvm.AltBoxed, 0)
	return s, nil
}

// register adds the request-sized images through POST /v1/images and
// records each one's native baseline and unsliced reference output.
func (s *serveDurable) register() error {
	for _, name := range workloads.MicroAll() {
		body, _ := json.Marshal(map[string]string{"workload": string(name)})
		resp, err := s.srv.Client().Post(s.srv.URL+"/v1/images", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var reg struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reg)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("registering %s: status %d, %v", name, resp.StatusCode, err)
		}
		entry, ok := s.svc.Registry().Get(reg.ID)
		if !ok {
			return fmt.Errorf("registered %s as %s but the registry does not have it", name, reg.ID)
		}
		img, err := workloads.BuildMicro(name)
		if err != nil {
			return err
		}
		nat, err := fpvm.RunNative(img)
		if err != nil {
			return fmt.Errorf("%s native: %w", name, err)
		}
		ref, err := fpvm.Run(entry.Image, paperConfig)
		if err != nil {
			return fmt.Errorf("%s reference run: %w", name, err)
		}
		if err := (expect{stdout: nat.Stdout}).check(ref.Stdout, 0, ""); err != nil {
			return fmt.Errorf("%s reference run: %w", name, err)
		}
		s.images = append(s.images, serveImage{
			name: string(name), entry: entry, native: nat.Cycles, ref: ref,
			want: expect{stdout: ref.Stdout, digest: digestOf(ref.Final)},
		})
	}
	return nil
}

func (s *serveDurable) pass(p int, tr *tracer) passOut {
	if p == 0 {
		s.pool0 = s.svc.PoolStats()
	}
	order := passOrder(s.seed, p, len(s.images), servePerImage)
	lat := make([]float64, len(order))
	errs := make([]error, len(order))
	t0, c0 := time.Now(), cpuTime()
	// Closed loop: each of the clients waits for its reply.
	eachOnWorkers(len(order), workers, func(i int) {
		lat[i], errs[i] = s.post(tr, fmt.Sprintf("req/%d/%d", p, i), s.images[order[i]])
	})
	out := passOut{wall: time.Since(t0), cpu: cpuTime() - c0, latencies: lat}
	for i, k := range order {
		out.record(s.images[k].name, errs[i])
	}
	if p >= 0 {
		s.served += out.attempted - out.failed
	}
	return out
}

// post submits one blocking job and checks its outcome.
func (s *serveDurable) post(tr *tracer, id string, img serveImage) (float64, error) {
	body, _ := json.Marshal(service.JobRequest{Tenant: serveTenant, ImageID: img.entry.ID, Alt: fpvm.AltBoxed})
	req, err := http.NewRequest(http.MethodPost, s.srv.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := tr.begin("http.post", id, 0)
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(sp))
		req.Header.Set(jobHeader, id)
	}
	t0 := time.Now()
	resp, err := s.srv.Client().Do(req)
	if err != nil {
		tr.end(sp)
		return ms(time.Since(t0)), err
	}
	var o service.JobOutcome
	err = json.NewDecoder(resp.Body).Decode(&o)
	resp.Body.Close()
	lat := ms(time.Since(t0))
	tr.end(sp)
	switch {
	case err != nil:
		return lat, fmt.Errorf("decoding outcome: %w", err)
	case resp.StatusCode != http.StatusOK || o.Status != service.StatusCompleted:
		return lat, fmt.Errorf("status %q (HTTP %d): %s", o.Status, resp.StatusCode, o.Detail)
	}
	s.mu.Lock()
	s.cycles[img.name] = o.Cycles
	s.mu.Unlock()
	return lat, img.want.check(o.Stdout, 0, o.Digest)
}

// slowdown is the geometric mean of served virtual cycles ÷ native cycles
// over the images.
func (s *serveDurable) slowdown() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var xs []float64
	for _, img := range s.images {
		xs = append(xs, float64(s.cycles[img.name])/float64(img.native))
	}
	return geomean(xs)
}

func (s *serveDurable) layers(tr *tracer, m map[string]float64) error {
	var st runStats
	for _, img := range s.images {
		st.add(img.ref, img.native)
	}
	st.layers(m)

	m["http.handler_ms"] = median(tr.durationsWhere("http.handler", nil))
	m["http.transport_ms"] = median(tr.selfTimes("http.post"))
	m["trace.unexplained_share"] = tr.unexplained("http.post")
	ps := s.svc.PoolStats()
	hits, misses := float64(ps.Hits-s.pool0.Hits), float64(ps.Misses-s.pool0.Misses)
	m["pool.hit_rate"] = ratio(hits, hits+misses)
	m["pool.checkouts_per_job"] = ratio(hits+misses, float64(s.served))

	dir, err := os.MkdirTemp(s.workdir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rj []replayJob
	for _, img := range s.images {
		// The service's own config: its slices share the image's warm cache.
		shared := img.entry.Shared
		cfg := func() fpvm.Config {
			c := paperConfig
			c.Shared = shared
			return c
		}
		rj = append(rj, replayJob{name: img.name, img: img.entry.Image, cfg: cfg, want: img.want})
	}
	rs, err := replaySliced(tr, rj, serveQuantum, dir)
	if err != nil {
		return err
	}
	sliceLayers(tr, rs, m)
	replayRunLayers(tr, rs, m)
	return nil
}

func (s *serveDurable) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.svc.Drain()
	os.RemoveAll(s.dir)
}
