// Package service implements fpvmd's multi-tenant serving stack on top
// of the FPVM runtime: a content-addressed guest-image registry,
// per-tenant admission control with token buckets and bounded queues,
// deadline-bounded preemptive job execution, a degradation ladder
// (full service → shed low priority → drain), crash-restart recovery
// that replays journaled jobs through the same job loop, resuming each
// from its last persisted snapshot, and Prometheus-text metrics.
//
// Everything job-visible runs on the virtual clock: deadlines are
// virtual-cycle budgets enforced at trap boundaries, so a job's outcome
// is a property of the job, not of host load.
package service

import (
	"encoding/hex"
	"fmt"
	"sync"

	"fpvm"
	"fpvm/internal/obj"
	"fpvm/internal/workloads"
)

// ImageEntry is one registered guest image. The ID is the hex of the
// image's content hash, so registering the same program twice — from any
// client — lands on the same entry, the same shared decode/trace cache,
// and the same quarantine state. Shared is trained once, at
// registration, and read-only afterwards.
type ImageEntry struct {
	ID       string
	Workload string
	Image    *obj.Image
	Shared   *fpvm.SharedCache

	mu          sync.Mutex
	quarantined bool
	reason      string
}

// Quarantined reports whether the image is quarantined and why.
func (e *ImageEntry) Quarantined() (bool, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quarantined, e.reason
}

// quarantine marks the entry; re-quarantining keeps the first reason.
func (e *ImageEntry) quarantine(reason string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.quarantined {
		e.quarantined = true
		e.reason = reason
	}
}

// Registry is the content-addressed image store. Guests are referenced
// by workload name at registration (this repo's images are built, not
// uploaded) and by content hash afterwards.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*ImageEntry
	// byName maps each registered workload name to its entry: a name
	// always builds the same image, so it is built and profiled once.
	byName map[string]*ImageEntry
	// builds counts the registrations that built a workload.
	builds int
}

// jobVMConfig is the one VM configuration the service runs guests
// under: Register trains each image's shared cache with it (boxed,
// precision 0) and execute builds every job's VM from it, so a job
// differs from the training run only in the alt system and precision it
// asks for.
func jobVMConfig(e *ImageEntry, alt fpvm.AltKind, precision uint) fpvm.Config {
	return fpvm.Config{
		Alt:       alt,
		Precision: precision,
		Seq:       true,
		Short:     true,
		Shared:    e.Shared,
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*ImageEntry), byName: make(map[string]*ImageEntry)}
}

// Register builds the named workload, patches it for FPVM (which
// profiles it with one native run), trains its shared decode/trace cache
// with one run under the service's default job configuration (boxed,
// SEQ SHORT), and registers the result under its content hash.
// Registering an already-known image is idempotent and returns the
// existing entry — including its shared cache and its quarantine state
// (a quarantined program does not become trustworthy by being
// re-registered). A workload name registered before returns its entry
// without building anything, so repeated POST /v1/images and the
// recovery of many jobs on one image cost one build. Building happens
// outside the registry lock; when two registrations of a new image race,
// the first to insert wins and the other's store is dropped.
func (r *Registry) Register(workload string) (*ImageEntry, error) {
	r.mu.Lock()
	e, ok := r.byName[workload]
	if !ok {
		r.builds++
	}
	r.mu.Unlock()
	if ok {
		return e, nil
	}
	img, err := workloads.BuildMicro(workloads.Name(workload))
	if err != nil {
		return nil, fmt.Errorf("service: unknown workload %q: %w", workload, err)
	}
	patched, err := fpvm.PrepareForFPVM(img, true)
	if err != nil {
		return nil, fmt.Errorf("service: patching %q: %w", workload, err)
	}

	h := patched.Hash()
	id := hex.EncodeToString(h[:])
	if e, ok = r.Get(id); !ok {
		e = &ImageEntry{ID: id, Workload: workload, Image: patched}
		// Every job on the image adopts from this store and never writes
		// to it, so a job's cycles do not depend on what ran on the image
		// first.
		if e.Shared, err = fpvm.TrainSharedCache(patched, jobVMConfig(e, fpvm.AltBoxed, 0)); err != nil {
			return nil, fmt.Errorf("service: training %q: %w", workload, err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[id]; ok {
		e = prev
	}
	r.byID[id] = e
	r.byName[workload] = e
	return e, nil
}

// Get looks an image up by content-hash ID.
func (r *Registry) Get(id string) (*ImageEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	return e, ok
}

// Quarantine marks an image untrusted (a job running it panicked the
// worker). Subsequent submissions against it are rejected with a
// distinct status until the daemon restarts.
func (r *Registry) Quarantine(id, reason string) {
	if e, ok := r.Get(id); ok {
		e.quarantine(reason)
	}
}
