package service

import (
	"sync"

	"fpvm"
)

// jobVMConfig is the one VM configuration the service executes jobs
// under. The warm pool and the cold path in execute must agree on it
// exactly: a pooled shell that differed semantically from a cold VM
// would make a job's outcome depend on pool luck.
func jobVMConfig(e *ImageEntry, alt fpvm.AltKind, precision uint) fpvm.Config {
	return fpvm.Config{
		Alt:       alt,
		Precision: precision,
		Seq:       true,
		Short:     true,
		Shared:    e.Shared,
	}
}

// poolKey identifies one warm free-list. Shells are only fungible within
// (image, alt system, precision); everything else about the service's VM
// config is fixed daemon-wide (see jobVMConfig).
type poolKey struct {
	image     string
	alt       fpvm.AltKind
	precision uint
}

// vmPool parks pre-constructed, pre-bound VM shells (address space,
// machine, kernel, heap, Runtime attached against the image's shared
// cache) on bounded per-image free-lists. Checkout pops a shell off the
// request path and kicks an asynchronous refill, so steady-state jobs
// pay only the step loop; misses fall back to cold construction at the
// call site. A job checks out once and keeps its VM for every slice;
// shells never return to the pool. Quarantine invalidates an image's
// shells outright — a distrusted image's pre-built state is never
// served.
type vmPool struct {
	target int // free-list size per key

	mu      sync.Mutex
	shells  map[poolKey][]*fpvm.VM
	filling map[poolKey]bool
	closed  bool

	hits          uint64
	misses        uint64
	refills       uint64
	invalidations uint64
	buildFailures uint64

	wg sync.WaitGroup // in-flight refill goroutines
}

func newVMPool(target int) *vmPool {
	if target <= 0 {
		target = 4
	}
	return &vmPool{
		target:  target,
		shells:  make(map[poolKey][]*fpvm.VM),
		filling: make(map[poolKey]bool),
	}
}

// checkout pops a warm shell for (entry, alt, precision), or nil on a
// miss (the caller constructs cold). Every checkout — hit or miss —
// triggers an asynchronous refill toward the free-list target.
func (p *vmPool) checkout(entry *ImageEntry, alt fpvm.AltKind, precision uint) *fpvm.VM {
	key := poolKey{image: entry.ID, alt: alt, precision: precision}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	var vm *fpvm.VM
	if list := p.shells[key]; len(list) > 0 {
		vm = list[len(list)-1]
		p.shells[key] = list[:len(list)-1]
		p.hits++
	} else {
		p.misses++
	}
	if !p.filling[key] && len(p.shells[key]) < p.target {
		p.filling[key] = true
		p.wg.Add(1)
		go p.refill(key, entry)
	}
	p.mu.Unlock()
	return vm
}

// refill builds shells for key until its free-list reaches the target
// (or the pool closes / the image is quarantined / a build fails).
// Exactly one refill runs per key at a time; construction happens
// outside the lock so checkouts never wait on a build.
func (p *vmPool) refill(key poolKey, entry *ImageEntry) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		if p.closed || len(p.shells[key]) >= p.target {
			p.filling[key] = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()

		if q, _ := entry.Quarantined(); q {
			p.mu.Lock()
			p.filling[key] = false
			p.mu.Unlock()
			return
		}
		vm, err := fpvm.Prepare(entry.Image, jobVMConfig(entry, key.alt, key.precision))

		p.mu.Lock()
		if err != nil {
			p.buildFailures++
			p.filling[key] = false
			p.mu.Unlock()
			return
		}
		if p.closed {
			p.filling[key] = false
			p.mu.Unlock()
			return
		}
		if q, _ := entry.Quarantined(); q {
			// A quarantine that raced the build wins: never park a shell
			// for a distrusted image.
			p.filling[key] = false
			p.mu.Unlock()
			return
		}
		p.shells[key] = append(p.shells[key], vm)
		p.refills++
		p.mu.Unlock()
	}
}

// prewarm synchronously fills key's free-list to the target and reports
// shells built (startup/bench helper; demand warms pools lazily
// otherwise).
func (p *vmPool) prewarm(entry *ImageEntry, alt fpvm.AltKind, precision uint) int {
	key := poolKey{image: entry.ID, alt: alt, precision: precision}
	built := 0
	for {
		p.mu.Lock()
		if p.closed || len(p.shells[key]) >= p.target {
			p.mu.Unlock()
			return built
		}
		p.mu.Unlock()

		vm, err := fpvm.Prepare(entry.Image, jobVMConfig(entry, alt, precision))
		if err != nil {
			p.mu.Lock()
			p.buildFailures++
			p.mu.Unlock()
			return built
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return built
		}
		p.shells[key] = append(p.shells[key], vm)
		p.refills++
		p.mu.Unlock()
		built++
	}
}

// invalidate drops every shell built for imageID (all alt/precision
// variants). Called when the image is quarantined.
func (p *vmPool) invalidate(imageID string) {
	p.mu.Lock()
	for key, list := range p.shells {
		if key.image != imageID {
			continue
		}
		p.invalidations += uint64(len(list))
		delete(p.shells, key)
	}
	p.mu.Unlock()
}

// close drops all shells, stops refills, and waits for in-flight builds.
func (p *vmPool) close() {
	p.mu.Lock()
	p.closed = true
	p.shells = make(map[poolKey][]*fpvm.VM)
	p.mu.Unlock()
	p.wg.Wait()
}

// PoolStats is the warm pool's counter snapshot. Hits/Misses count
// checkouts served warm vs cold; Refills shells built; Invalidations
// shells dropped by quarantine; Shells the currently parked population.
type PoolStats struct {
	Hits          uint64
	Misses        uint64
	Refills       uint64
	Invalidations uint64
	BuildFailures uint64
	Shells        int
}

func (p *vmPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Hits:          p.hits,
		Misses:        p.misses,
		Refills:       p.refills,
		Invalidations: p.invalidations,
		BuildFailures: p.buildFailures,
	}
	for _, list := range p.shells {
		st.Shells += len(list)
	}
	return st
}
