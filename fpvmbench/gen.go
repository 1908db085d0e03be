package main

import (
	"sync"
	"sync/atomic"
)

// eachOnWorkers calls fn(i) for every i in [0, n) from workers goroutines
// that each take the next index when they finish one (a closed loop), and
// returns when all calls have.
func eachOnWorkers(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// splitmix64 is the generator behind every seeded choice the benchmark
// makes; it is small enough to reimplement anywhere a run is checked.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// passOrder returns the job order of pass p: each of kinds job kinds
// appears per times, shuffled by seed and p. The seed changes only the
// order, never which jobs run, so every seed does the same work.
func passOrder(seed uint64, p, kinds, per int) []int {
	out := make([]int, 0, kinds*per)
	for k := 0; k < kinds; k++ {
		for r := 0; r < per; r++ {
			out = append(out, k)
		}
	}
	rng := splitmix64(seed ^ uint64(p+1)*0xd1b54a32d192ed03)
	for i := len(out) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
