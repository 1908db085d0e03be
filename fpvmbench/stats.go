package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 of 50 samples is the second-largest sample, not a tail estimate.
const minTail = 10

// percentile returns the pct-th percentile of xs, interpolating linearly
// between the closest ranks. It refuses when fewer than minTail samples
// lie beyond the percentile.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	if pct <= 0 || pct >= 100 {
		return 0, fmt.Errorf("percentile %d out of range (0, 100)", pct)
	}
	// Integer arithmetic: 0.9*100 is not exactly 90 in floating point.
	if beyond := n - (pct*n+99)/100; beyond < minTail {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it; need %d", pct, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(pct) / 100 * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return s[n-1], nil
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo]), nil
}

// median is the 50th percentile without the tail-size rule, for
// aggregates over a handful of repetitions (set-ups, replays).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean sums logs in sorted order, so the same values give the same
// result whatever order the jobs ran in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks returns the host-wide steal and total CPU ticks from
// /proc/stat (zeros when unreadable). Steal is time the hypervisor gave
// this VM's vCPUs to someone else; the summary line reports its share so
// a slow run can be told from a slow build.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// resetPeakRSS restarts VmHWM from the current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
