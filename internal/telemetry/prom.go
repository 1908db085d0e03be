package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders a Breakdown in the Prometheus text exposition
// format (version 0.0.4), one counter family per Breakdown counter, each
// sample tagged with the caller's label set. Families are emitted in a
// stable order and labels in sorted order, so the output is byte-stable
// for a given Breakdown — scrape-friendly and diff-friendly.
//
// All cycle counters are on the virtual clock (deterministic,
// host-independent), which is what makes them meaningful to alert on:
// a regression is a real cost change, not scheduler noise.
func WritePrometheus(w io.Writer, prefix string, labels map[string]string, b *Breakdown) error {
	if prefix == "" {
		prefix = "fpvm"
	}
	lbl := formatLabels(labels)

	var sb strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&sb, "# HELP %s_%s %s\n", prefix, name, help)
		fmt.Fprintf(&sb, "# TYPE %s_%s counter\n", prefix, name)
		fmt.Fprintf(&sb, "%s_%s%s %d\n", prefix, name, lbl, v)
	}

	// Per-category cycle costs share one family, distinguished by a
	// "category" label alongside the caller's labels.
	fmt.Fprintf(&sb, "# HELP %s_cycles_total virtual cycles charged, by cost category\n", prefix)
	fmt.Fprintf(&sb, "# TYPE %s_cycles_total counter\n", prefix)
	for _, c := range Categories() {
		withCat := mergeLabels(labels, "category", c.String())
		fmt.Fprintf(&sb, "%s_cycles_total%s %d\n", prefix, formatLabels(withCat), b.Cycles[c])
	}

	counter("traps_total", "FP trap deliveries", b.Traps)
	counter("emulated_insts_total", "instructions emulated by FPVM", b.EmulatedInsts)
	counter("faults_injected_total", "injected faults observed by the runtime", b.FaultsInjected)
	counter("faults_retried_total", "faults resolved by bounded retry", b.FaultsRetried)
	counter("faults_rolled_back_total", "faults resolved by checkpoint rollback", b.FaultsRolledBack)
	counter("faults_degraded_total", "faults resolved by demotion to native IEEE", b.FaultsDegraded)
	counter("faults_fatal_total", "faults resolved by clean detach", b.FaultsFatal)
	counter("backoff_cycles_total", "virtual cycles charged by retry backoff", b.BackoffCycles)
	counter("checkpoints_total", "rollback-supervisor snapshots captured", b.Checkpoints)
	counter("rollbacks_total", "fatal failures resolved by rollback", b.Rollbacks)
	counter("watchdog_aborts_total", "sequence emulations cut short by the watchdog", b.WatchdogAborts)
	counter("panic_recoveries_total", "emulator panics converted to degradations", b.PanicRecoveries)
	counter("trace_hits_total", "traps served by trace replay", b.TraceHits)
	counter("trace_misses_total", "traps that walked per-instruction", b.TraceMisses)

	_, err := io.WriteString(w, sb.String())
	return err
}

// formatLabels renders a label set as {k="v",...} with keys sorted, or
// "" for an empty set.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

func mergeLabels(labels map[string]string, k, v string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}
