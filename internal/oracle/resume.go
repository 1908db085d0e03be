// Exported comparison hooks for the preemption/resume harnesses: the
// kill-resume tests collect trap streams through fpvm.Config.Observer
// and final states through Result.Final, and must assert bit-identity
// with exactly the oracle's notion of equality — the same normalized
// digest and the same final-state comparison the conformance matrix
// uses — so "resumption is exact" means the same thing everywhere.

package oracle

import "fpvm"

// Digest folds a normalized per-trap architectural snapshot into the
// oracle's stream record (faulting RIP + FNV-1a digest of the full
// normalized state; virtual cycles and the trap ordinal are excluded by
// design — see digestState).
func Digest(st *fpvm.TrapState) TrapRec {
	return TrapRec{RIP: st.TrapRIP, Sum: digestState(st)}
}

// CompareStreams returns the first 0-based index where two trap streams
// disagree, or -1 when they are identical (length included; a length
// mismatch diverges at the end of the shorter stream).
func CompareStreams(a, b []TrapRec) int {
	return compareStreams(a, b)
}

// DiffFinal compares two final architectural states under the strictest
// setting (MXCSR and RIP included — resumed and uninterrupted runs
// execute the identical image, so everything must match). Returns ""
// when bit-identical.
func DiffFinal(a, b *fpvm.TrapState) string {
	return diffFinal(a, b, true, true)
}
