package main

import (
	"fmt"

	"fpvm"
	"fpvm/internal/oracle"
)

// expect is one job's reference output. A zero cycles or empty digest
// field is not checked.
type expect struct {
	stdout string
	cycles uint64
	digest string
}

// check compares a job's output with its reference.
func (e expect) check(stdout string, cycles uint64, digest string) error {
	if stdout != e.stdout {
		return fmt.Errorf("stdout %q, want %q", clip(stdout), clip(e.stdout))
	}
	if e.cycles != 0 && cycles != e.cycles {
		return fmt.Errorf("%d virtual cycles, want %d", cycles, e.cycles)
	}
	if e.digest != "" && digest != e.digest {
		return fmt.Errorf("final-state digest %s, want %s", digest, e.digest)
	}
	return nil
}

// digestOf renders the oracle digest of a final architectural state the
// way fpvmd reports it in JobOutcome.Digest.
func digestOf(st *fpvm.TrapState) string {
	if st == nil {
		return ""
	}
	rec := oracle.Digest(st)
	return fmt.Sprintf("%016x-%016x", rec.RIP, rec.Sum)
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:60] + "…"
	}
	return s
}
