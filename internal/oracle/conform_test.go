package oracle_test

import (
	"testing"

	"fpvm/internal/oracle"
	"fpvm/internal/workloads"
)

// TestMicroWorkloadsConform runs the full default matrix over every
// request-sized workload and requires zero divergences — the in-tree
// version of the `fpvm-bench -fig conform` acceptance gate.
func TestMicroWorkloadsConform(t *testing.T) {
	for _, name := range workloads.MicroAll() {
		name := name
		t.Run(string(name), func(t *testing.T) {
			t.Parallel()
			img, err := workloads.BuildMicro(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := oracle.NewProgram(string(name), img)
			if err != nil {
				t.Fatal(err)
			}
			rep := oracle.Check(prog, oracle.Options{})
			if !rep.OK() {
				t.Fatalf("conformance failed:\n%s", rep.String())
			}
			for _, row := range rep.Rows {
				if row.Traps == 0 {
					t.Errorf("%s: no traps observed — the matrix run did not exercise FPVM", row.Spec.Name)
				}
			}
		})
	}
}
