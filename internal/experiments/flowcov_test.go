package experiments_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpvm/internal/experiments"
)

const flowBaselinePath = "testdata/flowcov_baseline.json"

// TestFlowCoverageNonRegression measures exception-flow coverage and
// asserts it never shrinks below the checked-in baseline: every
// (class, shape, alt system) cell the baseline records as covered must
// still deliver its exception. New coverage is reported but not required.
// Regenerate the baseline with FLOWCOV_REGEN=1 after intentionally
// growing the matrix.
func TestFlowCoverageNonRegression(t *testing.T) {
	rep, err := experiments.FlowCoverage(nil)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool, len(rep.Cells))
	for _, k := range rep.CoveredKeys() {
		covered[k] = true
	}

	if os.Getenv("FLOWCOV_REGEN") != "" {
		if err := os.MkdirAll(filepath.Dir(flowBaselinePath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep.CoveredKeys(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flowBaselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s: %d/%d cells covered", flowBaselinePath, rep.Covered, rep.Total)
		return
	}

	data, err := os.ReadFile(flowBaselinePath)
	if err != nil {
		t.Fatalf("read baseline (FLOWCOV_REGEN=1 to create): %v", err)
	}
	var baseline []string
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("baseline is empty; regenerate with FLOWCOV_REGEN=1")
	}
	lost := 0
	for _, k := range baseline {
		if !covered[k] {
			lost++
			t.Errorf("coverage regression: baseline cell %s no longer delivers its exception", k)
		}
	}
	if lost == 0 && rep.Covered > len(baseline) {
		t.Logf("coverage grew: %d cells covered vs %d in baseline (FLOWCOV_REGEN=1 to ratchet)", rep.Covered, len(baseline))
	}
}

// TestFlowCoverageShape pins the matrix dimensions: 6 classes x 4 shapes
// x 6 systems, in deterministic order — and the artifact renderers: the
// table carries one row per class × shape with the coverage tally, and
// the JSON artifact round-trips to the same report.
func TestFlowCoverageShape(t *testing.T) {
	rep, err := experiments.FlowCoverage(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 6 * 4 * len(experiments.FlowSystems)
	if rep.Total != want || len(rep.Cells) != want {
		t.Fatalf("matrix has %d cells (Total %d), want %d", len(rep.Cells), rep.Total, want)
	}
	if rep.Cells[0].Key() != "invalid/scalar-reg/boxed" {
		t.Fatalf("first cell key %q, want invalid/scalar-reg/boxed", rep.Cells[0].Key())
	}

	var buf bytes.Buffer
	experiments.FlowTable(&buf, rep)
	table := buf.String()
	if got := strings.Count(table, "\n"); got != 6*4+3 {
		t.Errorf("table has %d lines, want %d (header x2 + 24 rows + tally)", got, 6*4+3)
	}
	if !strings.Contains(table, fmt.Sprintf("covered %d/%d cells", rep.Covered, rep.Total)) {
		t.Errorf("table is missing the coverage tally:\n%s", table)
	}
	for _, sys := range experiments.FlowSystems {
		if !strings.Contains(table, sys) {
			t.Errorf("table is missing the %s column", sys)
		}
	}

	path := filepath.Join(t.TempDir(), "flowcov.json")
	if err := experiments.WriteFlowJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var round experiments.FlowReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Covered != rep.Covered || round.Total != rep.Total || len(round.Cells) != len(rep.Cells) {
		t.Fatalf("JSON artifact round-tripped to %d/%d over %d cells, want %d/%d over %d",
			round.Covered, round.Total, len(round.Cells), rep.Covered, rep.Total, len(rep.Cells))
	}
}
