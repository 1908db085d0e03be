package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"

	"fpvm"
	"fpvm/internal/fpfuzz"
)

// Exception-flow coverage (after FlowFPX): instead of assuming the fuzz
// corpus exercises every exception path, measure it. For every exception
// class × operand shape the generator can bias toward, the biased program
// runs through fpvm.Run under every alt system in the conformance matrix
// (MPFR at the oracle's precision), and a cell counts as covered only if
// the run actually delivered a trap whose raised MXCSR flags include the
// class's exception bit (telemetry's per-cause trap counters). The report
// is a regenerable artifact (`make cover-flow`) with a checked-in
// baseline CI asserts against: coverage may grow, never silently shrink.

// FlowSystems lists the alt systems the coverage matrix spans — the same
// five systems as the conformance matrix, with both posit widths.
var FlowSystems = []string{"boxed", "mpfr", "posit", "posit32", "interval", "rational"}

// flowMaxSteps bounds each run; fuzz programs are straight-line, so any
// run this long is a bug, not a slow input.
const flowMaxSteps = 2_000_000

// flowPrecision is the MPFR significand width of every cell: the
// conformance oracle's.
const flowPrecision = 96

// FlowCell is one (exception class, operand shape, alt system) point.
type FlowCell struct {
	Class   string `json:"class"`
	Shape   string `json:"shape"`
	Alt     string `json:"alt"`
	Covered bool   `json:"covered"`
	// CauseTraps counts trap deliveries whose raised flags included the
	// class's exception bit; Traps is the run's total trap count.
	CauseTraps uint64 `json:"cause_traps"`
	Traps      uint64 `json:"traps"`
}

// Key identifies the cell in the baseline file.
func (c FlowCell) Key() string { return c.Class + "/" + c.Shape + "/" + c.Alt }

// FlowReport is the full coverage matrix.
type FlowReport struct {
	Cells   []FlowCell `json:"cells"`
	Covered int        `json:"covered"`
	Total   int        `json:"total"`
}

// FlowCoverage runs the biased generator's every class × shape program
// under every FlowSystems member and measures which cells delivered the
// class's exception. Cell order is deterministic: classes × shapes ×
// systems in declaration order.
func FlowCoverage(progress io.Writer) (*FlowReport, error) {
	rep := &FlowReport{}
	for _, class := range fpfuzz.Classes() {
		for _, shape := range fpfuzz.Shapes() {
			name := fmt.Sprintf("flow-%s-%s", class, shape)
			img, err := fpfuzz.Build(name, fpfuzz.GenBiased(class, shape))
			if err != nil {
				return nil, fmt.Errorf("flowcov: build %s: %w", name, err)
			}
			causeIdx := bits.TrailingZeros32(class.StickyBit())
			for _, sys := range FlowSystems {
				if progress != nil {
					fmt.Fprintf(progress, "flowcov %s under %s...\n", name, sys)
				}
				res, err := fpvm.Run(img, fpvm.Config{
					Alt: fpvm.AltKind(sys), Precision: flowPrecision, Seq: true, MaxSteps: flowMaxSteps,
				})
				if err != nil {
					return nil, fmt.Errorf("flowcov: %s under %s: %w", name, sys, err)
				}
				cell := FlowCell{
					Class: class.String(), Shape: shape.String(), Alt: sys,
					CauseTraps: res.Breakdown.TrapCauses[causeIdx],
					Traps:      res.Traps,
				}
				cell.Covered = cell.CauseTraps > 0
				if cell.Covered {
					rep.Covered++
				}
				rep.Total++
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	return rep, nil
}

// FlowTable renders the matrix: one row per class × shape, one column per
// alt system, each cell the count of cause-flagged traps (or "-" for an
// uncovered cell).
func FlowTable(out io.Writer, rep *FlowReport) {
	fmt.Fprintln(out, "Exception-flow coverage (class x shape x alt system, cause-flagged traps)")
	fmt.Fprintf(out, "%-22s", "class/shape")
	for _, sys := range FlowSystems {
		fmt.Fprintf(out, " %9s", sys)
	}
	fmt.Fprintln(out)
	byRow := make(map[string][]FlowCell)
	var rows []string
	for _, c := range rep.Cells {
		k := c.Class + "/" + c.Shape
		if len(byRow[k]) == 0 {
			rows = append(rows, k)
		}
		byRow[k] = append(byRow[k], c)
	}
	for _, k := range rows {
		fmt.Fprintf(out, "%-22s", k)
		for _, c := range byRow[k] {
			if c.Covered {
				fmt.Fprintf(out, " %9d", c.CauseTraps)
			} else {
				fmt.Fprintf(out, " %9s", "-")
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "covered %d/%d cells\n", rep.Covered, rep.Total)
}

// WriteFlowJSON writes the report as the CI artifact.
func WriteFlowJSON(path string, rep *FlowReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CoveredKeys returns the sorted-by-matrix-order keys of covered cells —
// the non-regression baseline's content.
func (rep *FlowReport) CoveredKeys() []string {
	var keys []string
	for _, c := range rep.Cells {
		if c.Covered {
			keys = append(keys, c.Key())
		}
	}
	return keys
}
