package experiments

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"

	"fpvm"
	"fpvm/internal/workloads"
)

// maxDigits caps the accuracy metric at binary64's guaranteed decimal
// precision (DBL_DIG). Every workload prints from binary64 state, so no
// arithmetic system can deliver more than 15 significant decimal digits
// through the print path; results agreeing with the reference to >= 15
// digits are at equal final accuracy.
const maxDigits = 15

// frontierRefPrecision is the MPFR precision of the accuracy reference
// run. Doubling the evaluated 200-bit precision leaves the reference's
// own rounding far below anything the metric can resolve.
const frontierRefPrecision = 400

// FrontierRow is one (workload, system) point of the accuracy-vs-cycles
// frontier.
type FrontierRow struct {
	Workload  string
	System    string // "boxed", "adaptive", "mpfr200"
	Cycles    uint64
	Altmath   uint64
	Digits    int     // min correct significant digits vs the reference
	MaxRelErr float64 // worst relative error across printed values
	Policy    *fpvm.PolicyStats
}

var floatRe = regexp.MustCompile(`-?\d+\.\d+(?:[eE][-+]?\d+)?`)

// parseFloats extracts every printed decimal float from a run's stdout.
func parseFloats(s string) []float64 {
	var out []float64
	for _, m := range floatRe.FindAllString(s, -1) {
		f, err := strconv.ParseFloat(m, 64)
		if err == nil {
			out = append(out, f)
		}
	}
	return out
}

// accuracy scores got against ref: the worst relative error across
// aligned printed values, and the corresponding correct-digit count
// (capped at maxDigits). A shape mismatch (different value count) scores
// zero digits.
func accuracy(got, ref []float64) (digits int, maxRel float64) {
	if len(got) != len(ref) || len(ref) == 0 {
		return 0, math.Inf(1)
	}
	for i := range ref {
		var rel float64
		switch {
		case got[i] == ref[i]:
			rel = 0
		case ref[i] == 0:
			rel = math.Abs(got[i])
		default:
			rel = math.Abs(got[i]-ref[i]) / math.Abs(ref[i])
		}
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel == 0 {
		return maxDigits, 0
	}
	d := int(math.Floor(-math.Log10(maxRel)))
	if d > maxDigits {
		d = maxDigits
	}
	if d < 0 {
		d = 0
	}
	return d, maxRel
}

// FrontierTable runs every micro workload under boxed IEEE, the adaptive
// per-RIP precision policy, and always-MPFR (200 bits), scores each
// against a 400-bit MPFR reference, and renders the accuracy-vs-cycles
// frontier. The table demonstrates the policy's point: adaptive escalates
// only the RIPs where exceptions cluster, so it reaches the same final
// accuracy bucket as always-MPFR at a fraction of the cycles wherever
// binary64 was already converged. The run errs unless adaptive strictly
// dominates always-MPFR on cycles at equal accuracy for at least two
// workloads.
func FrontierTable(out, progress io.Writer) error {
	fmt.Fprintln(out, "Precision frontier (accuracy vs cycles, 400-bit MPFR reference)")
	fmt.Fprintf(out, "%-24s %-9s %12s %12s %7s %11s  %s\n",
		"workload", "system", "cycles", "altmath", "digits", "maxrelerr", "policy")

	type sysCfg struct {
		name string
		cfg  fpvm.Config
	}
	systems := []sysCfg{
		{"boxed", fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}},
		{"adaptive", fpvm.Config{PrecisionPolicy: true, Seq: true, Short: true}},
		{"mpfr200", fpvm.Config{Alt: fpvm.AltMPFR, Seq: true, Short: true}},
	}

	names := workloads.MicroAll()
	dominated := 0
	for _, name := range names {
		if progress != nil {
			fmt.Fprintf(progress, "frontier %s...\n", name)
		}
		img, err := workloads.BuildMicro(name)
		if err != nil {
			return fmt.Errorf("frontier: build %s: %w", name, err)
		}
		refRes, err := fpvm.Run(img, fpvm.Config{
			Alt: fpvm.AltMPFR, Precision: frontierRefPrecision, Seq: true, Short: true,
		})
		if err != nil {
			return fmt.Errorf("frontier: reference %s: %w", name, err)
		}
		ref := parseFloats(refRes.Stdout)

		rows := make(map[string]FrontierRow, len(systems))
		for _, sc := range systems {
			res, err := fpvm.Run(img, sc.cfg)
			if err != nil {
				return fmt.Errorf("frontier: %s/%s: %w", name, sc.name, err)
			}
			digits, maxRel := accuracy(parseFloats(res.Stdout), ref)
			row := FrontierRow{
				Workload: string(name), System: sc.name,
				Cycles: res.Cycles, Altmath: res.AltmathCycles(),
				Digits: digits, MaxRelErr: maxRel, Policy: res.Policy,
			}
			rows[sc.name] = row
			pol := ""
			if row.Policy != nil {
				pol = fmt.Sprintf("sites %d/%d/%d esc %d",
					row.Policy.Sites-row.Policy.IntervalSites-row.Policy.MPFRSites,
					row.Policy.IntervalSites, row.Policy.MPFRSites, row.Policy.Escalations)
			}
			fmt.Fprintf(out, "%-24s %-9s %12d %12d %7d %11.2e  %s\n",
				name, sc.name, row.Cycles, row.Altmath, row.Digits, row.MaxRelErr, pol)
		}
		ad, mp := rows["adaptive"], rows["mpfr200"]
		if ad.Digits >= mp.Digits && ad.Cycles < mp.Cycles {
			dominated++
			fmt.Fprintf(out, "%-24s -> adaptive dominates always-mpfr: %d vs %d digits at %.2fx fewer cycles\n",
				name, ad.Digits, mp.Digits, float64(mp.Cycles)/float64(ad.Cycles))
		}
	}
	fmt.Fprintf(out, "adaptive dominates always-mpfr on %d/%d workloads (equal-or-better digits, strictly fewer cycles)\n",
		dominated, len(names))
	if dominated < 2 {
		return fmt.Errorf("frontier: adaptive dominated always-mpfr on only %d workload(s), want >= 2", dominated)
	}
	return nil
}
