package fpvm_test

import (
	"strings"
	"testing"

	"fpvm"
	"fpvm/internal/workloads"
)

// TestPrecisionPolicyRun: a policy run completes, matches the native
// output (no site escalated past what binary64 needed on this workload),
// reports policy stats, and is deterministic.
func TestPrecisionPolicyRun(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := fpvm.RunNative(img)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpvm.Config{PrecisionPolicy: true, Seq: true, Short: true}
	r1, err := fpvm.Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Policy == nil {
		t.Fatal("policy run returned nil Policy stats")
	}
	if r1.Policy.Sites == 0 || r1.Policy.OpsBoxed == 0 {
		t.Fatalf("policy stats look empty: %+v", *r1.Policy)
	}
	if r1.Stdout != nat.Stdout {
		t.Errorf("policy output diverged from native:\n got %q\nwant %q", r1.Stdout, nat.Stdout)
	}
	r2, err := fpvm.Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stdout != r2.Stdout || r1.Cycles != r2.Cycles || *r1.Policy != *r2.Policy {
		t.Fatalf("policy run is nondeterministic: %d/%+v vs %d/%+v",
			r1.Cycles, *r1.Policy, r2.Cycles, *r2.Policy)
	}
	if hr := r1.TraceHitRate(); hr < 0 || hr > 1 {
		t.Fatalf("trace hit rate %v outside [0, 1]", hr)
	}
	if hr := (&fpvm.Result{}).TraceHitRate(); hr != 0 {
		t.Fatalf("empty result's trace hit rate = %v, want 0", hr)
	}
}

// TestPrecisionPolicyConfigRules: the engine layers its own systems, so
// a non-boxed Alt is rejected; policy runs refuse preemption (site state
// is process-local and would not survive a resume); the signature gains a
// policy field only when enabled.
func TestPrecisionPolicyConfigRules(t *testing.T) {
	img, err := workloads.BuildMicro(workloads.Lorenz)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fpvm.Run(img, fpvm.Config{PrecisionPolicy: true, Alt: fpvm.AltMPFR}); err == nil {
		t.Error("PrecisionPolicy with Alt=mpfr did not error")
	}
	// The per-site tier table is not in the snapshot image, so a policy
	// run cannot suspend, and the refusal says why.
	if _, err := fpvm.Run(img, fpvm.Config{PrecisionPolicy: true, PreemptQuantum: 10_000, Seq: true}); err == nil {
		t.Error("PrecisionPolicy with PreemptQuantum did not error")
	} else if !strings.Contains(err.Error(), "per-site tier table") {
		t.Errorf("PrecisionPolicy with PreemptQuantum refused without naming the site state: %v", err)
	}
	plain := fpvm.ConfigSignature(fpvm.Config{Seq: true})
	pol := fpvm.ConfigSignature(fpvm.Config{Seq: true, PrecisionPolicy: true})
	if strings.Contains(plain, "policy") {
		t.Errorf("policy-off signature mentions policy: %q", plain)
	}
	if !strings.Contains(pol, "policy=1") || !strings.HasPrefix(pol, plain) {
		t.Errorf("policy-on signature must extend the plain one: %q vs %q", pol, plain)
	}
}
