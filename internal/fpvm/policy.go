package fpvm

import (
	"errors"
	"fmt"
	"math"

	"fpvm/internal/alt"
	"fpvm/internal/bigfp"
	"fpvm/internal/fpmath"
	"fpvm/internal/interval"
)

// PolicyConfig tunes the adaptive per-RIP precision policy engine.
type PolicyConfig struct {
	// EscalateAfter is the number of cause-flagged trap deliveries at one
	// RIP before the site escalates from boxed IEEE to interval.
	EscalateAfter uint64

	// WidthTol is the relative interval width above which an interval
	// site escalates to MPFR: bounds that wide mean binary64 rounding is
	// materially wrong at this site and real extra precision is needed.
	WidthTol float64

	// DecayAfter is the number of consecutive within-tolerance interval
	// results after which a site decays back to boxed (0 disables decay):
	// tight bounds mean the exception cluster was transient and boxed
	// arithmetic is accurate enough.
	DecayAfter uint64

	// MPFRPrecision is the mantissa precision (bits) used by escalated
	// MPFR sites.
	MPFRPrecision uint
}

// DefaultPolicyConfig returns the defaults used by fpvm-run -precision-policy.
func DefaultPolicyConfig() PolicyConfig {
	return PolicyConfig{
		EscalateAfter: 8,
		WidthTol:      1e-9,
		DecayAfter:    4096,
		MPFRPrecision: 200,
	}
}

// PolicyStats is a snapshot of the engine's activity.
type PolicyStats struct {
	Sites           uint64 // distinct RIPs tracked
	IntervalSites   uint64 // sites currently at the interval tier
	MPFRSites       uint64 // sites currently at the MPFR tier
	Escalations     uint64 // boxed -> interval site promotions
	MPFREscalations uint64 // interval -> MPFR site promotions
	Decays          uint64 // interval -> boxed site demotions
	OpsBoxed        uint64 // arithmetic ops computed at the boxed tier
	OpsInterval     uint64 // arithmetic ops computed at the interval tier
	OpsMPFR         uint64 // arithmetic ops computed at the MPFR tier
	MaxRelWidth     float64
}

// Line renders the stats as a one-line summary.
func (st PolicyStats) Line() string {
	return fmt.Sprintf(
		"policy: sites %d (interval %d, mpfr %d), escalations %d (+%d mpfr, -%d decayed), ops boxed %d / interval %d / mpfr %d, max rel width %.2e",
		st.Sites, st.IntervalSites, st.MPFRSites,
		st.Escalations, st.MPFREscalations, st.Decays,
		st.OpsBoxed, st.OpsInterval, st.OpsMPFR, st.MaxRelWidth)
}

// precTier is a site's current numeric system.
type precTier uint8

const (
	tierBoxed precTier = iota
	tierInterval
	tierMPFR
)

// polSite is the policy state of one instruction address.
type polSite struct {
	tier  precTier
	hits  uint64 // cause-flagged trap deliveries at this RIP
	tight uint64 // consecutive within-tolerance interval results
}

// PolicyEngine is an alt.System that picks a numeric tier per RIP instead
// of per run: every site starts boxed, escalates to interval once
// exceptions cluster there (EscalateAfter cause-flagged traps), escalates
// further to MPFR when the interval bounds it computes are wide enough to
// matter (WidthTol), and decays back to boxed after a long run of tight
// bounds (DecayAfter). The runtime feeds it per-RIP trap causes from
// handleTrap and it reads the current RIP back through the bound runtime,
// so it works unchanged on the walk and on trace replay (both maintain
// curRIP per emulated instruction).
//
// Values are tier-tagged by their concrete type (float64, interval.Interval,
// *bigfp.Float); an operand produced at one tier and consumed at another is
// converted through binary64, with both conversions charged. The engine is
// deterministic for a fixed guest and configuration. Its alt.Codec writes
// a value's tier byte and then that tier's encoding, which is what the
// rollback supervisor's checkpoint needs. The per-site table is not in
// any image, so a suspended and resumed run would not replay identically:
// the runtime refuses to preempt or snapshot it (CanSuspend), and it is
// excluded from the oracle conformance matrix.
type PolicyEngine struct {
	cfg   PolicyConfig
	boxed *alt.BoxedIEEE
	ival  *alt.IntervalSystem
	mpfr  *alt.MPFR
	rt    *Runtime
	sites map[uint64]*polSite
	stats PolicyStats
}

// NewPolicyEngine builds an engine; zero fields of cfg take the defaults.
func NewPolicyEngine(cfg PolicyConfig) *PolicyEngine {
	def := DefaultPolicyConfig()
	if cfg.EscalateAfter == 0 {
		cfg.EscalateAfter = def.EscalateAfter
	}
	if cfg.WidthTol == 0 {
		cfg.WidthTol = def.WidthTol
	}
	if cfg.MPFRPrecision == 0 {
		cfg.MPFRPrecision = def.MPFRPrecision
	}
	return &PolicyEngine{
		cfg:   cfg,
		boxed: alt.NewBoxedIEEE(),
		ival:  alt.NewInterval(),
		mpfr:  alt.NewMPFR(cfg.MPFRPrecision),
		sites: make(map[uint64]*polSite),
	}
}

// bind attaches the engine to the runtime whose curRIP it follows.
func (e *PolicyEngine) bind(r *Runtime) { e.rt = r }

// PolicyStats returns the policy engine's activity snapshot, or nil when
// the runtime's alt system is not a PolicyEngine.
func (r *Runtime) PolicyStats() *PolicyStats {
	if r.pol == nil {
		return nil
	}
	st := r.pol.Stats()
	return &st
}

// Stats returns a snapshot of the engine's activity.
func (e *PolicyEngine) Stats() PolicyStats {
	st := e.stats
	for _, s := range e.sites {
		st.Sites++
		switch s.tier {
		case tierInterval:
			st.IntervalSites++
		case tierMPFR:
			st.MPFRSites++
		}
	}
	return st
}

func (e *PolicyEngine) siteFor(rip uint64) *polSite {
	s := e.sites[rip]
	if s == nil {
		s = &polSite{}
		e.sites[rip] = s
	}
	return s
}

// curSite resolves the site of the instruction the runtime is emulating.
// Unbound (unit tests driving the engine directly), everything maps to one
// global site at RIP 0.
func (e *PolicyEngine) curSite() *polSite {
	var rip uint64
	if e.rt != nil {
		rip = e.rt.curRIP
	}
	return e.siteFor(rip)
}

// noteTrap records a cause-flagged trap delivery at rip (called by
// handleTrap) and escalates the site once exceptions cluster there.
func (e *PolicyEngine) noteTrap(rip uint64, flags uint32) {
	if flags == 0 {
		return
	}
	s := e.siteFor(rip)
	s.hits++
	if s.tier == tierBoxed && s.hits >= e.cfg.EscalateAfter {
		s.tier = tierInterval
		s.tight = 0
		e.stats.Escalations++
	}
}

func (e *PolicyEngine) sys(t precTier) alt.System {
	switch t {
	case tierInterval:
		return e.ival
	case tierMPFR:
		return e.mpfr
	}
	return e.boxed
}

// tierOfVal tags a value by its concrete representation.
func tierOfVal(v alt.Value) precTier {
	switch v.(type) {
	case interval.Interval:
		return tierInterval
	case *bigfp.Float:
		return tierMPFR
	}
	return tierBoxed
}

// convert moves v to tier t through binary64, charging both conversions.
// Crossing downward loses the higher tier's extra information by design:
// the policy decided the consuming site does not need it.
func (e *PolicyEngine) convert(v alt.Value, t precTier) (alt.Value, uint64) {
	from := tierOfVal(v)
	if from == t {
		return v, 0
	}
	f, c1 := e.sys(from).Demote(v)
	nv, c2 := e.sys(t).Promote(f)
	return nv, c1 + c2
}

// relWidth is an interval's width relative to its midpoint magnitude
// (absolute near zero, where relative error is meaningless).
func relWidth(iv interval.Interval) float64 {
	w := iv.Width()
	if w == 0 || math.IsNaN(w) {
		return 0
	}
	m := math.Abs(iv.Mid())
	if m < 1 {
		m = 1
	}
	return w / m
}

// observeWidth applies the width rules after an interval-tier op: wide
// bounds escalate the site to MPFR, a long run of tight bounds decays it
// back to boxed.
func (e *PolicyEngine) observeWidth(s *polSite, v alt.Value) {
	iv, ok := v.(interval.Interval)
	if !ok || iv.IsNaN() {
		return
	}
	w := relWidth(iv)
	if w > e.stats.MaxRelWidth {
		e.stats.MaxRelWidth = w
	}
	if w > e.cfg.WidthTol {
		s.tier = tierMPFR
		s.tight = 0
		e.stats.MPFREscalations++
		return
	}
	s.tight++
	if e.cfg.DecayAfter > 0 && s.tight >= e.cfg.DecayAfter {
		s.tier = tierBoxed
		s.tight = 0
		s.hits = 0
		e.stats.Decays++
	}
}

// --- alt.System ---

func (e *PolicyEngine) Name() string { return "adaptive" }

func (e *PolicyEngine) Promote(f float64) (alt.Value, uint64) {
	return e.sys(e.curSite().tier).Promote(f)
}

func (e *PolicyEngine) Demote(v alt.Value) (float64, uint64) {
	return e.sys(tierOfVal(v)).Demote(v)
}

func (e *PolicyEngine) Op(op fpmath.Op, a, b alt.Value) (alt.Value, uint64) {
	s := e.curSite()
	t := s.tier
	av, cost := e.convert(a, t)
	var bv alt.Value
	if op != fpmath.OpSqrt {
		bc, c := e.convert(b, t)
		bv, cost = bc, cost+c
	}
	res, c := e.sys(t).Op(op, av, bv)
	cost += c
	switch t {
	case tierBoxed:
		e.stats.OpsBoxed++
	case tierInterval:
		e.stats.OpsInterval++
		e.observeWidth(s, res)
	case tierMPFR:
		e.stats.OpsMPFR++
	}
	return res, cost
}

func (e *PolicyEngine) Compare(a, b alt.Value) (fpmath.CompareResult, uint64) {
	t := e.curSite().tier
	av, c1 := e.convert(a, t)
	bv, c2 := e.convert(b, t)
	cr, c3 := e.sys(t).Compare(av, bv)
	return cr, c1 + c2 + c3
}

func (e *PolicyEngine) Neg(v alt.Value) (alt.Value, uint64) {
	return e.sys(tierOfVal(v)).Neg(v)
}

func (e *PolicyEngine) Signbit(v alt.Value) bool {
	return e.sys(tierOfVal(v)).Signbit(v)
}

func (e *PolicyEngine) IsNaN(v alt.Value) bool {
	return e.sys(tierOfVal(v)).IsNaN(v)
}

// TempsPerOp follows the current site's tier so gc accounting tracks the
// arithmetic actually performed there.
func (e *PolicyEngine) TempsPerOp() int {
	return e.sys(e.curSite().tier).TempsPerOp()
}

// EncodeValue serializes v as its tier byte followed by that tier's
// encoding: the boxed bit pattern, the interval's endpoints or the MPFR
// limbs.
func (e *PolicyEngine) EncodeValue(v alt.Value) ([]byte, error) {
	t := tierOfVal(v)
	b, err := e.sys(t).(alt.Codec).EncodeValue(v)
	if err != nil {
		return nil, err
	}
	return append([]byte{byte(t)}, b...), nil
}

// DecodeValue reconstructs an EncodeValue payload, refusing a tier byte
// the engine does not have.
func (e *PolicyEngine) DecodeValue(b []byte) (alt.Value, error) {
	if len(b) == 0 || precTier(b[0]) > tierMPFR {
		return nil, errors.New("fpvm: policy codec: value has no valid tier tag")
	}
	return e.sys(precTier(b[0])).(alt.Codec).DecodeValue(b[1:])
}
