package policy

import (
	"errors"
	"fmt"
	"math"
	"time"

	"eotora/internal/core"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/trace"
)

// Tuner metric names (obs gauges/counters) reporting the auto-tuner's
// trajectory; DESIGN.md §15 documents the control loop.
const (
	// MetricTunerV is the current penalty weight V (gauge).
	MetricTunerV = "tuner.v"
	// MetricTunerLambda is the current CGBA λ (gauge).
	MetricTunerLambda = "tuner.lambda"
	// MetricTunerIters is the iteration EMA the λ schedule tracks (gauge).
	MetricTunerIters = "tuner.iterations_ema"
	// MetricTunerVRaised counts upward V steps (counter).
	MetricTunerVRaised = "tuner.v_raised"
	// MetricTunerVLowered counts downward V steps (counter).
	MetricTunerVLowered = "tuner.v_lowered"
	// MetricTunerRefined counts λ refinement steps (counter).
	MetricTunerRefined = "tuner.lambda_refinements"
)

// TunerConfig parameterizes the online auto-tuner. Every zero field
// selects the default named in its comment.
type TunerConfig struct {
	// Window is the adaptation cadence in slots: statistics accumulate
	// over a window and the knobs move at its boundary. 0 = 16.
	Window int
	// VStep is the multiplicative V step per adaptation. 0 = 1.5.
	VStep float64
	// VMin/VMax clamp the adapted V. 0 = V₀/16 and 16·V₀ respectively,
	// where V₀ is the wrapped controller's initial V.
	VMin float64
	// VMax is the upper V clamp (see VMin).
	VMax float64
	// BacklogHigh is the backlog-vs-reference factor above which V is
	// lowered (drain the virtual queue; O(V) backlog, Theorem 4). 0 = 2.
	BacklogHigh float64
	// BacklogLow is the factor below which V is raised (spend the slack
	// on latency; O(1/V) penalty gap). 0 = 0.5.
	BacklogLow float64
	// LambdaStart is the coarse λ of the first windows — a loose
	// equilibrium tolerance that certifies in fewer CGBA iterations
	// while the queue is still in its transient. 0 = 0.1.
	LambdaStart float64
	// LambdaTarget is the refined λ the schedule converges to once the
	// iteration EMA stabilizes (typically the run's configured λ; 0 is a
	// valid target and the default).
	LambdaTarget float64
	// StableFrac is the relative iteration-EMA change below which the
	// solve counts as stabilized and λ refines one step. 0 = 0.1.
	StableFrac float64
}

// withDefaults fills the zero-value defaults (V clamps need v0).
func (c TunerConfig) withDefaults(v0 float64) TunerConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.VStep <= 1 {
		c.VStep = 1.5
	}
	if c.VMin <= 0 {
		c.VMin = v0 / 16
	}
	if c.VMax <= 0 {
		c.VMax = v0 * 16
	}
	if c.BacklogHigh <= 0 {
		c.BacklogHigh = 2
	}
	if c.BacklogLow <= 0 {
		c.BacklogLow = 0.5
	}
	if c.LambdaStart <= 0 {
		c.LambdaStart = 0.1
	}
	if c.StableFrac <= 0 {
		c.StableFrac = 0.1
	}
	return c
}

// Tuner is the online auto-tuning policy ("bdma-tuned"): it wraps the
// flagship controller and adapts two knob families across slots.
//
// V (the latency-vs-backlog dial, cf. the power-delay tradeoff of arXiv
// 1609.06027): the first window's average backlog becomes the reference;
// when a later window's backlog exceeds BacklogHigh× the reference the
// tuner lowers V to drain the queue, and when it falls below BacklogLow×
// it raises V to spend the slack on latency. Steps are multiplicative
// and clamped to [VMin, VMax].
//
// λ (the CGBA work dial): windows start coarse — LambdaStart slack,
// fewer best-response iterations while the virtual queue is in its
// transient — and refine once the per-window iteration EMA stabilizes,
// halving the gap to LambdaTarget per stable window until the target is
// reached. The equilibrium quality the run settles at is the target's;
// only the transient is solved loosely.
//
// The trajectory is exported through the tuner.* obs series.
type Tuner struct {
	ctrl *core.Controller
	cfg  TunerConfig

	lambda  float64
	refined bool

	refBacklog float64
	haveRef    bool
	emaIters   float64
	prevEma    float64

	winN       int
	winBacklog float64
	winIters   float64

	instr tunerInstr
}

// tunerInstr holds the tuner's pre-resolved obs handles (nil-safe).
type tunerInstr struct {
	v, lambda, ema           *obs.Gauge
	vRaised, vLowered, refin *obs.Counter
}

// NewTuner wraps a CGBA-driven controller in the auto-tuner and arms the
// coarse λ (LambdaStart) for the first window.
// The controller must be exclusively owned by the tuner from here on.
func NewTuner(ctrl *core.Controller, cfg TunerConfig) (*Tuner, error) {
	if ctrl == nil {
		return nil, errors.New("policy: nil controller")
	}
	if ctrl.SolverName() != "CGBA" {
		return nil, fmt.Errorf("policy: the tuner drives CGBA's λ schedule, not %s", ctrl.SolverName())
	}
	cfg = cfg.withDefaults(ctrl.V())
	if cfg.LambdaTarget < 0 || cfg.LambdaTarget >= 0.125 ||
		cfg.LambdaStart >= 0.125 || cfg.LambdaStart < cfg.LambdaTarget {
		return nil, fmt.Errorf("policy: tuner λ schedule %v → %v outside [target, 0.125)", cfg.LambdaStart, cfg.LambdaTarget)
	}
	t := &Tuner{ctrl: ctrl, cfg: cfg, lambda: cfg.LambdaStart}
	if err := ctrl.SetLambda(t.lambda); err != nil {
		return nil, err
	}
	return t, nil
}

// Name identifies the policy.
func (t *Tuner) Name() string { return BDMATuned }

// System returns the wrapped controller's system.
func (t *Tuner) System() *core.System { return t.ctrl.System() }

// Slot returns the last decided slot index.
func (t *Tuner) Slot() int { return t.ctrl.Slot() }

// V returns the current (adapted) penalty weight.
func (t *Tuner) V() float64 { return t.ctrl.V() }

// Backlog returns the controller's virtual-queue backlog Q(t).
func (t *Tuner) Backlog() float64 { return t.ctrl.Backlog() }

// Lambda returns the current λ of the coarse-to-fine schedule.
func (t *Tuner) Lambda() float64 { return t.lambda }

// Controller returns the wrapped controller — for configuration (pools,
// shards, deadlines) before stepping starts, like serve.Daemon's
// accessor; stepping it directly desynchronizes the tuner's windows.
func (t *Tuner) Controller() *core.Controller { return t.ctrl }

// SetPool forwards the intra-slot worker pool to the controller.
func (t *Tuner) SetPool(p *par.Pool) { t.ctrl.SetPool(p) }

// SetSlotDeadline forwards the slot budgets to the controller.
func (t *Tuner) SetSlotDeadline(budget time.Duration, checks int) {
	t.ctrl.SetSlotDeadline(budget, checks)
}

// SolverName identifies the backing P2-A solver.
func (t *Tuner) SolverName() string { return t.ctrl.SolverName() }

// Decide runs the controller's slot and then feeds the adaptation loop:
// window statistics accumulate every slot, and the knobs move at window
// boundaries (see the type comment for the control law).
func (t *Tuner) Decide(slot int, st *trace.State) (*core.SlotResult, error) {
	res, err := t.ctrl.Decide(slot, st)
	if err != nil {
		return nil, err
	}
	t.winN++
	t.winBacklog += res.Backlog
	t.winIters += float64(res.SolverIterations)
	if t.winN >= t.cfg.Window {
		t.adapt()
	}
	t.instr.v.Set(t.ctrl.V())
	t.instr.lambda.Set(t.lambda)
	t.instr.ema.Set(t.emaIters)
	return res, nil
}

// adapt closes a window: update the iteration EMA, refine λ when the
// solve has stabilized, and step V against the backlog reference band.
func (t *Tuner) adapt() {
	avgBacklog := t.winBacklog / float64(t.winN)
	avgIters := t.winIters / float64(t.winN)
	t.winN, t.winBacklog, t.winIters = 0, 0, 0

	t.prevEma = t.emaIters
	if t.emaIters == 0 {
		t.emaIters = avgIters
	} else {
		t.emaIters = 0.5*t.emaIters + 0.5*avgIters
	}

	if !t.haveRef {
		// The first window calibrates the backlog reference; the knobs
		// hold so the reference reflects the configured V.
		t.refBacklog = avgBacklog
		t.haveRef = true
		return
	}

	if !t.refined && t.prevEma > 0 &&
		math.Abs(t.emaIters-t.prevEma) <= t.cfg.StableFrac*t.prevEma {
		next := t.cfg.LambdaTarget + (t.lambda-t.cfg.LambdaTarget)/2
		if next-t.cfg.LambdaTarget < 1e-4 {
			next = t.cfg.LambdaTarget
			t.refined = true
		}
		// The wrapped solver is CGBA by construction and λ stays in range
		// by the schedule invariant, so this cannot fail.
		_ = t.ctrl.SetLambda(next)
		t.lambda = next
		t.instr.refin.Inc()
	}

	ref := math.Max(t.refBacklog, 1e-9)
	switch {
	case avgBacklog > ref*t.cfg.BacklogHigh:
		if v := math.Max(t.ctrl.V()/t.cfg.VStep, t.cfg.VMin); v < t.ctrl.V() {
			_ = t.ctrl.SetV(v)
			t.instr.vLowered.Inc()
		}
	case avgBacklog < ref*t.cfg.BacklogLow:
		if v := math.Min(t.ctrl.V()*t.cfg.VStep, t.cfg.VMax); v > t.ctrl.V() {
			_ = t.ctrl.SetV(v)
			t.instr.vRaised.Inc()
		}
	}
}

// boolToFloat encodes a flag into the checkpoint's Extra map.
func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Checkpoint captures the controller checkpoint plus the tuner's knob
// and window state in the Extra map, so a restored tuner resumes the
// same trajectory (windows included).
func (t *Tuner) Checkpoint() core.Checkpoint {
	cp := t.ctrl.Checkpoint()
	cp.Extra = map[string]float64{
		"tuner_lambda":      t.lambda,
		"tuner_refined":     boolToFloat(t.refined),
		"tuner_ref_backlog": t.refBacklog,
		"tuner_have_ref":    boolToFloat(t.haveRef),
		"tuner_ema":         t.emaIters,
		"tuner_prev_ema":    t.prevEma,
		"tuner_win_n":       float64(t.winN),
		"tuner_win_backlog": t.winBacklog,
		"tuner_win_iters":   t.winIters,
	}
	return cp
}

// Restore rewinds the tuner: the adapted knobs (V, λ) are
// re-applied to the controller before its own restore so the V guard
// compares adapted-to-adapted, then the window state resumes from Extra.
func (t *Tuner) Restore(cp core.Checkpoint) error {
	if len(cp.Extra) == 0 {
		return errors.New("policy: checkpoint has no tuner state (taken from plain bdma?)")
	}
	lambda, ok := cp.Extra["tuner_lambda"]
	if !ok {
		return errors.New("policy: checkpoint tuner state lacks λ")
	}
	if err := t.ctrl.SetV(cp.V); err != nil {
		return err
	}
	if err := t.ctrl.SetLambda(lambda); err != nil {
		return err
	}
	t.lambda = lambda
	t.refined = cp.Extra["tuner_refined"] != 0
	inner := cp
	inner.Extra = nil
	if err := t.ctrl.Restore(inner); err != nil {
		return err
	}
	t.refBacklog = cp.Extra["tuner_ref_backlog"]
	t.haveRef = cp.Extra["tuner_have_ref"] != 0
	t.emaIters = cp.Extra["tuner_ema"]
	t.prevEma = cp.Extra["tuner_prev_ema"]
	t.winN = int(cp.Extra["tuner_win_n"])
	t.winBacklog = cp.Extra["tuner_win_backlog"]
	t.winIters = cp.Extra["tuner_win_iters"]
	return nil
}

// SetObs attaches an observability registry: the controller's series
// plus the tuner.* trajectory series (nil detaches).
func (t *Tuner) SetObs(reg *obs.Registry) {
	t.ctrl.SetObs(reg)
	t.instr = tunerInstr{
		v:        reg.Gauge(MetricTunerV),
		lambda:   reg.Gauge(MetricTunerLambda),
		ema:      reg.Gauge(MetricTunerIters),
		vRaised:  reg.Counter(MetricTunerVRaised),
		vLowered: reg.Counter(MetricTunerVLowered),
		refin:    reg.Counter(MetricTunerRefined),
	}
}

// The tuner satisfies the seam and the optional capabilities.
var (
	_ Policy         = (*Tuner)(nil)
	_ DeadlineSetter = (*Tuner)(nil)
	_ PoolSetter     = (*Tuner)(nil)
	_ SolverNamer    = (*Tuner)(nil)
)
