package modelobs

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"dfpc/internal/faults"
	"dfpc/internal/obs"
)

// Defaults for the sliding-window sketch: 16 windows of 256
// predictions retain the last 4096 predictions.
const (
	DefaultWindowSize = 256
	DefaultWindows    = 16
)

// topPatternLimit caps how many drifting patterns a DriftReport
// lists.
const topPatternLimit = 10

// Drift dimension names, in the fixed order reports emit them.
const (
	DimClassMix    = "class_mix"
	DimPatternFire = "pattern_fire"
	DimConfidence  = "confidence"
	DimDensity     = "density"
	DimLowConf     = "low_conf"
)

const numDims = 5

// TrackerConfig configures a Tracker.
type TrackerConfig struct {
	// WindowSize is the predictions per sketch window (0 =
	// DefaultWindowSize).
	WindowSize int
	// Windows is the ring width (0 = DefaultWindows).
	Windows int
	// WarnPSI, when > 0, logs WARN and bumps the drift.warnings
	// counter whenever the max per-dimension PSI crosses it at a
	// window boundary.
	WarnPSI float64
	// Obs, when non-nil, receives the dfpc_drift_* gauges and
	// counters. Nil disables recording.
	Obs *obs.Observer
	// Log, when non-nil, receives the WarnPSI threshold WARNs.
	Log *slog.Logger
}

// DimScore is one dimension's live-vs-baseline divergence.
type DimScore struct {
	Name   string  `json:"name"`
	PSI    float64 `json:"psi"`
	Chi2   float64 `json:"chi2"`
	DF     int     `json:"df"`
	PValue float64 `json:"p_value"`
}

// PatternDrift is one pattern feature's fire-rate drift.
type PatternDrift struct {
	// Index is the pattern's position in the selected-feature list
	// (feature ID = numItems + Index).
	Index    int     `json:"index"`
	BaseRate float64 `json:"base_rate"`
	LiveRate float64 `json:"live_rate"`
	PSI      float64 `json:"psi"`
}

// DriftReport is the full live-vs-baseline divergence picture: the
// /drift endpoint's payload and the journal `drift` record. Field
// order is fixed and there are no maps or timestamps, so identical
// tracker state marshals to identical bytes.
type DriftReport struct {
	// Bound reports whether a baseline has been attached; all other
	// fields are zero until the first tracked Predict call.
	Bound bool `json:"bound"`
	// BaselineRows is the training-row count behind the baseline.
	BaselineRows int `json:"baseline_rows"`
	// Predictions is the lifetime tracked-prediction count;
	// WindowSize/Windows/Advanced describe the sketch ring.
	Predictions int64 `json:"predictions"`
	WindowSize  int   `json:"window_size"`
	Windows     int   `json:"windows"`
	Advanced    int64 `json:"advanced"`
	// WarnPSI and Warnings mirror the -drift-warn threshold state.
	WarnPSI  float64 `json:"warn_psi,omitempty"`
	Warnings int64   `json:"warnings"`
	// MaxPSI is the worst per-dimension PSI; Dimensions lists all
	// five in fixed order (class_mix, pattern_fire, confidence,
	// density, low_conf).
	MaxPSI     float64    `json:"max_psi"`
	Dimensions []DimScore `json:"dimensions"`
	// ClassMixBase/Live expose the class-mix proportions behind the
	// first dimension (the one operators ask about first).
	ClassMixBase []float64 `json:"class_mix_base,omitempty"`
	ClassMixLive []float64 `json:"class_mix_live,omitempty"`
	// LowConfRate is the live low-confidence rate vs the baseline's.
	LowConfBase float64 `json:"low_conf_base,omitempty"`
	LowConfLive float64 `json:"low_conf_live,omitempty"`
	// TopPatterns lists the most-drifted pattern fire rates, PSI
	// descending then index ascending, capped at 10.
	TopPatterns []PatternDrift `json:"top_patterns,omitempty"`
}

// Tracker streams predictions into a Sketch bound to a Baseline and
// re-scores divergence at every window boundary. All methods are
// nil-safe — a nil *Tracker is the disabled state and costs one
// pointer compare in the hot path. A single Tracker is safe for
// concurrent use; CV folds share one tracker (the first fitted
// fold's baseline wins) so a cross-validated run reports one drift
// stream.
type Tracker struct {
	mu     sync.Mutex
	cfg    TrackerConfig
	faults *faults.Registry

	base   *Baseline
	sketch *Sketch

	// Precomputed at Bind so the hot path never normalizes.
	baseConfProp    []float64
	baseDensityProp []float64

	// Aggregation scratch reused at every window boundary.
	aggClasses []int64
	aggFire    []int64
	aggConf    []int64
	aggDensity []int64
	liveMix    []float64

	scores     [numDims]DimScore
	maxPSI     float64
	warnings   int64
	aggN       int64 // totals behind the last scoreLocked pass
	aggLowConf int64

	// Telemetry handles resolved once at Bind (obs types are
	// nil-safe, so these work unregistered too).
	gClassMix, gPatternFire, gConfidence *obs.Gauge
	gDensity, gLowConf, gMax             *obs.Gauge
	cWindows, cPredictions, cWarnings    *obs.Counter
}

// NewTracker builds a drift tracker. The sketch is allocated lazily
// at Bind, when the baseline's class and pattern arities are known.
func NewTracker(cfg TrackerConfig) *Tracker {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = DefaultWindowSize
	}
	if cfg.Windows <= 0 {
		cfg.Windows = DefaultWindows
	}
	return &Tracker{cfg: cfg}
}

// SetFaults wires the fault-injection registry; Report passes
// through the modelobs.snapshot point. Nil-safe.
func (t *Tracker) SetFaults(r *faults.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.faults = r
	t.mu.Unlock()
}

// Bind attaches the baseline the live stream is compared against and
// allocates the sketch. The first baseline wins: CV folds share one
// tracker and must all score against the same reference. Nil-safe
// (nil tracker or nil baseline is a no-op).
func (t *Tracker) Bind(b *Baseline) {
	if t == nil || !b.Valid() {
		return
	}
	t.mu.Lock()
	if t.base == nil {
		t.bindLocked(b)
	}
	t.mu.Unlock()
}

func (t *Tracker) bindLocked(b *Baseline) {
	t.base = b
	t.sketch = NewSketch(t.cfg.WindowSize, t.cfg.Windows, b.NumClasses, len(b.FireRate))
	t.baseConfProp = proportions(b.ConfHist)
	t.baseDensityProp = proportions(b.DensityHist)
	t.aggClasses = make([]int64, b.NumClasses)
	t.aggFire = make([]int64, len(b.FireRate))
	t.aggConf = make([]int64, obs.NumHistBuckets)
	t.aggDensity = make([]int64, obs.NumHistBuckets)
	t.liveMix = make([]float64, b.NumClasses)
	o := t.cfg.Obs
	t.gClassMix = o.Gauge("drift.psi.class_mix")
	t.gPatternFire = o.Gauge("drift.psi.pattern_fire")
	t.gConfidence = o.Gauge("drift.psi.confidence")
	t.gDensity = o.Gauge("drift.psi.density")
	t.gLowConf = o.Gauge("drift.psi.low_conf")
	t.gMax = o.Gauge("drift.psi.max")
	t.cWindows = o.Counter("drift.windows")
	t.cPredictions = o.Counter("drift.predictions")
	t.cWarnings = o.Counter("drift.warnings")
}

// Bound reports whether a baseline is attached. Nil-safe.
func (t *Tracker) Bound() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base != nil
}

// ObserveRow records one prediction: its class, confidence
// (micro-units), and the row's feature vector (fv) whose tail ≥
// numItems holds the fired pattern features. Allocation-free; called
// per row from the Predict hot path. Nil-safe.
func (t *Tracker) ObserveRow(class int, confMicro int64, fv []int32, numItems int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.base == nil {
		t.mu.Unlock()
		return
	}
	for j := len(fv) - 1; j >= 0 && fv[j] >= numItems; j-- {
		t.sketch.MarkFire(int(fv[j] - numItems))
	}
	t.cPredictions.Inc()
	if t.sketch.Observe(class, len(fv), confMicro, confMicro <= t.base.LowConfCut) {
		t.advanceLocked()
	}
	t.mu.Unlock()
}

// advanceLocked re-scores drift over the whole ring at a window
// boundary and publishes gauges; amortized once per WindowSize
// predictions. Caller holds t.mu.
func (t *Tracker) advanceLocked() {
	t.scoreLocked()
	t.gClassMix.Set(t.scores[0].PSI)
	t.gPatternFire.Set(t.scores[1].PSI)
	t.gConfidence.Set(t.scores[2].PSI)
	t.gDensity.Set(t.scores[3].PSI)
	t.gLowConf.Set(t.scores[4].PSI)
	t.gMax.Set(t.maxPSI)
	t.cWindows.Inc()
	if t.cfg.WarnPSI > 0 && t.maxPSI > t.cfg.WarnPSI {
		t.warnings++
		t.cWarnings.Inc()
		if t.cfg.Log != nil {
			t.cfg.Log.LogAttrs(context.Background(), slog.LevelWarn,
				"drift: live distribution diverges from training baseline",
				slog.Float64("max_psi", t.maxPSI),
				slog.Float64("threshold", t.cfg.WarnPSI),
				slog.Int64("predictions", t.sketch.Total()))
		}
	}
}

// scoreLocked recomputes all five dimension scores from the ring
// aggregate. Allocation-free: every buffer was sized at Bind.
// Caller holds t.mu.
func (t *Tracker) scoreLocked() {
	clearInt64(t.aggClasses)
	clearInt64(t.aggFire)
	clearInt64(t.aggConf)
	clearInt64(t.aggDensity)
	n, lowConf := t.sketch.AggregateInto(t.aggClasses, t.aggFire, t.aggConf, t.aggDensity)
	t.aggN, t.aggLowConf = n, lowConf

	// class_mix: live predicted-class distribution vs the baseline's
	// training-time predicted mix.
	s := &t.scores[0]
	s.Name = DimClassMix
	s.PSI = PSI(t.base.PredMix, t.aggClasses, n)
	s.Chi2, s.DF = ChiSquare(t.aggClasses, t.base.PredMix)
	s.PValue = ChiSquarePValue(s.Chi2, s.DF)

	// pattern_fire: worst single pattern's fire-rate drift.
	s = &t.scores[1]
	s.Name = DimPatternFire
	s.PSI, s.Chi2, s.DF = 0, 0, 0
	worst := -1
	for j, base := range t.base.FireRate {
		if n == 0 {
			break
		}
		live := float64(t.aggFire[j]) / float64(n)
		if p := PSIBinary(base, live); p > s.PSI {
			s.PSI = p
			worst = j
		}
	}
	if worst >= 0 {
		s.Chi2, s.DF = ChiSquareBinary(t.aggFire[worst], n, t.base.FireRate[worst])
	}
	s.PValue = ChiSquarePValue(s.Chi2, s.DF)

	// confidence: live margin/leaf-purity distribution vs training.
	s = &t.scores[2]
	s.Name = DimConfidence
	s.PSI, s.Chi2, s.DF = 0, 0, 0
	if t.baseConfProp != nil {
		s.PSI = PSI(t.baseConfProp, t.aggConf, n)
		s.Chi2, s.DF = ChiSquare(t.aggConf, t.baseConfProp)
	}
	s.PValue = ChiSquarePValue(s.Chi2, s.DF)

	// density: feature-vector length distribution.
	s = &t.scores[3]
	s.Name = DimDensity
	s.PSI, s.Chi2, s.DF = 0, 0, 0
	if t.baseDensityProp != nil {
		s.PSI = PSI(t.baseDensityProp, t.aggDensity, n)
		s.Chi2, s.DF = ChiSquare(t.aggDensity, t.baseDensityProp)
	}
	s.PValue = ChiSquarePValue(s.Chi2, s.DF)

	// low_conf: abstain/low-confidence rate vs the baseline's p10.
	s = &t.scores[4]
	s.Name = DimLowConf
	s.PSI, s.Chi2, s.DF = 0, 0, 0
	if n > 0 {
		live := float64(lowConf) / float64(n)
		s.PSI = PSIBinary(t.base.LowConfRate, live)
		s.Chi2, s.DF = ChiSquareBinary(lowConf, n, t.base.LowConfRate)
	}
	s.PValue = ChiSquarePValue(s.Chi2, s.DF)

	t.maxPSI = 0
	for i := range t.scores {
		if t.scores[i].PSI > t.maxPSI {
			t.maxPSI = t.scores[i].PSI
		}
	}
}

// Warnings returns how many window boundaries crossed the WarnPSI
// threshold. Nil-safe.
func (t *Tracker) Warnings() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.warnings
}

// SketchSnapshot exposes the live sketch aggregate for the
// determinism suite. Nil-safe.
func (t *Tracker) SketchSnapshot() SketchSnapshot {
	if t == nil {
		return SketchSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sketch.Snapshot()
}

// Report re-scores drift over the current ring (including the
// partial window) and returns the full divergence picture. It
// passes through the modelobs.snapshot fault point. A nil tracker
// returns (nil, nil) — drift tracking disabled. Cold path.
func (t *Tracker) Report() (*DriftReport, error) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.faults.Hit(faults.ModelobsSnapshot); err != nil {
		return nil, fmt.Errorf("modelobs: snapshot: %w", err)
	}
	rep := &DriftReport{
		WarnPSI:  t.cfg.WarnPSI,
		Warnings: t.warnings,
	}
	if t.base == nil {
		return rep, nil
	}
	t.scoreLocked()
	rep.Bound = true
	rep.BaselineRows = t.base.Rows
	rep.Predictions = t.sketch.Total()
	rep.WindowSize = t.cfg.WindowSize
	rep.Windows = t.cfg.Windows
	rep.Advanced = t.sketch.Advanced()
	rep.MaxPSI = t.maxPSI
	rep.Dimensions = make([]DimScore, numDims)
	copy(rep.Dimensions, t.scores[:])

	rep.ClassMixBase = append([]float64(nil), t.base.PredMix...)
	rep.ClassMixLive = make([]float64, len(t.aggClasses))
	if t.aggN > 0 {
		for i, c := range t.aggClasses {
			rep.ClassMixLive[i] = float64(c) / float64(t.aggN)
		}
	}
	rep.LowConfBase = t.base.LowConfRate
	if t.aggN > 0 {
		rep.LowConfLive = float64(t.aggLowConf) / float64(t.aggN)
	}
	rep.TopPatterns = t.topPatternsLocked(t.aggN)
	return rep, nil
}

// topPatternsLocked ranks pattern fire-rate drift PSI-descending
// (ties index-ascending) over the current aggregate. Caller holds
// t.mu and has just run scoreLocked (aggFire is fresh).
func (t *Tracker) topPatternsLocked(n int64) []PatternDrift {
	if n == 0 || len(t.base.FireRate) == 0 {
		return nil
	}
	all := make([]PatternDrift, len(t.base.FireRate))
	for j, base := range t.base.FireRate {
		live := float64(t.aggFire[j]) / float64(n)
		all[j] = PatternDrift{Index: j, BaseRate: base, LiveRate: live, PSI: PSIBinary(base, live)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].PSI > all[j].PSI {
			return true
		}
		if all[i].PSI < all[j].PSI {
			return false
		}
		return all[i].Index < all[j].Index
	})
	if len(all) > topPatternLimit {
		all = all[:topPatternLimit]
	}
	return all
}

// GobEncode makes a Tracker transparent to gob: a tracker is live
// telemetry state, never part of a model artifact (mirrors
// faults.Registry). Nil-safe.
func (t *Tracker) GobEncode() ([]byte, error) {
	if t == nil {
		return nil, nil
	}
	return nil, nil
}

// GobDecode restores nothing, leaving the tracker zero. Nil-safe.
func (t *Tracker) GobDecode([]byte) error {
	return nil
}
