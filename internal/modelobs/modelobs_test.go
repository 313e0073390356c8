package modelobs

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"dfpc/internal/faults"
	"dfpc/internal/obs"
)

func TestPSIIdenticalIsZero(t *testing.T) {
	base := []float64{0.5, 0.3, 0.2}
	live := []int64{50, 30, 20}
	if got := PSI(base, live, 100); math.Abs(got) > 1e-9 {
		t.Errorf("PSI of identical distributions = %g, want ~0", got)
	}
	if got := PSI(base, nil, 0); got != 0 {
		t.Errorf("PSI with no live observations = %g, want 0", got)
	}
}

func TestPSIDetectsShift(t *testing.T) {
	base := []float64{0.5, 0.5}
	flipped := []int64{90, 10}
	got := PSI(base, flipped, 100)
	if got < 0.25 {
		t.Errorf("PSI of a 50/50 -> 90/10 shift = %g, want > 0.25 (significant)", got)
	}
	mild := []int64{55, 45}
	if m := PSI(base, mild, 100); m >= got || m < 0 {
		t.Errorf("mild shift PSI = %g, want in (0, %g)", m, got)
	}
}

func TestPSIBinary(t *testing.T) {
	if got := PSIBinary(0.3, 0.3); math.Abs(got) > 1e-9 {
		t.Errorf("PSIBinary(0.3, 0.3) = %g, want ~0", got)
	}
	if got := PSIBinary(0.1, 0.9); got < 0.25 {
		t.Errorf("PSIBinary(0.1, 0.9) = %g, want large", got)
	}
	// Zero rates must stay finite through the smoothing floor.
	if got := PSIBinary(0, 0.5); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("PSIBinary(0, 0.5) = %g, want finite", got)
	}
}

func TestChiSquare(t *testing.T) {
	// Observed 60/40 vs expected 50/50 over n=100:
	// (60-50)^2/50 + (40-50)^2/50 = 4.
	stat, df := ChiSquare([]int64{60, 40}, []float64{0.5, 0.5})
	if math.Abs(stat-4) > 1e-9 || df != 1 {
		t.Errorf("ChiSquare = (%g, %d), want (4, 1)", stat, df)
	}
	if stat, df := ChiSquare([]int64{0, 0}, []float64{0.5, 0.5}); stat != 0 || df != 0 {
		t.Errorf("empty observation ChiSquare = (%g, %d), want (0, 0)", stat, df)
	}
}

func TestChiSquarePValue(t *testing.T) {
	// chi2(1) critical value 3.84 <-> p 0.05; Wilson-Hilferty is an
	// approximation, so allow a loose band.
	p := ChiSquarePValue(3.84, 1)
	if p < 0.02 || p > 0.09 {
		t.Errorf("p(3.84, df=1) = %g, want ~0.05", p)
	}
	if p := ChiSquarePValue(0, 1); p != 1 {
		t.Errorf("p(0, df=1) = %g, want 1", p)
	}
	if p := ChiSquarePValue(100, 1); p > 1e-6 {
		t.Errorf("p(100, df=1) = %g, want ~0", p)
	}
	if p := ChiSquarePValue(5, 0); p != 1 {
		t.Errorf("p with df=0 = %g, want 1", p)
	}
}

func TestConfMicro(t *testing.T) {
	if got := ConfMicro(1.5); got != 1_500_000 {
		t.Errorf("ConfMicro(1.5) = %d, want 1500000", got)
	}
	if got := ConfMicro(-0.5); got != 0 {
		t.Errorf("ConfMicro(-0.5) = %d, want 0", got)
	}
}

func TestSketchWindowAdvance(t *testing.T) {
	s := NewSketch(4, 2, 2, 1)
	advances := 0
	for i := 0; i < 8; i++ {
		s.MarkFire(0)
		if s.Observe(i%2, 3, 0, false) {
			advances++
		}
	}
	if advances != 2 {
		t.Errorf("8 observations at window size 4: %d advances, want 2", advances)
	}
	if s.Total() != 8 || s.Advanced() != 2 {
		t.Errorf("Total/Advanced = %d/%d, want 8/2", s.Total(), s.Advanced())
	}
	classes := make([]int64, 2)
	fire := make([]int64, 1)
	conf := make([]int64, obs.NumHistBuckets)
	density := make([]int64, obs.NumHistBuckets)
	n, _ := s.AggregateInto(classes, fire, conf, density)
	// Each advance resets the window it enters, so after the ring
	// wraps the aggregate holds the last full window (the first 4
	// observations were discarded when the ring came back around).
	if n != 4 {
		t.Errorf("ring aggregate n = %d, want 4 (oldest window discarded on wrap)", n)
	}
	if classes[0]+classes[1] != 4 || fire[0] != 4 {
		t.Errorf("aggregate classes=%v fire=%v, want sums 4/4", classes, fire)
	}
}

func TestSketchRingDiscardsOldest(t *testing.T) {
	s := NewSketch(2, 2, 1, 0)
	for i := 0; i < 6; i++ {
		s.Observe(0, 1, 0, false)
	}
	classes := make([]int64, 1)
	conf := make([]int64, obs.NumHistBuckets)
	density := make([]int64, obs.NumHistBuckets)
	n, _ := s.AggregateInto(classes, nil, conf, density)
	// Capacity is 4; after 6 observations the ring holds at most 4
	// (2 full windows; the current one was just reset).
	if n > 4 {
		t.Errorf("ring retains %d observations, capacity is %d", n, s.Capacity())
	}
	if s.Total() != 6 {
		t.Errorf("Total = %d, want 6 (lifetime count keeps growing)", s.Total())
	}
}

func TestSketchNilSafe(t *testing.T) {
	var s *Sketch
	s.MarkFire(0)
	if s.Observe(0, 1, 0, false) {
		t.Error("nil sketch Observe returned true")
	}
	if s.Total() != 0 || s.Advanced() != 0 || s.Capacity() != 0 {
		t.Error("nil sketch accessors not zero")
	}
	if snap := s.Snapshot(); snap.Total != 0 {
		t.Error("nil sketch Snapshot not zero")
	}
	n, _ := s.AggregateInto(nil, nil, nil, nil)
	if n != 0 {
		t.Error("nil sketch AggregateInto not zero")
	}
}

func testBaseline() *Baseline {
	return &Baseline{
		Rows:        100,
		NumClasses:  2,
		Priors:      []float64{0.5, 0.5},
		PredMix:     []float64{0.5, 0.5},
		FireRate:    []float64{0.4, 0.1},
		ConfHist:    mkHist(map[int]int64{20: 50, 21: 50}),
		DensityHist: mkHist(map[int]int64{3: 100}),
		LowConfCut:  500_000,
		LowConfRate: 0.1,
	}
}

func mkHist(buckets map[int]int64) []int64 {
	h := make([]int64, obs.NumHistBuckets)
	for i, c := range buckets {
		h[i] = c
	}
	return h
}

func TestBaselineNilSafe(t *testing.T) {
	var b *Baseline
	if b.Valid() || b.NumPatterns() != 0 || b.Classes() != 0 {
		t.Error("nil baseline accessors not zero")
	}
	if !testBaseline().Valid() {
		t.Error("populated baseline not Valid")
	}
}

func TestTrackerObserveAndReport(t *testing.T) {
	tr := NewTracker(TrackerConfig{WindowSize: 4, Windows: 4, WarnPSI: 0.05})
	tr.Bind(testBaseline())
	if !tr.Bound() {
		t.Fatal("tracker not bound")
	}
	// Feed a heavily shifted stream: always class 1, pattern 0 never
	// fires (baseline 0.4), confidence far below the cut.
	fv := []int32{1, 2, 11} // numItems=10: pattern index 1 fires
	for i := 0; i < 16; i++ {
		tr.ObserveRow(1, 100, fv, 10)
	}
	if tr.Warnings() == 0 {
		t.Error("shifted stream crossed no WarnPSI windows")
	}
	rep, err := tr.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if !rep.Bound || rep.Predictions != 16 || rep.BaselineRows != 100 {
		t.Errorf("report header = %+v", rep)
	}
	if len(rep.Dimensions) != 5 {
		t.Fatalf("report has %d dimensions, want 5", len(rep.Dimensions))
	}
	order := []string{DimClassMix, DimPatternFire, DimConfidence, DimDensity, DimLowConf}
	for i, d := range rep.Dimensions {
		if d.Name != order[i] {
			t.Errorf("dimension %d = %q, want %q", i, d.Name, order[i])
		}
	}
	if rep.MaxPSI < 0.25 {
		t.Errorf("MaxPSI = %g, want significant (> 0.25)", rep.MaxPSI)
	}
	if rep.Dimensions[0].PSI <= 0 {
		t.Errorf("class_mix PSI = %g, want > 0 (all-class-1 stream vs 50/50)", rep.Dimensions[0].PSI)
	}
	// Pattern 1 drifted 0.1 -> 1.0 (every row fires it), pattern 0
	// drifted 0.4 -> 0; both must appear, worst first.
	if len(rep.TopPatterns) != 2 || rep.TopPatterns[0].Index != 1 || rep.TopPatterns[1].Index != 0 {
		t.Errorf("top patterns = %+v, want [pattern 1, pattern 0]", rep.TopPatterns)
	}
	if rep.TopPatterns[0].PSI < rep.TopPatterns[1].PSI {
		t.Error("top patterns not PSI-descending")
	}
	if rep.LowConfLive <= rep.LowConfBase {
		t.Errorf("low-conf live %g <= base %g, want higher (all rows below cut)", rep.LowConfLive, rep.LowConfBase)
	}
}

func TestTrackerReportDeterministicBytes(t *testing.T) {
	mk := func() []byte {
		tr := NewTracker(TrackerConfig{WindowSize: 4, Windows: 4})
		tr.Bind(testBaseline())
		for i := 0; i < 10; i++ {
			tr.ObserveRow(i%2, int64(400_000+i), []int32{1, 10}, 10)
		}
		rep, err := tr.Report()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := mk(), mk()
	if string(a) != string(b) {
		t.Errorf("identical streams produced different report bytes:\n%s\n%s", a, b)
	}
}

func TestTrackerUnboundAndNil(t *testing.T) {
	var nilT *Tracker
	nilT.ObserveRow(0, 0, nil, 0)
	nilT.Bind(testBaseline())
	nilT.SetFaults(nil)
	if nilT.Bound() || nilT.Warnings() != 0 {
		t.Error("nil tracker state not zero")
	}
	rep, err := nilT.Report()
	if rep != nil || err != nil {
		t.Errorf("nil tracker Report = (%v, %v), want (nil, nil)", rep, err)
	}

	tr := NewTracker(TrackerConfig{})
	tr.ObserveRow(0, 0, nil, 0) // unbound: dropped, no panic
	rep, err = tr.Report()
	if err != nil {
		t.Fatalf("unbound Report: %v", err)
	}
	if rep.Bound {
		t.Error("unbound tracker reports Bound")
	}
	// Binding an invalid baseline stays unbound.
	tr.Bind(&Baseline{})
	if tr.Bound() {
		t.Error("invalid baseline bound")
	}
}

func TestTrackerFirstBaselineWins(t *testing.T) {
	tr := NewTracker(TrackerConfig{WindowSize: 4})
	first := testBaseline()
	tr.Bind(first)
	second := testBaseline()
	second.Rows = 999
	tr.Bind(second)
	rep, err := tr.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineRows != 100 {
		t.Errorf("BaselineRows = %d, want the first bind's 100", rep.BaselineRows)
	}
}

func TestTrackerReportFaultInjection(t *testing.T) {
	r := faults.New()
	r.Arm(faults.ModelobsSnapshot, 1, faults.ErrInjected)
	tr := NewTracker(TrackerConfig{})
	tr.SetFaults(r)
	tr.Bind(testBaseline())
	if _, err := tr.Report(); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("armed Report error = %v, want ErrInjected", err)
	}
	// The next hit passes.
	if _, err := tr.Report(); err != nil {
		t.Errorf("second Report after one-shot arm: %v", err)
	}
}

func TestTrackerGobTransparent(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	tr.Bind(testBaseline())
	buf, err := tr.GobEncode()
	if err != nil || buf != nil {
		t.Errorf("GobEncode = (%v, %v), want (nil, nil)", buf, err)
	}
	var nilT *Tracker
	if buf, err := nilT.GobEncode(); err != nil || buf != nil {
		t.Errorf("nil GobEncode = (%v, %v), want (nil, nil)", buf, err)
	}
	if err := tr.GobDecode(nil); err != nil {
		t.Errorf("GobDecode: %v", err)
	}
}

func TestTrackerGaugesPublished(t *testing.T) {
	o := obs.New()
	tr := NewTracker(TrackerConfig{WindowSize: 2, Windows: 2, Obs: o})
	tr.Bind(testBaseline())
	for i := 0; i < 4; i++ {
		tr.ObserveRow(1, 100, []int32{1}, 10)
	}
	rep := o.Report("test")
	if rep.Counters["drift.predictions"] != 4 {
		t.Errorf("drift.predictions = %d, want 4", rep.Counters["drift.predictions"])
	}
	if rep.Counters["drift.windows"] != 2 {
		t.Errorf("drift.windows = %d, want 2", rep.Counters["drift.windows"])
	}
	if _, ok := rep.Gauges["drift.psi.max"]; !ok {
		t.Error("drift.psi.max gauge not published")
	}
}
