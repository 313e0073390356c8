package core

import (
	"context"
	"errors"
	"fmt"

	"dfpc/internal/c45"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/faults"
	"dfpc/internal/modelobs"
	"dfpc/internal/patmatch"
	"dfpc/internal/svm"
)

// The streaming predict path. The fit path materializes a discretized
// dataset and a full binary encoding because mining needs the vertical
// bitset views; prediction needs neither — each row is encoded, mapped
// into the fitted feature space, and scored independently. rowCoder
// fuses discretize.Apply + dataset.Encode into one per-value pass with
// no intermediate dataset, BatchPredictor carries every piece of
// per-batch scratch (encoder buffer, matcher scratch, feature vector,
// learner voting arrays), and together they hold the marginal cost of
// Predict at zero allocations per row — the serving-loop contract of
// ROADMAP item 1.

// coderAttr is one attribute's slice of the fitted item space.
type coderAttr struct {
	base    int32 // item ID of (attr, value 0); IDs ascend with attr index
	numeric bool
	numVals int // discretized bins (numeric) or category count
	name    string
}

// rowCoder encodes raw dataset rows straight into the fitted binary
// item space. Because item IDs are laid out attribute-major
// (dataset.NewSpace), encoding a row left to right emits IDs in
// ascending order — the sorted-transaction invariant every matcher and
// learner relies on — with no sort and no allocation.
type rowCoder struct {
	disc  *discretize.Discretizer
	attrs []coderAttr
	tx    []int32 // scratch; encode returns an alias
}

// newRowCoder derives the coder from the fitted discretizer. The
// fitted schema fixes the item space exactly, so a mismatch with
// p.numItems can only mean corrupted fitted state.
func (p *Pipeline) newRowCoder() (*rowCoder, error) {
	if p.disc == nil {
		return nil, errors.New("core: row coder before Fit")
	}
	schema := p.disc.SourceSchema()
	rc := &rowCoder{
		disc:  p.disc,
		attrs: make([]coderAttr, len(schema)),
		tx:    make([]int32, 0, len(schema)),
	}
	base := 0
	for a, attr := range schema {
		ca := coderAttr{
			base:    int32(base),
			numeric: attr.Kind == dataset.Numeric,
			numVals: p.disc.Bins(a),
			name:    attr.Name,
		}
		rc.attrs[a] = ca
		base += ca.numVals
	}
	if base != p.numItems {
		return nil, fmt.Errorf("core: coder item space %d != train %d", base, p.numItems)
	}
	return rc, nil
}

// checkSchema verifies d is column-compatible with the fitted schema
// before a batch runs, so per-row encoding only has to validate cell
// values.
func (rc *rowCoder) checkSchema(d *dataset.Dataset) error {
	if len(d.Attrs) != len(rc.attrs) {
		return fmt.Errorf("core: discretize test: schema mismatch: %d attrs vs fitted %d",
			len(d.Attrs), len(rc.attrs))
	}
	return nil
}

// encode maps one raw row into sorted item IDs of the fitted space.
// Missing cells contribute no item; a categorical cell outside the
// fitted vocabulary is an error (exactly what dataset.Validate rejects
// on the materialized path). The returned slice aliases rc.tx and is
// valid until the next encode call.
func (rc *rowCoder) encode(row []float64, rowIdx int) ([]int32, error) {
	if len(row) != len(rc.attrs) {
		return nil, fmt.Errorf("core: row %d has %d cells, want %d", rowIdx, len(row), len(rc.attrs))
	}
	tx := rc.tx[:0]
	for a := range rc.attrs {
		ca := &rc.attrs[a]
		v := row[a]
		if dataset.IsMissing(v) {
			continue
		}
		if ca.numeric {
			tx = append(tx, ca.base+int32(rc.disc.BinOf(a, v)))
			continue
		}
		vi := int(v)
		if float64(vi) != v || vi < 0 || vi >= ca.numVals {
			return nil, fmt.Errorf("core: row %d attr %q: bad category index %v", rowIdx, ca.name, v)
		}
		tx = append(tx, ca.base+int32(vi))
	}
	rc.tx = tx
	return tx, nil
}

// rowScorer scores fitted-space feature vectors with reusable scratch.
// predictConf additionally reports the learner's native confidence
// (SVM margin, C4.5 leaf purity); the class is always identical to
// predict's.
type rowScorer interface {
	predict(fv []int32) int
	predictConf(fv []int32) (cls int, conf float64)
}

type svmScorer struct{ s *svm.Scorer }

func (s svmScorer) predict(fv []int32) int                { return s.s.Predict(fv) }
func (s svmScorer) predictConf(fv []int32) (int, float64) { return s.s.PredictMargin(fv) }

type c45Scorer struct{ m *c45.Model }

func (s c45Scorer) predict(fv []int32) int                { return s.m.Predict(fv) }
func (s c45Scorer) predictConf(fv []int32) (int, float64) { return s.m.PredictConf(fv) }

// newRowScorer wraps the fitted model, an SVM or a C4.5 tree (the only
// models learn trains and Load accepts), in its scorer.
func (p *Pipeline) newRowScorer() rowScorer {
	if m, ok := p.model.(*svm.Model); ok {
		return svmScorer{s: m.NewScorer()}
	}
	return c45Scorer{m: p.model.(*c45.Model)}
}

// BatchPredictor is a reusable, single-goroutine prediction context
// bound to one fitted Pipeline: the row encoder, the pattern-matcher
// scratch, the feature-vector buffer, and the learner's voting scratch,
// allocated once and reused for every row of every batch. Serving
// loops should construct one per worker goroutine and call PredictInto
// per request batch; one-shot callers can use Pipeline.PredictBatch,
// which wraps construction and a single PredictInto.
type BatchPredictor struct {
	p      *Pipeline
	coder  *rowCoder
	scorer rowScorer
	ms     patmatch.Scratch
	fv     []int32
}

// NewBatchPredictor builds a predictor over the fitted state. It
// errors before Fit and whenever the fitted state is internally
// inconsistent.
func (p *Pipeline) NewBatchPredictor() (*BatchPredictor, error) {
	if p.model == nil {
		return nil, errors.New("core: NewBatchPredictor before Fit")
	}
	coder, err := p.newRowCoder()
	if err != nil {
		return nil, err
	}
	bp := &BatchPredictor{
		p:      p,
		coder:  coder,
		scorer: p.newRowScorer(),
		fv:     make([]int32, 0, len(coder.attrs)+len(p.patterns)),
	}
	bp.ms.Grow(p.matcher)
	return bp, nil
}

// featureVector encodes one raw row and maps it into the fitted
// feature space. The returned slice aliases the predictor's scratch
// and is valid until the next call.
func (b *BatchPredictor) featureVector(row []float64, rowIdx int) ([]int32, error) {
	tx, err := b.coder.encode(row, rowIdx)
	if err != nil {
		return nil, err
	}
	b.fv = b.p.featureVectorInto(b.fv[:0], tx, &b.ms)
	return b.fv, nil
}

// PredictInto classifies the given rows of d into out, which must have
// len(rows). Cancellation aborts the loop with an error satisfying
// errors.Is(err, guard.ErrCanceled) or guard.ErrDeadline. When the
// pipeline carries a drift tracker and a fit-time baseline, every row
// is additionally streamed into the drift sketch; either way the
// marginal cost per row is zero allocations.
func (b *BatchPredictor) PredictInto(ctx context.Context, d *dataset.Dataset, rows []int, out []int) error {
	p := b.p
	if len(out) != len(rows) {
		return fmt.Errorf("core: PredictInto: out has %d slots for %d rows", len(out), len(rows))
	}
	g := p.stageGuard(ctx)
	if err := g.CheckNow(); err != nil {
		return err
	}
	if err := p.cfg.Faults.Hit(faults.CorePredict); err != nil {
		return fmt.Errorf("core: predict: %w", err)
	}
	sp := p.cfg.Obs.Start("predict").Attr("rows", len(rows))
	defer sp.End()
	if err := b.coder.checkSchema(d); err != nil {
		return err
	}
	if t := p.cfg.Drift; t != nil && p.baseline.Valid() {
		// Tracked path: score each row with its confidence and stream
		// it into the drift sketch. The tracker's ObserveRow is
		// allocation-free by contract (buffers bind once at Bind), so
		// the drift-on marginal cost matches the plain loop's.
		t.Bind(p.baseline)
		lim := int32(p.numItems)
		for i, r := range rows {
			if err := g.Check(); err != nil {
				return err
			}
			fv, err := b.featureVector(d.Rows[r], r)
			if err != nil {
				return err
			}
			cls, conf := b.scorer.predictConf(fv)
			out[i] = cls
			t.ObserveRow(cls, modelobs.ConfMicro(conf), true, fv, lim)
		}
		return nil
	}
	for i, r := range rows {
		if err := g.Check(); err != nil {
			return err
		}
		fv, err := b.featureVector(d.Rows[r], r)
		if err != nil {
			return err
		}
		out[i] = b.scorer.predict(fv)
	}
	return nil
}

// PredictBatch classifies the given rows of d into out (len(out) must
// equal len(rows)), amortizing all prediction scratch across the
// batch. It builds the batch scratch per call; loops serving many
// batches should hold a BatchPredictor instead.
func (p *Pipeline) PredictBatch(ctx context.Context, d *dataset.Dataset, rows []int, out []int) error {
	bp, err := p.NewBatchPredictor()
	if err != nil {
		return err
	}
	return bp.PredictInto(ctx, d, rows, out)
}
