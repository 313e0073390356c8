package core

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"io"

	"dfpc/internal/c45"
	"dfpc/internal/discretize"
	"dfpc/internal/durable"
	"dfpc/internal/mining"
	"dfpc/internal/modelobs"
	"dfpc/internal/obs"
	"dfpc/internal/patmatch"
	"dfpc/internal/svm"
)

// pipelineSnapshot is the gob-encodable form of a fitted Pipeline. The
// learner model is nested as opaque bytes via its own BinaryMarshaler,
// keyed by the learner kind.
type pipelineSnapshot struct {
	Version  int
	Config   Config
	Disc     []byte
	NumItems int
	Patterns []mining.Pattern
	ItemKept []bool
	Report   []FeatureReport
	Stats    FitStats
	Learner  Learner
	Model    []byte
	// Baseline is the fit-time reference distribution for drift
	// scoring, added in snapshot v2. Gob leaves it nil when decoding
	// a v1 payload (absent fields decode to their zero value), so
	// pre-baseline models load cleanly with Baseline == nil.
	Baseline *modelobs.Baseline
	// Matcher is the compiled pattern-matching trie, added in snapshot
	// v3 so a loaded model serves through the same compiled path a
	// freshly fitted one does. v1/v2 payloads decode it as nil and
	// Load recompiles it from Patterns — compilation is deterministic,
	// so the lazily built trie is byte-identical to a fit-time one.
	Matcher *patmatch.Matcher
}

// snapshotVersion is the version written by Save; Load accepts any
// version in [minSnapshotVersion, snapshotVersion]. v1 = pre-baseline
// envelopes (no Baseline field); v2 added the modelobs baseline; v3
// added the compiled pattern matcher.
const (
	snapshotVersion    = 3
	minSnapshotVersion = 1
)

// removedLearners names the Learner values that earlier builds saved
// and this one cannot load, so Load can say what such an artifact holds.
var removedLearners = map[Learner]string{3: "naive Bayes", 4: "kNN"}

// ModelKind is the durable-envelope kind string for saved pipelines.
const ModelKind = "dfpc-model"

// init numbers the snapshot types before anything else in the process
// encodes. Gob assigns each type its id on first use, process-wide,
// and writes the ids into every stream, so without a fixed order the
// bytes Save writes would depend on what the process encoded earlier
// (an SVM save shifts the ids of a later C4.5 snapshot). Encoding a
// zero value of each snapshot, in this order, pins the ids.
func init() {
	for _, m := range []interface{ MarshalBinary() ([]byte, error) }{
		&discretize.Discretizer{}, &svm.Model{}, &c45.Model{},
	} {
		if _, err := m.MarshalBinary(); err != nil {
			panic(err)
		}
	}
	if err := gob.NewEncoder(io.Discard).Encode(pipelineSnapshot{}); err != nil {
		panic(err)
	}
}

// Save serializes a fitted pipeline so it can be reloaded with Load and
// used for prediction without retraining. The fitted discretizer,
// selected patterns, explanation report, and the trained model are all
// preserved. The gob snapshot is wrapped in a durable envelope
// (magic + version + CRC32) so Load can reject torn or corrupt files
// with a sentinel instead of feeding garbage to gob.
func (p *Pipeline) Save(w io.Writer) error {
	if p.model == nil {
		return fmt.Errorf("core: Save before Fit")
	}
	snap := pipelineSnapshot{
		Version:  snapshotVersion,
		Config:   p.cfg,
		NumItems: p.numItems,
		Patterns: p.patterns,
		ItemKept: p.itemKept,
		Report:   p.report,
		Stats:    p.Stats,
		Learner:  p.cfg.Learner,
		Baseline: p.baseline,
		Matcher:  p.matcher,
	}
	// Observers, loggers, fault registries, and drift trackers are
	// per-process recorders, not model state (each additionally
	// gob-encodes as nothing either way).
	snap.Config.Obs = nil
	snap.Config.Log = obs.LogHandle{}
	snap.Config.Faults = nil
	snap.Config.Drift = nil
	var err error
	if snap.Disc, err = p.disc.MarshalBinary(); err != nil {
		return err
	}
	if snap.Model, err = p.model.MarshalBinary(); err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return err
	}
	return durable.Encode(w, ModelKind, snapshotVersion, payload.Bytes())
}

// Load restores a pipeline saved with Save. The returned pipeline can
// Predict immediately; calling Fit retrains it as usual.
//
// Load validates before it trusts: the durable envelope's magic,
// length, and CRC32 must check out (otherwise durable.ErrCorruptArtifact),
// the kind and schema version must match this build (otherwise
// durable.ErrVersionMismatch), and only then are the payload bytes
// handed to gob — whose own failures, being unreachable except through
// corruption that collides the checksum, also wrap ErrCorruptArtifact.
func Load(r io.Reader) (p *Pipeline, err error) {
	// Gob decoding of hostile bytes can panic in pathological cases;
	// fold that into the corruption sentinel rather than crashing a
	// serving process.
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, fmt.Errorf("core: load: %w: decode panic: %v", durable.ErrCorruptArtifact, rec)
		}
	}()
	ver, payload, err := durable.Decode(r, ModelKind)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if ver < minSnapshotVersion || ver > snapshotVersion {
		return nil, fmt.Errorf("core: load: %w: snapshot version %d, this build reads %d..%d",
			durable.ErrVersionMismatch, ver, minSnapshotVersion, snapshotVersion)
	}
	var snap pipelineSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: load: %w: %v", durable.ErrCorruptArtifact, err)
	}
	if snap.Version != int(ver) {
		return nil, fmt.Errorf("core: load: %w: inner snapshot version %d under envelope version %d",
			durable.ErrVersionMismatch, snap.Version, ver)
	}
	p = &Pipeline{
		cfg:      snap.Config,
		numItems: snap.NumItems,
		patterns: snap.Patterns,
		matcher:  snap.Matcher,
		itemKept: snap.ItemKept,
		report:   snap.Report,
		Stats:    snap.Stats,
		baseline: snap.Baseline,
	}
	if p.matcher == nil && len(p.patterns) > 0 {
		// Pre-v3 artifact: compile the trie now so old models predict
		// through the same zero-allocation path as new ones. No faults
		// or obs here — registries are scrubbed on Save and a loaded
		// pipeline has none installed yet.
		items := make([][]int32, len(p.patterns))
		for i := range p.patterns {
			items[i] = p.patterns[i].Items
		}
		p.matcher = patmatch.Compile(items)
	}
	p.disc = &discretize.Discretizer{}
	if err := p.disc.UnmarshalBinary(snap.Disc); err != nil {
		return nil, fmt.Errorf("core: load: %w: discretizer: %v", durable.ErrCorruptArtifact, err)
	}
	var m interface {
		encoding.BinaryMarshaler
		encoding.BinaryUnmarshaler
	}
	switch snap.Learner {
	case SVMLinear, SVMRBF:
		m = &svm.Model{}
	case C45Tree:
		m = &c45.Model{}
	default:
		if name, ok := removedLearners[snap.Learner]; ok {
			return nil, fmt.Errorf("core: load: %w: learner %d is %s, which this build no longer has",
				durable.ErrCorruptArtifact, int(snap.Learner), name)
		}
		return nil, fmt.Errorf("core: load: %w: unknown learner %v", durable.ErrCorruptArtifact, snap.Learner)
	}
	if err := m.UnmarshalBinary(snap.Model); err != nil {
		return nil, fmt.Errorf("core: load: %w: %T: %v", durable.ErrCorruptArtifact, m, err)
	}
	p.model = m
	return p, nil
}
