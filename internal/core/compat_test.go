package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dfpc/internal/datagen"
	"dfpc/internal/discretize"
	"dfpc/internal/durable"
	"dfpc/internal/mining"
	"dfpc/internal/obs"
)

// updateCompat regenerates the committed v1 model fixture:
//
//	go test ./internal/core/ -run TestLoadV1Envelope -update-compat
var updateCompat = flag.Bool("update-compat", false, "rewrite testdata/model_v1.dfpc from a fresh fit")

const v1FixturePath = "testdata/model_v1.dfpc"

// snapshotV1 is the pipelineSnapshot layout as written before snapshot
// v2 added the Baseline field. Gob matches fields by name, so encoding
// this struct reproduces the payload an old build would have written;
// the fixture generated from it proves today's Load still reads it.
type snapshotV1 struct {
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
}

// writeV1Fixture fits the XOR pipeline and serializes it under a
// version-1 envelope with the pre-baseline snapshot layout.
func writeV1Fixture(t *testing.T, path string) {
	t.Helper()
	p, _, _ := fitXORPipeline(t)
	snap := snapshotV1{
		Version:  1,
		Config:   p.cfg,
		NumItems: p.numItems,
		Patterns: p.patterns,
		ItemKept: p.itemKept,
		Report:   p.report,
		Stats:    p.Stats,
		Learner:  p.cfg.Learner,
	}
	// Mirror Save's scrub of per-process recorders.
	snap.Config.Obs = nil
	snap.Config.Log = obs.LogHandle{}
	snap.Config.Faults = nil
	snap.Config.Drift = nil
	var err error
	if snap.Disc, err = p.disc.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	m, ok := p.model.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		t.Fatalf("model %T is not serializable", p.model)
	}
	if snap.Model, err = m.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Encode(f, ModelKind, 1, payload.Bytes()); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadV1Envelope pins forward compatibility with pre-baseline model
// artifacts: a v1 envelope must load with Baseline() == nil while
// Predict and PredictExplain keep working from the restored state.
func TestLoadV1Envelope(t *testing.T) {
	if *updateCompat {
		writeV1Fixture(t, v1FixturePath)
		t.Logf("rewrote %s", v1FixturePath)
	}
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update-compat): %v", err)
	}
	p, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Load v1 envelope: %v", err)
	}
	if p.Baseline() != nil {
		t.Fatal("v1 envelope predates baselines; Baseline() must be nil")
	}
	d := xorDataset(80)
	rows := allRows(d.NumRows())
	pred, err := predict(p, d, rows)
	if err != nil {
		t.Fatalf("Predict after v1 load: %v", err)
	}
	correct := 0
	for i, c := range pred {
		if c == d.Labels[i] {
			correct++
		}
	}
	if correct < len(rows)*99/100 {
		t.Fatalf("v1 model accuracy %d/%d, want ~all (XOR is separable with pattern features)", correct, len(rows))
	}
	ex, err := p.PredictExplain(context.Background(), d, rows[:8])
	if err != nil {
		t.Fatalf("PredictExplain after v1 load: %v", err)
	}
	for i, e := range ex {
		if e.Class != pred[i] {
			t.Fatalf("PredictExplain row %d class = %d, Predict said %d", i, e.Class, pred[i])
		}
	}
	// v1 envelopes predate the compiled matcher; Load must compile one
	// lazily so old artifacts serve through the same zero-allocation
	// path — and, compilation being deterministic, it must come out
	// byte-identical to the trie a fresh fit of the same data builds.
	if p.Matcher() == nil {
		t.Fatal("v1 envelope: Load must lazily compile the matcher from the stored patterns")
	}
	fresh, _, _ := fitXORPipeline(t)
	if !bytes.Equal(gobBytes(t, p.Matcher()), gobBytes(t, fresh.Matcher())) {
		t.Fatal("lazily compiled matcher differs from a fit-time compile of the same patterns")
	}
}

// gobBytes encodes v for byte-level equality checks.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatcherSnapshotRoundTrip is the v3 counterpart of the baseline
// round trip: the compiled trie is carried through Save/Load
// byte-for-byte (no lazy recompile on current-version artifacts), and
// the loaded pipeline predicts identically through it.
func TestMatcherSnapshotRoundTrip(t *testing.T) {
	p, _, _ := fitXORPipeline(t)
	if p.Matcher() == nil {
		t.Fatal("Fit should compile a matcher when patterns are selected")
	}
	loaded := roundTripPipeline(t, p)
	if loaded.Matcher() == nil {
		t.Fatal("matcher lost in round trip")
	}
	if !bytes.Equal(gobBytes(t, p.Matcher()), gobBytes(t, loaded.Matcher())) {
		t.Fatal("matcher bytes changed across Save/Load")
	}
	d := xorDataset(80)
	rows := allRows(d.NumRows())
	want, err := predict(p, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := predict(loaded, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("loaded pipeline predicts differently from the one that saved it")
	}
}

// TestFitBaselineRoundTrip is the v2 counterpart: a fresh Fit computes
// a valid baseline and Save/Load carries it through byte-for-byte
// (gob re-encode equality, not field spot checks).
func TestFitBaselineRoundTrip(t *testing.T) {
	p, _, _ := fitXORPipeline(t)
	b := p.Baseline()
	if !b.Valid() {
		t.Fatal("Fit should compute a valid baseline")
	}
	if b.Rows != 80 {
		t.Fatalf("baseline rows = %d, want 80", b.Rows)
	}
	if b.NumClasses != 2 || len(b.Priors) != 2 {
		t.Fatalf("baseline classes = %d priors = %v, want 2", b.NumClasses, b.Priors)
	}
	if b.NumPatterns() == 0 {
		t.Fatal("baseline should cover the selected pattern features")
	}
	loaded := roundTripPipeline(t, p)
	lb := loaded.Baseline()
	if !lb.Valid() {
		t.Fatal("baseline lost in round trip")
	}
	var want, got bytes.Buffer
	if err := gob.NewEncoder(&want).Encode(b); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&got).Encode(lb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("baseline bytes changed across Save/Load")
	}
}

// plattFixturePath is a model saved before Platt scaling was removed:
// labor (seed 1), Pat_FS, linear SVM, min_sup 0.3, fitted on all rows
// with the since-deleted Probability option, so its snapshot carries
// Config.Probability and the SVM's Platt/HasPlatt fields. It cannot be
// regenerated by this build.
const plattFixturePath = "testdata/model_platt.dfpc"

// TestLoadPlattEraArtifact pins that artifacts carrying the removed
// Platt calibration still load under the same envelope version: gob
// skips the fields this build no longer declares, the model predicts
// exactly like a fresh fit without calibration, and re-saving it writes
// the fresh fit's bytes.
func TestLoadPlattEraArtifact(t *testing.T) {
	raw, err := os.ReadFile(plattFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Load Platt-era artifact: %v", err)
	}
	d, err := datagen.ByName("labor", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(d.NumRows())
	fresh := NewFamily(PatFS, Config{MinSupport: 0.3})
	if err := fresh.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	want, err := predict(fresh, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := predict(old, d, rows)
	if err != nil {
		t.Fatalf("predict after load: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("Platt-era artifact predicts differently from a fresh fit")
	}
	var resaved, saved bytes.Buffer
	if err := old.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatalf("re-saved artifact (%d B) differs from a fresh fit's save (%d B)", resaved.Len(), saved.Len())
	}
}

// TestLoadRemovedModelArtifacts pins that artifacts of models this
// build no longer has fail closed. The fixtures are labor (seed 1),
// Pat_FS, min_sup 0.3, fitted on all rows by a build that still had
// them: a naive-Bayes model, a kNN model, and a linear-SVM pipeline
// whose SVM was retrained with the polynomial kernel (kernel type 2).
// None of them can be regenerated by this build.
func TestLoadRemovedModelArtifacts(t *testing.T) {
	for path, want := range map[string]string{
		"testdata/model_nbayes.dfpc": "naive Bayes",
		"testdata/model_knn.dfpc":    "kNN",
		"testdata/model_poly.dfpc":   "kernel type 2",
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Load(bytes.NewReader(raw))
		if p != nil || !errors.Is(err, durable.ErrCorruptArtifact) || !strings.Contains(err.Error(), want) {
			t.Errorf("Load %s: loaded = %v, err = %v; want ErrCorruptArtifact naming %q", path, p != nil, err, want)
		}
		if err != nil && strings.Contains(err.Error(), "gob") {
			t.Errorf("Load %s: %v is a gob error", path, err)
		}
	}
}

// TestLoadDeletedKnobArtifacts pins that artifacts fitted with fit
// settings this build no longer has still load and predict exactly as
// they did when saved. The fixtures are labor (seed 1), Pat_FS, min_sup
// 0.3, fitted on all rows by a build that still had the settings:
//   - model_mdl_cgrid.dfpc: a linear SVM with Fayyad–Irani MDL
//     discretization and an inner 3-fold C search over {0.5, 1, 2};
//   - model_bins_tree.dfpc: a C4.5 tree over 4 equal-frequency bins
//     with MinLeaf 5.
//
// Gob skips the config fields this build no longer declares; the
// fitted cuts, C and tree travel as data, so the predictions recorded
// at save time still hold. None of them can be regenerated by this
// build.
func TestLoadDeletedKnobArtifacts(t *testing.T) {
	d, err := datagen.ByName("labor", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(d.NumRows())
	defaultDisc, err := discretize.Fit(d, discretize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]int{
		"testdata/model_mdl_cgrid.dfpc": {
			1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0,
		},
		"testdata/model_bins_tree.dfpc": {
			0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0,
			0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0,
		},
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("Load %s: %v", path, err)
		}
		// The stored cuts are the deleted settings' own, not the
		// default's, so the goldens below exercise them.
		same := true
		for a := range d.Attrs {
			same = same && reflect.DeepEqual(p.disc.Cuts(a), defaultDisc.Cuts(a))
		}
		if same {
			t.Fatalf("%s: stored cuts equal the default discretizer's", path)
		}
		got, err := predict(p, d, rows)
		if err != nil {
			t.Fatalf("%s: predict after load: %v", path, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: predictions\n got %v\nwant %v", path, got, want)
		}
		var resaved bytes.Buffer
		if err := p.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&resaved)
		if err != nil {
			t.Fatalf("%s: Load after re-save: %v", path, err)
		}
		if got, err = predict(again, d, rows); err != nil {
			t.Fatalf("%s: predict after re-save: %v", path, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: predictions after re-save\n got %v\nwant %v", path, got, want)
		}
	}
}

// TestLoadRejectsUnknownLearner pins that Load decodes a model only for
// the learner values this build trains; any other value fails closed
// instead of decoding as an SVM.
func TestLoadRejectsUnknownLearner(t *testing.T) {
	raw, err := os.ReadFile(plattFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	ver, payload, err := durable.Decode(bytes.NewReader(raw), ModelKind)
	if err != nil {
		t.Fatal(err)
	}
	var snap pipelineSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, l := range []Learner{-1, 3, 4, 7} {
		snap.Learner = l
		var buf, env bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if err := durable.Encode(&env, ModelKind, ver, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&env); !errors.Is(err, durable.ErrCorruptArtifact) {
			t.Errorf("Load with learner %v: err = %v, want ErrCorruptArtifact", l, err)
		}
	}
}
