package core

import (
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dfpc/internal/datagen"
)

func roundTripPipeline(t *testing.T, p *Pipeline) *Pipeline {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestSaveLoadAllLearners(t *testing.T) {
	d, err := datagen.ByName("labor", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(d.NumRows())
	for _, l := range []Learner{SVMLinear, SVMRBF, C45Tree} {
		p := NewPatFS(l, 0.3)
		if err := p.Fit(d, rows); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		want, err := predict(p, d, rows)
		if err != nil {
			t.Fatal(err)
		}
		loaded := roundTripPipeline(t, p)
		got, err := predict(loaded, d, rows)
		if err != nil {
			t.Fatalf("%v: predict after load: %v", l, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: prediction %d changed after round trip", l, i)
			}
		}
		// Explanation report survives.
		if len(loaded.Explain()) != len(p.Explain()) {
			t.Fatalf("%v: report lost in round trip", l)
		}
		if loaded.Stats.FeatureCount != p.Stats.FeatureCount {
			t.Fatalf("%v: stats lost", l)
		}
	}
}

func TestSaveBeforeFit(t *testing.T) {
	p := NewItemAll(SVMLinear)
	var buf bytes.Buffer
	if err := p.Save(&buf); err == nil {
		t.Fatal("Save before Fit should error")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadedPipelineCanRefit(t *testing.T) {
	d, err := datagen.ByName("labor", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(d.NumRows())
	p := NewPatFS(SVMLinear, 0.3)
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	loaded := roundTripPipeline(t, p)
	if err := loaded.Fit(d, rows); err != nil {
		t.Fatalf("refit after load: %v", err)
	}
	if _, err := predict(loaded, d, rows[:5]); err != nil {
		t.Fatal(err)
	}
}

// saveHistoryChild marks the re-executed test binary's positional
// arguments: the child mode, then the file it writes the saved bytes to.
const saveHistoryChild = "save-history-child"

// TestSaveHistoryChild is the body TestSaveBytesDeterminismAcrossProcessHistory
// runs in a fresh process; invoked directly it skips. In mode
// "svm-first" it saves an SVM pipeline before the C4.5 one, so gob has
// already seen the SVM snapshot types when the C4.5 model is encoded.
func TestSaveHistoryChild(t *testing.T) {
	args := flag.Args()
	if len(args) != 3 || args[0] != saveHistoryChild {
		t.Skip("runs only as the child of TestSaveBytesDeterminismAcrossProcessHistory")
	}
	d := xorDataset(80)
	rows := allRows(d.NumRows())
	if args[1] == "svm-first" {
		p := NewPatFS(SVMLinear, 0.2)
		if err := p.Fit(d, rows); err != nil {
			t.Fatal(err)
		}
		if err := p.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPatFS(C45Tree, 0.2)
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(args[2], buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSaveBytesDeterminismAcrossProcessHistory pins that Save's bytes
// depend only on the model: gob numbers types process-wide on first
// use, so without the package's fixed registration order the same
// C4.5 pipeline would save differently after an SVM save. Each history
// runs in its own process, because a type once numbered stays numbered.
func TestSaveBytesDeterminismAcrossProcessHistory(t *testing.T) {
	dir := t.TempDir()
	var saved [2][]byte
	for i, mode := range []string{"c45-only", "svm-first"} {
		out := filepath.Join(dir, mode+".dfpc")
		cmd := exec.Command(os.Args[0], "-test.run=^TestSaveHistoryChild$", "--", saveHistoryChild, mode, out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s child: %v\n%s", mode, err, msg)
		}
		var err error
		if saved[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatalf("the same C4.5 pipeline saved to %d B fresh and %d B after an SVM save", len(saved[0]), len(saved[1]))
	}
}
