package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dfpc/internal/datagen"
	"dfpc/internal/durable"
)

// savedModelBytes fits a small pipeline and returns its serialized
// form, seeding the fuzzer with a real envelope rather than noise.
func savedModelBytes(tb testing.TB) []byte {
	tb.Helper()
	d, err := datagen.ByName("labor", 1)
	if err != nil {
		tb.Fatal(err)
	}
	p := NewPatFS(SVMLinear, 0.3)
	if err := p.Fit(d, allRows(d.NumRows())); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadModel pins the fail-closed loading contract: no input —
// corrupt, truncated, bit-flipped, or adversarial — may panic Load or
// yield anything other than a valid pipeline or a sentinel error.
func FuzzLoadModel(f *testing.F) {
	model := savedModelBytes(f)
	f.Add(model)
	f.Add(model[:len(model)/2])
	flipped := bytes.Clone(model)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("DFPA"))
	f.Add([]byte("not a model at all"))
	// The committed artifacts, including those of removed models.
	fixtures, err := filepath.Glob("testdata/*.dfpc")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err == nil {
			if p == nil {
				t.Fatal("Load returned nil pipeline with nil error")
			}
			return
		}
		if !errors.Is(err, durable.ErrCorruptArtifact) && !errors.Is(err, durable.ErrVersionMismatch) {
			t.Fatalf("Load error is not a sentinel: %v", err)
		}
	})
}

// TestLoadModelBitFlips exhaustively flips one bit per byte of a real
// saved model and asserts every variant fails closed. The fuzzer
// explores further; this pins the floor deterministically.
func TestLoadModelBitFlips(t *testing.T) {
	model := savedModelBytes(t)
	stride := 1
	if testing.Short() {
		stride = 64
	}
	for i := 0; i < len(model); i += stride {
		mut := bytes.Clone(model)
		mut[i] ^= 0x01
		p, err := Load(bytes.NewReader(mut))
		if err == nil {
			// A flip in ignored padding cannot exist: every byte is
			// covered by magic, header, payload, or CRC.
			t.Fatalf("bit flip at byte %d loaded cleanly (pipeline %v)", i, p != nil)
		}
		if !errors.Is(err, durable.ErrCorruptArtifact) && !errors.Is(err, durable.ErrVersionMismatch) {
			t.Fatalf("bit flip at byte %d: non-sentinel error %v", i, err)
		}
	}
	for _, n := range []int{0, 1, 4, 5, len(model) / 2, len(model) - 1} {
		if _, err := Load(bytes.NewReader(model[:n])); err == nil {
			t.Fatalf("truncation to %d bytes loaded cleanly", n)
		} else if !errors.Is(err, durable.ErrCorruptArtifact) && !errors.Is(err, durable.ErrVersionMismatch) {
			t.Fatalf("truncation to %d bytes: non-sentinel error %v", n, err)
		}
	}
}
