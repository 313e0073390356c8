package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dfpc/internal/faults"
)

func TestWriteAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteAtomic(path, nil, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// TestWriteAtomicFailureLeavesOldFile injects a failure at every fs
// point in turn and checks the destination still holds the previous
// content and no temp files survive.
func TestWriteAtomicFailureLeavesOldFile(t *testing.T) {
	for _, point := range []string{faults.FSCreate, faults.FSWrite, faults.FSSync, faults.FSClose, faults.FSRename} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "artifact.bin")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			r := faults.New(1)
			r.Arm(point, 1, faults.ErrInjected)
			err := WriteAtomic(path, r, func(w io.Writer) error {
				_, err := w.Write([]byte("new content"))
				return err
			})
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != "old" {
				t.Fatalf("destination after failed write: %q, %v (want old)", got, err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if e.Name() != "artifact.bin" {
					t.Fatalf("leaked staging file %s", e.Name())
				}
			}
		})
	}
}

func TestWriteAtomicCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	boom := errors.New("boom")
	if err := WriteAtomic(path, nil, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("destination created despite callback error: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("staging leak: %v", ents)
	}
}

func TestRetryAbsorbsTransient(t *testing.T) {
	var slept []time.Duration
	old := sleepFn
	sleepFn = func(d time.Duration) { slept = append(slept, d) }
	defer func() { sleepFn = old }()

	calls := 0
	err := retry(func() error {
		calls++
		if calls < 3 {
			return faults.ErrTransient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retry: err=%v calls=%d", err, calls)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff schedule %v", slept)
	}

	// Persistent transient errors exhaust the attempts.
	calls = 0
	if err := retry(func() error { calls++; return faults.ErrTransient }); !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("exhausted retry err = %v", err)
	}
	if calls != maxAttempts {
		t.Fatalf("calls = %d, want %d", calls, maxAttempts)
	}

	// Non-transient errors do not retry.
	calls = 0
	boom := errors.New("disk on fire")
	if err := retry(func() error { calls++; return boom }); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("non-transient: err=%v calls=%d", err, calls)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("gob bytes here")
	if err := Encode(&buf, "dfpc-model", 3, payload); err != nil {
		t.Fatal(err)
	}
	pv, got, err := Decode(bytes.NewReader(buf.Bytes()), "dfpc-model")
	if err != nil {
		t.Fatal(err)
	}
	if pv != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("decoded pv=%d payload=%q", pv, got)
	}
}

func TestDecodeKindMismatchIsVersionError(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "dfpc-checkpoint", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, _, err := Decode(bytes.NewReader(buf.Bytes()), "dfpc-model")
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("kind mismatch err = %v, want ErrVersionMismatch", err)
	}
}

func TestDecodeFutureFormatIsVersionError(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "k", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint16(b[4:6], formatVersion+1)
	_, _, err := Decode(bytes.NewReader(b), "k")
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("future format err = %v, want ErrVersionMismatch", err)
	}
}

func TestDecodeCorruptions(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "dfpc-model", 1, []byte("payload payload payload")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Every strict prefix is truncation → ErrCorruptArtifact.
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := Decode(bytes.NewReader(whole[:cut]), "dfpc-model")
		if !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorruptArtifact", cut, err)
		}
	}
	// Every single-bit flip fails closed (corrupt, or version mismatch
	// when the flip lands in the format-version field itself — Decode
	// checks it before the checksum so ancient readers fail cleanly).
	for i := 0; i < len(whole); i++ {
		mut := append([]byte(nil), whole...)
		mut[i] ^= 0x40
		_, _, err := Decode(bytes.NewReader(mut), "dfpc-model")
		if err == nil {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
		if !errors.Is(err, ErrCorruptArtifact) && !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("bit flip at byte %d: non-sentinel err %v", i, err)
		}
	}
	// Garbage is corrupt.
	if _, _, err := Decode(strings.NewReader("not an artifact"), "dfpc-model"); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("garbage err = %v", err)
	}
}

// TestDecodeHugeLengthAllocatesLittle: a header that claims a 1 GiB
// payload but ends there fails as truncation without allocating the
// claimed size.
func TestDecodeHugeLengthAllocatesLittle(t *testing.T) {
	hdr := []byte(magic)
	hdr = binary.BigEndian.AppendUint16(hdr, formatVersion)
	hdr = binary.BigEndian.AppendUint16(hdr, 4)
	hdr = append(hdr, "kind"...)
	hdr = binary.BigEndian.AppendUint32(hdr, 1)
	hdr = binary.BigEndian.AppendUint64(hdr, maxPayload)
	if len(hdr) != 24 {
		t.Fatalf("header is %d bytes, want 24", len(hdr))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(bytes.NewReader(hdr), "kind")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("err = %v, want ErrCorruptArtifact", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Decode allocated %d bytes for an empty payload", grew)
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.dfpc")
	if err := SaveFile(path, "dfpc-model", 2, []byte("abc"), nil); err != nil {
		t.Fatal(err)
	}
	pv, payload, err := LoadFile(path, "dfpc-model")
	if err != nil || pv != 2 || string(payload) != "abc" {
		t.Fatalf("LoadFile = %d, %q, %v", pv, payload, err)
	}

	// Trailing bytes after the envelope are corruption.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("junk"))
	f.Close()
	if _, _, err := LoadFile(path, "dfpc-model"); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("trailing junk err = %v, want ErrCorruptArtifact", err)
	}
}

func TestEncodeRejectsBadKind(t *testing.T) {
	if err := Encode(io.Discard, "", 1, nil); err == nil {
		t.Fatal("empty kind accepted")
	}
	if err := Encode(io.Discard, strings.Repeat("k", maxKindLen+1), 1, nil); err == nil {
		t.Fatal("oversized kind accepted")
	}
}

// FuzzDecode pins the core chaos property of the envelope reader:
// arbitrary bytes never panic and never decode into a wrong-kind
// success — every outcome is a clean decode of what Encode wrote or a
// sentinel error.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	Encode(&buf, "dfpc-model", 1, []byte("seed payload"))
	f.Add(buf.Bytes())
	buf.Reset()
	Encode(&buf, "dfpc-checkpoint", 7, bytes.Repeat([]byte{0xAB}, 256))
	f.Add(buf.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte("DFPAxxxxxxxxxxxxxxxxxxxxxxxx"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, payload, err := Decode(bytes.NewReader(data), "dfpc-model")
		if err != nil {
			if !errors.Is(err, ErrCorruptArtifact) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("non-sentinel decode error: %v", err)
			}
			return
		}
		// A successful decode must re-encode to a decodable envelope.
		var out bytes.Buffer
		if err := Encode(&out, "dfpc-model", 1, payload); err != nil {
			t.Fatalf("re-encode of decoded payload failed: %v", err)
		}
	})
}
