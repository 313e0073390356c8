// Package durable provides crash-safe artifact IO for every file the
// pipeline persists: models, checkpoints, reports, traces, CSVs, and
// profiles.
//
// Two guarantees:
//
//   - Atomicity. WriteAtomic and AtomicFile stage content in a hidden
//     temp file in the destination directory, fsync it, rename it over
//     the destination, and fsync the directory. A crash at any instant
//     leaves either the complete old file or the complete new file on
//     disk — never a torn mixture (the write-kill-reload chaos loop
//     pins this).
//
//   - Validation. Gob snapshots are wrapped in a versioned envelope
//     (magic, format version, kind, payload schema version, payload
//     length, CRC32) so Load distinguishes "not one of our artifacts
//     at all" and "corrupt/truncated" (ErrCorruptArtifact) from "a
//     real artifact from an incompatible schema" (ErrVersionMismatch),
//     and never feeds garbage to gob.
//
// Transient filesystem errors (EINTR-class, plus injected
// faults.ErrTransient) are retried with a short backoff; persistent
// errors surface after the attempts are exhausted. Fault-injection
// points fs.create/fs.write/fs.sync/fs.rename/fs.close fire through
// the optional *faults.Registry so the chaos suite can prove each
// failure path leaves no torn file behind.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"dfpc/internal/faults"
)

// Sentinel taxonomy for artifact loading, matched with errors.Is.
var (
	// ErrCorruptArtifact means the bytes are not a valid artifact:
	// wrong magic, truncated header or payload, checksum mismatch, or
	// an undecodable payload.
	ErrCorruptArtifact = errors.New("durable: corrupt artifact")
	// ErrVersionMismatch means the envelope is intact but carries a
	// different kind or an unsupported format/schema version.
	ErrVersionMismatch = errors.New("durable: artifact version mismatch")
)

// retries and backoff for transient filesystem errors. sleepFn is a
// package variable so tests can count backoffs without wall-clock.
const maxAttempts = 4

var sleepFn = time.Sleep

func transientErr(err error) bool {
	return errors.Is(err, faults.ErrTransient) ||
		errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}

// retry runs op up to maxAttempts times, backing off 1ms, 2ms, 4ms
// between attempts, as long as the failure is transient.
func retry(op func() error) error {
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			sleepFn(time.Millisecond << (attempt - 1))
		}
		if err = op(); err == nil || !transientErr(err) {
			return err
		}
	}
	return err
}

// AtomicFile is a streaming destination that commits atomically on
// Close: content goes to a hidden temp file in the destination
// directory and only an fsync'd rename publishes it. Abandoning the
// file (Abort, or a crash) leaves the destination untouched.
//
// It serves writers that stream for the whole run (CPU profiles,
// execution traces) where a one-shot WriteAtomic callback can't work.
type AtomicFile struct {
	f      *os.File
	dest   string
	faults *faults.Registry
	done   bool
}

// Create opens an atomic file targeting path. r may be nil.
func Create(path string, r *faults.Registry) (*AtomicFile, error) {
	if err := r.Hit(faults.FSCreate); err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	var f *os.File
	err := retry(func() error {
		var e error
		f, e = os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("durable: staging %s: %w", path, err)
	}
	return &AtomicFile{f: f, dest: path, faults: r}, nil
}

// Write implements io.Writer on the staged temp file.
func (a *AtomicFile) Write(p []byte) (int, error) {
	if err := a.faults.Hit(faults.FSWrite); err != nil {
		return 0, err
	}
	return a.f.Write(p)
}

// Close syncs the staged content and atomically publishes it at the
// destination path. On any error the temp file is removed and the
// destination is left as it was.
func (a *AtomicFile) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	tmp := a.f.Name()
	fail := func(err error) error {
		a.f.Close()
		os.Remove(tmp)
		return err
	}
	if err := a.faults.Hit(faults.FSSync); err != nil {
		return fail(err)
	}
	if err := retry(a.f.Sync); err != nil {
		return fail(fmt.Errorf("durable: sync %s: %w", a.dest, err))
	}
	if err := a.faults.Hit(faults.FSClose); err != nil {
		return fail(err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: close %s: %w", a.dest, err)
	}
	if err := a.faults.Hit(faults.FSRename); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := retry(func() error { return os.Rename(tmp, a.dest) }); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: publish %s: %w", a.dest, err)
	}
	syncDir(filepath.Dir(a.dest))
	return nil
}

// Abort discards the staged content without touching the destination.
// Safe to call after Close (no-op).
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	tmp := a.f.Name()
	a.f.Close()
	os.Remove(tmp)
}

// syncDir fsyncs a directory so the rename itself is durable. Best
// effort: some filesystems reject directory fsync, and the rename is
// already atomic for ordering purposes.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// WriteAtomic writes an artifact at path via the write callback with
// full atomic-replace semantics. The callback streams into a staged
// temp file; only if it and the subsequent fsync+rename all succeed
// does path change. r may be nil.
func WriteAtomic(path string, r *faults.Registry, write func(w io.Writer) error) error {
	a, err := Create(path, r)
	if err != nil {
		return err
	}
	if err := write(a); err != nil {
		a.Abort()
		return err
	}
	return a.Close()
}

// Envelope layout (big-endian):
//
//	magic        [4]byte  "DFPA"
//	formatVer    uint16   envelope format (this package) = 1
//	kindLen      uint16
//	kind         []byte   artifact kind, e.g. "dfpc-model"
//	payloadVer   uint32   payload schema version (caller-owned)
//	payloadLen   uint64
//	payload      []byte
//	crc32        uint32   IEEE, over everything after magic up to here
const (
	magic         = "DFPA"
	formatVersion = 1
	// maxPayload bounds decode-side allocation so a corrupt or
	// adversarial length field cannot OOM the loader (fuzz relies on
	// this).
	maxPayload = 1 << 30
	maxKindLen = 1 << 10
)

// Encode writes payload wrapped in the versioned envelope.
func Encode(w io.Writer, kind string, payloadVersion uint32, payload []byte) error {
	if len(kind) == 0 || len(kind) > maxKindLen {
		return fmt.Errorf("durable: kind length %d out of range", len(kind))
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("durable: payload %d bytes exceeds cap", len(payload))
	}
	var hdr bytes.Buffer
	hdr.WriteString(magic)
	binary.Write(&hdr, binary.BigEndian, uint16(formatVersion))
	binary.Write(&hdr, binary.BigEndian, uint16(len(kind)))
	hdr.WriteString(kind)
	binary.Write(&hdr, binary.BigEndian, payloadVersion)
	binary.Write(&hdr, binary.BigEndian, uint64(len(payload)))

	crc := crc32.NewIEEE()
	crc.Write(hdr.Bytes()[len(magic):]) // everything after magic
	crc.Write(payload)

	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return binary.Write(w, binary.BigEndian, crc.Sum32())
}

// Decode reads one envelope of the expected kind and returns its
// payload schema version and payload. Violations of the format return
// ErrCorruptArtifact; an intact envelope of a different kind or an
// unsupported format version returns ErrVersionMismatch. Decode stops
// at the envelope's end and does not require EOF (file loaders that
// want exactly-one-envelope semantics check for trailing bytes
// themselves, e.g. LoadFile).
func Decode(r io.Reader, kind string) (payloadVersion uint32, payload []byte, err error) {
	corrupt := func(format string, args ...any) (uint32, []byte, error) {
		return 0, nil, fmt.Errorf("%w: %s", ErrCorruptArtifact, fmt.Sprintf(format, args...))
	}
	var mg [4]byte
	if _, err := io.ReadFull(r, mg[:]); err != nil {
		return corrupt("missing magic: %v", err)
	}
	if string(mg[:]) != magic {
		return corrupt("bad magic %q", mg)
	}
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var fv, kl uint16
	if err := binary.Read(tr, binary.BigEndian, &fv); err != nil {
		return corrupt("truncated format version")
	}
	if fv != formatVersion {
		return 0, nil, fmt.Errorf("%w: envelope format %d, this build reads %d",
			ErrVersionMismatch, fv, formatVersion)
	}
	if err := binary.Read(tr, binary.BigEndian, &kl); err != nil {
		return corrupt("truncated kind length")
	}
	if kl == 0 || kl > maxKindLen {
		return corrupt("kind length %d out of range", kl)
	}
	kb := make([]byte, kl)
	if _, err := io.ReadFull(tr, kb); err != nil {
		return corrupt("truncated kind")
	}
	var pv uint32
	var pl uint64
	if err := binary.Read(tr, binary.BigEndian, &pv); err != nil {
		return corrupt("truncated payload version")
	}
	if err := binary.Read(tr, binary.BigEndian, &pl); err != nil {
		return corrupt("truncated payload length")
	}
	if pl > maxPayload {
		return corrupt("payload length %d exceeds cap", pl)
	}
	// The buffer grows with the bytes that arrive, not with the
	// header's claim: a corrupt length costs only what the stream holds.
	var pb bytes.Buffer
	pb.Grow(int(min(pl, 64<<10)))
	if n, err := pb.ReadFrom(io.LimitReader(tr, int64(pl))); err != nil || uint64(n) != pl {
		return corrupt("truncated payload (want %d bytes)", pl)
	}
	payload = pb.Bytes()
	var sum uint32
	if err := binary.Read(r, binary.BigEndian, &sum); err != nil {
		return corrupt("truncated checksum")
	}
	if sum != crc.Sum32() {
		return corrupt("checksum mismatch")
	}
	// Only after integrity is established do we judge the kind — a
	// checksum-valid envelope of another kind is a version problem,
	// not corruption.
	if string(kb) != kind {
		return 0, nil, fmt.Errorf("%w: artifact kind %q, want %q", ErrVersionMismatch, kb, kind)
	}
	return pv, payload, nil
}

// SaveFile atomically writes a single-envelope artifact file.
func SaveFile(path, kind string, payloadVersion uint32, payload []byte, r *faults.Registry) error {
	return WriteAtomic(path, r, func(w io.Writer) error {
		return Encode(w, kind, payloadVersion, payload)
	})
}

// LoadFile reads a file expected to hold exactly one envelope of the
// given kind. Trailing bytes after the envelope are corruption.
func LoadFile(path, kind string) (payloadVersion uint32, payload []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	pv, pl, err := Decode(f, kind)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return 0, nil, fmt.Errorf("%s: %w: trailing bytes after envelope", path, ErrCorruptArtifact)
	}
	return pv, pl, nil
}
