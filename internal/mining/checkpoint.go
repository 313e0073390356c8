package mining

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"dfpc/internal/durable"
	"dfpc/internal/faults"
)

// Per-class partition checkpoints: one durable single-envelope file
// per (class, cap) pair, so an interrupted per-class mining run resumes
// by replaying the already-mined partitions into the exact same
// class-order merge.
//
// Version 2 streams come from Mine. Version 1 streams could hold
// length-capped sets that are not closed, so they are re-mined.
const (
	classKind    = "dfpc-mine-class"
	classVersion = 2
)

// classCheckpoint is the gob payload of one partition's raw pattern
// stream. Key binds the checkpoint to the mining configuration
// (dataset, min_sup, closed, max_len, budget); Cap is part of the
// identity because a capped enumeration is a strict prefix of an
// uncapped one — streams mined at different caps are different
// artifacts.
type classCheckpoint struct {
	Key      string
	Class    int
	Cap      int
	Patterns []Pattern
}

// FileCheckpoint implements PartitionCheckpoint on a directory of
// durable artifacts. Safe for concurrent use: partitions write
// distinct files.
type FileCheckpoint struct {
	dir    string
	key    string
	faults *faults.Registry
}

// NewFileCheckpoint opens (creating if needed) a per-class checkpoint
// directory for a mining run identified by key. r may be nil.
func NewFileCheckpoint(dir, key string, r *faults.Registry) (*FileCheckpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mining: checkpoint dir: %w", err)
	}
	return &FileCheckpoint{dir: dir, key: key, faults: r}, nil
}

// Dir returns the checkpoint directory.
func (c *FileCheckpoint) Dir() string { return c.dir }

func (c *FileCheckpoint) path(class, cap int) string {
	return filepath.Join(c.dir, fmt.Sprintf("class-%04d-cap-%d.ckpt", class, cap))
}

// Load replays the raw pattern stream of (class, cap). Missing, torn,
// corrupt, or key-mismatched checkpoints return ok=false and the
// partition re-mines.
func (c *FileCheckpoint) Load(class, cap int) ([]Pattern, bool) {
	ver, payload, err := durable.LoadFile(c.path(class, cap), classKind)
	if err != nil || ver != classVersion {
		return nil, false
	}
	var cc classCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cc); err != nil {
		return nil, false
	}
	if cc.Key != c.key || cc.Class != class || cc.Cap != cap {
		return nil, false
	}
	return cc.Patterns, true
}

// Save atomically persists the raw pattern stream of (class, cap).
func (c *FileCheckpoint) Save(class, cap int, ps []Pattern) error {
	if err := c.faults.Hit(faults.CheckpointWrite); err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(classCheckpoint{
		Key: c.key, Class: class, Cap: cap, Patterns: ps,
	}); err != nil {
		return err
	}
	return durable.SaveFile(c.path(class, cap), classKind, classVersion, payload.Bytes(), c.faults)
}
