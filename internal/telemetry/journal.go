// Package telemetry turns the in-process obs layer into a live,
// externally visible telemetry subsystem, using only the standard
// library:
//
//   - a debug HTTP server (Server) exposing /metrics in Prometheus text
//     exposition format, /healthz, /runs (a JSON ring buffer of recent
//     RunReports), and the net/http/pprof endpoints under /debug/pprof/
//   - a structured run journal (Journal): one JSONL record per run —
//     config, per-stage wall/alloc, warnings, accuracy — so long
//     experiment campaigns stay greppable after the fact
//   - the CLIs' one run lifecycle (Flags/Session): the shared flag
//     set, Start (profiles, slog, observer, faults, -timeout, journal,
//     debug server, signals), and Finish (report, trace, journal)
//
// Like the obs package it builds on, every exported method is safe on a
// nil receiver: a CLI that sets none of the flags pays a nil check per
// call and nothing else.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dfpc/internal/faults"
	"dfpc/internal/modelobs"
	"dfpc/internal/obs"
)

// Record is one journal entry: the durable summary of a single Fit,
// cross-validation, or mining run. Every record lands as one line of
// JSON, so `grep dataset journal.jsonl | jq .accuracy` works without
// any tooling.
type Record struct {
	// Time is stamped by Append when zero.
	Time time.Time `json:"time"`
	// RunID ties the record to the process's log records and /runs
	// entries; Append fills it from the journal when empty.
	RunID string `json:"run_id,omitempty"`
	// Component is the producing CLI (dfpc, dfpc-mine, experiments);
	// Append fills it from the journal when empty.
	Component string `json:"component,omitempty"`
	// Kind classifies the run: "cv", "fit", "mine", "table", "figure".
	Kind string `json:"kind"`
	// Dataset names the input dataset.
	Dataset string `json:"dataset,omitempty"`
	// Config carries the run's effective settings (family, learner,
	// min_sup, folds, ...).
	Config map[string]any `json:"config,omitempty"`
	// Folds and the accuracy pair summarize a cross-validation run.
	Folds       int     `json:"folds,omitempty"`
	Accuracy    float64 `json:"accuracy,omitempty"`
	AccuracyStd float64 `json:"accuracy_std,omitempty"`
	// WallNS is the run's total wall time.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Stages aggregates the run's span tree by stage name.
	Stages []StageStat `json:"stages,omitempty"`
	// Warnings lists the run's degradations (non-converged SMO solves,
	// failed folds).
	Warnings []string `json:"warnings,omitempty"`
	// Audits carries named decision-audit tables (e.g. "mmrfs" → the
	// per-iteration selection trail). Values must marshal to JSON.
	Audits map[string]any `json:"audits,omitempty"`
	// Drift carries the live-vs-baseline divergence report of a
	// drift-tracked run (kind "drift").
	Drift *modelobs.DriftReport `json:"drift,omitempty"`
}

// StageStat is the per-stage aggregate of a run's spans: how many
// spans closed under this name and their summed wall/allocation.
type StageStat struct {
	Name       string `json:"name"`
	Count      int    `json:"count"`
	WallNS     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// StagesFromReport flattens a RunReport's span tree into per-stage
// aggregates, summing over every depth. The result is sorted by
// descending wall time (name breaks ties) so the journal's hottest
// stage reads first.
func StagesFromReport(r *obs.RunReport) []StageStat {
	if r == nil {
		return nil
	}
	agg := map[string]*StageStat{}
	var walk func(s *obs.SpanReport)
	walk = func(s *obs.SpanReport) {
		st := agg[s.Name]
		if st == nil {
			st = &StageStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Count++
		st.WallNS += s.WallNS
		st.AllocBytes += s.AllocBytes
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range r.Spans {
		walk(s)
	}
	out := make([]StageStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallNS != out[j].WallNS {
			return out[i].WallNS > out[j].WallNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Journal appends run records to a JSONL file. Construct with
// OpenJournal; a nil *Journal is a valid disabled journal whose methods
// are no-ops, so callers thread it unconditionally.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	runID     string
	component string
	faults    *faults.Registry
}

// OpenJournal opens (creating or appending to) the journal file at
// path. An empty path returns (nil, nil): journaling off.
func OpenJournal(path, component, runID string) (*Journal, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: journal: %w", err)
	}
	return &Journal{f: f, runID: runID, component: component}, nil
}

// SetFaults installs a fault-injection registry on the journal (nil is
// fine and is the default).
func (j *Journal) SetFaults(r *faults.Registry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.faults = r
	j.mu.Unlock()
}

// Append writes one record as a single JSON line, stamping Time,
// RunID, and Component when the caller left them empty.
func (j *Journal) Append(rec Record) error {
	if j == nil {
		return nil
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	if rec.RunID == "" {
		rec.RunID = j.runID
	}
	if rec.Component == "" {
		rec.Component = j.component
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("telemetry: journal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.faults.Hit(faults.TelemetryJournal); err != nil {
		return fmt.Errorf("telemetry: journal: %w", err)
	}
	// The single O_APPEND write keeps concurrent processes from
	// interleaving; the per-line fsync bounds crash loss to the record
	// in flight, so an interrupted campaign's journal stays replayable.
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("telemetry: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("telemetry: journal: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// NewRunID returns a short random hex identifier correlating a
// process's log records, /runs entries, and journal lines.
func NewRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; fall back to a
		// time-derived id rather than failing the run over telemetry.
		return fmt.Sprintf("t%08x", time.Now().UnixNano()&0xffffffff)
	}
	return hex.EncodeToString(b[:])
}
