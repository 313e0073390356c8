package obs

import (
	"context"
	"log/slog"
)

// Structured-logging helpers shared by every instrumented package. The
// repo's logging contract mirrors the observer contract: a nil
// *slog.Logger means "logging off" and must cost exactly one nil check
// at each site, so instrumented code stores a possibly-nil logger and
// guards each call with `if log != nil`.

// StageLogger returns l scoped with a stage attribute — the logger the
// pipeline hands to each stage's package — or nil when l is nil, so
// the logging-off path allocates nothing.
func StageLogger(l *slog.Logger, stage string) *slog.Logger {
	if l == nil {
		return nil
	}
	return l.With(slog.String("stage", stage))
}

// LogHandle wraps a possibly-nil *slog.Logger for storage inside
// core.Config, which gob-serializes with saved models: like *Observer,
// it implements GobEncoder/GobDecoder as no-ops because loggers are
// per-process sinks, not model state. The zero handle means logging
// off; the embedded pointer promotes the full slog API, so sites guard
// with `if cfg.Log.Logger != nil`.
type LogHandle struct{ *slog.Logger }

// Log wraps a logger (or nil) in a LogHandle.
func Log(l *slog.Logger) LogHandle { return LogHandle{Logger: l} }

// GobEncode serializes nothing: loggers never travel with models.
func (LogHandle) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode restores nothing: a decoded handle is logging-off.
func (*LogHandle) GobDecode([]byte) error { return nil }

// DiscardLogger returns a non-nil logger whose handler rejects every
// level, so records are dropped before any attribute formatting. It is
// the cheapest *enabled* logger — benchmarks use it to price the
// logging plumbing itself, and tests use it to exercise instrumented
// paths without output.
func DiscardLogger() *slog.Logger { return discardLog }

var discardLog = slog.New(discardHandler{})

// discardHandler is a slog.Handler that is disabled at every level.
// (log/slog gained a stdlib DiscardHandler in Go 1.24; this repo's
// go directive predates it.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
