package telemetry

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"dfpc/internal/durable"
	"dfpc/internal/faults"
	"dfpc/internal/modelobs"
	"dfpc/internal/obs"
)

// Flags is the run-lifecycle flag set shared by the dfpc, dfpc-mine,
// and experiments CLIs. Register it on the command's FlagSet, parse,
// then Start a Session; each CLI declares only its own flags besides.
type Flags struct {
	// Listen is the debug server address; empty disables the server.
	Listen string
	// LogFormat selects the slog handler: "text" or "json".
	LogFormat string
	// Journal is the JSONL run-journal path; empty disables journaling.
	Journal string
	// Verbose lowers the log level to debug and prints the stage tree
	// to stderr at Finish.
	Verbose bool
	// Report and TraceJSON are the RunReport JSON and Chrome trace
	// paths Finish writes; empty skips each.
	Report    string
	TraceJSON string
	// Timeout bounds the whole run through Start's context; 0 is
	// unbounded.
	Timeout time.Duration
	// FaultSpec arms the session's fault registry.
	FaultSpec string
	// Profile holds -cpuprofile, -memprofile and -trace.
	Profile obs.ProfileFlags
}

// Register installs every flag the CLIs share: -listen, -log-format,
// -journal, -verbose, -report, -tracejson, -timeout, -faults, and the
// profile trio.
func (f *Flags) Register(fs *flag.FlagSet) {
	if f == nil {
		return
	}
	fs.StringVar(&f.Listen, "listen", "", "serve /metrics, /runs, /healthz, /drift and /debug/pprof on this address (e.g. :9090)")
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&f.Journal, "journal", "", "append one JSONL record per run to this file")
	fs.BoolVar(&f.Verbose, "verbose", false, "log at debug level (per-fold progress) and print a stage-timing tree to stderr")
	fs.StringVar(&f.Report, "report", "", "write a JSON RunReport of the run here")
	fs.StringVar(&f.TraceJSON, "tracejson", "", "write a Chrome trace_event JSON timeline here (open in ui.perfetto.dev)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "whole-run wall-clock bound (0 = unbounded)")
	fs.StringVar(&f.FaultSpec, "faults", "", "deterministic fault-injection spec: point:nth[:kind],... with kind error, canceled, deadline, transient or panic (testing aid)")
	f.Profile.Register(fs)
}

// Session is a CLI's run lifetime: the profiles, the root logger, the
// observer, the fault registry, the debug server (if -listen), the
// journal (if -journal), the /runs ring buffer, and the signal handler.
// Construct with Flags.Start; on a nil *Session every method but Fail
// is a no-op. Close it before exit; Fail does so on error paths, since
// os.Exit skips deferred calls.
type Session struct {
	// Log is the process root logger, always non-nil on a session
	// Start returned without error: stderr, with component and run_id
	// attributes, at debug level under -verbose.
	Log   *slog.Logger
	RunID string
	// Obs is the run's observer, nil unless -verbose, -report,
	// -tracejson, -listen, or -journal reads it.
	Obs *obs.Observer
	// Faults is the -faults registry, nil without -faults.
	Faults *faults.Registry

	component string
	verbose   bool
	report    string
	traceJSON string
	journal   *Journal
	server    *Server
	runs      *RunBuffer
	stopProf  func() error
	stopSigs  context.CancelFunc
	cancel    context.CancelFunc // the -timeout context
	closeOnce sync.Once
}

// Start opens the run: it starts the profiles, builds the root logger
// and (when a flag reads it) the observer, parses -faults, bounds the
// returned context by -timeout, opens the journal, binds and serves
// the debug server, and installs HandleSignals on the context.
// component names the CLI in logs, journal records and Fail's prefix.
// On error the returned session holds what Start had opened, already
// closed, so ses.Fail(err) reports it under the component prefix.
func (f *Flags) Start(component string) (context.Context, *Session, error) {
	ctx := context.Background()
	s := &Session{component: component}
	fail := func(err error) (context.Context, *Session, error) {
		s.Close()
		return ctx, s, err
	}
	s.verbose, s.report, s.traceJSON = f.Verbose, f.Report, f.TraceJSON
	stop, err := f.Profile.Start()
	if err != nil {
		return fail(err)
	}
	s.stopProf = stop

	s.RunID = NewRunID()
	lvl := slog.LevelInfo
	if f.Verbose {
		lvl = slog.LevelDebug
	}
	var h slog.Handler
	switch f.LogFormat {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
	case "json":
		h = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
	default:
		return fail(fmt.Errorf("telemetry: unknown -log-format %q (want text or json)", f.LogFormat))
	}
	s.Log = slog.New(h).With(
		slog.String("component", component),
		slog.String("run_id", s.RunID),
	)
	if f.Verbose || f.Report != "" || f.TraceJSON != "" || f.Listen != "" || f.Journal != "" {
		s.Obs = obs.New()
		s.Obs.SetLogger(s.Log) // surface span-leak warnings
	}
	if f.FaultSpec != "" {
		s.Faults = faults.New()
		if err := s.Faults.Parse(f.FaultSpec); err != nil {
			return fail(err)
		}
	}
	if f.Timeout > 0 {
		ctx, s.cancel = context.WithTimeout(ctx, f.Timeout)
	}
	if s.journal, err = OpenJournal(f.Journal, component, s.RunID); err != nil {
		return fail(err)
	}
	s.journal.SetFaults(s.Faults)
	if f.Listen != "" {
		s.runs = NewRunBuffer(32)
		srv := NewServer(ServerConfig{Addr: f.Listen, Obs: s.Obs, Runs: s.runs, Log: s.Log})
		if err := srv.Start(ctx); err != nil {
			return fail(err)
		}
		s.server = srv
	}
	// First SIGINT/SIGTERM cancels the run (partial stats, flushed
	// journal, checkpoints intact); a second hard-exits with 130.
	ctx, s.stopSigs = HandleSignals(ctx, s.Log)
	return ctx, s, nil
}

// Fail prints args to stderr behind the component prefix, closes the
// session, and exits with status 1.
func (s *Session) Fail(args ...any) {
	if s == nil {
		fmt.Fprintln(os.Stderr, args...)
		os.Exit(1)
		return
	}
	fmt.Fprintln(os.Stderr, append([]any{s.component + ":"}, args...)...)
	s.Close()
	os.Exit(1)
}

// Finish publishes a completed run: it snapshots the observer's report
// under name with rec.Audits attached, adds it to /runs, prints the
// stage tree to stderr under -verbose, writes -report and -tracejson
// atomically, and journals rec with Stages filled in. A failed write
// returns its error before anything is journaled.
func (s *Session) Finish(name string, rec Record) error {
	if s == nil {
		return nil
	}
	rep := s.Obs.Report(name)
	if rep != nil {
		if len(rec.Audits) > 0 {
			rep.Audits = rec.Audits
		}
		s.runs.Add(rep)
		// Stage detail goes to stderr: stdout carries only the run's
		// own output, so it stays machine-parseable.
		if s.verbose {
			fmt.Fprintln(os.Stderr)
			rep.WriteTree(os.Stderr)
		}
		for _, a := range []struct {
			path, what string
			write      func(io.Writer) error
		}{
			{s.report, "run report", rep.WriteJSON},
			{s.traceJSON, "trace", rep.WriteTrace},
		} {
			if a.path == "" {
				continue
			}
			if err := durable.WriteAtomic(a.path, s.Faults, a.write); err != nil {
				return err
			}
			s.Log.Info(a.what+" written", "path", a.path)
		}
	}
	rec.Stages = StagesFromReport(rep)
	s.Journal(rec)
	return nil
}

// EnableDrift exposes the tracker on the debug server's /drift
// endpoint. Safe before or after Start's server is serving; a no-op
// without -listen.
func (s *Session) EnableDrift(t *modelobs.Tracker) {
	if s == nil {
		return
	}
	s.server.SetDrift(t)
}

// Journal appends one record to the run journal (a no-op without
// -journal). Failures are logged, not fatal: telemetry must never
// kill a finished run.
func (s *Session) Journal(rec Record) {
	if s == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil && s.Log != nil {
		s.Log.Warn("journal append failed", slog.String("err", err.Error()))
	}
}

// Close releases the session: the signal handler, the debug server
// (shut down gracefully), the journal, the -timeout context, and the
// profiles. Calls after the first are no-ops.
func (s *Session) Close() {
	if s == nil {
		return
	}
	s.closeOnce.Do(func() {
		if s.stopSigs != nil {
			s.stopSigs()
		}
		if s.server != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = s.server.Shutdown(ctx)
			cancel()
		}
		if err := s.journal.Close(); err != nil && s.Log != nil {
			s.Log.Warn("journal close failed", slog.String("err", err.Error()))
		}
		if s.cancel != nil {
			s.cancel()
		}
		if s.stopProf != nil {
			if err := s.stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, s.component+": profiling:", err)
			}
		}
	})
}

// Addr returns the debug server's bound address ("" when -listen is
// unset), for tests and startup banners.
func (s *Session) Addr() string {
	if s == nil {
		return ""
	}
	return s.server.Addr()
}
