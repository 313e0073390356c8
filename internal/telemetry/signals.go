package telemetry

import (
	"context"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// HandleSignals installs the CLIs' shared two-stage interrupt policy on
// SIGINT and SIGTERM:
//
//   - the first signal cancels the returned context — the run winds down
//     gracefully, reporting partial statistics, flushing the journal,
//     and leaving checkpoints behind for a rerun with -checkpoint
//   - a second signal hard-exits with status 130, for runs wedged in a
//     stage that ignores cancellation
//
// The returned stop function releases the signal handler and the
// watcher goroutine; Session.Close calls it once the run is past the
// point where graceful cancellation matters.
func HandleSignals(parent context.Context, log *slog.Logger) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer signal.Stop(ch)
		select {
		case sig := <-ch:
			if log != nil {
				log.Warn("signal received; finishing gracefully (repeat to force exit)",
					slog.String("signal", sig.String()))
			}
			cancel()
		case <-done:
			return
		}
		select {
		case sig := <-ch:
			if log != nil {
				log.Error("second signal; exiting immediately",
					slog.String("signal", sig.String()))
			}
			os.Exit(130)
		case <-done:
		}
	}()
	var once sync.Once
	return ctx, func() {
		once.Do(func() { close(done) })
		cancel()
	}
}
