package obs

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"dfpc/internal/durable"
)

// ProfileFlags holds the standard profiling flag values shared by the
// CLIs through telemetry.Flags. Register the flags, then bracket the
// program's work between Start and the returned stop function.
type ProfileFlags struct {
	CPUProfile string
	MemProfile string
	TracePath  string
}

// Register installs -cpuprofile, -memprofile, and -trace on fs.
func (f *ProfileFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.TracePath, "trace", "", "write a runtime execution trace to this file")
}

// Start begins the requested profiles. The returned stop function ends
// them and writes the heap profile; call it exactly once (defer is
// fine). With no flags set, both Start and stop are no-ops.
//
// Profiles stream into durable temp files and only rename to their
// final paths on a clean stop, so a crash mid-run never leaves a torn
// pprof file where a previous complete one stood.
func (f *ProfileFlags) Start() (stop func() error, err error) {
	var cpuFile, traceFile *durable.AtomicFile
	abort := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Abort()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Abort()
		}
	}
	if f.CPUProfile != "" {
		cpuFile, err = durable.Create(f.CPUProfile, nil)
		if err != nil {
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Abort()
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
	}
	if f.TracePath != "" {
		traceFile, err = durable.Create(f.TracePath, nil)
		if err != nil {
			abort()
			return nil, fmt.Errorf("obs: trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Abort()
			traceFile = nil
			abort()
			return nil, fmt.Errorf("obs: trace: %w", err)
		}
	}
	memPath := f.MemProfile
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("obs: cpuprofile: %w", err)
			}
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("obs: trace: %w", err)
			}
		}
		if memPath == "" {
			return firstErr
		}
		if err := durable.WriteAtomic(memPath, nil, func(w io.Writer) error {
			runtime.GC() // settle live objects before the heap snapshot
			return pprof.WriteHeapProfile(w)
		}); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("obs: memprofile: %w", err)
		}
		return firstErr
	}, nil
}
