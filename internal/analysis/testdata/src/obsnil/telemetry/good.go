// Negative fixtures: the nil-safe shapes the telemetry API uses.
package telemetry

type Journal struct{ lines int }

// Append has the canonical guard as its first statement.
func (j *Journal) Append(line string) error {
	if j == nil {
		return nil
	}
	j.lines++
	_ = line
	return nil
}

// Close guards and returns a zero value.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.lines = 0
	return nil
}

type Buffer struct{ n int }

// Buffer is not in the nil-safe API set, so its methods are out of
// scope even without a guard.
func (b *Buffer) Add() { b.n++ }

type report struct{ name string }

// Add guards with an ||-chain: a nil receiver (or nil argument) is
// guaranteed to take the return before any dereference — the
// RunBuffer.Add shape.
func (b *RunBuffer) Add(r *report) {
	if b == nil || r == nil {
		return
	}
	b.n++
}

// Len touches the receiver only via another exported nil-safe method
// and a nil comparison.
func (b *RunBuffer) Len() int {
	if b != nil {
		b.Add(&report{})
	}
	return 0
}

// Flags is a value-populated flag carrier, deliberately outside the
// nil-safe set: its methods may dereference freely.
type Flags struct{ listen string }

func (f *Flags) Listening() bool { return f.listen != "" }

// unexported methods are outside the exported-API contract.
func (s *Server) reset() { s.addr = "" }
