package trace

import (
	"lsnuma/internal/engine"
)

// Capture installs a recorder on the machine that appends every memory
// operation, in service order, to the writer. Errors are reported through
// the returned error function after the run (the engine hook cannot fail).
func Capture(m *engine.Machine, w *Writer) (firstErr func() error) {
	var err error
	m.SetRecorder(func(op Op) {
		if err == nil {
			err = w.Append(op)
		}
	})
	return func() error { return err }
}
