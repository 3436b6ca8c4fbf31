package trace

import (
	"lsnuma/internal/engine"
)

// Capture installs a recorder on the machine that appends every memory
// operation, in service order, to the writer. Errors are reported through
// the returned error function after the run (the engine hook cannot fail).
func Capture(m *engine.Machine, w *Writer) (firstErr func() error) {
	var err error
	m.SetRecorder(func(rec engine.OpRecord) {
		if err != nil {
			return
		}
		err = w.Append(Op{
			CPU:     rec.CPU,
			Addr:    rec.Addr,
			Size:    rec.Size,
			Kind:    rec.Kind,
			Source:  rec.Source,
			RMW:     rec.RMW,
			Compute: rec.Compute,
		})
	})
	return func() error { return err }
}
