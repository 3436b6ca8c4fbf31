package lsnuma

// Differential tests for the directory wire formats (Config.DirFormat):
// the exact sharer set stays simulation truth in every format, so a run
// under limited-pointer or coarse-vector encoding must export a Result
// byte-identical to the full-map reference except for the documented
// Dir block (format name, entry bits, extra-invalidation counters). The
// matrix runs with online coherence checking on, so the compact formats
// are also certified invariant-clean.

import (
	"bytes"
	"fmt"
	"testing"
)

// dirFormats are the compact encodings the matrix holds against the
// full-map oracle: a tight limited-pointer directory that actually
// overflows on shared data, and a coarse vector whose groups actually
// overshoot.
var dirFormats = []string{"limited:1", "limited:2", "coarse:4"}

// stripDir zeroes the format-dependent Dir block so the remainder of two
// Results can be compared byte for byte.
func stripDir(r *Result) *Result {
	cp := *r
	cp.Dir = DirRow{}
	return &cp
}

// runFormats runs the same point under the full-map reference and every
// compact format, requiring byte-identical Results modulo the Dir block,
// and returns the compact Results by format for counter assertions.
func runFormats(t *testing.T, cfg Config, run func(Config) (*Result, error)) map[string]*Result {
	t.Helper()
	ref, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Dir.Format != "full" {
		t.Errorf("reference Dir.Format = %q, want full", ref.Dir.Format)
	}
	if d := ref.Dir; d.ExtraInvals != 0 || d.Broadcasts != 0 || d.Overflows != 0 {
		t.Errorf("full-map run reports format overshoot: %+v", d)
	}
	rj := exportJSON(t, stripDir(ref))
	out := make(map[string]*Result, len(dirFormats))
	for _, format := range dirFormats {
		c := cfg
		c.DirFormat = format
		res, err := run(c)
		if err != nil {
			t.Fatalf("dirformat=%s: %v", format, err)
		}
		if res.Dir.Format != format {
			t.Errorf("dirformat=%s: Dir.Format = %q", format, res.Dir.Format)
		}
		if fj := exportJSON(t, stripDir(res)); !bytes.Equal(rj, fj) {
			t.Errorf("dirformat=%s diverges from full-map beyond the Dir block:\nfull:    %s\ncompact: %s",
				format, rj, fj)
		}
		out[format] = res
	}
	return out
}

// TestDirFormatMatrix covers the four paper workloads under all three
// protocols with checking on: every compact format must reproduce the
// full-map Result exactly, modulo the Dir counters.
func TestDirFormatMatrix(t *testing.T) {
	for _, w := range Workloads() {
		for _, p := range Protocols() {
			w, p := w, p
			t.Run(fmt.Sprintf("%s/%s", w, p), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				if w == "oltp" {
					cfg = OLTPConfig()
				}
				cfg.Protocol = p
				cfg.Check = CheckTouched
				runFormats(t, cfg, func(c Config) (*Result, error) {
					return Run(c, w, ScaleTest)
				})
			})
		}
	}
}

// TestDirFormatCounters pins the architectural accounting on a workload
// with real read sharing: a single-pointer directory must overflow and
// broadcast, and a coarse vector must overshoot, while the wider limited
// directory stays within capacity on mostly-migratory data.
func TestDirFormatCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.Protocol = Baseline
	cfg.Check = CheckTouched
	results := runFormats(t, cfg, func(c Config) (*Result, error) {
		return Run(c, "cholesky", ScaleTest)
	})
	lim := results["limited:1"].Dir
	if lim.Overflows == 0 || lim.Broadcasts == 0 || lim.ExtraInvals == 0 {
		t.Errorf("limited:1 on shared data never overflowed: %+v", lim)
	}
	coarse := results["coarse:4"].Dir
	if coarse.ExtraInvals == 0 {
		t.Errorf("coarse:4 never overshot a group: %+v", coarse)
	}
	if coarse.Overflows != 0 || coarse.Broadcasts != 0 {
		t.Errorf("coarse vector reported pointer-overflow counters: %+v", coarse)
	}
	if eb := results["coarse:4"].Dir.EntryBits; eb != 2 {
		t.Errorf("coarse:4 EntryBits at 8 nodes = %d, want 2", eb)
	}
}

// TestDirFormatSchedulers certifies the compact formats' Dir counters
// under both schedulers: a run-ahead Result, Dir block included, must
// match the serial reference byte for byte.
func TestDirFormatSchedulers(t *testing.T) {
	for _, format := range dirFormats {
		format := format
		t.Run(format, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Nodes = 16
			cfg.Protocol = LS
			cfg.DirFormat = format
			runBoth(t, cfg, func(c Config) (*Result, error) {
				return Run(c, "cholesky", ScaleTest)
			})
		})
	}
}

// TestDirFormatBigMachine exercises the sharer sets beyond one 64-bit
// word: a 96-processor read-shared run must behave identically under the
// full map and a coarse vector, and the coarse entry must cost a quarter
// of the full map's bits.
func TestDirFormatBigMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 96
	cfg.Protocol = Baseline
	cfg.Check = CheckTouched
	cfg.Mesh2D = true
	cfg.HopDelay = 2
	cfg.Concentration = 4
	results := runFormats(t, cfg, func(c Config) (*Result, error) {
		return Run(c, "mp3d", ScaleTest)
	})
	if eb := results["coarse:4"].Dir.EntryBits; eb != 24 {
		t.Errorf("coarse:4 EntryBits at 96 nodes = %d, want 24", eb)
	}
}
