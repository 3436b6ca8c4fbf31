package lsnuma

// Differential tests for the flat paged directory (PR 5): every
// workload × protocol × scheduler combination must export byte-identical
// Results under the dense array-backed directory and under the legacy
// map-backed directory (Config.MapDirectory). The map backend is the
// reference storage semantics; the flat backend claims identical protocol
// behavior with none of the hashing, and these tests hold it to that.
// Machine reuse (the run pool) is also pinned here: re-running a point on
// a Reset machine must reproduce a fresh machine's Result byte for byte.

import (
	"bytes"
	"fmt"
	"testing"

	"lsnuma/internal/engine"
)

// runFlatMap runs the same point with the flat and the map directory
// backends and fails unless the exported Results match byte for byte.
func runFlatMap(t *testing.T, cfg Config, run func(Config) (*Result, error)) {
	t.Helper()
	cfg.MapDirectory = true
	mp, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MapDirectory = false
	flat, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mj, fj := exportJSON(t, mp), exportJSON(t, flat)
	if !bytes.Equal(mj, fj) {
		t.Errorf("directory backends diverge:\nmap:  %s\nflat: %s", mj, fj)
	}
}

// TestFlatVsMapMatrix covers the full workload × protocol × scheduler
// matrix: the directory storage layout must be invisible in every Result.
func TestFlatVsMapMatrix(t *testing.T) {
	for _, w := range Workloads() {
		for _, p := range Protocols() {
			for _, serial := range []bool{false, true} {
				w, p, serial := w, p, serial
				sched := "ahead"
				if serial {
					sched = "serial"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", w, p, sched), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig()
					if w == "oltp" {
						cfg = OLTPConfig()
					}
					cfg.Protocol = p
					cfg.Scheduler = schedulerName(serial)
					runFlatMap(t, cfg, func(c Config) (*Result, error) {
						return Run(c, w, ScaleTest)
					})
				})
			}
		}
	}
}

// TestFlatVsMapChecked re-runs the matrix's LS column with the online
// invariant checker on: the checker iterates the directory, so it must
// see identical state under both layouts.
func TestFlatVsMapChecked(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			if w == "oltp" {
				cfg = OLTPConfig()
			}
			cfg.Protocol = LS
			cfg.Check = CheckFull
			runFlatMap(t, cfg, func(c Config) (*Result, error) {
				return Run(c, w, ScaleTest)
			})
		})
	}
}

// TestMachineReuseDeterminism pins the run pool's contract: the first Run
// of a config uses a fresh machine, later Runs of structurally compatible
// configs get a Reset pooled machine, and every repetition must export a
// byte-identical Result. The middle runs deliberately retarget the pooled
// machine across protocols to exercise Reset's protocol swap.
func TestMachineReuseDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	first, err := Run(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, first)
	for i := 0; i < 3; i++ {
		for _, p := range Protocols() {
			c := cfg
			c.Protocol = p
			if _, err := Run(c, "mp3d", ScaleTest); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Run(cfg, "mp3d", ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		if got := exportJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("rep %d diverged from fresh-machine run:\nfresh:  %s\nreused: %s", i, want, got)
		}
	}
}

// TestMachineReuseTrim pins what an idle pooled machine keeps. A run with
// the false-sharing classifier on releases its machine to the pool without
// the per-run state (classifier, sequence detector, allocator, op ring),
// and the runs that reuse it — with the classifier on, or off in between —
// export byte-identical Results.
func TestMachineReuseTrim(t *testing.T) {
	if machineReuseDisabled {
		t.Skip("LSNUMA_NO_REUSE disables the run pool")
	}
	machinePool.Lock()
	clear(machinePool.free)
	machinePool.n = 0
	machinePool.Unlock()

	cfg := DefaultConfig()
	cfg.Protocol = LS
	cfg.TrackFalseSharing = true
	cfg.RecordOps = 32
	idle := func() *engine.Machine {
		t.Helper()
		machinePool.Lock()
		defer machinePool.Unlock()
		list := machinePool.free[poolClass(cfg)]
		if len(list) != 1 {
			t.Fatalf("pool holds %d machines of the run's class, want 1", len(list))
		}
		m := list[0]
		if m.FalseSharing() != nil || m.Sequences() != nil || m.Alloc() != nil || m.LastOps() != nil {
			t.Fatalf("idle pooled machine keeps per-run state: classifier=%v sequences=%v alloc=%v ops=%d",
				m.FalseSharing() != nil, m.Sequences() != nil, m.Alloc() != nil, len(m.LastOps()))
		}
		return m
	}

	first, err := Run(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if first.MissKinds[0] == 0 {
		t.Fatal("the classifier did not run")
	}
	want := exportJSON(t, first)
	pooled := idle()
	for i, fs := range []bool{true, false, true} {
		c := cfg
		c.TrackFalseSharing = fs
		res, err := Run(c, "mp3d", ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		if idle() != pooled {
			t.Fatalf("run %d did not reuse the pooled machine", i)
		}
		if got := exportJSON(t, res); fs && !bytes.Equal(got, want) {
			t.Fatalf("run %d on the reused machine diverged:\nfresh:  %s\nreused: %s", i, want, got)
		}
	}
}
