package lsnuma

// Machine reuse (the run pool): re-running a point on a Reset pooled
// machine must reproduce a fresh machine's Result byte for byte, and an
// idle pooled machine must not pin per-run state.

import (
	"bytes"
	"testing"

	"lsnuma/internal/engine"
)

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
