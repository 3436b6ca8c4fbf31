package network

import (
	"testing"
	"testing/quick"

	"lsnuma/internal/memory"
	"lsnuma/internal/stats"
)

func newNet(t *testing.T, n int) (*Network, *stats.Stats) {
	t.Helper()
	st := stats.New(n)
	nw, err := New(32, n, st)
	if err != nil {
		t.Fatal(err)
	}
	return nw, st
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(0, 4, stats.New(4)); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(32, 0, stats.New(0)); err == nil {
		t.Error("zero-node network accepted")
	}
}

func TestLocalSendIsFree(t *testing.T) {
	nw, st := newNet(t, 4)
	if got := nw.Send(2, 2, stats.MsgReadReq, 100); got != 100 {
		t.Errorf("local send arrival = %d, want 100", got)
	}
	if st.TotalMsgs() != 0 {
		t.Error("local send counted as traffic")
	}
}

func TestRemoteSendLatency(t *testing.T) {
	nw, st := newNet(t, 4)
	// Header-only message: 8 bytes / 8 B/cy = 1 cycle occupancy.
	got := nw.Send(0, 1, stats.MsgReadReq, 100)
	want := uint64(100 + 1 + 60 + 1) // egress occ + hop + ingress occ
	if got != want {
		t.Errorf("arrival = %d, want %d", got, want)
	}
	if st.Msgs[stats.MsgReadReq] != 1 {
		t.Error("message not counted")
	}
}

func TestDataMessageOccupancy(t *testing.T) {
	nw, _ := newNet(t, 4)
	// Data message: (8+32)/8 = 5 cycles occupancy each side.
	got := nw.Send(0, 1, stats.MsgReadReply, 0)
	want := uint64(5 + 60 + 5)
	if got != want {
		t.Errorf("data arrival = %d, want %d", got, want)
	}
}

func TestEgressContention(t *testing.T) {
	nw, _ := newNet(t, 4)
	a := nw.Send(0, 1, stats.MsgReadReq, 100)
	b := nw.Send(0, 2, stats.MsgReadReq, 100) // same egress port, later departure
	if b <= a {
		t.Errorf("second message on busy egress arrived at %d, first at %d", b, a)
	}
	if b != a+1 { // serialized by 1 cycle of egress occupancy
		t.Errorf("contended arrival = %d, want %d", b, a+1)
	}
}

func TestIngressContention(t *testing.T) {
	nw, _ := newNet(t, 4)
	a := nw.Send(1, 0, stats.MsgReadReq, 100)
	b := nw.Send(2, 0, stats.MsgReadReq, 100) // different egress, same ingress
	if a == b {
		t.Error("two messages finished receiving at the same ingress simultaneously")
	}
}

func TestNoContentionAcrossDisjointPairs(t *testing.T) {
	nw, _ := newNet(t, 4)
	a := nw.Send(0, 1, stats.MsgReadReq, 100)
	b := nw.Send(2, 3, stats.MsgReadReq, 100)
	if a != b {
		t.Errorf("disjoint transfers interfered: %d vs %d", a, b)
	}
}

// TestArrivalMonotonicity: a message can never arrive before it was sent
// plus the minimum latency, and port busy-until times never decrease.
func TestArrivalMonotonicity(t *testing.T) {
	f := func(ops []uint16) bool {
		st := stats.New(4)
		nw, err := New(32, 4, st)
		if err != nil {
			return false
		}
		var lastEgress [4]uint64
		now := uint64(0)
		for _, op := range ops {
			from := memNode(op & 3)
			to := memNode((op >> 2) & 3)
			now += uint64(op >> 12) // advance time irregularly
			arr := nw.Send(from, to, stats.MsgReadReq, now)
			if from == to {
				if arr != now {
					return false
				}
				continue
			}
			if arr < now+62 { // occupancy 1 + hop 60 + occupancy 1
				return false
			}
			eg, _ := nw.PortBusyUntil(from)
			if eg < lastEgress[from] {
				return false
			}
			lastEgress[from] = eg
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrafficBytesAccumulate(t *testing.T) {
	nw, st := newNet(t, 2)
	nw.Send(0, 1, stats.MsgReadReq, 0)
	nw.Send(1, 0, stats.MsgReadReply, 50)
	if st.TotalBytes() != 8+(8+32) {
		t.Errorf("TotalBytes = %d", st.TotalBytes())
	}
}

func memNode(v uint16) memory.NodeID { return memory.NodeID(v) }

// TestSendAllocationFree guards the message hot path: Send is pure
// counter arithmetic (port occupancy + traffic accounting) and must not
// allocate — messages are never materialized as objects. Together with
// the engine's op reuse this keeps the per-access simulation path
// allocation-free.
func TestSendAllocationFree(t *testing.T) {
	st := stats.New(4)
	nw, err := New(32, 4, st)
	if err != nil {
		t.Fatal(err)
	}
	var now uint64
	allocs := testing.AllocsPerRun(100, func() {
		for mt := stats.MsgType(0); mt < stats.NumMsgTypes; mt++ {
			now = nw.Send(0, 1, mt, now)
			now = nw.Send(1, 0, mt, now)
		}
	})
	if allocs != 0 {
		t.Errorf("Send allocates %.1f times per message batch, want 0", allocs)
	}
}
