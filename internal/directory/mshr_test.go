package directory

import "testing"

func TestTxnBuffersReserveComplete(t *testing.T) {
	b := NewTxnBuffers(2, 2)
	s0, ok := b.Reserve(0, 10)
	if !ok {
		t.Fatal("fresh pool refused a reservation")
	}
	s1, ok := b.Reserve(0, 10)
	if !ok || s1 == s0 {
		t.Fatalf("second reservation: slot=%d ok=%v (first %d)", s1, ok, s0)
	}
	if _, ok := b.Reserve(0, 10); ok {
		t.Error("saturated home still granted a buffer")
	}
	if got := b.Busy(0, 10); got != 2 {
		t.Errorf("Busy(0,10) = %d, want 2", got)
	}

	// Homes are independent pools.
	if _, ok := b.Reserve(1, 10); !ok {
		t.Error("saturation leaked across homes")
	}

	// A reserved slot with no known end time never frees by the clock
	// alone, however far time advances.
	if _, ok := b.Reserve(0, 1<<60); ok {
		t.Error("open reservation freed by time passing")
	}

	// Complete releases the slot from `done` onward.
	b.Complete(0, s0, 50)
	if _, ok := b.Reserve(0, 49); ok {
		t.Error("buffer granted before its transaction completed")
	}
	got, ok := b.Reserve(0, 50)
	if !ok || got != s0 {
		t.Errorf("Reserve after completion: slot=%d ok=%v, want %d", got, ok, s0)
	}
}

func TestTxnBuffersBusyCounts(t *testing.T) {
	b := NewTxnBuffers(1, 3)
	a, _ := b.Reserve(0, 0)
	c, _ := b.Reserve(0, 0)
	b.Complete(0, a, 100)
	b.Complete(0, c, 200)
	for _, tc := range []struct {
		at   uint64
		want int
	}{{0, 2}, {99, 2}, {100, 1}, {199, 1}, {200, 0}} {
		if got := b.Busy(0, tc.at); got != tc.want {
			t.Errorf("Busy(0,%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
}
