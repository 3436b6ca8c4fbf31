package server

import (
	"fmt"
	"math/rand"
	"testing"
)

// trackerWidths are the unit widths the stream uses: one compare point,
// and one sweep cell of three protocols.
var trackerWidths = []int{1, 3}

// TestTrackerInOrder: points completing in order hand units back one
// at a time, in order, exactly once.
func TestTrackerInOrder(t *testing.T) {
	for _, width := range trackerWidths {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			const units = 4
			tr := newTracker(units*width, width)
			var got []int
			emit := func(u int) { got = append(got, u) }
			for i := 0; i < units*width; i++ {
				tr.done(i, emit)
				if want := (i + 1) / width; len(got) != want {
					t.Fatalf("after point %d: handed out %d units, want %d", i, len(got), want)
				}
			}
			for i, u := range got {
				if u != i {
					t.Fatalf("unit order %v, want ascending from 0", got)
				}
			}
			tr.flush(emit)
			if len(got) != units {
				t.Fatalf("flush after completion handed out %v, want nothing more", got[units:])
			}
		})
	}
}

// TestTrackerOutOfOrder: any completion order still yields each unit
// exactly once, in order, and flush returns the unfinished tail of a
// cancelled job.
func TestTrackerOutOfOrder(t *testing.T) {
	for _, width := range trackerWidths {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			const units = 7
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 50; trial++ {
				perm := rng.Perm(units * width)
				stop := len(perm)
				if trial%2 == 1 { // half the trials: a cancelled job
					stop = rng.Intn(len(perm))
				}
				tr := newTracker(units*width, width)
				var got []int
				emit := func(u int) { got = append(got, u) }
				for _, i := range perm[:stop] {
					tr.done(i, emit)
				}
				tr.flush(emit)
				if len(got) != units {
					t.Fatalf("trial %d: handed out %d units, want %d", trial, len(got), units)
				}
				for i, u := range got {
					if u != i {
						t.Fatalf("trial %d: unit order %v, want ascending", trial, got)
					}
				}
			}
		})
	}
}

// TestTrackerDuplicateAndBogusPoints: repeat completions and
// out-of-range indexes are ignored instead of releasing a unit early.
func TestTrackerDuplicateAndBogusPoints(t *testing.T) {
	for _, width := range trackerWidths {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			tr := newTracker(2*width, width)
			var got []int
			emit := func(u int) { got = append(got, u) }
			tr.done(-1, emit)
			tr.done(2*width, emit) // beyond the last unit
			if len(got) != 0 {
				t.Fatalf("bogus indexes handed out %v, want nothing", got)
			}
			for i := 0; i < width; i++ {
				tr.done(0, emit) // the same point over and over
			}
			// Only a one-point unit is complete after one distinct point.
			if want := 1 / width; len(got) != want {
				t.Fatalf("repeat completions handed out %v, want %d unit(s) (unit 0 has %d distinct points)", got, want, width)
			}
			for i := 0; i < 2*width; i++ {
				tr.done(i, emit)
			}
			if len(got) != 2 || got[0] != 0 || got[1] != 1 {
				t.Fatalf("handed out %v, want [0 1] once each", got)
			}
		})
	}
}
