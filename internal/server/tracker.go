package server

// tracker hands out the units of a job's flat point list in order, each
// exactly once, as soon as all of the unit's points have completed. A
// unit is width consecutive points: a sweep cell's protocols, or one
// compare point. Points complete in any order.
//
// A tracker is not safe for concurrent use; the stream serializes done
// and flush under its mutex.
type tracker struct {
	width  int
	remain []int  // points still pending, per unit
	seen   []bool // points completed
	next   int    // first unit not yet handed out
}

// newTracker returns a tracker over points points in units of width.
func newTracker(points, width int) *tracker {
	remain := make([]int, points/width)
	for u := range remain {
		remain[u] = width
	}
	return &tracker{width: width, remain: remain, seen: make([]bool, points)}
}

// done records the completion of point i and hands emit every unit that
// is now ready, in order: a unit is ready when its points have all
// completed and every earlier unit has been handed out. Out-of-range
// indexes and repeat completions are ignored.
func (t *tracker) done(i int, emit func(unit int)) {
	if i < 0 || i >= len(t.seen) || t.seen[i] {
		return
	}
	t.seen[i] = true
	t.remain[i/t.width]--
	for ; t.next < len(t.remain) && t.remain[t.next] == 0; t.next++ {
		emit(t.next)
	}
}

// flush hands emit every unit not yet handed out, in order: the tail of
// a cancelled job, whose skipped points never reach done.
func (t *tracker) flush(emit func(unit int)) {
	for ; t.next < len(t.remain); t.next++ {
		emit(t.next)
	}
}
