package engine

// opHeap is a binary min-heap of pending operations ordered by the
// scheduler's service order: smallest processor clock first, ties broken
// by lowest CPU id. It replaces the O(P) linear scan over the pending-op
// array, so picking the next runnable operation is O(log P) even for the
// 16/32-CPU Figure 5 configurations. Each processor has at most one
// pending operation, so the heap never exceeds the node count and — with
// the backing slice preallocated — never allocates on the hot path.
type opHeap struct {
	a []*op
}

// opBefore is the scheduler's total service order over pending ops.
func opBefore(x, y *op) bool {
	return x.at < y.at || (x.at == y.at && x.proc.id < y.proc.id)
}

// min returns the next op to service without removing it, or nil.
func (h *opHeap) min() *op {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

// push adds a pending op.
func (h *opHeap) push(o *op) {
	h.a = append(h.a, o)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !opBefore(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// pop removes and returns the next op to service, or nil if empty.
func (h *opHeap) pop() *op {
	n := len(h.a)
	if n == 0 {
		return nil
	}
	top := h.a[0]
	n--
	h.a[0] = h.a[n]
	h.a[n] = nil
	h.a = h.a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && opBefore(h.a[r], h.a[c]) {
			c = r
		}
		if !opBefore(h.a[c], h.a[i]) {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return top
}
