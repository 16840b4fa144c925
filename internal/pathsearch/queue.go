package pathsearch

// pqItem is a priority-queue entry: either a fresh label (side 0), a sweep
// continuation for one frontier of a label (side ±1), or a node-search
// state (label = state index). seq is the global insertion counter; equal
// keys pop newest-first (LIFO), so pop order — and therefore routing
// output — is deterministic across runs. LIFO ties finish the most recent
// exploration before revisiting equal-cost alternatives, which measures
// slightly better route quality than FIFO on the benchmark chips.
type pqItem struct {
	key   int
	seq   int32
	label int32
	side  int8
}

func (a pqItem) less(b pqItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq > b.seq
}

// pqHeap is a concrete-typed binary min-heap ordered by (key, seq).
// Hand-rolled sift avoids the interface{} boxing of container/heap, which
// costs one allocation per Push.
type pqHeap []pqItem

func (h *pqHeap) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *pqHeap) pop() pqItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s[l].less(s[m]) {
			m = l
		}
		if r < n && s[r].less(s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
