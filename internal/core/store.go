package core

// The value plane: every per-iteration payload the engine touches — stashed
// peer actuals, validated history, its own partition results, assembled
// views, pending predictions — lives here, in iteration-indexed rings with
// pooled buffers. The state machine in core.go holds no payload maps; it
// asks the plane for slices and the plane guarantees the steady-state path
// allocates nothing: rings are fixed arrays, own/prediction buffers cycle
// through a bufPool, and view/prediction rows cycle through a freelist.

import (
	"specomp/internal/checkpoint"
	"specomp/internal/history"
)

// histEntry is one validated snapshot in a peer's backward-window ring,
// tagged with the iteration it belongs to so the speculation base is
// correct for any exchange pattern.
type histEntry struct {
	iter int
	data []float64
}

// lane is an iteration-indexed sliding window of values: a ring for the
// O(1) no-allocation common case plus a rare-path overflow map for entries
// that outlive their ring slot (e.g. a deep validation stall right after a
// restore puts more than `capacity` live iterations in flight). floor is
// the oldest iteration still worth keeping; older entries are dropped on
// eviction and purged from the overflow as the floor advances.
type lane[T any] struct {
	ring     *history.IterRing[T]
	overflow map[int]T
	floor    int
}

func newLane[T any](capacity int) lane[T] {
	return lane[T]{ring: history.NewIterRing[T](capacity), floor: -(1 << 30)}
}

func (l *lane[T]) get(iter int) (T, bool) {
	if v, ok := l.ring.Get(iter); ok {
		return v, true
	}
	if l.overflow != nil {
		v, ok := l.overflow[iter]
		return v, ok
	}
	var zero T
	return zero, false
}

// put stores v for iter. An entry evicted from the ring spills to the
// overflow map while still at or above the floor; below it, the entry is
// returned so the caller can recycle its buffers (ok=false otherwise).
func (l *lane[T]) put(iter int, v T) (dropped T, ok bool) {
	if l.overflow != nil {
		delete(l.overflow, iter)
	}
	ev, evIter, wasEv := l.ring.Put(iter, v)
	if !wasEv {
		return dropped, false
	}
	if evIter >= l.floor {
		if l.overflow == nil {
			l.overflow = make(map[int]T)
		}
		l.overflow[evIter] = ev
		return dropped, false
	}
	return ev, true
}

func (l *lane[T]) del(iter int) (T, bool) {
	if v, ok := l.ring.Delete(iter); ok {
		return v, true
	}
	if l.overflow != nil {
		if v, ok := l.overflow[iter]; ok {
			delete(l.overflow, iter)
			return v, true
		}
	}
	var zero T
	return zero, false
}

// retained reports how many entries the lane currently holds (ring plus
// overflow) — the quantity the memory-bound test asserts stays below the
// lane's fixed capacity across arbitrarily long runs.
func (l *lane[T]) retained() int {
	n := len(l.overflow)
	if l.ring != nil {
		n += l.ring.Len()
	}
	return n
}

// setFloor raises the keep-horizon and purges overflow entries that fell
// below it, passing each to recycle (when non-nil). The overflow is empty in
// steady state, so this is a length check per call.
func (l *lane[T]) setFloor(floor int, recycle func(T)) {
	if floor <= l.floor {
		return
	}
	l.floor = floor
	if len(l.overflow) == 0 {
		return
	}
	for it, v := range l.overflow {
		if it < floor {
			delete(l.overflow, it)
			if recycle != nil {
				recycle(v)
			}
		}
	}
}

// valuePlane is one processor's payload store. Peer state is keyed by
// dependency edge: one lane per in-edge of the run's DepGraph (for the
// degenerate complete graph that is one lane per peer, the classical
// layout), with laneOf translating a source rank to its lane index.
type valuePlane struct {
	self int
	np   int
	pool *bufPool

	// laneOf[k] is the dense in-edge index of source rank k, or -1 when no
	// edge k→self exists (payloads from such ranks are dropped on arrival).
	laneOf []int
	// peers[i] stashes the i-th in-edge's actual iteration payloads as
	// delivered (buffers are adopted from the transport and never recycled,
	// so stored history may alias them safely).
	peers []lane[[]float64]
	// hist[i] is the i-th in-edge's validated history: the BW newest
	// validated snapshots, the speculation fallback when the stash has no
	// base.
	hist []*history.Ring[histEntry]
	// own holds the local partition per iteration, copied into pooled
	// buffers so app-returned slices are never retained.
	own lane[[]float64]
	// views holds the assembled global view rows; preds the prediction rows
	// (nil slot = actual was used). Rows cycle through rowFree.
	views lane[[][]float64]
	preds lane[[][]float64]

	rowFree     [][][]float64
	histScratch [][]float64
	convScratch [][]float64
}

// newValuePlane builds the payload store for one processor. in is the
// sorted list of source ranks this processor reads (its in-edges); only
// those ranks get stash/history lanes.
func newValuePlane(self, np, bw, peerCap, iterCap int, in []int) *valuePlane {
	vp := &valuePlane{
		self:        self,
		np:          np,
		pool:        newBufPool(),
		laneOf:      make([]int, np),
		peers:       make([]lane[[]float64], len(in)),
		hist:        make([]*history.Ring[histEntry], len(in)),
		own:         newLane[[]float64](iterCap),
		views:       newLane[[][]float64](iterCap),
		preds:       newLane[[][]float64](iterCap),
		histScratch: make([][]float64, 0, bw),
		convScratch: make([][]float64, np),
	}
	for k := range vp.laneOf {
		vp.laneOf[k] = -1
	}
	for i, k := range in {
		vp.laneOf[k] = i
		vp.peers[i] = newLane[[]float64](peerCap)
		vp.hist[i] = history.NewRing[histEntry](bw)
	}
	return vp
}

// peerLane returns source rank k's stash lane, or nil when no edge k→self
// exists.
func (vp *valuePlane) peerLane(k int) *lane[[]float64] {
	if i := vp.laneOf[k]; i >= 0 {
		return &vp.peers[i]
	}
	return nil
}

// histRing returns source rank k's validated-history ring, or nil when no
// edge k→self exists.
func (vp *valuePlane) histRing(k int) *history.Ring[histEntry] {
	if i := vp.laneOf[k]; i >= 0 {
		return vp.hist[i]
	}
	return nil
}

// stash records an actual snapshot, first-wins: a rejoin re-send must never
// overwrite the copy peers already computed against. Payloads from ranks
// with no edge to this processor are dropped. Dropped evictions are
// transport-owned buffers; the GC takes them.
func (vp *valuePlane) stash(src, iter int, data []float64) {
	l := vp.peerLane(src)
	if l == nil {
		return
	}
	if _, ok := l.get(iter); ok {
		return
	}
	l.put(iter, data)
}

// actualOf returns peer k's stashed iteration-iter payload.
func (vp *valuePlane) actualOf(k, iter int) ([]float64, bool) {
	l := vp.peerLane(k)
	if l == nil {
		return nil, false
	}
	return l.get(iter)
}

// pushHistory appends a validated snapshot to peer k's backward window.
// data aliases the stash (stashed buffers are immutable), so no copy.
func (vp *valuePlane) pushHistory(k, iter int, data []float64) {
	if r := vp.histRing(k); r != nil {
		r.Push(histEntry{iter: iter, data: data})
	}
}

// collectHist gathers the newest-first speculation history for peer k at
// iteration t into a reused scratch slice (valid until the next call):
// the newest stashed actual at or before t-1 within lookback, plus up to
// bw-1 consecutive predecessors; falling back to the validated-history ring
// when the stash has no base. Returns base -1 when there is no history.
func (vp *valuePlane) collectHist(k, t, lookback, bw int) ([][]float64, int) {
	l := vp.peerLane(k)
	if l == nil {
		return nil, -1
	}
	hist := vp.histScratch[:0]
	base := -1
	for s := t - 1; s >= 0 && s >= t-lookback; s-- {
		if v, ok := l.get(s); ok {
			base = s
			hist = append(hist, v)
			for q := s - 1; q >= 0 && len(hist) < bw; q-- {
				v2, ok2 := l.get(q)
				if !ok2 {
					break
				}
				hist = append(hist, v2)
			}
			break
		}
	}
	if base == -1 {
		r := vp.histRing(k)
		if r.Len() == 0 {
			return nil, -1
		}
		for i := 0; i < r.Len(); i++ {
			hist = append(hist, r.At(i).data)
		}
		base = r.At(0).iter
	}
	vp.histScratch = hist
	return hist, base
}

// setOwn stores the local partition for an iteration, copying vals into a
// pooled buffer (or in place when the slot already holds one of the right
// shape). The caller keeps ownership of vals.
func (vp *valuePlane) setOwn(iter int, vals []float64) {
	if cur, ok := vp.own.get(iter); ok {
		if len(cur) == len(vals) && (cur == nil) == (vals == nil) {
			copy(cur, vals)
			return
		}
		if cur2, ok2 := vp.own.del(iter); ok2 {
			vp.pool.put(cur2)
		}
	}
	var buf []float64
	if vals != nil {
		buf = vp.pool.get(len(vals))
		copy(buf, vals)
	}
	if dropped, ok := vp.own.put(iter, buf); ok {
		vp.pool.put(dropped)
	}
}

// ownAt returns the local partition at an iteration (nil when absent).
func (vp *valuePlane) ownAt(iter int) []float64 {
	v, _ := vp.own.get(iter)
	return v
}

func (vp *valuePlane) dropOwn(iter int) {
	if v, ok := vp.own.del(iter); ok {
		vp.pool.put(v)
	}
}

func (vp *valuePlane) newRow() [][]float64 {
	if k := len(vp.rowFree); k > 0 {
		r := vp.rowFree[k-1]
		vp.rowFree[k-1] = nil
		vp.rowFree = vp.rowFree[:k-1]
		for i := range r {
			r[i] = nil
		}
		return r
	}
	return make([][]float64, vp.np)
}

func (vp *valuePlane) freeRow(r [][]float64) {
	vp.rowFree = append(vp.rowFree, r)
}

// newViewRow registers and returns a cleared per-peer row for iteration
// iter's assembled view.
func (vp *valuePlane) newViewRow(iter int) [][]float64 {
	row := vp.newRow()
	if dropped, ok := vp.views.put(iter, row); ok {
		vp.freeRow(dropped)
	}
	return row
}

func (vp *valuePlane) viewAt(iter int) [][]float64 {
	r, _ := vp.views.get(iter)
	return r
}

func (vp *valuePlane) dropView(iter int) {
	if r, ok := vp.views.del(iter); ok {
		vp.freeRow(r)
	}
}

// newPredRow registers and returns a cleared per-peer prediction row.
func (vp *valuePlane) newPredRow(iter int) [][]float64 {
	row := vp.newRow()
	if dropped, ok := vp.preds.put(iter, row); ok {
		vp.freeRow(dropped)
	}
	return row
}

func (vp *valuePlane) predsAt(iter int) [][]float64 {
	r, _ := vp.preds.get(iter)
	return r
}

// dropPreds retires an iteration's prediction row, handing each retained
// prediction to recycle (the engine's buffer-return hook).
func (vp *valuePlane) dropPreds(iter int, recycle func([]float64)) {
	r, ok := vp.preds.del(iter)
	if !ok {
		return
	}
	if recycle != nil {
		for _, p := range r {
			if p != nil {
				recycle(p)
			}
		}
	}
	vp.freeRow(r)
}

// advanceFloors moves every lane's keep-horizon forward after validation
// reached `validated`: stashed actuals stay useful for lookback iterations,
// own/view/prediction state only around the validation point.
func (vp *valuePlane) advanceFloors(validated, lookback int) {
	for i := range vp.peers {
		vp.peers[i].setFloor(validated-lookback, nil)
	}
	vp.own.setFloor(validated-1, vp.pool.put)
	vp.views.setFloor(validated, vp.freeRow)
	vp.preds.setFloor(validated, vp.freeRow)
}

// --- checkpoint emission -------------------------------------------------
//
// The emission helpers present plane state in the exact canonical form the
// pre-refactor map-based engine produced, so checkpoint blobs (whose byte
// counts surface in the run journal) stay identical: entries ascending by
// iteration, stash entries filtered to the retention window the old eager
// prune maintained.

func (vp *valuePlane) ownEntries(validated, frontier int) []checkpoint.Entry {
	lo := validated
	if lo < 0 {
		lo = 0
	}
	var out []checkpoint.Entry
	for t := lo; t <= frontier+1; t++ {
		if v, ok := vp.own.get(t); ok {
			out = append(out, checkpoint.Entry{Iter: t, Data: v})
		}
	}
	return out
}

func (vp *valuePlane) histEntries(k int) []checkpoint.Entry {
	r := vp.histRing(k)
	if r == nil {
		return nil
	}
	var out []checkpoint.Entry
	for i := r.Len() - 1; i >= 0; i-- { // oldest first
		h := r.At(i)
		out = append(out, checkpoint.Entry{Iter: h.iter, Data: h.data})
	}
	return out
}

func (vp *valuePlane) receivedEntries(k, from int) []checkpoint.Entry {
	l := vp.peerLane(k)
	if l == nil || l.ring == nil {
		return nil
	}
	maxIter, any := l.ring.MaxIter()
	if !any {
		return nil
	}
	lo := from
	if lo < 0 {
		lo = 0
	}
	var out []checkpoint.Entry
	for t := lo; t <= maxIter; t++ {
		if v, ok := l.get(t); ok {
			out = append(out, checkpoint.Entry{Iter: t, Data: v})
		}
	}
	return out
}

func (vp *valuePlane) predRows(validated, frontier int) []checkpoint.PredRow {
	var out []checkpoint.PredRow
	for t := validated + 1; t <= frontier; t++ {
		if r, ok := vp.preds.get(t); ok {
			row := checkpoint.PredRow{Iter: t, Data: make([][]float64, vp.np)}
			copy(row.Data, r)
			out = append(out, row)
		}
	}
	return out
}
