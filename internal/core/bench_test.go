package core

// Engine micro-benchmarks and the memory/allocation invariants of the
// pooled value plane. The phantom transport synthesizes peer messages on
// demand from pre-allocated rotating buffers following exactly linear
// trajectories, so predict.Linear extrapolates them perfectly and the
// engine stays on the clean steady-state speculation path — what
// BenchmarkEngineIteration measures is pure engine bookkeeping (assemble,
// speculate, validate, retire) with zero repairs and, after warm-up, zero
// allocations per iteration.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
)

// peerValue is the linear per-element trajectory each phantom peer follows.
// Linear in the iteration, so a linear predictor's extrapolation error is
// at rounding level — far below any check threshold.
func peerValue(peer, iter, j int) float64 {
	return float64(peer+1) + 0.001*float64(iter) + 0.0001*float64(j)
}

// phantom is a single-processor Transport that impersonates np-1 peers:
// TryRecv never has anything (the engine always speculates), and Recv
// synthesizes the next outstanding peer message on demand, round-robin
// across peers, one iteration depth at a time. Messages are backed by a
// fixed rotation of buffers per peer, so Recv never allocates.
type phantom struct {
	id, np int
	depth  int   // iteration level currently being delivered
	cursor int   // next peer (index into peers) to deliver at this depth
	peers  []int // peer ids, excluding self
	bufs   [][][]float64
	rot    []int
}

func newPhantom(np, n int) *phantom {
	ph := &phantom{id: 0, np: np}
	for k := 1; k < np; k++ {
		ph.peers = append(ph.peers, k)
		rot := make([][]float64, 16)
		for i := range rot {
			rot[i] = make([]float64, n)
		}
		ph.bufs = append(ph.bufs, rot)
	}
	ph.rot = make([]int, np-1)
	return ph
}

func (ph *phantom) ID() int                              { return ph.id }
func (ph *phantom) P() int                               { return ph.np }
func (ph *phantom) Now() float64                         { return 0 }
func (ph *phantom) Compute(ops float64, p cluster.Phase) {}
func (ph *phantom) Send(dst, tag, iter int, d []float64) {}
func (ph *phantom) PhaseTime(p cluster.Phase) float64    { return 0 }
func (ph *phantom) PeerDown(int) bool                    { return false }
func (ph *phantom) Epoch() int                           { return 0 }
func (ph *phantom) NetStats() cluster.NetStats           { return cluster.NetStats{} }
func (ph *phantom) Note(string)                          {}

func (ph *phantom) TryRecv(src, tag int) (cluster.Message, bool) {
	return cluster.Message{}, false
}

func (ph *phantom) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	return ph.Recv(src, tag), true
}

func (ph *phantom) Recv(src, tag int) cluster.Message {
	i := ph.cursor
	peer := ph.peers[i]
	buf := ph.bufs[i][ph.rot[i]]
	ph.rot[i] = (ph.rot[i] + 1) % len(ph.bufs[i])
	for j := range buf {
		buf[j] = peerValue(peer, ph.depth, j)
	}
	m := cluster.Message{Src: peer, Dst: ph.id, Tag: DataTag, Iter: ph.depth, Data: buf}
	ph.cursor++
	if ph.cursor == len(ph.peers) {
		ph.cursor, ph.depth = 0, ph.depth+1
	}
	return m
}

// benchApp is an allocation-free App: Compute averages the view into a
// reused output buffer (the plane copies it, so reuse is safe).
type benchApp struct{ out []float64 }

func newBenchApp(n int) *benchApp { return &benchApp{out: make([]float64, n)} }

func (a *benchApp) InitLocal() []float64 {
	init := make([]float64, len(a.out))
	for j := range init {
		init[j] = peerValue(0, 0, j)
	}
	return init
}

func (a *benchApp) Compute(view [][]float64, t int) []float64 {
	out := a.out
	inv := 1.0 / float64(len(view))
	for j := range out {
		s := 0.0
		for _, row := range view {
			s += row[j]
		}
		out[j] = s * inv
	}
	return out
}

func (a *benchApp) ComputeOps() float64 { return 1 }

func (a *benchApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(0.05, 1, pred, act)
}

func (a *benchApp) RepairOps(r CheckResult) float64 { return 1 }

// BenchmarkEngineIteration measures one engine iteration (broadcast,
// assemble+speculate, compute, validate, retire) on the phantom transport.
// allocs/op must be 0 at FW>0: the steady-state speculation path draws
// every buffer from the plane's pools.
func BenchmarkEngineIteration(b *testing.B) {
	const n = 64
	for _, fw := range []int{0, 2, 4} {
		for _, np := range []int{4, 16} {
			b.Run(fmt.Sprintf("FW%d/P%d", fw, np), func(b *testing.B) {
				ph := newPhantom(np, n)
				app := newBenchApp(n)
				b.ReportAllocs()
				b.ResetTimer()
				res, err := Run(ph, app, Config{FW: fw, MaxIter: b.N})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Repairs != 0 {
					b.Fatalf("benchmark left the clean path: %d repairs", res.Stats.Repairs)
				}
			})
		}
	}
}

// engineMallocs runs a phantom engine for iters iterations and returns the
// process-wide malloc count it induced.
func engineMallocs(t *testing.T, iters int) uint64 {
	t.Helper()
	return appMallocs(t, 4, 64, Config{FW: 2, MaxIter: iters}, newBenchApp(64))
}

// appMallocs runs app as processor 0 of np on a phantom transport whose
// peers send n-float payloads, and returns the process-wide malloc count the
// run induced.
func appMallocs(t testing.TB, np, n int, cfg Config, app App) uint64 {
	t.Helper()
	return transportMallocs(t, newPhantom(np, n), cfg, app)
}

// transportMallocs runs app on transport p and returns the process-wide
// malloc count the run induced.
func transportMallocs(t testing.TB, p Transport, cfg Config, app App) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := Run(p, app, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestSteadyStateZeroAlloc proves the speculation hot path allocates
// nothing: two runs differing only in iteration count malloc the identical
// total (every allocation belongs to engine construction and warm-up, none
// to the per-iteration path). GC is disabled so that collector bookkeeping
// cannot perturb the malloc counts.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact malloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ok := false
	var short, long uint64
	for try := 0; try < 3 && !ok; try++ {
		short = engineMallocs(t, 200)
		long = engineMallocs(t, 2000)
		ok = short == long
	}
	if !ok {
		t.Errorf("steady state allocates: %d mallocs over 200 iters vs %d over 2000 (want equal)",
			short, long)
	}
}

// sharedPhantom is the phantom with zero-copy sends — the path every real
// backend runs, where the engine clones each broadcast payload once and
// hands that one copy to every peer.
type sharedPhantom struct{ *phantom }

func (sharedPhantom) SendShared(dst, tag, iter int, data []float64) {}

// TestSharedSendOneAllocPerIteration pins the cost of the shared-send path:
// exactly one malloc per iteration (the broadcast clone) on top of the
// zero-allocation engine, so 1800 extra iterations cost 1800 extra mallocs.
func TestSharedSendOneAllocPerIteration(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact malloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(iters int) uint64 {
		return transportMallocs(t, sharedPhantom{newPhantom(4, 64)}, Config{FW: 2, MaxIter: iters}, newBenchApp(64))
	}
	const short, long = 200, 2000
	ok := false
	var a, b uint64
	for try := 0; try < 3 && !ok; try++ {
		a, b = run(short), run(long)
		ok = b == a+(long-short)
	}
	if !ok {
		t.Errorf("shared-send path: %d mallocs over %d iters vs %d over %d (want exactly %d more)",
			a, short, b, long, long-short)
	}
}

// TestMemoryBoundUnderCrashRecovery asserts the plane's retention invariant
// on a long run with crashes, restores, rejoins and catch-up: after every
// retire, the number of snapshots held per peer (and of per-iteration
// own/view/prediction rows) stays within the fixed lane capacities — memory
// use is f(FW, BW), independent of MaxIter.
func TestMemoryBoundUnderCrashRecovery(t *testing.T) {
	worstPeer, worstIter := 0, 0
	testRetireHook = func(e *engine, _ int) {
		for k := range e.plane.peers {
			l := &e.plane.peers[k]
			if got := l.retained(); got > l.ring.Cap() {
				t.Fatalf("in-edge %d retains %d snapshots, cap %d", k, got, l.ring.Cap())
			} else if got > worstPeer {
				worstPeer = got
			}
		}
		for _, l := range []*lane[[][]float64]{&e.plane.views, &e.plane.preds} {
			if got := l.retained(); got > l.ring.Cap() {
				t.Fatalf("iteration lane retains %d rows, cap %d", got, l.ring.Cap())
			} else if got > worstIter {
				worstIter = got
			}
		}
		if got := e.plane.own.retained(); got > e.plane.own.ring.Cap() {
			t.Fatalf("own lane retains %d entries, cap %d", got, e.plane.own.ring.Cap())
		}
	}
	defer func() { testRetireHook = nil }()

	const P = 4
	cc := cluster.Config{
		Machines:     cluster.UniformMachines(P, 1000),
		Net:          netmodel.Fixed{D: 0.02},
		Reliable:     true,
		RetryTimeout: 0.5,
		Crashes: faults.CrashSchedule{
			{Proc: 1, At: 8, Downtime: 3},
			{Proc: 2, At: 25, Downtime: 3},
		},
	}
	cfg := Config{
		FW:              2,
		MaxIter:         300,
		Deadline:        0.3,
		CheckpointEvery: 5,
		CheckpointStore: checkpoint.NewMemStore(),
		CheckpointOps:   50,
	}
	results := runCoupled(t, cc, cfg, 0.02)
	if Aggregate(results).Restores == 0 {
		t.Fatal("scenario exercised no restores")
	}
	if worstPeer == 0 || worstIter == 0 {
		t.Fatal("retire hook observed nothing")
	}
	t.Logf("worst per-peer retention %d, worst iteration-lane retention %d", worstPeer, worstIter)
}
