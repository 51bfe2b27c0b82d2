package pipeline

// BenchmarkPipelineStage measures one mid-pipeline stage's engine iteration
// — speculate on the upstream row, compute, validate, retire — on a phantom
// transport impersonating the upstream stage with exactly linear rows, so
// the linear predictor is exact and the run stays on the clean steady-state
// path. allocs/op must be 0: the stage adapter reuses its output and
// input-gather buffers, and everything else comes from the engine's pools.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/core"
)

func upstreamValue(iter, j int) float64 {
	return 1 + 0.001*float64(iter) + 0.0001*float64(j)
}

// benchGraph is a 3-stage chain whose middle stage is benchmarked in
// isolation: the source row is synthesized by the phantom, the sink only
// consumes (its rank never runs here).
func benchGraph(width int) *Graph {
	g := New()
	src := g.Add(Stage{
		Name: "source", Width: width, Tol: 0.05,
		Step: func(t int, self []float64, in [][]float64, out []float64) {
			for j := range out {
				out[j] = upstreamValue(t+1, j)
			}
		},
	})
	mid := g.Add(Stage{
		Name: "mix", Width: width, Tol: 0.05,
		Step: func(t int, self []float64, in [][]float64, out []float64) {
			const beta = 0.4
			for j := range out {
				out[j] = self[j] + beta*(in[0][j]-self[j])
			}
		},
	}, src)
	g.Add(Stage{
		Name: "sink", Width: width, Tol: 0.05,
		Step: func(t int, self []float64, in [][]float64, out []float64) {
			copy(out, in[0])
		},
	}, mid)
	return g
}

// stagePhantom is a single-processor Transport running rank 1 of the bench
// chain: TryRecv never has anything (the stage always speculates), Recv
// synthesizes the next outstanding upstream row from a fixed buffer
// rotation, so delivery never allocates.
type stagePhantom struct {
	depth int
	bufs  [][]float64
	rot   int
}

func newStagePhantom(width int) *stagePhantom {
	ph := &stagePhantom{bufs: make([][]float64, 16)}
	for i := range ph.bufs {
		ph.bufs[i] = make([]float64, width)
	}
	return ph
}

func (ph *stagePhantom) ID() int                              { return 1 }
func (ph *stagePhantom) P() int                               { return 3 }
func (ph *stagePhantom) Now() float64                         { return 0 }
func (ph *stagePhantom) Compute(ops float64, p cluster.Phase) {}
func (ph *stagePhantom) Send(dst, tag, iter int, d []float64) {}
func (ph *stagePhantom) PhaseTime(p cluster.Phase) float64    { return 0 }
func (ph *stagePhantom) PeerDown(int) bool                    { return false }
func (ph *stagePhantom) Epoch() int                           { return 0 }
func (ph *stagePhantom) NetStats() cluster.NetStats           { return cluster.NetStats{} }
func (ph *stagePhantom) Note(string)                          {}

func (ph *stagePhantom) TryRecv(src, tag int) (cluster.Message, bool) {
	return cluster.Message{}, false
}

func (ph *stagePhantom) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	return ph.Recv(src, tag), true
}

func (ph *stagePhantom) Recv(src, tag int) cluster.Message {
	buf := ph.bufs[ph.rot]
	ph.rot = (ph.rot + 1) % len(ph.bufs)
	for j := range buf {
		buf[j] = upstreamValue(ph.depth, j)
	}
	m := cluster.Message{Src: 0, Dst: 1, Tag: core.DataTag, Iter: ph.depth, Data: buf}
	ph.depth++
	return m
}

func BenchmarkPipelineStage(b *testing.B) {
	const width = 64
	for _, fw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("FW%d/W%d", fw, width), func(b *testing.B) {
			g := benchGraph(width)
			ph := newStagePhantom(width)
			app := g.App(1)
			b.ReportAllocs()
			b.ResetTimer()
			res, err := core.Run(ph, app, core.Config{FW: fw, MaxIter: b.N})
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

// TestPipelineStageSteadyStateZeroAlloc proves the stage hot path allocates
// nothing: two runs differing only in tick count malloc the identical
// total.
func TestPipelineStageSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact malloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(iters int) uint64 {
		g := benchGraph(64)
		ph := newStagePhantom(64)
		app := g.App(1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := core.Run(ph, app, core.Config{FW: 2, MaxIter: iters}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	ok := false
	var short, long uint64
	for try := 0; try < 3 && !ok; try++ {
		short = mallocs(200)
		long = mallocs(2000)
		ok = short == long
	}
	if !ok {
		t.Errorf("steady state allocates: %d mallocs over 200 ticks vs %d over 2000 (want equal)",
			short, long)
	}
}
