// Package core implements the paper's primary contribution: speculative
// computation for synchronous iterative algorithms.
//
// A synchronous iterative algorithm evaluates X(t+1) = F(X(t)) with the
// variable set X partitioned over p processors; each iteration every
// processor broadcasts its partition and waits for every other partition
// before computing (Figure 1 of the paper). With speculation (Figure 3), a
// processor instead *predicts* the contents of messages that have not yet
// arrived, computes on the predictions, and validates them when the real
// messages arrive — masking communication latency with useful work.
//
// The engine supports:
//
//   - FW (forward window): how many iterations may rest on unvalidated
//     speculated inputs. FW=0 is the classical blocking algorithm; FW=1 is
//     Figure 3; FW≥2 pipelines further ahead (Figure 4).
//   - BW (backward window): how many past snapshots the speculation function
//     consults, via the predict.Predictor or an app-supplied Speculator.
//   - Error checking and repair: when a prediction fails its tolerance
//     check, the engine recomputes the affected iteration from the actual
//     values (charging the app-defined repair cost), and cascades the
//     recomputation through any later speculatively computed iterations.
//
// The package is layered (see DESIGN.md §8): this file is the transport
// contract and the iteration state machine, including the three decisions
// the paper leaves open (what to predict, how to check a prediction, how
// to repair a bad one); every payload lives in the pooled, ring-indexed
// value plane (store.go, pool.go); the application contract is app.go; the
// crash-recovery protocol is recover.go.
package core

import (
	"fmt"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/history"
	"specomp/internal/obs"
	"specomp/internal/predict"
)

// Message tags used by the engine. DataTag carries partition exchanges;
// RejoinTag and RejoinAckTag carry the crash-recovery protocol (recover.go).
const (
	DataTag      = 1
	RejoinTag    = 2 // rejoin/refill request: Iter = highest iteration held
	RejoinAckTag = 3 // response: Iter = responder frontier, Data[0] = oldest re-sendable iter
)

// Transport is the contract an execution substrate offers the engine:
// identity, clocks, work charging, point-to-point sends, the three receive
// flavours (non-blocking, blocking, deadline-bounded), failure detection,
// incarnation epochs, transport counters and timeline notes. Three backends
// implement it:
//
//   - *cluster.Proc — the deterministic simulated cluster (virtual time)
//   - realtime      — goroutines and channels (wall clock, one process)
//   - distnet       — OS processes over TCP sockets (wall clock, many
//     processes)
//
// Each backend carries a compile-time assertion against this interface so
// the contract cannot drift silently. SharedSender is the one optional
// extension.
//
// A transport may coalesce several sent messages into one physical frame
// (distnet batches per-iteration sends to the same peer) and may delay a
// message briefly while waiting for company, provided per-(src, dst)
// delivery order is preserved and a message is never held once the
// receiver is blocked in Recv/RecvDeadline. Senders and receivers observe
// ordinary message semantics either way; batching is invisible above the
// Transport contract.
type Transport interface {
	// ID returns the processor index (0-based).
	ID() int
	// P returns the number of processors in the run.
	P() int
	// Now returns the substrate's clock in seconds (virtual or wall).
	Now() float64
	// Compute charges ops operations of work to the clock under phase ph.
	// Wall-clock substrates make this a no-op: the work already happened
	// inside the app.
	Compute(ops float64, ph cluster.Phase)
	// Send transmits data to processor dst, copying the payload so the
	// caller may reuse its buffer immediately.
	Send(dst, tag, iter int, data []float64)
	// TryRecv returns a queued message matching (src, tag) without
	// blocking; use cluster.Any for either field to match anything.
	TryRecv(src, tag int) (cluster.Message, bool)
	// Recv blocks until a message matching (src, tag) arrives.
	Recv(src, tag int) cluster.Message
	// RecvDeadline blocks until a matching message arrives or timeout
	// seconds elapse; ok=false means the deadline expired. Graceful
	// degradation (Config.Deadline) and the rejoin patience loop run on it.
	RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool)
	// PhaseTime returns the accumulated clock time spent in ph.
	PhaseTime(ph cluster.Phase) float64
	// PeerDown reports whether peer is currently inside a crash window. The
	// simulated cluster is a perfect failure detector; distnet reports
	// heartbeat staleness, a suspicion rather than a proof. The engine
	// consults it only with crash recovery on (Config.CheckpointEvery > 0).
	PeerDown(peer int) bool
	// Epoch returns the processor's incarnation epoch (bumped on every
	// restart); it brands checkpoints.
	Epoch() int
	// NetStats returns transport-level counters (messages, bytes,
	// retransmissions, duplicate suppressions); the engine copies them into
	// Stats.Net at the end of a run.
	NetStats() cluster.NetStats
	// Note records a point event (overrun, reconcile) on the substrate's
	// timeline. The simulated cluster forwards notes to its OnEvent hook.
	Note(kind string)
}

var _ Transport = (*cluster.Proc)(nil)

// SharedSender is an optional Transport extension for zero-copy sends: the
// transport references the payload directly instead of copying it, under
// the caller's guarantee that the slice is never mutated afterwards. The
// engine then clones each broadcast once and shares that copy across all
// peers and its own rejoin log, instead of copying once per destination.
//
// Every backend implements it. It stays optional because the shared path
// costs the engine one clone per broadcast, while on the copy path any copy
// is the transport's: the zero-allocation gates run without it.
type SharedSender interface {
	SendShared(dst, tag, iter int, data []float64)
}

var _ SharedSender = (*cluster.Proc)(nil)

// Config parameterizes an engine run.
type Config struct {
	// FW is the forward window. 0 disables speculation entirely.
	FW int
	// BW is the backward window: depth of per-peer history retained for the
	// speculation function. Defaults to max(Predictor.Window(), 2).
	BW int
	// Predictor is the generic speculation function used when the App does
	// not implement Speculator. Defaults to predict.Linear{}.
	Predictor predict.Predictor
	// MaxIter is the number of iterations to execute. Must be >= 1.
	MaxIter int
	// HoldSends, when true with FW >= 2, delays sending a speculatively
	// computed partition until its inputs have been validated (ablation of
	// the "speculative sends" design decision).
	HoldSends bool
	// Deadline, when positive (and FW >= 1), enables graceful degradation:
	// validation stops blocking on an overdue peer after waiting Deadline
	// seconds and instead lets speculation extend past the forward window,
	// reconciling (check + repair + cascade) when the real message finally
	// lands. Zero keeps the classical behaviour of blocking indefinitely.
	Deadline float64
	// MaxOverrun bounds how many iterations past the forward window the
	// engine may run on unreconciled speculation before it blocks hard on
	// the overdue peer. Defaults to 2 when Deadline is set.
	MaxOverrun int

	// Graph, when non-nil, declares the run's dependency structure as an
	// explicit task DAG (see graph.go): this processor speculates on, checks
	// and repairs exactly its in-edges, and broadcasts to exactly its
	// out-edges. Nil resolves through the App's Grapher extension, then
	// Neighbors, then the complete graph — the classical engine. Every
	// processor of a run must use an identical graph.
	Graph *DepGraph

	// Metrics, when non-nil, receives the engine's counters, gauges and
	// histograms (per-processor labels). Nil — the default — keeps the
	// engine on a nil-check-only fast path.
	Metrics *obs.Registry
	// Journal, when non-nil, receives the structured run journal: ordered
	// events (iteration start/end, speculation made/checked/bad, repair,
	// cascade, overrun/reconcile, convergence) stamped with the transport's
	// clock. On the simulated cluster the same seed yields a byte-identical
	// journal.
	Journal *obs.Journal

	// CheckpointEvery, when positive, makes the engine snapshot its state to
	// CheckpointStore every K loop iterations and enables the crash-recovery
	// protocol (restore + rejoin + catch-up; see recover.go). Requires a
	// non-nil CheckpointStore.
	CheckpointEvery int
	// CheckpointStore is the stable storage snapshots go to. It must survive
	// the processor's crashes — in the simulation, any store living outside
	// the cluster (checkpoint.MemStore) does.
	CheckpointStore checkpoint.Store
	// CheckpointOps and CheckpointOpsPerByte set the operation cost charged
	// to the perf model per snapshot: base plus per-encoded-byte.
	CheckpointOps        float64
	CheckpointOpsPerByte float64
	// RejoinLog is how many recent own broadcasts are retained to serve
	// peers' rejoin requests. Defaults to 64 when CheckpointEvery > 0. It
	// must comfortably exceed the deepest frontier gap two processors can
	// have (≈ FW+MaxOverrun+MaxCrashOverrun), or a rejoiner hits a catch-up
	// gap and must accept unverifiable speculation for the missing range.
	RejoinLog int
	// MaxCrashOverrun extends MaxOverrun while a needed peer is reported
	// down by the transport's failure detector, letting survivors bridge an
	// outage by speculating deeper past the forward window. Defaults to 6
	// when checkpointing and Deadline are both enabled.
	MaxCrashOverrun int
	// RejoinRetry is how long a blocked validation waits before (re)sending
	// a rejoin/refill request for a missing message — the recovery path for
	// data lost to a crash or abandoned by the reliable layer after
	// MaxRetries. Defaults to 4×Deadline, or 1 when Deadline is 0. Active
	// only when CheckpointEvery > 0.
	RejoinRetry float64
}

// Stats aggregates one processor's speculation behaviour over a run.
type Stats struct {
	Iters        int
	SpecsMade    int // peer-iteration predictions performed
	SpecsChecked int // predictions validated against actual messages
	SpecsBad     int // validations that exceeded tolerance
	UnitsBad     int64
	UnitsTotal   int64
	Repairs      int // iterations repaired after a failed check
	CascadeRedos int // later iterations recomputed due to an upstream repair
	Overruns     int // validations deferred past a Deadline expiry
	Reconciles   int // overrun iterations later validated against the real message

	Checkpoints     int   // state snapshots persisted to stable storage
	CheckpointBytes int64 // total encoded snapshot bytes written
	Restores        int   // post-crash state restorations
	CatchupIters    int   // iterations replayed to re-reach the surviving frontier

	ComputeTime float64
	CommTime    float64
	SpecTime    float64
	CheckTime   float64
	CorrectTime float64
	OverrunTime float64 // compute performed past the forward window (degraded mode)
	TotalTime   float64

	// Net holds the transport's counters (Transport.NetStats) at the end
	// of the run.
	Net cluster.NetStats
}

// BadFraction returns the fraction of validated predictions that exceeded
// tolerance — the measured analogue of the model's k.
func (s Stats) BadFraction() float64 {
	if s.SpecsChecked == 0 {
		return 0
	}
	return float64(s.SpecsBad) / float64(s.SpecsChecked)
}

// UnitBadFraction returns the fraction of individual check units (e.g.
// particle pairs) out of tolerance.
func (s Stats) UnitBadFraction() float64 {
	if s.UnitsTotal == 0 {
		return 0
	}
	return float64(s.UnitsBad) / float64(s.UnitsTotal)
}

// Result is one processor's outcome.
type Result struct {
	Proc  int
	Final []float64 // X_j after the last executed iteration
	// Converged is true when a Stopper terminated the run before MaxIter;
	// Stats.Iters then holds the number of iterations actually executed.
	Converged bool
	Stats     Stats
}

// engine is the per-processor iteration state machine. Payload storage
// lives in the value plane.
type engine struct {
	p   Transport
	app App
	cfg Config

	pub     Publisher    // nil unless app implements it
	stopper Stopper      // nil unless app implements it
	spec    Speculator   // nil unless app implements it
	corr    Corrector    // nil unless app implements it
	shared  SharedSender // nil unless the transport implements it
	// inp is Config.Predictor's in-place face, set only when the app has no
	// Speculator: predictions then come from (and return to) the plane's
	// buffer pool, so steady-state speculation allocates nothing.
	inp predict.InPlace

	// Dependency structure, resolved once at startup (graph.go): inRanks is
	// the sorted list of ranks this processor reads; needsM/neededByM are the
	// O(1) membership masks behind needs()/neededBy().
	inRanks   []int
	needsM    []bool
	neededByM []bool

	stopped  bool // converged early
	stopIter int  // iteration at which Done reported true

	// plane stores every per-iteration payload: stashed actuals, validated
	// history, own results, assembled views and pending predictions.
	plane *valuePlane
	// overrun marks iterations whose validation was deferred past a
	// Deadline expiry and still awaits reconciliation.
	overrun map[int]bool
	// validated is the highest iteration whose inputs are fully validated.
	validated int
	// frontier is the highest iteration whose Compute has run.
	frontier int
	// badScratch backs validateIter's failed-peer list between calls.
	badScratch []int

	// Crash-recovery state (recover.go); all zero/nil when CheckpointEvery
	// is unset.
	store checkpoint.Store
	// sentLog retains recent own broadcast payloads (immutable copies) to
	// serve rejoin/refill requests from peers that lost them to a crash.
	sentLog *history.Ring[histEntry]
	// noActualBefore[k] > 0 marks a catch-up gap: no actual snapshot of
	// peer k below that iteration will ever arrive, so speculation for the
	// range is accepted unverified.
	noActualBefore []int
	// postCrashLeft[k] counts down how many upcoming validations of peer k
	// feed the post-crash prediction-error histogram.
	postCrashLeft []int
	// restored / restoreFrontier / catchupTarget track catch-up progress
	// after a restart; catchupTarget is -1 when no catch-up is in flight.
	restored        bool
	restoreFrontier int
	catchupTarget   int

	// ob is the observability sink; nil when Config.Metrics and
	// Config.Journal are both unset.
	ob *engineObs

	stats Stats
}

// Run executes the synchronous iterative application on transport p —
// a simulated processor (call from within a cluster.Start body) or any
// other Transport implementation. Every processor of the run must use an
// identical Config.
func Run(p Transport, app App, cfg Config) (Result, error) {
	if cfg.MaxIter < 1 {
		return Result{}, fmt.Errorf("core: MaxIter must be >= 1, got %d", cfg.MaxIter)
	}
	if cfg.FW < 0 {
		return Result{}, fmt.Errorf("core: negative FW")
	}
	if cfg.Predictor == nil {
		cfg.Predictor = predict.Linear{}
	}
	if cfg.BW <= 0 {
		cfg.BW = cfg.Predictor.Window()
		if cfg.BW < 2 {
			cfg.BW = 2
		}
	}
	if cfg.Deadline < 0 {
		return Result{}, fmt.Errorf("core: negative Deadline")
	}
	if cfg.Deadline > 0 && cfg.MaxOverrun <= 0 {
		cfg.MaxOverrun = 2
	}
	if cfg.Deadline == 0 {
		cfg.MaxOverrun = 0
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.CheckpointStore == nil {
			return Result{}, fmt.Errorf("core: CheckpointEvery set without a CheckpointStore")
		}
		if cfg.RejoinLog <= 0 {
			cfg.RejoinLog = 64
		}
		if cfg.MaxCrashOverrun <= 0 && cfg.Deadline > 0 {
			cfg.MaxCrashOverrun = 6
		}
		if cfg.RejoinRetry <= 0 {
			cfg.RejoinRetry = 4 * cfg.Deadline
			if cfg.RejoinRetry == 0 {
				cfg.RejoinRetry = 1
			}
		}
	} else {
		cfg.MaxCrashOverrun = 0
	}
	e := &engine{
		p:   p,
		app: app,
		cfg: cfg,

		overrun:       make(map[int]bool),
		validated:     -1,
		frontier:      -1,
		catchupTarget: -1,
	}
	// The value plane's rings are sized from the windows: stashed actuals
	// stay useful for lookback iterations (plus the deepest spread rejoin
	// re-sends and checkpoint rollback can add); per-iteration state spans
	// at most the unvalidated window. The overflow maps absorb anything
	// rarer.
	in, needsM, neededByM, err := resolveDeps(app, cfg.Graph, p.ID(), p.P())
	if err != nil {
		return Result{}, err
	}
	e.inRanks, e.needsM, e.neededByM = in, needsM, neededByM
	slack := cfg.FW + cfg.MaxOverrun + cfg.MaxCrashOverrun
	peerCap := (cfg.BW + slack) + 2*slack + cfg.CheckpointEvery + 16
	iterCap := slack + 4
	e.plane = newValuePlane(p.ID(), p.P(), cfg.BW, peerCap, iterCap, in)
	if p2, ok := app.(Publisher); ok {
		e.pub = p2
	}
	if st, ok := app.(Stopper); ok {
		e.stopper = st
	}
	if sh, ok := p.(SharedSender); ok {
		e.shared = sh
	}
	if s, ok := app.(Speculator); ok {
		e.spec = s
	} else if ip, ok := cfg.Predictor.(predict.InPlace); ok {
		e.inp = ip
	}
	if co, ok := app.(Corrector); ok {
		e.corr = co
	}
	e.ob = newEngineObs(cfg.Metrics, cfg.Journal, p.ID())
	if e.ob != nil {
		e.ob.p = p
	}
	if cfg.CheckpointEvery > 0 {
		e.store = cfg.CheckpointStore
		e.sentLog = history.NewRing[histEntry](cfg.RejoinLog)
		e.noActualBefore = make([]int, p.P())
		e.postCrashLeft = make([]int, p.P())
		if err := e.maybeRestore(); err != nil {
			return Result{}, err
		}
	}
	e.run()
	e.stats.Iters = cfg.MaxIter
	if e.stopped {
		e.stats.Iters = e.stopIter + 1
	}
	e.stats.ComputeTime = p.PhaseTime(cluster.PhaseCompute)
	e.stats.CommTime = p.PhaseTime(cluster.PhaseComm)
	e.stats.SpecTime = p.PhaseTime(cluster.PhaseSpec)
	e.stats.CheckTime = p.PhaseTime(cluster.PhaseCheck)
	e.stats.CorrectTime = p.PhaseTime(cluster.PhaseCorrect)
	e.stats.OverrunTime = p.PhaseTime(cluster.PhaseOverrun)
	e.stats.TotalTime = p.Now()
	e.stats.Net = p.NetStats()
	final := e.plane.ownAt(cfg.MaxIter)
	if e.stopped {
		final = e.plane.ownAt(e.stopIter + 1)
	}
	return Result{Proc: p.ID(), Final: final, Converged: e.stopped, Stats: e.stats}, nil
}

func (e *engine) run() {
	t0 := 0
	if e.restored {
		// Resume where the snapshot left off; afterRestore has already asked
		// the peers to refill anything lost in the crash.
		t0 = e.frontier + 1
	} else {
		e.plane.setOwn(0, e.app.InitLocal())
	}
	for t := t0; t < e.cfg.MaxIter && !e.stopped; t++ {
		if e.cfg.HoldSends && t > 0 {
			// Ablation: never send values computed from unvalidated inputs.
			e.validateThrough(t - 1)
		}
		e.ob.iterStart(t)
		e.broadcast(t)
		e.drain()
		view := e.assembleView(t)
		next := e.app.Compute(view, t)
		ph := cluster.PhaseCompute
		if e.degrading() && t-e.validated > e.cfg.FW {
			// Running past the forward window on an overdue peer's
			// speculation: account the compute as overrun.
			ph = cluster.PhaseOverrun
		}
		e.p.Compute(e.app.ComputeOps(), ph)
		e.plane.setOwn(t+1, next)
		e.frontier = t
		e.ob.iterEnd(t)
		e.noteCatchup()
		// Keep at most FW iterations resting on unvalidated inputs: after
		// computing iteration t, everything up to t+1−FW must be validated.
		// With FW=1 this validates iteration t itself — exactly Figure 3's
		// "compute, then wait for the remaining messages and check".
		lag := t + 1 - e.cfg.FW
		if lag > t {
			lag = t // FW=0: iteration t's inputs were already actual
		}
		if lag >= 0 {
			if !e.degrading() {
				e.validateThrough(lag)
			} else {
				// Graceful degradation: wait at most Deadline per overdue
				// peer, then let speculation overrun the forward window — but
				// never past the overrun budget, beyond which we block hard.
				// While a needed peer is down the budget stretches by
				// MaxCrashOverrun, bridging the outage on speculation.
				if floor := lag - e.overrunBudget(); floor >= 0 {
					e.validateThrough(floor)
				}
				e.tryValidateThrough(lag)
			}
		}
		if e.cfg.CheckpointEvery > 0 && (t+1)%e.cfg.CheckpointEvery == 0 {
			e.takeCheckpoint()
		}
	}
	if !e.stopped {
		e.validateThrough(e.cfg.MaxIter - 1)
		e.noteCatchup()
	}
}

// overrunBudget is how far validation may lag past the forward window
// before the engine blocks hard on the overdue peer: MaxOverrun, stretched
// by MaxCrashOverrun while a needed peer is down.
func (e *engine) overrunBudget() int {
	b := e.cfg.MaxOverrun
	if e.cfg.MaxCrashOverrun > 0 && e.anyNeededPeerDown() {
		b += e.cfg.MaxCrashOverrun
	}
	return b
}

// peerDown reports whether the transport's failure detector sees peer k
// inside a crash window. It is consulted only with crash recovery on: on
// distnet it reads heartbeat staleness, which must not steer a run that
// has no checkpoints to recover with.
func (e *engine) peerDown(k int) bool {
	return e.cfg.CheckpointEvery > 0 && e.p.PeerDown(k)
}

// lookback bounds how far back stashed actuals stay useful: the speculation
// base plus the deepest validation lag the engine can accumulate.
func (e *engine) lookback() int {
	return e.cfg.BW + e.cfg.FW + e.cfg.MaxOverrun + e.cfg.MaxCrashOverrun
}

// degrading reports whether deadline-based graceful degradation is active.
// It needs speculation (FW >= 1); HoldSends keeps its strict
// validate-before-send semantics.
func (e *engine) degrading() bool {
	return e.cfg.Deadline > 0 && e.cfg.FW >= 1 && !e.cfg.HoldSends
}

// broadcast sends the local partition (or its published projection) for
// iteration t to every peer, and logs the payload so a crashed peer can ask
// for it again on rejoin. On a SharedSender transport one immutable copy is
// shared by every peer and the log; otherwise the transport copies per
// destination.
func (e *engine) broadcast(t int) {
	payload := e.plane.ownAt(t)
	if e.pub != nil {
		payload = e.pub.Publish(payload)
	}
	if e.shared != nil {
		payload = cloneFloats(payload)
	}
	if e.sentLog != nil {
		logged := payload
		if e.shared == nil {
			logged = cloneFloats(payload)
		}
		e.sentLog.Push(histEntry{iter: t, data: logged})
	}
	for k := 0; k < e.p.P(); k++ {
		if k != e.p.ID() && e.neededBy(k) {
			e.sendData(k, t, payload)
		}
	}
}

// sendData sends a data payload to dst. A SharedSender transport aliases
// it, so on that path the payload must be an immutable engine-owned copy.
func (e *engine) sendData(dst, iter int, data []float64) {
	if e.shared != nil {
		e.shared.SendShared(dst, DataTag, iter, data)
		return
	}
	e.p.Send(dst, DataTag, iter, data)
}

// needs reports whether this processor reads peer k's payload — k is the
// source of one of this processor's in-edges.
func (e *engine) needs(k int) bool {
	return e.needsM[k]
}

// neededBy reports whether peer k reads this processor's payload — k is the
// destination of one of this processor's out-edges.
func (e *engine) neededBy(k int) bool {
	return e.neededByM[k]
}

// drain moves every delivered message into the received stash, dispatching
// any recovery-protocol traffic along the way.
func (e *engine) drain() {
	for {
		m, ok := e.p.TryRecv(cluster.Any, cluster.Any)
		if !ok {
			return
		}
		e.intake(m)
	}
}

// actual blocks until the real snapshot of peer k at iteration t is
// available, dispatching any other traffic that arrives meanwhile. It
// returns nil when the snapshot can never arrive (a catch-up gap) — callers
// must then accept the speculation unverified. With crash recovery enabled
// the wait is chunked into RejoinRetry slices: each expiry re-requests the
// missing range from k, healing messages lost to a crash window or
// abandoned by the reliable layer.
func (e *engine) actual(k, t int) []float64 {
	for {
		if v, ok := e.plane.actualOf(k, t); ok {
			return v
		}
		if e.noActualBefore != nil && t < e.noActualBefore[k] {
			return nil
		}
		if e.cfg.CheckpointEvery > 0 {
			if m, ok := e.p.RecvDeadline(cluster.Any, cluster.Any, e.cfg.RejoinRetry); ok {
				e.intake(m)
			} else if !e.peerDown(k) {
				// Patience expired with the peer alive: the message is
				// presumed lost, not late. Ask for a refill.
				e.sendRejoin(k, t-1)
			}
			continue
		}
		e.intake(e.p.Recv(cluster.Any, cluster.Any))
	}
}

// assembleView builds the global view for iteration t. With FW=0 it blocks
// for every actual snapshot (Figure 1); otherwise missing snapshots are
// speculated (Figure 3) and recorded for later validation.
func (e *engine) assembleView(t int) [][]float64 {
	view := e.plane.newViewRow(t)
	view[e.p.ID()] = e.plane.ownAt(t)
	var preds [][]float64
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.needs(k) {
			continue
		}
		if v, ok := e.plane.actualOf(k, t); ok {
			view[k] = v
			continue
		}
		if e.cfg.FW == 0 {
			view[k] = e.actual(k, t)
			continue
		}
		pred := e.speculate(k, t)
		if pred == nil {
			// No history to speculate from (startup): block for the actual.
			view[k] = e.actual(k, t)
			continue
		}
		view[k] = pred
		if preds == nil {
			preds = e.plane.newPredRow(t)
		}
		preds[k] = pred
		e.stats.SpecsMade++
		e.ob.specMade(t, k)
	}
	return view
}

// speculate predicts peer k's iteration-t snapshot from the newest actual
// snapshots on hand — the paper's speculation function (§3.1): the app's
// Speculator when it has one, otherwise Config.Predictor, in place through
// a pooled buffer when the predictor supports it. Returns nil if no
// history exists yet or the Speculator declines (the caller then blocks for
// the actual message; the speculation cost is still charged).
func (e *engine) speculate(k, t int) []float64 {
	hist, base := e.plane.collectHist(k, t, e.lookback(), e.cfg.BW)
	if base == -1 {
		return nil
	}
	steps := t - base
	if steps < 1 {
		steps = 1
	}
	var (
		pred []float64
		ops  float64
	)
	if e.spec != nil {
		pred, ops = e.spec.Speculate(k, hist, steps)
	} else {
		if e.inp != nil {
			dst := e.plane.pool.get(len(hist[0]))
			pred = e.inp.PredictInto(dst, hist, steps)
			if !sameSlice(pred, dst) {
				e.plane.pool.put(dst)
			}
		} else {
			pred = e.cfg.Predictor.Predict(hist, steps)
		}
		ops = e.cfg.Predictor.Ops() * float64(len(pred)) * float64(steps)
	}
	e.p.Compute(ops, cluster.PhaseSpec)
	return pred
}

// recycle hands a retired prediction back to the plane's pool when it was
// drawn from there.
func (e *engine) recycle(pred []float64) {
	if e.inp != nil {
		e.plane.pool.put(pred)
	}
}

func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// validateThrough blocks until every iteration up to and including t has all
// its speculated inputs checked against actual messages, repairing and
// cascading recomputations as needed.
func (e *engine) validateThrough(t int) {
	for s := e.validated + 1; s <= t && !e.stopped; s++ {
		e.finishIter(s)
	}
}

// tryValidateThrough is validateThrough with a per-peer patience of
// Config.Deadline: when an overdue peer's message does not arrive in time,
// the iteration is marked as an overrun and validation is deferred —
// speculation then extends past the forward window until either the
// message lands (reconciliation) or the overrun budget forces a hard
// block. Returns false when it gave up on an overdue peer.
func (e *engine) tryValidateThrough(t int) bool {
	for s := e.validated + 1; s <= t && !e.stopped; s++ {
		if !e.collectActuals(s) {
			if !e.overrun[s] {
				e.overrun[s] = true
				e.stats.Overruns++
				e.p.Note("overrun")
				e.ob.overrun(s)
			}
			return false
		}
		e.finishIter(s)
	}
	return true
}

// finishIter validates, reconciles, and retires one iteration.
func (e *engine) finishIter(s int) {
	e.validateIter(s)
	e.validated = s
	if e.overrun[s] {
		delete(e.overrun, s)
		e.stats.Reconciles++
		e.p.Note("reconcile")
		e.ob.reconciled(s)
	}
	e.checkConverged(s)
	e.retire(s)
}

// collectActuals waits, up to Deadline per overdue peer, until every needed
// peer's iteration-s snapshot is stashed. Returns false on a deadline
// expiry. A peer the failure detector reports down gets no wait at all —
// the crash is bridged on speculation immediately. On success the
// subsequent validateIter will not block.
func (e *engine) collectActuals(s int) bool {
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.needs(k) {
			continue
		}
		if _, ok := e.plane.actualOf(k, s); ok {
			continue
		}
		if e.noActualBefore != nil && s < e.noActualBefore[k] {
			continue // catch-up gap: nothing will ever arrive
		}
		if e.peerDown(k) {
			return false // dead peer: overrun without burning the deadline
		}
		if !e.waitActual(k, s, e.cfg.Deadline) {
			return false
		}
	}
	return true
}

// waitActual blocks until peer k's iteration-t snapshot is stashed or
// timeout elapses, dispatching any other traffic that arrives meanwhile.
func (e *engine) waitActual(k, t int, timeout float64) bool {
	deadline := e.p.Now() + timeout
	for {
		if _, ok := e.plane.actualOf(k, t); ok {
			return true
		}
		remaining := deadline - e.p.Now()
		if remaining <= 0 {
			return false
		}
		m, ok := e.p.RecvDeadline(cluster.Any, cluster.Any, remaining)
		if !ok {
			_, have := e.plane.actualOf(k, t)
			return have
		}
		e.intake(m)
	}
}

// checkConverged evaluates the optional Stopper on iteration s's actual
// exchanged snapshots. All processors hold identical snapshot sets, so the
// decision is globally consistent without extra messages.
func (e *engine) checkConverged(s int) {
	if e.stopper == nil {
		return
	}
	view := e.plane.convScratch
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() {
			payload := e.plane.ownAt(s)
			if e.pub != nil {
				payload = e.pub.Publish(payload)
			}
			view[k] = payload
			continue
		}
		if !e.needs(k) {
			view[k] = nil // no messages from unneeded peers
			continue
		}
		view[k] = e.actual(k, s)
		if view[k] == nil {
			// Catch-up gap: this processor cannot evaluate Done(s) on the
			// same data its peers did, so it skips the evaluation. See the
			// DESIGN.md caveat on Stopper + crash recovery.
			return
		}
	}
	if ops := e.stopper.DoneOps(); ops > 0 {
		e.p.Compute(ops, cluster.PhaseOther)
	}
	if e.stopper.Done(view, s) {
		e.stopped = true
		e.stopIter = s
		e.ob.converged(s)
	}
}

// validateIter checks every prediction used at iteration t against the
// actual messages (App.Check, the paper's error > threshold test); on any
// failure it repairs X_j(t+1) and cascades recomputation through the
// speculated frontier.
func (e *engine) validateIter(t int) {
	preds := e.plane.predsAt(t)
	view := e.plane.viewAt(t)
	dirty := false
	var worst CheckResult
	badPeers := e.badScratch[:0]
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.needs(k) {
			continue
		}
		if preds == nil || preds[k] == nil {
			// Actual was used directly; just make sure we have consumed it
			// for history purposes.
			e.actualIntoHistory(k, t)
			continue
		}
		act := e.actual(k, t)
		if act == nil {
			// Catch-up gap: the actual can never arrive, so the speculation
			// is accepted unverified and contributes no history entry.
			continue
		}
		res := e.app.Check(k, preds[k], act, e.plane.ownAt(t), t)
		if res.Ops > 0 {
			e.p.Compute(res.Ops, cluster.PhaseCheck)
		}
		e.stats.SpecsChecked++
		e.stats.UnitsBad += int64(res.Bad)
		e.stats.UnitsTotal += int64(res.Total)
		if e.ob != nil {
			frac := 0.0
			if res.Total > 0 {
				frac = float64(res.Bad) / float64(res.Total)
			}
			e.ob.specChecked(t, k, frac, res.Bad > 0)
			if e.postCrashLeft != nil && e.postCrashLeft[k] > 0 {
				e.postCrashLeft[k]--
				e.ob.postCrashErr(frac)
			}
		}
		if res.Bad > 0 {
			e.stats.SpecsBad++
			dirty = true
			worst.Bad += res.Bad
			worst.Total += res.Total
			badPeers = append(badPeers, k)
			// Patch the stored view with the actual values for recompute.
			view[k] = act
		}
		e.actualIntoHistory(k, t)
	}
	e.badScratch = badPeers[:0]
	if !dirty {
		return
	}
	// Repair (eq. 11), charging the app-reported cost (the paper's
	// k·N_i·f_comp or a cheaper incremental correction): fold the app's
	// Corrector over every failed peer, or recompute from the patched view.
	e.stats.Repairs++
	e.ob.repaired(t, e.frontier-t)
	ops := e.app.RepairOps(worst)
	var fixed []float64
	if e.corr != nil {
		fixed = e.plane.ownAt(t + 1)
		local := e.plane.ownAt(t)
		for _, k := range badPeers {
			fixed = e.corr.Correct(fixed, local, k, preds[k], view[k], t)
		}
	} else {
		fixed = e.app.Compute(view, t)
	}
	e.plane.setOwn(t+1, fixed)
	e.p.Compute(ops, cluster.PhaseCorrect)
	// Cascade: any later iterations already computed used the stale
	// X_j(t+1). Their values are recomputed exactly, but the clock charge is
	// the app's incremental repair cost — the affected work is the part
	// touched by the corrected inputs, the same accounting the paper's
	// k·N_i·f_comp term models (a full-recompute app simply returns
	// ComputeOps from RepairOps).
	for s := t + 1; s <= e.frontier; s++ {
		row := e.plane.viewAt(s)
		row[e.p.ID()] = e.plane.ownAt(s)
		redo, cops := e.app.Compute(row, s), e.app.RepairOps(worst)
		e.plane.setOwn(s+1, redo)
		e.p.Compute(cops, cluster.PhaseCorrect)
		e.stats.CascadeRedos++
		e.ob.cascaded(s)
	}
}

// actualIntoHistory pushes peer k's iteration-t actual snapshot into the
// backward-window ring (validation proceeds in iteration order, so pushes
// are ordered too). A catch-up gap (nil actual) contributes nothing.
func (e *engine) actualIntoHistory(k, t int) {
	v := e.actual(k, t)
	if v == nil {
		return
	}
	e.plane.pushHistory(k, t, v)
}

// retire drops per-iteration bookkeeping no longer needed after validation,
// recycling buffers back into the plane's pools.
func (e *engine) retire(t int) {
	e.plane.advanceFloors(e.validated, e.lookback())
	e.plane.dropPreds(t, e.recycle)
	if t <= e.frontier {
		// views[t] may still be needed by a cascade from an earlier repair
		// only while t is unvalidated; once validated it is safe to drop.
		e.plane.dropView(t)
	}
	e.plane.dropOwn(t - 1)
	if testRetireHook != nil {
		testRetireHook(e, t)
	}
}

// testRetireHook, when non-nil (set only by tests), observes the engine
// after each retire — the memory-bound invariant is asserted there.
var testRetireHook func(e *engine, t int)

// cloneFloats copies a payload into a fresh buffer (non-nil for non-nil
// input, preserving the empty/nil distinction the transports' Send has).
func cloneFloats(s []float64) []float64 {
	if s == nil {
		return nil
	}
	d := make([]float64, len(s))
	copy(d, s)
	return d
}
