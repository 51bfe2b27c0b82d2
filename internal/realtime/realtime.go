// Package realtime executes a synchronous iterative application with
// speculative computation on REAL goroutines and channels — the library's
// answer to "does this run outside the simulator?". Each processor is a
// goroutine; messages travel over Go channels with an optional injected
// wall-clock latency.
//
// The package implements core.Transport, so the full engine runs here
// unchanged: every forward window, the Publisher/Stopper/Corrector
// extensions, and the speculation statistics all behave exactly as on the
// simulated cluster. Operation-count charging is a no-op (the app's real
// CPU time is the cost), and blocked-receive time is accounted in wall
// seconds.
package realtime

import (
	"fmt"
	"sync"
	"time"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/obs"
	"specomp/internal/predict"
)

// Config parameterizes a real-time run.
type Config struct {
	// Procs is the number of worker goroutines.
	Procs int
	// MaxIter is the number of iterations.
	MaxIter int
	// FW is the forward window (any value the engine supports).
	FW int
	// BW is the backward window; defaults to the predictor's window.
	BW int
	// Predictor is the generic speculation function (default predict.Linear).
	Predictor predict.Predictor
	// HoldSends forwards the engine's speculative-send ablation switch.
	HoldSends bool
	// Delay is an artificial per-message latency injected on delivery,
	// emulating a slow interconnect. Zero delivers immediately.
	Delay time.Duration
	// Metrics, when non-nil, receives the engine's counters and histograms
	// for every worker (per-processor labels).
	Metrics *obs.Registry
	// Journal, when non-nil, receives the structured run journal stamped
	// with wall-clock seconds since the run started. Unlike the simulated
	// cluster, ordering across workers is not deterministic.
	Journal *obs.Journal
	// HTTPAddr, when non-empty, serves live introspection for the duration
	// of the run: Prometheus text exposition at /metrics (from Metrics),
	// expvar at /debug/vars, and net/http/pprof at /debug/pprof/. Use
	// "127.0.0.1:0" to bind an ephemeral port (the address is logged via
	// ServeObs for standalone use).
	HTTPAddr string
}

// Result is one processor's outcome.
type Result struct {
	Proc      int
	Final     []float64
	Converged bool
	// Stats is the engine's full per-processor statistics record —
	// speculation, check, repair, cascade, and phase-time accounting.
	Stats     core.Stats
	SpecsMade int
	SpecsBad  int
	Repairs   int
	Elapsed   time.Duration
	// CommBlocked is the wall-clock time spent blocked on receives.
	CommBlocked time.Duration
}

// transport adapts goroutine channels to core.Transport, zero-copy sends
// included.
type transport struct {
	id, p   int
	inbox   chan cluster.Message
	peers   []chan cluster.Message
	delay   time.Duration
	start   time.Time
	pending []cluster.Message
	commSec float64
	// timers tracks outstanding delayed sends so Run can stop them at
	// shutdown instead of leaking time.AfterFunc callbacks that fire after
	// the run has returned.
	timers []*time.Timer
}

var _ interface {
	core.Transport
	core.SharedSender
} = (*transport)(nil)

func (t *transport) ID() int { return t.id }

func (t *transport) P() int { return t.p }

func (t *transport) Now() float64 { return time.Since(t.start).Seconds() }

// Compute is a no-op: on a wall-clock substrate the work has already been
// done by the app itself.
func (t *transport) Compute(float64, cluster.Phase) {}

func (t *transport) Send(dst, tag, iter int, data []float64) {
	payload := make([]float64, len(data))
	copy(payload, data)
	t.SendShared(dst, tag, iter, payload)
}

// SendShared enqueues the message with its payload aliased, not copied; the
// receiver adopts the slice. The caller must never mutate data afterwards,
// which lets a broadcast share one immutable payload across all peers.
func (t *transport) SendShared(dst, tag, iter int, data []float64) {
	m := cluster.Message{Src: t.id, Dst: dst, Tag: tag, Iter: iter, Data: data, SentAt: t.Now()}
	ch := t.peers[dst]
	if t.delay <= 0 {
		ch <- m
		return
	}
	t.timers = append(t.timers, time.AfterFunc(t.delay, func() { ch <- m }))
}

// stopTimers cancels outstanding delayed sends. Called after every worker
// has finished (the WaitGroup gives the happens-before edge to the appends
// in Send).
func (t *transport) stopTimers() {
	for _, tm := range t.timers {
		tm.Stop()
	}
	t.timers = nil
}

func (t *transport) takePending(src, tag int) (cluster.Message, bool) {
	for i, m := range t.pending {
		if m.Matches(src, tag) {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return m, true
		}
	}
	return cluster.Message{}, false
}

func (t *transport) TryRecv(src, tag int) (cluster.Message, bool) {
	if m, ok := t.takePending(src, tag); ok {
		return m, true
	}
	for {
		select {
		case m := <-t.inbox:
			m.DeliveredAt = t.Now()
			if m.Matches(src, tag) {
				return m, true
			}
			t.pending = append(t.pending, m)
		default:
			return cluster.Message{}, false
		}
	}
}

func (t *transport) Recv(src, tag int) cluster.Message {
	if m, ok := t.takePending(src, tag); ok {
		return m
	}
	before := time.Now()
	defer func() { t.commSec += time.Since(before).Seconds() }()
	for {
		m := <-t.inbox
		m.DeliveredAt = t.Now()
		if m.Matches(src, tag) {
			return m
		}
		t.pending = append(t.pending, m)
	}
}

// RecvDeadline bounds the receive by a wall-clock timeout, enabling the
// engine's graceful-degradation mode on the realtime substrate.
func (t *transport) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	if m, ok := t.takePending(src, tag); ok {
		return m, true
	}
	before := time.Now()
	defer func() { t.commSec += time.Since(before).Seconds() }()
	deadline := before.Add(time.Duration(timeout * float64(time.Second)))
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return cluster.Message{}, false
		}
		timer := time.NewTimer(remaining)
		select {
		case m := <-t.inbox:
			timer.Stop()
			m.DeliveredAt = t.Now()
			if m.Matches(src, tag) {
				return m, true
			}
			t.pending = append(t.pending, m)
		case <-timer.C:
			return cluster.Message{}, false
		}
	}
}

func (t *transport) PhaseTime(ph cluster.Phase) float64 {
	if ph == cluster.PhaseComm {
		return t.commSec
	}
	return 0
}

// In-process goroutines never crash or restart, channels keep no
// counters, and there is no timeline to mark.
func (t *transport) PeerDown(int) bool          { return false }
func (t *transport) Epoch() int                 { return 0 }
func (t *transport) NetStats() cluster.NetStats { return cluster.NetStats{} }
func (t *transport) Note(string)                {}

// Run executes the application and returns per-processor results.
func Run(cfg Config, factory func(pid, procs int) core.App) ([]Result, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("realtime: Procs must be >= 1")
	}
	if cfg.MaxIter < 1 {
		return nil, fmt.Errorf("realtime: MaxIter must be >= 1")
	}
	p := cfg.Procs
	inbox := make([]chan cluster.Message, p)
	for i := range inbox {
		// Generous buffering: senders must never block (MaxIter data
		// messages from each peer, plus slack).
		inbox[i] = make(chan cluster.Message, p*(cfg.MaxIter+4))
	}
	ecfg := core.Config{
		FW: cfg.FW, BW: cfg.BW, MaxIter: cfg.MaxIter,
		Predictor: cfg.Predictor, HoldSends: cfg.HoldSends,
		Metrics: cfg.Metrics, Journal: cfg.Journal,
	}
	if cfg.Metrics != nil {
		// Pre-register every worker's engine families plus the transport's
		// retransmission counter (always 0 on in-process channels), so a
		// /metrics scrape covers the full schema from the first instant.
		for pid := 0; pid < p; pid++ {
			core.RegisterEngineMetrics(cfg.Metrics, pid)
			cfg.Metrics.Counter(cluster.MetricRetransmits,
				"reliable-layer retransmissions (always 0 on the in-process channel transport)",
				obs.L("proc", fmt.Sprint(pid)))
		}
	}
	var srv *ObsServer
	if cfg.HTTPAddr != "" {
		var err error
		srv, err = ServeObs(cfg.HTTPAddr, cfg.Metrics, cfg.Journal)
		if err != nil {
			return nil, fmt.Errorf("realtime: obs endpoint: %w", err)
		}
		defer srv.Close()
	}
	results := make([]Result, p)
	errs := make([]error, p)
	transports := make([]*transport, p)
	start := time.Now()
	var wg sync.WaitGroup
	for pid := 0; pid < p; pid++ {
		pid := pid
		wg.Add(1)
		tr := &transport{id: pid, p: p, inbox: inbox[pid], peers: inbox, delay: cfg.Delay, start: start}
		transports[pid] = tr
		go func() {
			defer wg.Done()
			res, err := core.Run(tr, factory(pid, p), ecfg)
			if err != nil {
				errs[pid] = err
				return
			}
			results[pid] = Result{
				Proc:        pid,
				Final:       res.Final,
				Converged:   res.Converged,
				Stats:       res.Stats,
				SpecsMade:   res.Stats.SpecsMade,
				SpecsBad:    res.Stats.SpecsBad,
				Repairs:     res.Stats.Repairs,
				Elapsed:     time.Since(start),
				CommBlocked: time.Duration(res.Stats.CommTime * float64(time.Second)),
			}
		}()
	}
	wg.Wait()
	for _, tr := range transports {
		tr.stopTimers()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("realtime: processor %d: %w", i, err)
		}
	}
	return results, nil
}
