package distnet

// The node runtime: one OS process per processor, driving the unchanged
// internal/core engine through the core.Transport contract over real TCP
// links. RunNode is the whole lifecycle — join the coordinator, build the
// peer mesh, pass the start barrier, run the engine, report the result,
// tear down on the coordinator's shutdown.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
	"specomp/internal/realtime"
)

// NodeConfig parameterizes one node process.
type NodeConfig struct {
	// Coord is the coordinator's address. Required.
	Coord string
	// Listen is the peer listen address (default "127.0.0.1:0"); the bound
	// address is reported to the coordinator for mesh assembly.
	Listen string
	// HTTPAddr, when non-empty, serves live introspection for the run:
	// /metrics (Prometheus), /journal (JSONL), expvar and pprof — the same
	// endpoint realtime runs get. Use "127.0.0.1:0" for an ephemeral port.
	HTTPAddr string
	// Faults, when non-nil, applies the simulator's fault semantics to this
	// node's send path: every outgoing data message is planned through the
	// model (drop / duplicate / extra sender-side delay) before it touches
	// the socket. See faults.Injector.
	Faults netmodel.Model
	// FaultSeed seeds the injector's RNG.
	FaultSeed int64
	// Epoch is this process's incarnation epoch — 0 on first launch, higher
	// when a supervisor relaunched a crashed node.
	Epoch int
	// DialTimeout bounds each connection establishment, retried with
	// exponential backoff inside it (default 10s).
	DialTimeout time.Duration
	// HeartbeatEvery is the liveness beacon interval (default 250ms);
	// HeartbeatTimeout is the staleness threshold after which a silent peer
	// is reported down to the engine's failure detector (default 2s).
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// JournalDir, when non-empty, streams the node's run journal to
	// <JournalDir>/node-<rank>.jsonl through a buffered, size-capped writer
	// (see obs.JournalWriter) — the durable journal long soaks keep.
	JournalDir string
	// JournalMaxBytes caps the journal file before rotation (<= 0: no cap).
	JournalMaxBytes int64
	// Logf, when non-nil, receives progress lines (addresses, mesh events).
	Logf func(format string, args ...any)
}

func (cfg *NodeConfig) normalize() error {
	if cfg.Coord == "" {
		return fmt.Errorf("distnet: NodeConfig.Coord is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	return nil
}

func (cfg *NodeConfig) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// NodeResult is one node process's outcome.
type NodeResult struct {
	Rank int
	// HTTPAddr is the bound introspection address ("" when not served).
	HTTPAddr string
	// Result is the engine's outcome, exactly as on the other substrates.
	Result core.Result
	// Wall is the run duration from start barrier to engine completion.
	Wall time.Duration
}

// transport drives core.Transport over the peer mesh. The engine calls
// it from a single goroutine; per-peer reader and writer goroutines feed
// and drain the sockets.
type transport struct {
	rank, p int
	epoch   int
	start   time.Time
	// peers holds one live link per rank (nil at own index). Slots are
	// atomic pointers because the accept loop swaps in replacement links
	// when a crashed peer rejoins with a higher epoch, racing the engine
	// goroutine's sends; the data path pays one atomic load per access and
	// keeps its zero-allocation steady state.
	peers   []atomic.Pointer[peerConn]
	inbox   chan cluster.Message
	pending []cluster.Message
	commSec float64
	inj     *faults.Injector
	procs   int
	wire    WireSpec

	hbTimeout time.Duration

	// Reconnect support: the listener stays open for the whole run, the
	// accept loop authenticates replacement hellos under meshMu, and
	// detachedFrames accumulates the frame counts of links retired by a
	// swap so framesSentTotal stays complete.
	meshMu         sync.Mutex
	outCap         int
	myHello        Frame
	nodeCfg        NodeConfig
	detachedFrames atomic.Int64

	// Batch accumulation: per-destination pending messages, flushed into a
	// single FrameBatch when a size cap trips, when the engine is about to
	// block in a receive (the iteration boundary — both sides flush before
	// blocking, so batching can never deadlock the exchange), or when the
	// linger loop finds a batch that has waited long enough. batchMu covers
	// the engine goroutine and the linger goroutine.
	batchMu    sync.Mutex
	pend       [][]cluster.Message // pooled slices, nil when batching is off
	pendBytes  []int
	pendSince  []time.Time
	lingerStop chan struct{}

	// lat collects per-message delivery latencies (DeliveredAt − SentAt),
	// engine goroutine only.
	lat []float64

	// timers tracks outstanding injector-delayed sends so close can stop
	// them instead of leaking AfterFunc callbacks past the run.
	timersMu sync.Mutex
	timers   []*time.Timer
	closed   bool

	msgsSent, msgsRecvd, bytesSent int
	drops                          int // sends the injector suppressed

	obsMsgsSent  *obs.Counter
	obsBytesSent *obs.Counter

	// wobs is the wire-plane instrument set (nil when uninstrumented);
	// journal + traceWire gate send/deliver trace events for the fleet
	// trace merge.
	wobs      *wireObs
	journal   *obs.Journal
	traceWire bool
}

var _ interface {
	core.Transport
	core.SharedSender
} = (*transport)(nil)

// peer returns the current link to rank j (nil at own index).
func (t *transport) peer(j int) *peerConn { return t.peers[j].Load() }

// swapPeer installs pc as the link to its rank, retiring any previous
// link: its frame counter is folded into detachedFrames and it is closed
// in the background (close drains the writer, which can block briefly on a
// dead socket's write deadline).
func (t *transport) swapPeer(pc *peerConn) {
	if old := t.peers[pc.rank].Swap(pc); old != nil {
		go func() {
			old.close()
			t.detachedFrames.Add(old.framesSent.Load())
		}()
	}
}

func (t *transport) ID() int      { return t.rank }
func (t *transport) P() int       { return t.p }
func (t *transport) Now() float64 { return time.Since(t.start).Seconds() }

// Compute is a no-op: wall-clock substrate, the app's real CPU time is the
// cost.
func (t *transport) Compute(float64, cluster.Phase) {}

func (t *transport) Send(dst, tag, iter int, data []float64) {
	payload := make([]float64, len(data))
	copy(payload, data)
	t.SendShared(dst, tag, iter, payload)
}

// SendShared enqueues the message with its payload aliased: serialization
// in the writer goroutine is the copy, under the engine's guarantee that a
// shared payload is never mutated after the send.
func (t *transport) SendShared(dst, tag, iter int, data []float64) {
	if dst < 0 || dst >= t.p {
		panic(fmt.Sprintf("distnet: Send to invalid processor %d", dst))
	}
	m := cluster.Message{Src: t.rank, Dst: dst, Tag: tag, Iter: iter, Epoch: t.epoch, Data: data, SentAt: t.Now()}
	bytes := 8*len(data) + 64 // logical accounting parity with the simulator's default framing
	t.msgsSent++
	t.bytesSent += bytes
	t.obsMsgsSent.Inc()
	t.obsBytesSent.Add(float64(bytes))
	if t.traceWire {
		t.journal.Record(obs.Event{T: m.SentAt, Proc: t.rank, Kind: obs.EvSend, Iter: iter, Peer: dst, V: float64(tag)})
	}
	pc := t.peer(dst)
	if t.inj == nil {
		t.enqueueData(pc, m, bytes)
		return
	}
	// Fault injection is per message, not per frame: each logical message is
	// planned individually (parity with the simulator's DeliveriesOf), and
	// only the surviving immediate copies enter a batch. Delayed copies ship
	// as single frames when their timers fire — they have, by construction,
	// already left the iteration's coalescing window.
	plan := t.inj.Plan(t.rank, dst, bytes, t.procs, m.SentAt)
	if len(plan) == 0 {
		t.drops++
		return
	}
	for _, d := range plan {
		if d <= 0 {
			t.enqueueData(pc, m, bytes)
			continue
		}
		t.holdBack(pc, Frame{Type: FrameData, Msg: m}, d)
	}
}

// enqueueData queues one data message on its link: appended to the pending
// batch when the link negotiated batching, a single frame otherwise. Size
// caps flush inline.
func (t *transport) enqueueData(pc *peerConn, m cluster.Message, bytes int) {
	if !pc.opts.batch {
		pc.send(Frame{Type: FrameData, Msg: m})
		return
	}
	dst := pc.rank
	t.batchMu.Lock()
	if len(t.pend[dst]) == 0 {
		t.pendSince[dst] = time.Now()
	}
	t.pend[dst] = append(t.pend[dst], m)
	t.pendBytes[dst] += bytes
	var f Frame
	flush := false
	if len(t.pend[dst]) >= t.wire.MaxBatchMsgs {
		f, flush = t.popLocked(dst, flushMsgs)
	} else if t.pendBytes[dst] >= t.wire.MaxBatchBytes {
		f, flush = t.popLocked(dst, flushBytes)
	}
	t.batchMu.Unlock()
	if flush {
		pc.send(f)
	}
}

// popLocked removes and returns dst's pending batch as a ready-to-send
// frame (a plain data frame when only one message is pending), recording
// the flush reason and batch occupancy. Caller holds batchMu.
func (t *transport) popLocked(dst, reason int) (Frame, bool) {
	msgs := t.pend[dst]
	if len(msgs) == 0 {
		return Frame{}, false
	}
	t.wobs.noteFlush(reason, len(msgs))
	t.pend[dst] = getBatch()
	t.pendBytes[dst] = 0
	if len(msgs) == 1 {
		m := msgs[0]
		releaseBatch(msgs)
		return Frame{Type: FrameData, Msg: m}, true
	}
	return Frame{Type: FrameBatch, Batch: msgs}, true
}

// flushAll pushes every pending batch onto its link. The engine calls it on
// entry to a blocking receive: at that point it has said everything it has
// to say this iteration, and the peer may be waiting on exactly these
// messages.
func (t *transport) flushAll(reason int) {
	if t.pend == nil {
		return
	}
	t.batchMu.Lock()
	for dst := range t.pend {
		if f, ok := t.popLocked(dst, reason); ok {
			t.peer(dst).send(f)
		}
	}
	t.batchMu.Unlock()
}

// lingerLoop flushes batches that have waited past the linger budget —
// the backstop for messages enqueued while the engine computes on without
// blocking (speculative sends mid-iteration).
func (t *transport) lingerLoop() {
	linger := time.Duration(t.wire.LingerUS) * time.Microsecond
	tickEvery := linger
	if tickEvery < time.Millisecond {
		tickEvery = time.Millisecond // bound wakeup rate at large P
	}
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			now := time.Now()
			t.batchMu.Lock()
			for dst := range t.pend {
				if len(t.pend[dst]) > 0 && now.Sub(t.pendSince[dst]) >= linger {
					if f, ok := t.popLocked(dst, flushLinger); ok {
						t.peer(dst).send(f)
					}
				}
			}
			t.batchMu.Unlock()
		case <-t.lingerStop:
			return
		}
	}
}

// holdBack schedules a delayed transmission of one planned copy.
func (t *transport) holdBack(pc *peerConn, f Frame, delaySec float64) {
	t.timersMu.Lock()
	defer t.timersMu.Unlock()
	if t.closed {
		return
	}
	t.timers = append(t.timers, time.AfterFunc(
		time.Duration(delaySec*float64(time.Second)),
		func() { pc.send(f) },
	))
}

func (t *transport) takePending(src, tag int) (cluster.Message, bool) {
	for i, m := range t.pending {
		if m.Matches(src, tag) {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			t.msgsRecvd++
			return m, true
		}
	}
	return cluster.Message{}, false
}

// popped stamps a message just pulled off the inbox and records its
// delivery latency (clamped at zero: SentAt and DeliveredAt are measured on
// different processes' clocks).
func (t *transport) popped(m *cluster.Message) {
	m.DeliveredAt = t.Now()
	d := m.DeliveredAt - m.SentAt
	if d < 0 {
		d = 0
	}
	t.lat = append(t.lat, d)
	t.wobs.link(m.Src).observeLatency(d)
	if t.traceWire {
		t.journal.Record(obs.Event{T: m.DeliveredAt, Proc: t.rank, Kind: obs.EvDeliver, Iter: m.Iter, Peer: m.Src, V: d})
	}
}

// TryRecv polls without flushing pending batches: a poll is not a
// commitment to wait, and flushing here would defeat coalescing (the engine
// polls between speculative iterations).
func (t *transport) TryRecv(src, tag int) (cluster.Message, bool) {
	if m, ok := t.takePending(src, tag); ok {
		return m, true
	}
	for {
		select {
		case m := <-t.inbox:
			t.popped(&m)
			if m.Matches(src, tag) {
				t.msgsRecvd++
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
	t.flushAll(flushRecv) // about to block: everything we owe the mesh goes out first
	before := time.Now()
	defer func() { t.commSec += time.Since(before).Seconds() }()
	for {
		m := <-t.inbox
		t.popped(&m)
		if m.Matches(src, tag) {
			t.msgsRecvd++
			return m
		}
		t.pending = append(t.pending, m)
	}
}

func (t *transport) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	if m, ok := t.takePending(src, tag); ok {
		return m, true
	}
	t.flushAll(flushRecv) // about to block: everything we owe the mesh goes out first
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
			t.popped(&m)
			if m.Matches(src, tag) {
				t.msgsRecvd++
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

// PeerDown is the failure detector over heartbeat staleness: a peer
// whose link errored out, or that has been silent past HeartbeatTimeout, is
// reported down — feeding the engine's crash-bridging machinery exactly as
// the simulator's perfect detector does, with the usual real-network caveat
// that silence is a suspicion, not a proof.
func (t *transport) PeerDown(peer int) bool {
	if peer < 0 || peer >= t.p || peer == t.rank {
		return false
	}
	return !t.peer(peer).alive(t.hbTimeout)
}

// Epoch is the process incarnation stamped on messages and checkpoints.
func (t *transport) Epoch() int { return t.epoch }

// Note is a no-op: point events reach the run journal, not the wire.
func (t *transport) Note(string) {}

func (t *transport) NetStats() cluster.NetStats {
	return cluster.NetStats{
		MsgsSent:  t.msgsSent,
		MsgsRecvd: t.msgsRecvd,
		BytesSent: t.bytesSent,
	}
}

// reader pumps one peer link into the shared inbox until the link dies. A
// persistent Decoder carries the link's payload buffer and — when delta
// coding is negotiated — its per-stream bases across frames. Payload rows
// are freshly allocated per message (Reuse off): the engine adopts them.
func (t *transport) reader(pc *peerConn) {
	dec := NewDecoder(bufio.NewReaderSize(pc.conn, 64<<10))
	dec.Track = t.wire.Delta // we advertised CapDelta iff the spec asks for delta
	var f Frame
	for {
		if err := dec.Decode(&f); err != nil {
			pc.down.Store(true)
			return
		}
		pc.touch()
		switch f.Type {
		case FrameData:
			if !t.deliver(pc, f.Msg) {
				return
			}
		case FrameBatch:
			for _, m := range f.Batch {
				if !t.deliver(pc, m) {
					return
				}
			}
		case FrameHeartbeat:
			// touch above is the liveness half; the clock tail (if any)
			// feeds the link's offset estimator.
			pc.noteHeartbeat(f.Clock)
		case FrameShutdown:
			pc.down.Store(true)
			return
		default:
			// Unknown control on a peer link: tolerate (forward compat).
		}
	}
}

// deliver hands one received message to the engine's inbox, reporting false
// when the link is being torn down.
func (t *transport) deliver(pc *peerConn, m cluster.Message) bool {
	select {
	case t.inbox <- m:
		return true
	case <-pc.stop:
		return false
	}
}

// framesSentTotal sums the physical frames written across all peer links,
// including links retired by a reconnect swap.
func (t *transport) framesSentTotal() int {
	n := t.detachedFrames.Load()
	for j := range t.peers {
		if pc := t.peer(j); pc != nil {
			n += pc.framesSent.Load()
		}
	}
	return int(n)
}

// latPercentile returns the q-quantile of the collected delivery latencies
// (sorting in place on first use).
func latPercentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// close tears down every peer link and cancels injector-held sends, pushing
// any still-pending batches out first (shutdown must not strand messages a
// slower peer is waiting for).
func (t *transport) close() {
	if t.lingerStop != nil {
		select {
		case <-t.lingerStop:
		default:
			close(t.lingerStop)
		}
	}
	t.flushAll(flushClose)
	t.timersMu.Lock()
	t.closed = true
	timers := t.timers
	t.timers = nil
	t.timersMu.Unlock()
	for _, tm := range timers {
		tm.Stop()
	}
	for j := range t.peers {
		if pc := t.peer(j); pc != nil {
			pc.close()
		}
	}
}

// coordStore adapts the coordinator connection to checkpoint.Store: Save
// ships snapshots into coordinator custody; Load returns the snapshot the
// coordinator handed back in the config frame (the restore path for a
// relaunched node).
type coordStore struct {
	rank    int
	coord   *peerConn
	initial []byte
}

func (s *coordStore) Save(proc int, blob []byte) {
	cp := append([]byte(nil), blob...)
	s.coord.send(Frame{Type: FrameCheckpoint, Rank: proc, Blob: cp})
}

func (s *coordStore) Load(proc int) ([]byte, bool) {
	if proc != s.rank || len(s.initial) == 0 {
		return nil, false
	}
	return s.initial, true
}

// RunNode joins the coordinator at cfg.Coord, participates in one full run,
// and returns this process's outcome. It blocks until the coordinator
// releases the shutdown (so no node tears its links down while a slower
// peer still needs them).
func RunNode(cfg NodeConfig) (*NodeResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	// Listen for peers first: the listen address travels in the hello.
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("distnet: peer listener: %w", err)
	}
	defer ln.Close()

	// Join the coordinator.
	coordRaw, err := dialRetry(cfg.Coord, cfg.DialTimeout, cfg.Logf)
	if err != nil {
		return nil, err
	}
	coord := newPeerConn(-1, coordRaw, 64, wireOpts{})
	defer coord.close()
	// The coordinator link is control plane — no batching — but the hello
	// still advertises the build's full capability set.
	coord.send(Frame{Type: FrameHello, Rank: -1, Epoch: cfg.Epoch, Addr: ln.Addr().String(), Caps: CapBatch | CapDelta | CapObs})

	// The config frame assigns our rank and carries the membership + spec.
	cf, err := readConfig(coordRaw, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	var wc wireConfig
	if err := json.Unmarshal(cf.Blob, &wc); err != nil {
		return nil, fmt.Errorf("distnet: decoding config: %w", err)
	}
	spec := wc.Spec
	rank, p := wc.Rank, spec.Procs
	if rank < 0 || rank >= p || len(wc.Peers) != p {
		return nil, fmt.Errorf("distnet: inconsistent config (rank %d of %d, %d peers)", rank, p, len(wc.Peers))
	}
	cfg.logf("rank %d/%d assigned, peers %v", rank, p, wc.Peers)

	// Observability first: registry and journal exist before the mesh so
	// link construction, dial retries and the links themselves are
	// instrumented from the first frame.
	reg := obs.NewRegistry()
	journal := obs.NewJournal()
	core.RegisterEngineMetrics(reg, rank)
	lp := obs.L("proc", strconv.Itoa(rank))
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("distnet: journal dir: %w", err)
		}
		jw, err := obs.NewJournalWriter(
			filepath.Join(cfg.JournalDir, fmt.Sprintf("node-%d.jsonl", rank)), cfg.JournalMaxBytes)
		if err != nil {
			return nil, err
		}
		defer jw.Close() // flushes buffered tail events on every exit path
		journal.Attach(jw)
		if !spec.Trace {
			// The file keeps full history; memory keeps a bounded tail.
			journal.Limit(4096)
		}
	}

	// Build the transport around the mesh.
	outCap := 2*spec.MaxIter + 64
	tr := &transport{
		rank: rank, p: p, epoch: cfg.Epoch,
		peers:     make([]atomic.Pointer[peerConn], p),
		inbox:     make(chan cluster.Message, p*(spec.MaxIter+16)),
		inj:       faults.NewInjector(cfg.Faults, cfg.FaultSeed),
		procs:     p,
		wire:      spec.Wire,
		hbTimeout: cfg.HeartbeatTimeout,
		outCap:    outCap,
		nodeCfg:   cfg,
		wobs:      newWireObs(reg, rank, p),
		journal:   journal,
		traceWire: spec.Trace,
	}
	if !spec.Wire.NoBatch {
		tr.pend = make([][]cluster.Message, p)
		for i := range tr.pend {
			tr.pend[i] = getBatch()
		}
		tr.pendBytes = make([]int, p)
		tr.pendSince = make([]time.Time, p)
		tr.lingerStop = make(chan struct{})
	}
	if wc.Rejoin {
		cfg.logf("rank %d: rejoining a run in flight (epoch %d), dialing all survivors", rank, cfg.Epoch)
	}
	if err := tr.connectMesh(ln, wc.Peers, cfg, wc.Rejoin); err != nil {
		tr.close()
		return nil, err
	}
	// The listener stays open for the rest of the run: a crashed peer's
	// replacement incarnation reconnects through it.
	go tr.acceptLoop(ln)
	for j := range tr.peers {
		pc := tr.peer(j)
		if pc == nil {
			continue
		}
		go tr.reader(pc)
		go pc.heartbeater(cfg.HeartbeatEvery)
	}
	if tr.lingerStop != nil {
		go tr.lingerLoop()
	}
	// Heartbeat the coordinator link too: its liveness window (the
	// coordinator's NodeTimeout) is how a hung node is detected without
	// waiting for the global run timeout. Beacons piggyback on control
	// traffic, so an active link costs nothing extra.
	go coord.heartbeater(cfg.HeartbeatEvery)

	// Control-plane reader for the coordinator link.
	barrierCh := make(chan int, 8)
	shutdownCh := make(chan struct{})
	go func() {
		br := bufio.NewReader(coordRaw)
		for {
			f, err := readFrame(br)
			if err != nil {
				coord.down.Store(true)
				close(shutdownCh) // a dead coordinator ends the run
				return
			}
			coord.touch()
			switch f.Type {
			case FrameBarrier:
				barrierCh <- f.Seq
			case FrameShutdown:
				close(shutdownCh)
				return
			}
		}
	}()

	// Transport accounting counters + optional live HTTP endpoint — the
	// same artifacts a simulated run emits.
	tr.obsMsgsSent = reg.Counter(cluster.MetricMsgsSent, "logical messages passed to Send", lp)
	tr.obsBytesSent = reg.Counter(cluster.MetricBytesSent, "payload+header bytes of logical sends", lp)
	reg.Gauge(MetricNodeEpoch, "Process incarnation epoch (0 on first launch).", lp).Set(float64(cfg.Epoch))
	httpAddr := ""
	if cfg.HTTPAddr != "" {
		srv, err := realtime.ServeObs(cfg.HTTPAddr, reg, journal)
		if err != nil {
			tr.close()
			return nil, fmt.Errorf("distnet: obs endpoint: %w", err)
		}
		defer srv.Close()
		httpAddr = srv.Addr()
		cfg.logf("rank %d serving /metrics and /journal on http://%s", rank, httpAddr)
	}

	// Metrics push loop: when the coordinator advertised CapObs, ship it a
	// full registry snapshot (Prometheus text) every ObsPushMS so the fleet
	// endpoint stays fresh while the run is live. A final push after the
	// engine finishes precedes the result frame on the same TCP stream, so
	// the coordinator always aggregates complete end-of-run counters.
	pushSnapshot := func() {
		// Count the push before rendering so the snapshot includes itself —
		// the final end-of-run push must not report one less than reality.
		tr.wobs.notePush()
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			return
		}
		coord.send(Frame{Type: FrameObs, Rank: rank, Blob: append([]byte(nil), buf.Bytes()...)})
	}
	var pushStop, pushDone chan struct{}
	if wc.CoordCaps&CapObs != 0 && spec.ObsPushMS > 0 {
		pushStop = make(chan struct{})
		pushDone = make(chan struct{})
		go func() {
			defer close(pushDone)
			tk := time.NewTicker(time.Duration(spec.ObsPushMS) * time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-tk.C:
					pushSnapshot()
				case <-pushStop:
					return
				}
			}
		}()
	}

	// Start barrier: every node reports its mesh up; the coordinator
	// releases them together so no engine races ahead of a half-built mesh.
	coord.send(Frame{Type: FrameBarrier, Seq: 0})
	select {
	case <-barrierCh:
	case <-shutdownCh:
		tr.close()
		return nil, fmt.Errorf("distnet: coordinator went away before the start barrier")
	case <-time.After(cfg.DialTimeout + 30*time.Second):
		tr.close()
		return nil, fmt.Errorf("distnet: start barrier timed out")
	}

	app, err := BuildApp(spec, rank)
	if err != nil {
		tr.close()
		return nil, err
	}
	var store checkpoint.Store
	if spec.CheckpointEvery > 0 {
		store = &coordStore{rank: rank, coord: coord, initial: wc.Checkpoint}
	}
	ecfg := spec.CoreConfig(reg, journal, store)

	tr.start = time.Now()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	res, runErr := core.Run(tr, app, ecfg)
	runtime.ReadMemStats(&msAfter)
	wall := time.Since(tr.start)
	if runErr != nil {
		tr.close()
		return nil, fmt.Errorf("distnet: rank %d engine: %w", rank, runErr)
	}

	// Wire-plane throughput measures for the soak harness: delivery-latency
	// percentiles, physical frame count (batching ⇒ frames ≪ messages), and
	// whole-process allocations per message over the run.
	sort.Float64s(tr.lat)
	allocsPerMsg := 0.0
	if n := tr.msgsSent + tr.msgsRecvd; n > 0 {
		allocsPerMsg = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(n)
	}

	// Harvest the per-link clock-offset estimates (peer clock minus ours)
	// for the trace merge, publishing them as gauges too.
	clockOff := make([]float64, p)
	clockRTT := make([]float64, p)
	for j := range tr.peers {
		pc := tr.peer(j)
		if pc == nil {
			continue
		}
		if off, rtt, ok := pc.clockOffset(); ok {
			clockOff[j], clockRTT[j] = off, rtt
			pc.opts.obs.setClock(off, rtt)
		}
	}

	// Stop the push loop, then send one final snapshot so the aggregated
	// endpoint reflects the finished run before the result lands.
	if pushStop != nil {
		close(pushStop)
		<-pushDone
		pushSnapshot()
	}

	var traceEvents []obs.Event
	if spec.Trace {
		traceEvents = journal.Events()
	}

	// Report the outcome, then hold the mesh open until the coordinator
	// confirms every node is done.
	coord.send(Frame{Type: FrameResult, Blob: encodeJSON(resultMsg{
		Rank: rank, HTTP: httpAddr, Epoch: cfg.Epoch, Restores: res.Stats.Restores,
		Converged: res.Converged, Iters: res.Stats.Iters,
		SpecsMade: res.Stats.SpecsMade, SpecsBad: res.Stats.SpecsBad,
		Repairs: res.Stats.Repairs, Overruns: res.Stats.Overruns,
		WallSec: wall.Seconds(), CommSec: res.Stats.CommTime,
		MsgsSent: res.Stats.Net.MsgsSent, BytesSent: res.Stats.Net.BytesSent,
		MsgsRecvd:    tr.msgsRecvd,
		FramesSent:   tr.framesSentTotal(),
		LatP50Sec:    latPercentile(tr.lat, 0.50),
		LatP99Sec:    latPercentile(tr.lat, 0.99),
		AllocsPerMsg: allocsPerMsg,
		StartUnix:    float64(tr.start.UnixNano()) / 1e9,
		ClockOff:     clockOff,
		ClockRTT:     clockRTT,
		Journal:      traceEvents,
		Final:        res.Final,
	})})
	select {
	case <-shutdownCh:
	case <-time.After(60 * time.Second):
		cfg.logf("rank %d: shutdown wait timed out, tearing down anyway", rank)
	}
	tr.close()
	return &NodeResult{Rank: rank, HTTPAddr: httpAddr, Result: res, Wall: wall}, nil
}

// readConfig reads the coordinator's config frame with a deadline.
func readConfig(conn net.Conn, timeout time.Duration) (Frame, error) {
	if timeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	f, err := readFrame(conn)
	if err != nil {
		return Frame{}, fmt.Errorf("distnet: reading config: %w", err)
	}
	if f.Type != FrameConfig {
		return Frame{}, fmt.Errorf("distnet: expected config, got %v frame", f.Type)
	}
	return f, nil
}

// connectMesh establishes one TCP link per peer pair. On a fresh run this
// node dials every lower rank (which is already listening) and accepts one
// connection from every higher rank. On a rejoin the run is already in
// flight and every survivor is listening, so this node dials ALL peers;
// their accept loops authenticate the higher-epoch hello and swap out the
// stale link. Each link opens with a hello exchange — the dialer
// introduces itself, the acceptor replies with its own hello — so both
// sides learn the peer's capability mask and the link's frame shape
// (batching, delta) is the negotiated intersection.
func (t *transport) connectMesh(ln net.Listener, peers []string, cfg NodeConfig, rejoin bool) error {
	rank, p := t.rank, t.p
	caps := localCaps(t.wire)
	t.myHello = Frame{Type: FrameHello, Rank: rank, Epoch: t.epoch, Addr: peers[rank], Caps: caps}
	myHello := t.myHello

	type dialed struct {
		rank  int
		conn  net.Conn
		hello Frame
		err   error
	}
	dialTo := 0 // fresh run: dial [0, rank)
	if rejoin {
		dialTo = p // rejoin: dial everyone but self
	} else {
		dialTo = rank
	}
	ch := make(chan dialed, p)
	dials := 0
	for j := 0; j < dialTo; j++ {
		if j == rank {
			continue
		}
		j := j
		dials++
		go func() {
			conn, hello, err := t.dialPeer(peers[j], j, myHello, cfg)
			ch <- dialed{rank: j, conn: conn, hello: hello, err: err}
		}()
	}

	// Accept the higher ranks while the dials run (fresh run only; a
	// rejoiner reaches every peer by dialing).
	accepts := 0
	if !rejoin {
		accepts = p - 1 - rank
	}
	acceptErr := make(chan error, 1)
	go func() {
		for need := accepts; need > 0; need-- {
			_ = setAcceptDeadline(ln, time.Now().Add(cfg.DialTimeout+30*time.Second))
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- fmt.Errorf("distnet: accepting peer: %w", err)
				return
			}
			hello, err := readHello(conn, cfg.DialTimeout)
			if err != nil {
				conn.Close()
				acceptErr <- err
				return
			}
			if hello.Rank <= rank || hello.Rank >= p {
				conn.Close()
				acceptErr <- fmt.Errorf("distnet: unexpected hello from rank %d", hello.Rank)
				return
			}
			if t.peer(hello.Rank) != nil {
				conn.Close()
				acceptErr <- fmt.Errorf("distnet: duplicate connection from rank %d", hello.Rank)
				return
			}
			if _, err := writeFrame(conn, nil, &myHello); err != nil {
				conn.Close()
				acceptErr <- fmt.Errorf("distnet: hello reply to rank %d: %w", hello.Rank, err)
				return
			}
			t.installPeer(hello.Rank, conn, hello)
		}
		acceptErr <- nil
	}()

	var firstErr error
	for i := 0; i < dials; i++ {
		d := <-ch
		if d.err != nil {
			if firstErr == nil {
				firstErr = d.err
			}
			continue
		}
		t.installPeer(d.rank, d.conn, d.hello)
	}
	if err := <-acceptErr; err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// installPeer wires a freshly handshaken connection in as the link to the
// hello sender's rank.
func (t *transport) installPeer(j int, conn net.Conn, hello Frame) *peerConn {
	pc := newPeerConn(j, conn, t.outCap, t.linkOptsFor(hello.Caps, j))
	pc.epoch = hello.Epoch
	t.swapPeer(pc)
	return pc
}

// acceptLoop serves inbound peer connections for the rest of the run —
// the reconnect path a rejoining peer takes after a crash. It exits when
// the listener closes at teardown.
func (t *transport) acceptLoop(ln net.Listener) {
	_ = setAcceptDeadline(ln, time.Time{}) // clear the mesh-build deadline
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go t.acceptReplacement(conn)
	}
}

// acceptReplacement authenticates one inbound connection as a rejoining
// peer and swaps it in over the stale link. The epoch rule is the guard:
// only a hello from a strictly newer incarnation of the peer may replace
// the current link, so duplicate dials and a dead incarnation's late
// packets can never tear down a healthy connection.
func (t *transport) acceptReplacement(conn net.Conn) {
	cfg := t.nodeCfg
	hello, err := readHello(conn, cfg.DialTimeout)
	if err != nil {
		conn.Close()
		return
	}
	j := hello.Rank
	if j < 0 || j >= t.p || j == t.rank {
		conn.Close()
		return
	}
	t.timersMu.Lock()
	closing := t.closed
	t.timersMu.Unlock()
	if closing {
		conn.Close()
		return
	}
	t.meshMu.Lock()
	if cur := t.peer(j); cur != nil && hello.Epoch <= cur.epoch {
		t.meshMu.Unlock()
		conn.Close() // stale or duplicate incarnation
		return
	}
	if _, err := writeFrame(conn, nil, &t.myHello); err != nil {
		t.meshMu.Unlock()
		conn.Close()
		return
	}
	pc := t.installPeer(j, conn, hello)
	t.meshMu.Unlock()
	t.wobs.noteReconnect()
	cfg.logf("rank %d: peer %d reconnected with epoch %d, stale link retired", t.rank, j, hello.Epoch)
	go t.reader(pc)
	go pc.heartbeater(cfg.HeartbeatEvery)
}

// linkOptsFor negotiates the link shape with peer j and attaches the link's
// instrumentation handle.
func (t *transport) linkOptsFor(remoteCaps uint32, j int) wireOpts {
	o := linkOpts(t.wire, remoteCaps)
	o.obs = t.wobs.link(j)
	return o
}

// dialPeer dials rank j, sends our hello and reads the reply, returning the
// peer's hello (capability mask + incarnation epoch). The error taxonomy is
// load-bearing here: a reply cut off mid-frame (io.ErrUnexpectedEOF — the
// peer was tearing down a half-open accept, or the connection raced its
// listener) is retried on a fresh connection within the dial budget, while
// a corrupt reply (ErrCorrupt — wrong process, protocol desync) fails the
// mesh immediately.
func (t *transport) dialPeer(addr string, j int, myHello Frame, cfg NodeConfig) (net.Conn, Frame, error) {
	deadline := time.Now().Add(cfg.DialTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, Frame{}, fmt.Errorf("distnet: hello exchange with rank %d: %w", j, lastErr)
		}
		t.wobs.noteDial()
		conn, err := dialRetry(addr, remain, cfg.Logf)
		if err != nil {
			return nil, Frame{}, err
		}
		if _, err := writeFrame(conn, nil, &myHello); err != nil {
			conn.Close()
			return nil, Frame{}, fmt.Errorf("distnet: hello to rank %d: %w", j, err)
		}
		reply, err := readHello(conn, time.Until(deadline))
		if err == nil {
			if reply.Rank != j {
				conn.Close()
				return nil, Frame{}, fmt.Errorf("distnet: dialed rank %d but got hello from rank %d", j, reply.Rank)
			}
			return conn, reply, nil
		}
		conn.Close()
		if errors.Is(err, ErrCorrupt) {
			return nil, Frame{}, err // desynchronized stream: fatal, never retried
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) && !isTimeout(err) {
			return nil, Frame{}, err
		}
		lastErr = err
		t.wobs.noteHelloRetry()
		time.Sleep(time.Duration(25<<min(attempt, 5)) * time.Millisecond)
	}
}

// isTimeout reports whether err is a network timeout (deadline expiry on
// the hello read — retryable within the dial budget).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// setAcceptDeadline applies a deadline when the listener supports it.
func setAcceptDeadline(ln net.Listener, t time.Time) error {
	if tl, ok := ln.(*net.TCPListener); ok {
		return tl.SetDeadline(t)
	}
	return nil
}
