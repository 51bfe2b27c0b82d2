// Package cluster simulates a heterogeneous workstation network with
// message passing — the substrate the paper ran on (SUN/Sparc workstations
// under PVM on shared Ethernet).
//
// Each simulated processor runs a user-supplied body function in its own
// goroutine, scheduled deterministically by a simtime.Kernel. Computation is
// charged to the virtual clock through Compute (operations divided by the
// machine's capacity M_i), and messages travel through a pluggable
// netmodel.Model. Per-processor phase clocks record where virtual time goes
// (compute / blocked-on-receive / speculate / check / correct), which is
// exactly the instrumentation behind the paper's Table 2.
package cluster

import (
	"fmt"
	"strconv"

	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
	"specomp/internal/simtime"
)

// Transport metric names (Prometheus families; every series carries a proc
// label — the receiving processor for latency, the acting one otherwise).
const (
	MetricMsgsSent    = "specomp_net_msgs_sent_total"
	MetricBytesSent   = "specomp_net_bytes_sent_total"
	MetricRetransmits = "specomp_net_retransmits_total"
	MetricDupsDropped = "specomp_net_dups_dropped_total"
	MetricGiveUps     = "specomp_net_giveups_total"
	MetricMsgLatency  = "specomp_net_message_latency_seconds"
	MetricCrashes     = "specomp_proc_crashes_total"
	MetricDowntime    = "specomp_proc_downtime_seconds_total"
	MetricDeadDrops   = "specomp_net_dead_drops_total"
	MetricPeerDead    = "specomp_net_peer_dead_drops_total"
	MetricStaleDrops  = "specomp_net_stale_epoch_drops_total"
)

// Phase labels where a processor's virtual time is spent.
type Phase int

// Phases used by the engine's accounting, mirroring Table 2's columns.
const (
	PhaseCompute Phase = iota
	PhaseComm
	PhaseSpec
	PhaseCheck
	PhaseCorrect
	// PhaseOverrun is compute performed past the forward window while a peer
	// is overdue — the engine's graceful-degradation mode.
	PhaseOverrun
	PhaseOther
	numPhases
)

// String returns the phase name.
func (ph Phase) String() string {
	switch ph {
	case PhaseCompute:
		return "compute"
	case PhaseComm:
		return "comm"
	case PhaseSpec:
		return "spec"
	case PhaseCheck:
		return "check"
	case PhaseCorrect:
		return "correct"
	case PhaseOverrun:
		return "overrun"
	default:
		return "other"
	}
}

// Machine describes one simulated workstation.
type Machine struct {
	Name string
	Ops  float64 // capacity M_i: operations per second
}

// NoMsgHeader is the Config.MsgHeaderBytes sentinel for a network with zero
// protocol framing overhead. (The zero value of MsgHeaderBytes selects the
// 64-byte default, so "explicitly no header" needs its own value.)
const NoMsgHeader = -1

// Config parameterizes a Cluster.
type Config struct {
	Machines []Machine
	Net      netmodel.Model
	Seed     int64
	Horizon  float64 // optional virtual-time limit
	// MsgHeaderBytes is added to every message's payload size when computing
	// network delays (protocol framing). Zero selects the default of 64;
	// use NoMsgHeader (-1) to model a network with no framing overhead.
	MsgHeaderBytes int
	// SendOps is the CPU cost, in operations, charged to the sender per
	// message (packing and protocol work).
	SendOps float64
	// OnSpan, if non-nil, receives every interval of virtual time a
	// processor spends in a phase (used to render execution timelines).
	OnSpan func(proc int, ph Phase, start, end float64)
	// OnEvent, if non-nil, receives point events — reliable-layer
	// retransmissions ("retrans"), duplicate suppressions ("dup"), abandoned
	// messages ("giveup"), and engine notes such as degradation overruns —
	// for timeline rendering alongside OnSpan.
	OnEvent func(proc int, kind string, t float64)
	// Load models background CPU competition on the timeshared machines;
	// nil means dedicated machines (factor 1).
	Load LoadModel

	// Reliable enables a reliable-delivery layer over the (possibly faulty)
	// network: every message carries a per-link sequence number, receivers
	// acknowledge each delivery, and senders retransmit unacknowledged
	// messages after RetryTimeout with exponential backoff. Duplicate
	// deliveries (from the network or from retransmissions whose ack was
	// lost) are suppressed at the receiver. Acks travel through the same
	// network model as data and can themselves be lost.
	Reliable bool
	// RetryTimeout is the initial retransmission timeout in virtual seconds
	// (default 0.5).
	RetryTimeout float64
	// RetryBackoff multiplies the timeout after every retransmission
	// (default 2).
	RetryBackoff float64
	// MaxRetries bounds retransmissions per message (default 12); after
	// that the message is abandoned and the per-processor give-up counter
	// increments.
	MaxRetries int

	// Crashes schedules processor crash/restart events (see
	// faults.CrashEvent): at each event's time the target processor aborts
	// whatever it is doing, loses its mailbox and reliable-delivery state,
	// stays dead for the event's downtime (deliveries to it are dropped,
	// and the reliable layer of its peers stops retransmitting to it), then
	// restarts its body with a bumped incarnation epoch. Messages stamped
	// with an older epoch of a peer are discarded on arrival.
	Crashes faults.CrashSchedule

	// Metrics, when non-nil, receives transport-level counters and the
	// message-latency histogram (per-processor labels). Nil costs only nil
	// checks on the delivery path.
	Metrics *obs.Registry
	// Journal, when non-nil, receives reliable-layer events (retrans, dup,
	// giveup) stamped with virtual time, alongside whatever the engine
	// journals through its own Config.
	Journal *obs.Journal
}

// Message is a tagged payload exchanged between processors.
type Message struct {
	Src, Dst    int
	Tag         int
	Iter        int // iteration stamp, used by the synchronous engine
	Epoch       int // sender's incarnation epoch (bumped on every restart)
	Data        []float64
	SentAt      float64
	DeliveredAt float64
}

// Any matches any source or tag in Recv/TryRecv.
const Any = -1

// Matches reports whether m passes a (src, tag) receive filter.
func (m Message) Matches(src, tag int) bool {
	return (src == Any || m.Src == src) && (tag == Any || m.Tag == tag)
}

// Cluster is a set of simulated machines wired to a network model.
type Cluster struct {
	kernel *simtime.Kernel
	cfg    Config
	procs  []*Proc
}

// New creates a cluster from cfg. cfg.Net must be non-nil.
func New(cfg Config) *Cluster {
	if cfg.Net == nil {
		panic("cluster: Config.Net is nil")
	}
	if len(cfg.Machines) == 0 {
		panic("cluster: no machines")
	}
	if cfg.MsgHeaderBytes == 0 {
		cfg.MsgHeaderBytes = 64
	}
	if cfg.MsgHeaderBytes < 0 {
		cfg.MsgHeaderBytes = 0
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 0.5
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 2
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 12
	}
	// Stateful models (e.g. a SharedBus mid-backlog) must start fresh: the
	// virtual clock restarts at 0 for every cluster, so stale state would
	// silently inflate every delay of the new run.
	netmodel.ResetModel(cfg.Net)
	return &Cluster{
		kernel: simtime.NewKernel(simtime.Config{Seed: cfg.Seed, Horizon: cfg.Horizon}),
		cfg:    cfg,
	}
}

// P returns the number of machines.
func (c *Cluster) P() int { return len(c.cfg.Machines) }

// Proc returns processor i (valid after Start).
func (c *Cluster) Proc(i int) *Proc { return c.procs[i] }

// Now returns the cluster's virtual time.
func (c *Cluster) Now() float64 { return c.kernel.Now() }

// Start spawns one processor per machine, each running body. When
// Config.Crashes schedules crash events, a processor's body may be aborted
// and re-run from scratch after the downtime — bodies that want to survive
// a crash with state must checkpoint it somewhere outside the processor
// (see internal/checkpoint).
func (c *Cluster) Start(body func(*Proc)) {
	if c.procs != nil {
		panic("cluster: Start called twice")
	}
	n := len(c.cfg.Machines)
	for i, m := range c.cfg.Machines {
		p := &Proc{c: c, id: i, mach: m, peerEpoch: make([]int, n)}
		if reg := c.cfg.Metrics; reg != nil {
			lp := obs.L("proc", strconv.Itoa(i))
			p.obsMsgsSent = reg.Counter(MetricMsgsSent, "logical messages passed to Send", lp)
			p.obsBytesSent = reg.Counter(MetricBytesSent, "payload+header bytes of logical sends", lp)
			p.obsRetrans = reg.Counter(MetricRetransmits, "reliable-layer retransmissions", lp)
			p.obsDups = reg.Counter(MetricDupsDropped, "duplicate deliveries suppressed at the receiver", lp)
			p.obsGiveUps = reg.Counter(MetricGiveUps, "messages abandoned after MaxRetries", lp)
			p.obsLatency = reg.Histogram(MetricMsgLatency, "send-to-delivery latency in virtual seconds",
				obs.ExpBuckets(0.001, 4, 10), lp)
			p.obsCrashes = reg.Counter(MetricCrashes, "processor crash events", lp)
			p.obsDowntime = reg.Counter(MetricDowntime, "virtual seconds spent dead", lp)
			p.obsDeadDrops = reg.Counter(MetricDeadDrops, "deliveries dropped because the receiver was dead", lp)
			p.obsPeerDead = reg.Counter(MetricPeerDead, "pending retransmissions dropped because the peer was dead", lp)
			p.obsStaleDrops = reg.Counter(MetricStaleDrops, "stale-epoch messages discarded on arrival", lp)
		}
		if c.cfg.Reliable {
			p.resetReliable()
		}
		c.procs = append(c.procs, p)
	}
	for _, p := range c.procs {
		p := p
		name := fmt.Sprintf("proc%d(%s)", p.id, p.mach.Name)
		p.sp = c.kernel.Spawn(name, func(*simtime.Proc) {
			for !p.runIncarnation(body) {
				p.downAndRestart()
			}
			p.finished = true
		})
	}
	for _, ev := range c.cfg.Crashes {
		if ev.Proc < 0 || ev.Proc >= n {
			panic(fmt.Sprintf("cluster: crash event for invalid processor %d", ev.Proc))
		}
		if ev.At < 0 || ev.Downtime < 0 {
			panic("cluster: negative crash time or downtime")
		}
		ev := ev
		c.kernel.Schedule(ev.At, func() { c.procs[ev.Proc].beginCrash(ev.Downtime) })
	}
}

// crashSignal is the panic value used to unwind a crashing processor's body.
type crashSignal struct{}

// runIncarnation runs one incarnation of the body, reporting whether it ran
// to completion (false: it was cut short by a crash).
func (p *Proc) runIncarnation(body func(*Proc)) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				return // completed stays false
			}
			panic(r) // a real bug — let the kernel report it
		}
	}()
	body(p)
	return true
}

// beginCrash runs in kernel context at a scheduled crash time: it marks the
// crash pending so the processor's next substrate interaction unwinds, and
// wakes the processor if it is parked on a receive. Crashes aimed at a
// finished or already-dead processor are ignored.
func (p *Proc) beginCrash(downtime float64) {
	if p.finished || p.dead || p.crashPending {
		return
	}
	p.crashPending = true
	p.pendingDown = downtime
	if p.want != nil { // parked on a receive: wake it so the crash lands now
		p.want = nil
		p.c.kernel.Unblock(p.sp)
	}
}

// maybeCrash, called at every substrate interaction point in the
// processor's own context, unwinds the body when a crash is pending.
func (p *Proc) maybeCrash() {
	if p.crashPending {
		p.crashPending = false
		panic(crashSignal{})
	}
}

// downAndRestart runs in the processor's context right after a crash
// unwound the body: it drops the mailbox and reliable-delivery state, stays
// dead for the scheduled downtime (deliveries are dropped meanwhile), then
// bumps the incarnation epoch and returns so the body can restart.
func (p *Proc) downAndRestart() {
	down := p.pendingDown
	p.dead = true
	p.crashes++
	p.downtimeSec += down
	p.mbox = nil
	p.want = nil
	if p.c.cfg.Reliable {
		p.resetReliable()
	}
	p.obsCrashes.Inc()
	p.obsDowntime.Add(down)
	p.c.event(p.id, "crash")
	p.c.journalV(p.id, obs.EvCrash, -1, obs.NoPeer, down)
	p.clocks[PhaseOther] += down
	start := p.Now()
	p.sp.Sleep(down)
	p.span(PhaseOther, start)
	p.epoch++
	p.dead = false
	p.c.event(p.id, "restart")
	p.c.journalV(p.id, obs.EvRestart, p.epoch, obs.NoPeer, 0)
}

// resetReliable (re)initializes the reliable-delivery maps — on Start and
// again after a crash, when all in-flight state is lost.
func (p *Proc) resetReliable() {
	n := p.c.P()
	p.nextSeq = make([]uint64, n)
	p.unacked = make([]map[uint64]*pendingMsg, n)
	p.seen = make([]map[uint64]bool, n)
	for k := 0; k < n; k++ {
		p.unacked[k] = make(map[uint64]*pendingMsg)
		p.seen[k] = make(map[uint64]bool)
	}
}

// Run drives the simulation to completion.
func (c *Cluster) Run() error { return c.kernel.Run() }

// filter describes what a parked receiver is waiting for.
type filter struct {
	src, tag int
}

// pendingMsg is one unacknowledged reliable-layer transmission.
type pendingMsg struct {
	msg     Message
	seq     uint64
	bytes   int
	timeout float64 // current retransmission timeout (grows by RetryBackoff)
	retries int
	acked   bool
}

// Proc is one simulated processor.
type Proc struct {
	c    *Cluster
	sp   *simtime.Proc
	id   int
	mach Machine

	mbox []Message
	want *filter

	clocks    [numPhases]float64
	msgsSent  int
	msgsRecvd int
	bytesSent int
	maxQueue  int

	// Reliable-delivery state (nil unless Config.Reliable).
	nextSeq     []uint64                 // per-destination next sequence number
	unacked     []map[uint64]*pendingMsg // per-destination outstanding messages
	seen        []map[uint64]bool        // per-source delivered sequence numbers
	retries     int
	dupsDropped int
	giveUps     int
	acksSent    int

	// Crash/restart lifecycle state.
	epoch         int   // incarnation epoch, bumped on every restart
	peerEpoch     []int // newest epoch observed per peer
	dead          bool  // inside a downtime window: deliveries are dropped
	finished      bool  // body ran to completion
	crashPending  bool  // crash requested, lands at the next interaction
	pendingDown   float64
	crashes       int
	downtimeSec   float64
	deadDrops     int // deliveries dropped while this processor was dead
	peerDeadDrops int // pending retransmissions dropped: destination dead
	staleDrops    int // stale-epoch messages discarded on arrival

	// Observability handles (nil — and therefore no-ops — unless
	// Config.Metrics is set).
	obsMsgsSent   *obs.Counter
	obsBytesSent  *obs.Counter
	obsRetrans    *obs.Counter
	obsDups       *obs.Counter
	obsGiveUps    *obs.Counter
	obsLatency    *obs.Histogram
	obsCrashes    *obs.Counter
	obsDowntime   *obs.Counter
	obsDeadDrops  *obs.Counter
	obsPeerDead   *obs.Counter
	obsStaleDrops *obs.Counter
}

// ID returns the processor index (0-based).
func (p *Proc) ID() int { return p.id }

// P returns the number of processors in the cluster.
func (p *Proc) P() int { return p.c.P() }

// Ops returns the processor's capacity M_i in operations per second.
func (p *Proc) Ops() float64 { return p.mach.Ops }

// Machine returns the processor's machine description.
func (p *Proc) Machine() Machine { return p.mach }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sp.Now() }

// PhaseTime returns the accumulated virtual time spent in ph.
func (p *Proc) PhaseTime(ph Phase) float64 { return p.clocks[ph] }

// Stats returns message counters: messages sent, messages received, bytes sent.
func (p *Proc) Stats() (sent, recvd, bytes int) {
	return p.msgsSent, p.msgsRecvd, p.bytesSent
}

// NetStats aggregates a processor's transport-level counters, including the
// reliable-delivery layer's retry behaviour and the crash lifecycle.
type NetStats struct {
	MsgsSent    int // logical messages passed to Send
	MsgsRecvd   int // messages consumed by TryRecv/Recv
	BytesSent   int // payload+header bytes of logical sends
	Retries     int // reliable-layer retransmissions
	DupsDropped int // duplicate deliveries suppressed at the receiver
	GiveUps     int // messages abandoned after MaxRetries
	AcksSent    int // acknowledgements transmitted

	Crashes       int     // crash events this processor suffered
	DowntimeSec   float64 // virtual seconds spent dead
	DeadDrops     int     // deliveries dropped because this processor was dead
	PeerDeadDrops int     // pending retransmissions dropped: destination dead
	StaleDrops    int     // stale-epoch messages discarded on arrival
}

// NetStats returns the processor's transport-level counters.
func (p *Proc) NetStats() NetStats {
	return NetStats{
		MsgsSent:    p.msgsSent,
		MsgsRecvd:   p.msgsRecvd,
		BytesSent:   p.bytesSent,
		Retries:     p.retries,
		DupsDropped: p.dupsDropped,
		GiveUps:     p.giveUps,
		AcksSent:    p.acksSent,

		Crashes:       p.crashes,
		DowntimeSec:   p.downtimeSec,
		DeadDrops:     p.deadDrops,
		PeerDeadDrops: p.peerDeadDrops,
		StaleDrops:    p.staleDrops,
	}
}

// Epoch returns the processor's incarnation epoch: 0 until its first
// crash, bumped by one at every restart.
func (p *Proc) Epoch() int { return p.epoch }

// PeerDown reports whether peer k is currently inside a crash downtime
// window. The simulation has global knowledge, so this is a perfect
// failure detector — the idealization a real deployment approximates with
// heartbeats and timeouts.
func (p *Proc) PeerDown(k int) bool { return p.c.procs[k].dead }

// Note records a point event on the cluster's OnEvent hook at the current
// virtual time — used by the engine to mark overruns and reconciliations.
func (p *Proc) Note(kind string) { p.c.event(p.id, kind) }

// event forwards a point event to the OnEvent hook, if any.
func (c *Cluster) event(proc int, kind string) {
	if f := c.cfg.OnEvent; f != nil {
		f(proc, kind, c.kernel.Now())
	}
}

// journal records a transport-layer event in the run journal, if any.
func (c *Cluster) journal(proc int, kind string, iter, peer int) {
	c.journalV(proc, kind, iter, peer, 0)
}

// journalV is journal with a kind-specific value attached.
func (c *Cluster) journalV(proc int, kind string, iter, peer int, v float64) {
	if c.cfg.Journal == nil {
		return
	}
	c.cfg.Journal.Record(obs.Event{
		T: c.kernel.Now(), Proc: proc, Kind: kind, Iter: iter, Peer: peer, V: v,
	})
}

// MaxQueueLen returns the high-water mark of the mailbox length.
func (p *Proc) MaxQueueLen() int { return p.maxQueue }

// Compute charges ops operations of work to the virtual clock under phase ph.
func (p *Proc) Compute(ops float64, ph Phase) {
	p.maybeCrash()
	if ops < 0 {
		panic("cluster: negative ops")
	}
	if ops == 0 {
		return
	}
	d := ops / p.mach.Ops
	if lm := p.c.cfg.Load; lm != nil {
		d *= lm.Factor(p.id, p.Now(), p.c.kernel.Rand())
	}
	p.clocks[ph] += d
	start := p.Now()
	p.sp.Sleep(d)
	p.span(ph, start)
}

// span reports a completed phase interval to the tracer, if any.
func (p *Proc) span(ph Phase, start float64) {
	if f := p.c.cfg.OnSpan; f != nil && p.Now() > start {
		f(p.id, ph, start, p.Now())
	}
}

// Idle advances the processor's clock by d seconds without attributing work.
func (p *Proc) Idle(d float64) {
	p.maybeCrash()
	p.clocks[PhaseOther] += d
	start := p.Now()
	p.sp.Sleep(d)
	p.span(PhaseOther, start)
}

// Send transmits data to processor dst with the given tag and iteration
// stamp. The sender is charged Config.SendOps of CPU (attributed to the comm
// phase); delivery latency comes from the network model. The payload is
// copied, so the caller may reuse its buffer immediately.
func (p *Proc) Send(dst, tag, iter int, data []float64) {
	payload := make([]float64, len(data))
	copy(payload, data)
	p.SendShared(dst, tag, iter, payload)
}

// SendShared is Send without the defensive payload copy: the message
// references data directly (including across duplicate deliveries injected
// by a faulty network model). The caller must never mutate data afterwards.
// A broadcast of one immutable payload to many peers therefore costs zero
// copies instead of one per destination.
func (p *Proc) SendShared(dst, tag, iter int, data []float64) {
	p.maybeCrash()
	if dst < 0 || dst >= p.c.P() {
		panic(fmt.Sprintf("cluster: Send to invalid processor %d", dst))
	}
	if p.c.cfg.SendOps > 0 {
		d := p.c.cfg.SendOps / p.mach.Ops
		p.clocks[PhaseComm] += d
		start := p.Now()
		p.sp.Sleep(d)
		p.span(PhaseComm, start)
	}
	payload := data
	bytes := 8*len(payload) + p.c.cfg.MsgHeaderBytes
	msg := Message{
		Src: p.id, Dst: dst, Tag: tag, Iter: iter, Epoch: p.epoch,
		Data: payload, SentAt: p.Now(),
	}
	p.msgsSent++
	p.bytesSent += bytes
	p.obsMsgsSent.Inc()
	p.obsBytesSent.Add(float64(bytes))
	if p.c.cfg.Reliable {
		seq := p.nextSeq[dst]
		p.nextSeq[dst]++
		pm := &pendingMsg{msg: msg, seq: seq, bytes: bytes, timeout: p.c.cfg.RetryTimeout}
		p.unacked[dst][seq] = pm
		p.transmit(dst, pm)
		return
	}
	dstProc := p.c.procs[dst]
	for _, delay := range netmodel.DeliveriesOf(p.c.cfg.Net, netmodel.Msg{
		Src: p.id, Dst: dst, Bytes: bytes, Procs: p.c.P(), Now: p.Now(),
	}, p.c.kernel.Rand()) {
		if delay < 0 {
			panic("cluster: negative network delay")
		}
		m := msg
		p.c.kernel.Schedule(delay, func() {
			m.DeliveredAt = p.c.kernel.Now()
			dstProc.deliver(m)
		})
	}
}

// transmit performs one physical transmission of an unacknowledged message
// and arms the retransmission timer. First transmissions run in the sending
// process's context; retransmissions run in kernel (timer) context, so no
// CPU time is charged for them.
func (p *Proc) transmit(dst int, pm *pendingMsg) {
	dstProc := p.c.procs[dst]
	for _, delay := range netmodel.DeliveriesOf(p.c.cfg.Net, netmodel.Msg{
		Src: p.id, Dst: dst, Bytes: pm.bytes, Procs: p.c.P(), Now: p.c.kernel.Now(),
	}, p.c.kernel.Rand()) {
		if delay < 0 {
			panic("cluster: negative network delay")
		}
		m := pm.msg
		seq := pm.seq
		p.c.kernel.Schedule(delay, func() {
			m.DeliveredAt = p.c.kernel.Now()
			dstProc.deliverReliable(m, seq)
		})
	}
	p.c.kernel.Schedule(pm.timeout, func() { p.retransmit(dst, pm) })
}

// retransmit runs in kernel context when a retransmission timer fires.
func (p *Proc) retransmit(dst int, pm *pendingMsg) {
	if pm.acked {
		return
	}
	if pm.msg.Epoch != p.epoch {
		return // orphaned timer: this sender crashed since the transmission
	}
	if p.c.procs[dst].dead {
		// Destination is inside a crash window: stop retransmitting — the
		// rejoin protocol, not the retry timer, is responsible for getting
		// it back in sync after the restart.
		p.peerDeadDrops++
		delete(p.unacked[dst], pm.seq)
		p.c.event(p.id, "peerdead")
		p.obsPeerDead.Inc()
		p.c.journal(p.id, obs.EvPeerDead, pm.msg.Iter, dst)
		return
	}
	if pm.retries >= p.c.cfg.MaxRetries {
		p.giveUps++
		delete(p.unacked[dst], pm.seq)
		p.c.event(p.id, "giveup")
		p.obsGiveUps.Inc()
		p.c.journal(p.id, obs.EvGiveup, pm.msg.Iter, dst)
		return
	}
	pm.retries++
	pm.timeout *= p.c.cfg.RetryBackoff
	p.retries++
	p.c.event(p.id, "retrans")
	p.obsRetrans.Inc()
	p.c.journal(p.id, obs.EvRetrans, pm.msg.Iter, dst)
	p.transmit(dst, pm)
}

// deliverReliable runs in kernel context on the receiving processor: it
// acknowledges the transmission, suppresses duplicates, and hands first
// deliveries to the mailbox. Dead receivers drop silently (crashed machines
// do not ack); messages from a peer's older incarnation are discarded, and
// a newly observed incarnation resets that peer's duplicate-suppression
// state (its sequence numbers restart at zero).
func (p *Proc) deliverReliable(m Message, seq uint64) {
	if p.dead {
		p.deadDrops++
		p.obsDeadDrops.Inc()
		return
	}
	if m.Epoch < p.peerEpoch[m.Src] {
		p.staleDrops++
		p.obsStaleDrops.Inc()
		return
	}
	if m.Epoch > p.peerEpoch[m.Src] {
		p.peerEpoch[m.Src] = m.Epoch
		p.seen[m.Src] = make(map[uint64]bool)
	}
	p.sendAck(m.Src, seq, m.Epoch)
	if p.seen[m.Src][seq] {
		p.dupsDropped++
		p.c.event(p.id, "dup")
		p.obsDups.Inc()
		p.c.journal(p.id, obs.EvDup, m.Iter, m.Src)
		return
	}
	p.seen[m.Src][seq] = true
	p.deliver(m)
}

// sendAck transmits an acknowledgement back through the network model; like
// data, acks can be lost or duplicated by a faulty model. The ack echoes
// the data message's epoch so a restarted sender ignores acks addressed to
// its previous incarnation.
func (p *Proc) sendAck(src int, seq uint64, epoch int) {
	p.acksSent++
	srcProc := p.c.procs[src]
	from := p.id
	for _, delay := range netmodel.DeliveriesOf(p.c.cfg.Net, netmodel.Msg{
		Src: p.id, Dst: src, Bytes: p.c.cfg.MsgHeaderBytes, Procs: p.c.P(), Now: p.c.kernel.Now(),
	}, p.c.kernel.Rand()) {
		if delay < 0 {
			panic("cluster: negative network delay")
		}
		p.c.kernel.Schedule(delay, func() { srcProc.ackReceived(from, seq, epoch) })
	}
}

// ackReceived runs in kernel context on the original sender.
func (p *Proc) ackReceived(from int, seq uint64, epoch int) {
	if epoch != p.epoch {
		return // ack for a previous incarnation's transmission
	}
	if pm, ok := p.unacked[from][seq]; ok {
		pm.acked = true
		delete(p.unacked[from], seq)
	}
}

// deliver runs in kernel context: enqueue and wake a matching waiter.
// Deliveries to a dead processor are dropped, and messages from a peer's
// older incarnation are discarded (the unreliable path's epoch filter; the
// reliable path checks before acknowledging).
func (p *Proc) deliver(m Message) {
	if p.dead {
		p.deadDrops++
		p.obsDeadDrops.Inc()
		return
	}
	if m.Epoch < p.peerEpoch[m.Src] {
		p.staleDrops++
		p.obsStaleDrops.Inc()
		return
	}
	if m.Epoch > p.peerEpoch[m.Src] {
		p.peerEpoch[m.Src] = m.Epoch
	}
	p.obsLatency.Observe(m.DeliveredAt - m.SentAt)
	p.mbox = append(p.mbox, m)
	if len(p.mbox) > p.maxQueue {
		p.maxQueue = len(p.mbox)
	}
	if p.want != nil && m.Matches(p.want.src, p.want.tag) {
		p.want = nil
		p.c.kernel.Unblock(p.sp)
	}
}

// TryRecv returns a queued message matching (src, tag) without blocking.
// Use Any for either field to match anything.
func (p *Proc) TryRecv(src, tag int) (Message, bool) {
	p.maybeCrash()
	for i, m := range p.mbox {
		if m.Matches(src, tag) {
			p.mbox = append(p.mbox[:i], p.mbox[i+1:]...)
			p.msgsRecvd++
			return m, true
		}
	}
	return Message{}, false
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
// Time spent blocked is attributed to the comm phase.
func (p *Proc) Recv(src, tag int) Message {
	for {
		if m, ok := p.TryRecv(src, tag); ok {
			return m
		}
		f := filter{src: src, tag: tag}
		p.want = &f
		before := p.Now()
		p.sp.Park()
		p.clocks[PhaseComm] += p.Now() - before
		p.span(PhaseComm, before)
	}
}

// RecvDeadline blocks until a message matching (src, tag) arrives or
// timeout seconds of virtual time elapse, whichever comes first. The second
// return value is false when the deadline expired with no matching message.
// Time spent blocked is attributed to the comm phase.
func (p *Proc) RecvDeadline(src, tag int, timeout float64) (Message, bool) {
	deadline := p.Now() + timeout
	for {
		if m, ok := p.TryRecv(src, tag); ok {
			return m, true
		}
		if p.Now() >= deadline {
			return Message{}, false
		}
		f := filter{src: src, tag: tag}
		fp := &f
		p.want = fp
		p.c.kernel.Schedule(deadline-p.Now(), func() {
			// Wake the receiver only if it is still parked on this exact
			// wait; a delivery (or an older timer) may have beaten us.
			if p.want == fp {
				p.want = nil
				p.c.kernel.Unblock(p.sp)
			}
		})
		before := p.Now()
		p.sp.Park()
		p.clocks[PhaseComm] += p.Now() - before
		p.span(PhaseComm, before)
	}
}

// Barrier performs a naive all-to-all barrier using tagged messages. It is
// provided for the classical (non-speculative) baseline algorithms.
func (p *Proc) Barrier(tag int) {
	for k := 0; k < p.P(); k++ {
		if k == p.id {
			continue
		}
		p.Send(k, tag, 0, nil)
	}
	for k := 0; k < p.P(); k++ {
		if k == p.id {
			continue
		}
		p.Recv(k, tag)
	}
}
