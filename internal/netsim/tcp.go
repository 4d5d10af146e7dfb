package netsim

import (
	"math"
	"time"
)

// TCPConfig parameterizes a simulated TCP flow.
type TCPConfig struct {
	// MSS is the segment payload size in bytes (default 1400).
	MSS int
	// InitCwnd is the initial congestion window in segments (default 10).
	InitCwnd float64
	// InitRTTGuess seeds pacing and RTO before the first RTT sample
	// (default 50 ms).
	InitRTTGuess time.Duration
	// MinRTO bounds the retransmission timeout from below (default 200 ms).
	MinRTO time.Duration
	// Pacing spreads transmissions at cwnd/srtt instead of sending
	// ACK-clocked bursts. WeHeY replays always pace (§3.4); the unpaced
	// mode exists for the Figure 6 "unmodified traces" comparison.
	Pacing bool
	// CC selects the congestion controller (default Reno; see CCAlgo).
	CC CCAlgo
	// Class is the traffic class stamped on every packet.
	Class Class
	// PolicyKey, when set, stamps every packet with this per-flow policy
	// identity (see Packet.PolicyKey).
	PolicyKey string
	// Bytes bounds the total application bytes to send; 0 = unlimited
	// (bulk transfer, the backlogged replay case).
	Bytes int64
	// AppRate, when positive, bounds the application's average data
	// release rate in bits/s — modelling a trace replay whose server feeds
	// the connection at the recording's natural rate (§3.4) rather than a
	// backlogged bulk transfer. A small initial credit lets congestion
	// control start without stalling.
	AppRate float64
	// Stop, when positive, stops new transmissions at this time.
	Stop time.Duration
}

func (c *TCPConfig) fill() {
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.InitCwnd <= 0 {
		c.InitCwnd = 10
	}
	if c.InitRTTGuess <= 0 {
		c.InitRTTGuess = 50 * time.Millisecond
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 200 * time.Millisecond
	}
}

// TCPFlow simulates one TCP connection: a sender at the server, a receiver
// at the client, a forward path of hops, and a loss-free fixed-delay return
// path for ACKs. The congestion controller is Reno-style AIMD with modern
// loss recovery (per-packet ACKs and a RACK-like 3-packets-later loss
// inference, approximating SACK behaviour) and optional pacing.
//
// Loss accounting follows §3.4: the *sender* registers a loss event when it
// decides to retransmit (on loss inference or RTO), which is RTTs after the
// actual drop and can overcount (spurious RTO) — exactly the measurement
// noise Alg. 1 must tolerate.
type TCPFlow struct {
	ID int

	eng  *Engine
	cfg  TCPConfig
	fwd  Hop
	back time.Duration // one-way return delay for ACKs

	// Sender state.
	nextSeq     int64
	inflight    int
	cwnd        float64 // segments
	ssthresh    float64
	srtt        time.Duration
	rttvar      time.Duration
	rto         time.Duration
	haveSample  bool
	lastCutAt   time.Duration
	lastAckAt   time.Duration
	rtoArmed    bool
	rtoGen      uint64
	outstanding ring[*tcpPktState] // sent, not yet acked at the front: dense in seq
	rtxQueue    ring[int64]
	stPool      []*tcpPktState // recycled packet-state records
	sendIdx     uint64
	paceTimer   bool
	nextPaceAt  time.Duration
	finished    bool

	// BBR estimator state (nil for Reno).
	bbr *bbrState

	// Receiver state. Sequences are dense from zero, so a bitset replaces
	// the map: one bit per segment.
	received bitset

	// Measurement logs.
	TxLog      []time.Duration // every data transmission (incl. rtx)
	LossLog    []time.Duration // loss-event registration times (rtx decisions)
	RTTSamples []time.Duration
	Delivered  []DeliveryEvent // unique-bytes arrivals at the client
	RtxCount   int64
	TxCount    int64
	DupDeliver int64 // duplicate arrivals at the client
}

// DeliveryEvent records one in-profile arrival at the client.
type DeliveryEvent struct {
	At    time.Duration
	Bytes int
}

type tcpPktState struct {
	seq           int64
	sentAt        time.Duration
	sendIdx       uint64
	rtx           int
	acked         bool
	lost          bool // registered lost, retransmission pending or done
	dupCount      int
	deliveredSnap int64 // BBR: delivered count when (last) sent
}

// NewTCPFlow creates a TCP flow; fwd is the first hop of the forward path
// and backDelay the one-way delay of the (loss-free) return path. Call
// Receiver() to obtain the hop to install at the end of the forward path,
// then Start.
func NewTCPFlow(eng *Engine, id int, cfg TCPConfig, fwd Hop, backDelay time.Duration) *TCPFlow {
	cfg.fill()
	f := &TCPFlow{
		ID:       id,
		eng:      eng,
		cfg:      cfg,
		fwd:      fwd,
		back:     backDelay,
		cwnd:     cfg.InitCwnd,
		ssthresh: math.Inf(1),
		rto:      time.Second,
		srtt:     cfg.InitRTTGuess,
	}
	if cfg.CC == BBR {
		f.bbr = &bbrState{}
		f.cfg.Pacing = true // BBR is pacing-based by definition
	}
	return f
}

// Receiver returns the client-side hop terminating the forward path.
func (f *TCPFlow) Receiver() Hop {
	return HopFunc(f.onData)
}

// Start schedules the first transmission at time at.
func (f *TCPFlow) Start(at time.Duration) {
	f.eng.scheduleCall(at, f, evTCPTrySend, 0)
}

// handle dispatches the flow's interned engine callbacks (sender timers
// and the return-path ACKs).
func (f *TCPFlow) handle(kind eventKind, arg uint64) {
	switch kind {
	case evTCPTrySend:
		f.trySend()
	case evTCPPace:
		f.paceTimer = false
		f.trySend()
	case evTCPRTO:
		f.fireRTO(arg)
	case evTCPAck:
		f.onAck(int64(arg>>1), int(arg&1))
	}
}

// --- Sender ---

func (f *TCPFlow) hasData() bool {
	if f.cfg.Stop > 0 && f.eng.Now() >= f.cfg.Stop {
		return false
	}
	sent := f.nextSeq * int64(f.cfg.MSS)
	if f.cfg.Bytes > 0 && sent >= f.cfg.Bytes {
		return false
	}
	if f.cfg.AppRate > 0 {
		const initialCredit = 64 * 1024 // bytes available at t=0
		released := int64(f.cfg.AppRate/8*f.eng.Now().Seconds()) + initialCredit
		if sent >= released {
			return false
		}
	}
	return true
}

// trySend transmits as much as the window (and pacing) allows. With pacing
// on, at most one packet leaves per pacing interval (cwnd per srtt),
// regardless of what event (ACK, timer) triggered the attempt.
func (f *TCPFlow) trySend() {
	if !f.cfg.Pacing {
		for f.inflight < int(f.cwnd) && f.sendOne() {
		}
		f.maybeScheduleAppRetry()
		return
	}
	now := f.eng.Now()
	if now < f.nextPaceAt {
		f.schedulePaceAt(f.nextPaceAt)
		return
	}
	if f.inflight < int(f.cwnd) {
		if f.sendOne() {
			f.nextPaceAt = now + f.paceInterval()
			f.schedulePaceAt(f.nextPaceAt)
		} else {
			f.maybeScheduleAppRetry()
		}
	}
}

// maybeScheduleAppRetry keeps an app-limited flow alive: when the
// application hasn't released the next segment yet and nothing is in
// flight to produce an ACK wake-up, retry once the next segment becomes
// available.
func (f *TCPFlow) maybeScheduleAppRetry() {
	if f.cfg.AppRate <= 0 {
		return
	}
	if f.cfg.Stop > 0 && f.eng.Now() >= f.cfg.Stop {
		return
	}
	if f.cfg.Bytes > 0 && f.nextSeq*int64(f.cfg.MSS) >= f.cfg.Bytes {
		return
	}
	wait := time.Duration(float64(f.cfg.MSS*8) / f.cfg.AppRate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	f.schedulePaceAt(f.eng.Now() + wait)
}

func (f *TCPFlow) paceInterval() time.Duration {
	if f.bbr != nil {
		return f.bbrPaceInterval()
	}
	interval := time.Duration(float64(f.currentRTT()) / f.cwnd)
	const minInterval = 20 * time.Microsecond
	if interval < minInterval {
		interval = minInterval
	}
	return interval
}

func (f *TCPFlow) schedulePaceAt(at time.Duration) {
	if f.paceTimer {
		return
	}
	f.paceTimer = true
	f.eng.scheduleCall(at, f, evTCPPace, 0)
}

func (f *TCPFlow) currentRTT() time.Duration {
	if f.srtt > 0 {
		return f.srtt
	}
	return f.cfg.InitRTTGuess
}

// popRtx pops the next genuine (still-unacked) retransmission, discarding
// stale entries whose packet has since been acknowledged.
func (f *TCPFlow) popRtx() *tcpPktState {
	for f.rtxQueue.Len() > 0 {
		seq := f.rtxQueue.Pop()
		if st := f.state(seq); st != nil && !st.acked && st.lost {
			return st
		}
	}
	return nil
}

// sendOne transmits one packet — a pending retransmission if any, new data
// otherwise. It reports whether anything was sent.
func (f *TCPFlow) sendOne() bool {
	var seq int64
	st := f.popRtx()
	if st != nil {
		seq = st.seq
		st.rtx++
		st.lost = false
		st.dupCount = 0
		f.RtxCount++
	} else {
		if !f.hasData() {
			return false
		}
		seq = f.nextSeq
		f.nextSeq++
		if n := len(f.stPool); n > 0 {
			st = f.stPool[n-1]
			f.stPool[n-1] = nil
			f.stPool = f.stPool[:n-1]
			*st = tcpPktState{seq: seq}
		} else {
			st = &tcpPktState{seq: seq}
		}
		f.outstanding.Push(st)
	}
	now := f.eng.Now()
	f.sendIdx++
	st.sentAt = now
	st.sendIdx = f.sendIdx
	if f.bbr != nil {
		st.deliveredSnap = f.bbr.delivered
	}
	f.inflight++
	f.TxCount++
	f.TxLog = append(f.TxLog, now)

	pkt := f.eng.AllocPacket()
	pkt.Flow = f.ID
	pkt.Seq = seq
	pkt.Size = f.cfg.MSS
	pkt.Class = f.cfg.Class
	pkt.SentAt = now
	pkt.Retransmission = st.rtx > 0
	pkt.PolicyKey = f.cfg.PolicyKey
	f.fwd.Send(pkt)

	// Connection-level retransmission timer (RFC 6298: one timer for the
	// oldest outstanding data, restarted by ACK arrivals).
	if !f.rtoArmed {
		f.armRTO(f.rto)
	}
	return true
}

func (f *TCPFlow) armRTO(in time.Duration) {
	f.rtoGen++
	f.rtoArmed = true
	f.eng.afterCall(in, f, evTCPRTO, f.rtoGen)
}

func (f *TCPFlow) fireRTO(gen uint64) {
	if gen != f.rtoGen {
		return
	}
	f.rtoArmed = false
	// Find the oldest outstanding (unacked, not already marked lost) packet.
	var oldest *tcpPktState
	for i := 0; i < f.outstanding.Len(); i++ {
		if o := f.outstanding.At(i); !o.acked && !o.lost {
			oldest = o
			break
		}
	}
	if oldest == nil {
		if f.rtxQueue.Len() > 0 {
			// Retransmissions pending but nothing in flight; keep watch.
			f.armRTO(f.rto)
		}
		return
	}
	now := f.eng.Now()
	// The timer restarts on ACK activity: only a genuine silence of one
	// full RTO since the later of (oldest send, last ACK) is a timeout.
	// Without this, deep queues (RTT > the RTO lower bound) would cause
	// spurious timeout storms.
	ref := oldest.sentAt
	if f.lastAckAt > ref {
		ref = f.lastAckAt
	}
	if now-ref < f.rto {
		f.armRTO(ref + f.rto - now)
		return
	}
	// Genuine timeout: every outstanding packet is presumed lost
	// (go-back-N), the window collapses, and the backoff doubles once.
	for i := 0; i < f.outstanding.Len(); i++ {
		o := f.outstanding.At(i)
		if o.acked || o.lost {
			continue
		}
		o.lost = true
		f.inflight--
		f.LossLog = append(f.LossLog, now)
		f.rtxQueue.Push(o.seq)
	}
	if f.bbr == nil {
		f.ssthresh = math.Max(f.cwnd/2, 2)
		f.cwnd = 1
	}
	f.rto *= 2
	if f.rto > maxRTO {
		f.rto = maxRTO
	}
	f.lastCutAt = now
	f.trySend()
	f.armRTO(f.rto)
}

// maxRTO caps exponential backoff. It is far below the RFC's 60 s because
// replays last 45–60 s: a flow silent for seconds is still probing within
// the measurement window, as a real replay server would be.
const maxRTO = 4 * time.Second

// onAck processes the ACK for seq arriving back at the sender.
func (f *TCPFlow) onAck(seq int64, echoRtx int) {
	st := f.state(seq)
	if st == nil || st.acked {
		return
	}
	now := f.eng.Now()
	f.lastAckAt = now
	st.acked = true
	if !st.lost {
		f.inflight--
	}
	// RTT sampling (Karn's algorithm: never from retransmitted packets).
	if st.rtx == 0 && echoRtx == 0 {
		f.addRTTSample(now - st.sentAt)
	}

	// Congestion window growth.
	if f.bbr != nil {
		f.onAckBBR(st, now)
		f.cwnd = f.bbrCwnd()
	} else if f.cwnd < f.ssthresh {
		f.cwnd++
	} else {
		f.cwnd += 1 / f.cwnd
	}

	// Loss inference: any packet transmitted before this one that is still
	// unacked has effectively been "passed" — after 3 such passes it is
	// declared lost (RACK/SACK-style dup threshold).
	var lossDetected bool
	for i := 0; i < f.outstanding.Len(); i++ {
		o := f.outstanding.At(i)
		if o.acked || o.lost {
			continue
		}
		if o.sendIdx < st.sendIdx {
			o.dupCount++
			if o.dupCount >= 3 {
				o.lost = true
				f.inflight--
				f.LossLog = append(f.LossLog, now)
				f.rtxQueue.Push(o.seq)
				lossDetected = true
			}
		}
	}
	if lossDetected && f.bbr == nil && now > f.lastCutAt+f.currentRTT() {
		// At most one multiplicative decrease per RTT (per loss episode).
		// BBR deliberately does not back off on loss.
		f.ssthresh = math.Max(f.cwnd/2, 2)
		f.cwnd = f.ssthresh
		f.lastCutAt = now
	}
	f.compactOutstanding()
	f.trySend()
}

func (f *TCPFlow) addRTTSample(rtt time.Duration) {
	f.RTTSamples = append(f.RTTSamples, rtt)
	if !f.haveSample {
		f.srtt = rtt
		f.rttvar = rtt / 2
		f.haveSample = true
	} else {
		// RFC 6298 smoothing.
		diff := f.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		f.rttvar = (3*f.rttvar + diff) / 4
		f.srtt = (7*f.srtt + rtt) / 8
	}
	f.rto = f.srtt + 4*f.rttvar
	if f.rto < f.cfg.MinRTO {
		f.rto = f.cfg.MinRTO
	}
}

// state returns the outstanding packet state of seq, nil once it has left
// outstanding (or before it was sent). Segments are pushed in seq order
// and popped only from the front, so outstanding holds one run of
// consecutive seqs and seq's state is at its offset from the front.
func (f *TCPFlow) state(seq int64) *tcpPktState {
	if n := f.outstanding.Len(); n > 0 {
		if i := seq - f.outstanding.Front().seq; 0 <= i && i < int64(n) {
			return f.outstanding.At(int(i))
		}
	}
	return nil
}

// compactOutstanding drops fully-acked prefix entries and recycles their
// state records. Safe to pool: once a state leaves outstanding, stale
// rtxQueue entries for its seq can no longer resolve to it.
func (f *TCPFlow) compactOutstanding() {
	for f.outstanding.Len() > 0 && f.outstanding.Front().acked {
		f.stPool = append(f.stPool, f.outstanding.Pop())
	}
}

// --- Receiver ---

// onData handles a data packet arriving at the client and returns an ACK
// over the fixed-delay return path. The data packet's life ends here: the
// ACK event carries only the (seq, retransmission-echo) pair, packed into
// the event argument, and the packet itself is recycled.
func (f *TCPFlow) onData(pkt *Packet) {
	now := f.eng.Now()
	if !f.received.get(pkt.Seq) {
		f.received.set(pkt.Seq)
		f.Delivered = append(f.Delivered, DeliveryEvent{At: now, Bytes: pkt.Size})
	} else {
		f.DupDeliver++
	}
	ack := uint64(pkt.Seq) << 1
	if pkt.Retransmission {
		ack |= 1
	}
	f.eng.FreePacket(pkt)
	f.eng.afterCall(f.back, f, evTCPAck, ack)
}

// --- Derived metrics ---

// RetransmissionRate returns retransmitted/total transmissions, the
// quantity Figures 5 and 7 report.
func (f *TCPFlow) RetransmissionRate() float64 {
	if f.TxCount == 0 {
		return 0
	}
	return float64(f.RtxCount) / float64(f.TxCount)
}

// AvgQueuingDelay estimates queueing delay the way the paper does for WeHe
// data (§C.2): average RTT minus minimum RTT.
func (f *TCPFlow) AvgQueuingDelay() time.Duration {
	if len(f.RTTSamples) == 0 {
		return 0
	}
	var sum time.Duration
	minRTT := f.RTTSamples[0]
	for _, s := range f.RTTSamples {
		sum += s
		if s < minRTT {
			minRTT = s
		}
	}
	return sum/time.Duration(len(f.RTTSamples)) - minRTT
}

// DeliveredBytes returns the total unique bytes delivered to the client.
func (f *TCPFlow) DeliveredBytes() int64 {
	var total int64
	for _, d := range f.Delivered {
		total += int64(d.Bytes)
	}
	return total
}
