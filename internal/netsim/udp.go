package netsim

import (
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

// UDPFlow replays the server→client packets of a UDP trace over a path.
// The client side detects loss from sequence gaps (§3.4: for UDP traces,
// the client tracks packet loss), registering each missing packet at the
// moment the gap becomes observable — the arrival of the next packet.
type UDPFlow struct {
	ID int
	// PolicyKey, when set, stamps packets with a per-flow policy identity
	// (the §7 merged-replay modification; see Packet.PolicyKey).
	PolicyKey string

	eng   *Engine
	fwd   Hop
	class Class

	totalScheduled int64
	expected       int64 // next seq the client expects

	// Measurement logs.
	TxLog     []time.Duration
	LossLog   []time.Duration
	Delivered []DeliveryEvent
	SentCount int64
	RecvCount int64
}

// NewUDPFlow creates a UDP replay flow for tr's server→client packets.
func NewUDPFlow(eng *Engine, id int, class Class, fwd Hop) *UDPFlow {
	return &UDPFlow{ID: id, eng: eng, fwd: fwd, class: class}
}

// Receiver returns the client-side hop terminating the forward path.
func (f *UDPFlow) Receiver() Hop {
	return HopFunc(f.onData)
}

// Start schedules the replay of tr beginning at time at. Only
// ServerToClient packets are transmitted. The send times go to the engine
// as one series (one queue entry for the whole replay, no closure and no
// packet allocation until the moment of send); the sizes stay here, indexed
// by the flow sequence number the engine hands back.
func (f *UDPFlow) Start(tr *trace.Trace, at time.Duration) {
	n := tr.Count(trace.ServerToClient)
	r := &udpReplay{f: f, sizes: make([]int32, 0, n)}
	times := make([]time.Duration, 0, n)
	for i := range tr.Packets {
		p := &tr.Packets[i]
		if p.Dir != trace.ServerToClient {
			continue
		}
		times = append(times, at+p.Offset)
		r.sizes = append(r.sizes, int32(p.Size)) // bounded by the MTU
	}
	f.eng.scheduleSeries(times, r, evUDPSend)
	f.totalScheduled = int64(n)
	// The delivery log's final size is bounded by the send count, so size
	// it once instead of letting append double its way up.
	if f.Delivered == nil && n > 0 {
		f.Delivered = make([]DeliveryEvent, 0, n)
	}
}

// udpReplay is the schedule of one Start: packet i of the replay has flow
// sequence number i and size sizes[i].
type udpReplay struct {
	f     *UDPFlow
	sizes []int32
}

// handle dispatches the replay's interned engine callback.
func (r *udpReplay) handle(_ eventKind, i uint64) {
	r.f.transmit(int64(i), int(r.sizes[i]))
}

func (f *UDPFlow) transmit(seq int64, size int) {
	now := f.eng.Now()
	f.SentCount++
	f.TxLog = append(f.TxLog, now)
	pkt := f.eng.AllocPacket()
	pkt.Flow = f.ID
	pkt.Seq = seq
	pkt.Size = size
	pkt.Class = f.class
	pkt.SentAt = now
	pkt.PolicyKey = f.PolicyKey
	f.fwd.Send(pkt)
}

func (f *UDPFlow) onData(pkt *Packet) {
	now := f.eng.Now()
	// Sequence-gap loss detection: everything between the expected and the
	// arrived seq was dropped in flight (paths are FIFO, no reordering).
	for s := f.expected; s < pkt.Seq; s++ {
		f.LossLog = append(f.LossLog, now)
	}
	if pkt.Seq >= f.expected {
		f.expected = pkt.Seq + 1
	}
	f.RecvCount++
	f.Delivered = append(f.Delivered, DeliveryEvent{At: now, Bytes: pkt.Size})
	f.eng.FreePacket(pkt) // terminal hop: recycle
}

// Finish registers tail losses (packets after the last arrival) at time at.
// Call it once the replay and the pipe have drained.
func (f *UDPFlow) Finish(at time.Duration) {
	for s := f.expected; s < f.totalScheduled; s++ {
		f.LossLog = append(f.LossLog, at)
	}
	f.expected = f.totalScheduled
}

// LossRate returns the overall fraction of replayed packets lost.
func (f *UDPFlow) LossRate() float64 {
	if f.SentCount == 0 {
		return 0
	}
	return float64(len(f.LossLog)) / float64(f.SentCount)
}

// DeliveredBytes returns the total bytes delivered to the client.
func (f *UDPFlow) DeliveredBytes() int64 {
	var total int64
	for _, d := range f.Delivered {
		total += int64(d.Bytes)
	}
	return total
}
