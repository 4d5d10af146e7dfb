// Package netsim is a discrete-event, packet-level network simulator — the
// stand-in for the ns-3 setup of the paper's §6. It models links with
// finite bandwidth and FIFO tail-drop queues, token-bucket rate limiters
// with DSCP-style classification (§C.1), TCP senders with pacing and
// retransmission-based loss accounting (§3.4), trace-driven and Poisson UDP
// sources, and modulated background traffic standing in for CAIDA replay.
//
// Everything is deterministic: the engine is single-threaded, event order
// is total (time, then insertion sequence), and all stochastic components
// draw from explicitly seeded *rand.Rand streams.
//
// The scheduling hot path is allocation-free in steady state: events are
// typed records (no interface{} boxing, no per-delivery closures) in a
// two-tier queue — a binary min-heap of the current time bucket in front of
// a ring of unsorted buckets and a heap of what lies beyond the ring — hop
// queues are growable ring buffers, and packets recycle through an
// engine-owned freelist. See DESIGN.md §8 for the event model, the queue's
// tiers and the packet-ownership rules.
package netsim

import (
	"math/bits"
	"sort"
	"time"
)

// Engine is the discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now time.Duration
	seq uint64

	// An event is a pointer-free (at, seq, slot) key and a payload. slab
	// holds each queued event's payload at its key's slot; it is written
	// once at push, read once at pop, and zeroed there so a vacant slot
	// pins nothing. freeSlots is the stack of vacant slots.
	slab      []payload
	freeSlots []uint32

	// The keys are queued by time bucket (at >> bucketShift) in three
	// tiers. keys is a binary min-heap of every key in a bucket before
	// horizon; the ring holds the ringSize buckets from horizon on, each an
	// unsorted list; far is a second heap of everything later. Only keys
	// is ever popped: when it runs dry, refill moves the first non-empty
	// bucket of the ring or of far into it and advances horizon past it.
	keys    keyHeap
	far     keyHeap
	horizon uint64
	// ring[b % ringSize] heads bucket b's list: 1 + the slot of its last
	// pushed key, 0 when empty. parked[slot] is a ring key, its slot field
	// holding the list's next link in the same encoding, so a list costs
	// no node. occupied has bit i set iff ring[i] is non-empty; ringLen
	// counts ring keys.
	ring     [ringSize]uint32
	occupied [ringSize / 64]uint64
	parked   []qkey
	ringLen  int

	// streams are the presorted series (scheduleSeries): each holds one
	// queue entry — its next item — whatever its length.
	streams []stream

	// Packet freelist (see AllocPacket/FreePacket). Single-threaded like
	// the rest of the engine: each Engine owns its packets exclusively.
	free       []*Packet
	allocCount int64 // packets handed out (fresh + recycled)
	reuseCount int64 // packets recycled from the freelist
}

// eventKind discriminates the typed event records. Hot-path events carry
// their target and a packed argument instead of a closure, so scheduling
// them allocates nothing.
type eventKind uint8

const (
	// evDeliver hands a packet to a hop (link/limiter egress).
	evDeliver eventKind = iota
	// evStream marks a stream's queue entry; arg indexes Engine.streams.
	// pop replaces it with the stream item's own kind, so it is never
	// dispatched.
	evStream
	// The remaining kinds are interned method callbacks, dispatched to the
	// event's handler with the packed arg.
	evLinkTransmitNext
	evTBFDrain
	evTCPTrySend
	evTCPPace
	evTCPRTO  // arg: timer generation
	evTCPAck  // arg: seq<<1 | echoRtx
	evUDPSend // arg: index into the replay's schedule
	evSeries  // arg: index into the ScheduleSeries times
	evBGModulate
	evBGEmit
	evChurnArrive
	// Fluid-mode bookkeeping events (DESIGN.md §14): coarse rate updates
	// and analytic phase crossings instead of per-packet events.
	evFluidPhase    // arg: phaseSeq (stale-crossing guard)
	evFluidModulate // arg: fluidStopArg on the scheduled stop
	evFluidArrive   // arg: fluidStopArg on the scheduled stop
	evFluidDepart   // arg: round-robin target slot
)

// handler dispatches an interned callback event to its owner. Converting a
// concrete pointer (e.g. *Link) to this interface does not allocate.
type handler interface {
	handle(kind eventKind, arg uint64)
}

// qkey is one heap entry: the event's place in the total order and where
// its payload lives. It holds no pointers, so sifting needs no write
// barriers and moves 24 bytes.
type qkey struct {
	at   time.Duration
	seq  uint64
	slot uint32
}

// before is the total event order: time, then insertion sequence. Every
// (at, seq) pair is unique, so any correct queue yields the same pop order —
// the determinism contract does not depend on heap arity or on the tiers.
func (k qkey) before(o qkey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// A time bucket is 1<<bucketShift ns (32.8 µs) and the ring spans ringSize
// of them (67 ms): a trial pushes 96 % of its events within 33.6 ms and
// 99.4 % within 67 ms. DESIGN.md §8 has the ablation behind both.
const (
	bucketShift = 15
	ringSize    = 2048
)

// bucket returns the time bucket of k.
func (k qkey) bucket() uint64 { return uint64(k.at) >> bucketShift }

// payload is what an event does. Exactly one group is used, selected by
// kind: pkt+hop (evDeliver) or h+arg (interned callbacks).
type payload struct {
	arg  uint64
	pkt  *Packet
	hop  Hop
	h    handler
	kind eventKind
}

// stream is a series of events whose times are all known when it is
// scheduled. Item i carries insertion sequence base+1+i — what a loop of
// pushes at that moment would have assigned — but only the next item to
// fire is in the queue.
type stream struct {
	times []time.Duration // clamped to the engine time at scheduling
	order []uint32        // firing order; nil when times is already sorted
	base  uint64
	next  int // position in firing order of the item now in the queue
	h     handler
	kind  eventKind
}

// index returns which item of the series is at position pos in firing order.
func (s *stream) index(pos int) int {
	if s.order != nil {
		return int(s.order[pos])
	}
	return pos
}

// key returns the queue key of series item i.
func (s *stream) key(i int, slot uint32) qkey {
	return qkey{at: s.times[i], seq: s.base + 1 + uint64(i), slot: slot}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// ScheduleDeliver hands pkt to hop at simulation time at without
// allocating. A nil hop is a terminal delivery: the packet is recycled.
// Events scheduled in the past run at the current time, after
// already-pending events for that time.
func (e *Engine) ScheduleDeliver(at time.Duration, pkt *Packet, hop Hop) {
	p := e.push(at)
	p.kind, p.pkt, p.hop = evDeliver, pkt, hop
}

// AfterDeliver hands pkt to hop d from now without allocating.
func (e *Engine) AfterDeliver(d time.Duration, pkt *Packet, hop Hop) {
	e.ScheduleDeliver(e.now+d, pkt, hop)
}

// scheduleCall schedules an interned callback event.
func (e *Engine) scheduleCall(at time.Duration, h handler, kind eventKind, arg uint64) {
	p := e.push(at)
	p.kind, p.h, p.arg = kind, h, arg
}

// afterCall schedules an interned callback event d from now.
func (e *Engine) afterCall(d time.Duration, h handler, kind eventKind, arg uint64) {
	e.scheduleCall(e.now+d, h, kind, arg)
}

// seriesFunc adapts a ScheduleSeries callback to the handler interface.
type seriesFunc func(i int)

func (f seriesFunc) handle(_ eventKind, arg uint64) { f(int(arg)) }

// ScheduleSeries runs fn(i) at simulation time times[i] for every i. Each
// item fires where pushing the items one by one, in index order, now would
// have put it: a time in the past runs at the current time, after
// already-pending events for that time. It is the engine's one scheduler
// for arbitrary callbacks (a single callback is a one-item series); the
// series keeps one queue entry however long it is and allocates no closure
// per item. The engine takes ownership of times.
func (e *Engine) ScheduleSeries(times []time.Duration, fn func(i int)) {
	e.scheduleSeries(times, seriesFunc(fn), evSeries)
}

// scheduleSeries schedules h.handle(kind, i) at times[i] for every i. It
// reserves the block of insertion sequence numbers a loop of scheduleCall
// would have consumed and queues only the first item to fire; pop queues
// each successor as its predecessor leaves. The successor's key is never
// smaller than its predecessor's and is in the queue before anything else
// can pop, so every event fires at the same (at, seq) as under the loop.
func (e *Engine) scheduleSeries(times []time.Duration, h handler, kind eventKind) {
	if len(times) == 0 {
		return
	}
	st := stream{times: times, base: e.seq, h: h, kind: kind}
	sorted := true
	for i, at := range times {
		if at < e.now {
			times[i] = e.now
		}
		sorted = sorted && (i == 0 || times[i-1] <= times[i])
	}
	if !sorted {
		// Firing order is (time, index): index order is sequence order.
		st.order = make([]uint32, len(times))
		for i := range st.order {
			st.order[i] = uint32(i)
		}
		sort.SliceStable(st.order, func(a, b int) bool {
			return times[st.order[a]] < times[st.order[b]]
		})
	}
	e.seq += uint64(len(times))
	e.streams = append(e.streams, st)
	slot := e.allocSlot()
	e.slab[slot] = payload{kind: evStream, arg: uint64(len(e.streams) - 1)}
	e.enqueue(st.key(st.index(0), slot))
}

// push clamps at to the present, assigns the insertion sequence, queues the
// key, and returns the zeroed payload slot for the caller to fill in place.
func (e *Engine) push(at time.Duration) *payload {
	if at < e.now {
		at = e.now
	}
	e.seq++
	slot := e.allocSlot()
	e.enqueue(qkey{at: at, seq: e.seq, slot: slot})
	return &e.slab[slot]
}

// allocSlot returns a vacant (zeroed) slab slot.
func (e *Engine) allocSlot() uint32 {
	if n := len(e.freeSlots); n > 0 {
		slot := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		return slot
	}
	e.slab = append(e.slab, payload{})
	e.parked = append(e.parked, qkey{})
	return uint32(len(e.slab) - 1)
}

// enqueue puts k in the tier of its bucket.
func (e *Engine) enqueue(k qkey) {
	b := k.bucket()
	switch {
	case b < e.horizon:
		e.keys.push(k)
	case b-e.horizon < ringSize:
		i := b % ringSize
		e.parked[k.slot] = qkey{at: k.at, seq: k.seq, slot: e.ring[i]}
		e.ring[i] = k.slot + 1
		e.occupied[i/64] |= 1 << (i % 64)
		e.ringLen++
	default:
		e.far.push(k)
	}
}

// refill moves the first non-empty bucket into the empty keys heap —
// the ring's and far's keys of that bucket alike — and moves horizon past
// it. It reports whether anything was queued.
func (e *Engine) refill() bool {
	b, inRing := e.firstRingBucket()
	if len(e.far) > 0 && (!inRing || e.far[0].bucket() < b) {
		b, inRing = e.far[0].bucket(), false
	} else if !inRing {
		return false
	}
	if inRing {
		i := b % ringSize
		for n := e.ring[i]; n != 0; {
			k := e.parked[n-1]
			n, k.slot = k.slot, n-1
			e.keys.push(k)
			e.ringLen--
		}
		e.ring[i] = 0
		e.occupied[i/64] &^= 1 << (i % 64)
	}
	for len(e.far) > 0 && e.far[0].bucket() == b {
		e.keys.push(e.far.pop())
	}
	e.horizon = b + 1
	return true
}

// firstRingBucket returns the earliest non-empty bucket of the ring. The
// ring holds only buckets horizon … horizon+ringSize-1, so the first
// occupied index at or after horizon's, wrapping round, is the earliest.
func (e *Engine) firstRingBucket() (uint64, bool) {
	if e.ringLen == 0 {
		return 0, false
	}
	start := e.horizon % ringSize
	w := start / 64
	word := e.occupied[w] &^ (1<<(start%64) - 1) // drop the indexes before start
	for n := 0; n <= len(e.occupied); n++ {
		if word != 0 {
			i := w*64 + uint64(bits.TrailingZeros64(word))
			return e.horizon + (i-start)%ringSize, true
		}
		w = (w + 1) % uint64(len(e.occupied))
		word = e.occupied[w]
	}
	panic("netsim: ring count and occupancy bitmap disagree")
}

// queueLen returns the number of queue entries in all three tiers.
func (e *Engine) queueLen() int { return len(e.keys) + e.ringLen + len(e.far) }

// keyHeap is a binary min-heap of keys: children of i are 2i+1 and 2i+2,
// parent is (i-1)/2. Both sifts move a hole instead of swapping: one
// 24-byte store per level. DESIGN.md §8 records the arity ablation.
type keyHeap []qkey

// push appends k and moves it up to its place.
func (h *keyHeap) push(k qkey) {
	i := len(*h)
	*h = append(*h, k)
	keys := *h
	for i > 0 {
		p := (i - 1) >> 1
		if !k.before(keys[p]) {
			break
		}
		keys[i] = keys[p]
		i = p
	}
	keys[i] = k
}

// pop removes and returns the minimum key.
func (h *keyHeap) pop() qkey {
	keys := *h
	top := keys[0]
	n := len(keys) - 1
	*h = keys[:n]
	if n > 0 {
		keys[:n].siftDown(keys[n])
	}
	return top
}

// siftDown overwrites the root with k and moves it down to its place.
func (keys keyHeap) siftDown(k qkey) {
	n := len(keys)
	i := 0
	for {
		c := 2*i + 1
		if c+1 < n {
			// Which child is smaller is a coin flip the branch predictor
			// loses half the time, so select it arithmetically: d < 0 iff
			// the right child is before the left. Times are non-negative,
			// so the difference cannot overflow; a tie falls through to
			// seq, which is unique.
			d := int64(keys[c+1].at - keys[c].at)
			if d == 0 {
				d = int64(keys[c+1].seq - keys[c].seq)
			}
			c += int(uint64(d) >> 63)
		} else if c >= n {
			break
		}
		if !keys[c].before(k) {
			break
		}
		keys[i] = keys[c]
		i = c
	}
	keys[i] = k
}

// pop removes the minimum event, copies its payload to ev and returns its
// key; keys must be non-empty (Run refills it first). A stream's entry
// yields the stream's current item — the payload a scheduleCall of that
// item would have stored — and is re-keyed to the stream's next item, if
// any: in place while that stays in keys' buckets, else through enqueue.
func (e *Engine) pop(ev *payload) qkey {
	top := e.keys[0]
	p := &e.slab[top.slot]
	if p.kind == evStream {
		st := &e.streams[p.arg]
		*ev = payload{kind: st.kind, h: st.h, arg: uint64(st.index(st.next))}
		st.next++
		if st.next < len(st.times) {
			if next := st.key(st.index(st.next), top.slot); next.bucket() < e.horizon {
				e.keys.siftDown(next)
			} else {
				e.keys.pop()
				e.enqueue(next)
			}
			return top
		}
		*st = stream{} // exhausted: drop the schedule
	} else {
		*ev = *p
	}
	*p = payload{}
	e.freeSlots = append(e.freeSlots, top.slot)
	e.keys.pop()
	return top
}

// dispatch runs one event.
func (e *Engine) dispatch(ev *payload) {
	switch ev.kind {
	case evDeliver:
		if ev.hop != nil {
			ev.hop.Send(ev.pkt)
		} else {
			e.FreePacket(ev.pkt)
		}
	default:
		ev.h.handle(ev.kind, ev.arg)
	}
}

// Run processes events until the queue drains or simulation time exceeds
// until, then advances the time to until unless it is already later. It
// returns the number of events processed.
func (e *Engine) Run(until time.Duration) int {
	processed := 0
	var ev payload
	for len(e.keys) > 0 || e.refill() {
		if e.keys[0].at > until {
			// Leave it for a later Run and stop.
			break
		}
		e.now = e.pop(&ev).at
		e.dispatch(&ev)
		processed++
	}
	if e.now < until {
		e.now = until
	}
	return processed
}

// Pending returns the number of events still to run: queue entries plus the
// stream items that have not been queued yet, i.e. what the queue would hold
// had every series been pushed item by item.
func (e *Engine) Pending() int {
	n := e.queueLen()
	for i := range e.streams {
		// An exhausted stream is zeroed; a live one has item next queued.
		if st := &e.streams[i]; st.next < len(st.times) {
			n += len(st.times) - st.next - 1
		}
	}
	return n
}

// AllocPacket returns a zeroed packet, recycling one from the freelist
// when available. Sources inside the simulation must allocate through this
// so steady-state traffic reuses a bounded working set instead of
// allocating per send.
func (e *Engine) AllocPacket() *Packet {
	e.allocCount++
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.reuseCount++
		*p = Packet{}
		return p
	}
	return &Packet{}
}

// FreePacket returns a packet to the freelist. Only the hop that ends a
// packet's life may call it — the terminal receiver, a drop site (after
// the drop hook returns), or a discarding join. Callers must not retain
// the pointer afterwards: the next AllocPacket may hand it out again. A
// double free panics.
func (e *Engine) FreePacket(p *Packet) {
	if p == nil {
		return
	}
	if p.recycled {
		panic("netsim: double free of *Packet (freed packet reached a second end-of-life hop)")
	}
	p.recycled = true
	e.free = append(e.free, p)
}
