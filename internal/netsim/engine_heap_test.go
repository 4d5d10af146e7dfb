package netsim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

// popped is what one pop yields: the key's place in the total order and the
// part of the payload that identifies the event.
type popped struct {
	at   time.Duration
	seq  uint64
	kind eventKind
	arg  uint64
}

func (p popped) before(o popped) bool {
	return qkey{at: p.at, seq: p.seq}.before(qkey{at: o.at, seq: o.seq})
}

// popOne pops the minimum event the way Run does, without dispatching it.
func popOne(eng *Engine) popped {
	if len(eng.keys) == 0 {
		eng.refill()
	}
	var ev payload
	k := eng.pop(&ev)
	return popped{at: k.at, seq: k.seq, kind: ev.kind, arg: ev.arg}
}

// drainHeap pops every event — queued stream items included — and returns
// the observed order.
func drainHeap(eng *Engine) []popped {
	out := make([]popped, 0, eng.Pending())
	for eng.queueLen() > 0 {
		out = append(out, popOne(eng))
	}
	return out
}

type nopHandler struct{}

func (nopHandler) handle(eventKind, uint64) {}

// TestHeapPopOrderMatchesSort pins the heap's pop order against the
// reference total order — sort by (at, seq) — on random workloads.
func TestHeapPopOrderMatchesSort(t *testing.T) {
	f := func(raw []uint16) bool {
		var eng Engine
		want := make([]popped, 0, len(raw))
		for i, v := range raw {
			at := time.Duration(v) * time.Microsecond
			eng.scheduleCall(at, nopHandler{}, evTBFDrain, uint64(i))
			want = append(want, popped{at: at, seq: eng.seq, kind: evTBFDrain, arg: uint64(i)})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		got := drainHeap(&eng)
		return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHeapInterleavedPushPop exercises mixed push/pop sequences (the
// steady-state shape of a simulation run) against a linear-scan reference,
// and checks the slab never outgrows the deepest the queue has been.
func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var eng Engine
	var live []popped
	popMin := func() popped {
		mi := 0
		for i, k := range live {
			if k.before(live[mi]) {
				mi = i
			}
		}
		k := live[mi]
		live = append(live[:mi], live[mi+1:]...)
		return k
	}
	deepest := 0
	for step := 0; step < 5000; step++ {
		if eng.queueLen() == 0 || rng.Intn(3) > 0 {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			eng.scheduleCall(at, nopHandler{}, evTBFDrain, uint64(step))
			live = append(live, popped{at: at, seq: eng.seq, kind: evTBFDrain, arg: uint64(step)})
			if eng.queueLen() > deepest {
				deepest = eng.queueLen()
			}
		} else if got, want := popOne(&eng), popMin(); got != want {
			t.Fatalf("step %d: popped %+v, want %+v", step, got, want)
		}
		if eng.queueLen()+len(eng.freeSlots) != len(eng.slab) {
			t.Fatalf("step %d: %d keys + %d free slots != %d slab slots",
				step, eng.queueLen(), len(eng.freeSlots), len(eng.slab))
		}
	}
	if len(eng.slab) != deepest {
		t.Errorf("slab grew to %d slots for a queue never deeper than %d", len(eng.slab), deepest)
	}
	for _, got := range drainHeap(&eng) {
		if want := popMin(); got != want {
			t.Fatalf("drain: popped %+v, want %+v", got, want)
		}
	}
	for i := range eng.slab {
		if !reflect.ValueOf(eng.slab[i]).IsZero() {
			t.Fatalf("slab slot %d not zeroed after its event popped: %+v", i, eng.slab[i])
		}
	}
}

// seriesScript is a random workload mixing ordinary pushes with series:
// duplicate times, ties between series items and pushes at the same instant,
// items earlier than the engine's time at scheduling, unsorted series, and
// several series interleaved. play builds it either stream-backed or as the
// eager reference that pushes every series item up front.
type seriesScript struct {
	start  time.Duration // engine time when the script is scheduled
	series [][]time.Duration
	pushes []time.Duration
}

// randomScript draws a script whose times are whole multiples of unit.
func randomScript(rng *rand.Rand, unit time.Duration) seriesScript {
	sc := seriesScript{start: time.Duration(rng.Intn(20)) * unit}
	at := func() time.Duration { return time.Duration(rng.Intn(60)) * unit }
	for n := rng.Intn(4); n > 0; n-- {
		times := make([]time.Duration, rng.Intn(40))
		for i := range times {
			times[i] = at()
		}
		if rng.Intn(3) > 0 { // most series are presorted, like a trace
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		}
		sc.series = append(sc.series, times)
	}
	for n := rng.Intn(30); n > 0; n-- {
		sc.pushes = append(sc.pushes, at())
	}
	return sc
}

// seriesTag forwards a series' items to h with the series number packed
// above the item index, so a dispatch log tells the series apart.
type seriesTag struct {
	n uint64
	h handler
}

func (s seriesTag) handle(kind eventKind, i uint64) { s.h.handle(kind, s.n<<32|i) }

// play schedules sc on a fresh engine — pushes and series alternating, as
// sources are started one after another in a scenario — and returns it.
func (sc seriesScript) play(eager bool, h handler) *Engine {
	eng := &Engine{now: sc.start}
	for n := 0; n < len(sc.series) || n < len(sc.pushes); n++ {
		if n < len(sc.pushes) {
			eng.scheduleCall(sc.pushes[n], h, evTBFDrain, uint64(n))
		}
		if n >= len(sc.series) {
			continue
		}
		tag := seriesTag{n: uint64(n), h: h}
		if eager {
			for i, at := range sc.series[n] {
				eng.scheduleCall(at, tag, evSeries, uint64(i))
			}
		} else {
			eng.scheduleSeries(append([]time.Duration(nil), sc.series[n]...), tag, evSeries)
		}
	}
	return eng
}

// TestStreamPopOrderMatchesEagerPushes is the order-equivalence property
// behind stream-backed sources: popping a stream-backed engine yields the
// same (at, seq, kind, arg) sequence as an engine that was handed every
// series item as an ordinary push, and the two agree on Pending throughout.
func TestStreamPopOrderMatchesEagerPushes(t *testing.T) {
	checkStreamPopOrder(t, 7, time.Microsecond)
}

func checkStreamPopOrder(t *testing.T, seed int64, unit time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 300; round++ {
		sc := randomScript(rng, unit)
		eager, streamed := sc.play(true, nopHandler{}), sc.play(false, nopHandler{})
		if eager.seq != streamed.seq {
			t.Fatalf("round %d: streamed engine consumed seq %d, eager %d", round, streamed.seq, eager.seq)
		}
		if streamed.queueLen() > len(sc.pushes)+len(sc.series) {
			t.Fatalf("round %d: %d queue entries for %d pushes + %d series",
				round, streamed.queueLen(), len(sc.pushes), len(sc.series))
		}
		for step := 0; eager.queueLen() > 0; step++ {
			if eager.Pending() != streamed.Pending() {
				t.Fatalf("round %d step %d: Pending %d, eager %d", round, step, streamed.Pending(), eager.Pending())
			}
			want, got := popOne(eager), popOne(streamed)
			if got != want {
				t.Fatalf("round %d step %d: popped %+v, eager reference popped %+v\nscript: %+v",
					round, step, got, want, sc)
			}
		}
		if streamed.Pending() != 0 {
			t.Fatalf("round %d: streamed engine left %d events", round, streamed.Pending())
		}
	}
}

// recorder logs every dispatched event with the time it ran at, and pushes
// a follow-up for some of them, a few units ahead, so the run interleaves
// new pushes with stream successors.
type recorder struct {
	eng  *Engine
	unit time.Duration
	log  []popped
}

func (r *recorder) handle(kind eventKind, arg uint64) {
	r.log = append(r.log, popped{at: r.eng.now, kind: kind, arg: arg})
	if kind != evTBFDrain || arg%3 != 0 {
		return
	}
	// Follow-ups land on the series' own time grid, some of them at the
	// current instant, to force ties; their own arg is not a multiple of 3,
	// which ends the chain.
	r.eng.afterCall(time.Duration(arg%5)*r.unit, r, evTBFDrain, arg*3+1)
}

// TestStreamRunMatchesEagerRun runs the same scripts through Run, in two
// legs with a horizon in the middle of the schedule, so successors are
// queued while handlers push, and a Run boundary falls between two items of
// a series.
func TestStreamRunMatchesEagerRun(t *testing.T) {
	checkStreamRun(t, 11, time.Microsecond)
}

func checkStreamRun(t *testing.T, seed int64, unit time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 300; round++ {
		sc := randomScript(rng, unit)
		var logs [2][]popped
		var counts [2][2]int
		for j, eager := range []bool{true, false} {
			rec := &recorder{unit: unit}
			eng := sc.play(eager, rec)
			rec.eng = eng
			counts[j][0] = eng.Run(30 * unit)
			counts[j][1] = eng.Run(time.Second)
			if eng.Pending() != 0 {
				t.Fatalf("round %d eager=%v: %d events left", round, eager, eng.Pending())
			}
			logs[j] = rec.log
		}
		if counts[0] != counts[1] {
			t.Fatalf("round %d: processed %v events, eager %v", round, counts[1], counts[0])
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("round %d: dispatch order differs from the eager reference\nscript: %+v", round, sc)
		}
	}
}

// eagerStart is UDPFlow.Start as it was before replays became streams: one
// scheduleCall per trace packet, up front.
func eagerStart(f *UDPFlow, tr *trace.Trace, at time.Duration) {
	r := &udpReplay{f: f}
	for i := range tr.Packets {
		if p := &tr.Packets[i]; p.Dir == trace.ServerToClient {
			f.eng.scheduleCall(at+p.Offset, r, evUDPSend, uint64(len(r.sizes)))
			r.sizes = append(r.sizes, int32(p.Size))
		}
	}
	f.totalScheduled = int64(len(r.sizes))
}

// TestUDPStreamedReplayMatchesEager replays a generated netflix trace
// through a policer and a link, twice over two flows that share them, with
// the replay preloaded packet by packet and as a stream: every log and the
// processed-event count must be identical.
func TestUDPStreamedReplayMatchesEager(t *testing.T) {
	tr, err := trace.Generate("netflix", rand.New(rand.NewSource(3)), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var sends []time.Duration
	for _, p := range tr.Packets {
		if p.Dir == trace.ServerToClient {
			sends = append(sends, p.Offset)
		}
	}
	shift := sends[len(sends)/2] - sends[0]
	type outcome struct {
		Events, Depth int
		Tx, Loss      [2][]time.Duration
		Delivered     [2][]DeliveryEvent
	}
	run := func(start func(*UDPFlow, *trace.Trace, time.Duration)) outcome {
		var eng Engine
		var flows [2]*UDPFlow
		end := HopFunc(func(pkt *Packet) { flows[pkt.Flow].Receiver().Send(pkt) })
		link := NewLink(&eng, "l", 20e6, 10*time.Millisecond, end)
		rate := tr.AvgRate(trace.ServerToClient) // half of what the two flows offer
		rl := NewRateLimiter(&eng, "tbf", rate, BurstForRTT(rate, 20*time.Millisecond), 30000, link)
		for i := range flows {
			flows[i] = NewUDPFlow(&eng, i, ClassDifferentiated, rl)
			// The second replay starts inside the first, shifted so that its
			// first send ties with one of the first replay's.
			start(flows[i], tr, time.Duration(i)*shift)
		}
		out := outcome{Depth: eng.queueLen()}
		out.Events = eng.Run(10*time.Second) + eng.Run(60*time.Second)
		for i, f := range flows {
			f.Finish(eng.Now())
			out.Tx[i], out.Loss[i], out.Delivered[i] = f.TxLog, f.LossLog, f.Delivered
		}
		if eng.Pending() != 0 {
			t.Fatalf("engine left %d events pending", eng.Pending())
		}
		return out
	}
	eager, streamed := run(eagerStart), run((*UDPFlow).Start)
	if len(eager.Loss[0]) == 0 || len(eager.Delivered[1]) == 0 {
		t.Fatalf("reference run is degenerate: %d losses, %d deliveries",
			len(eager.Loss[0]), len(eager.Delivered[1]))
	}
	if streamed.Depth != 2 || eager.Depth != 2*len(sends) {
		t.Errorf("queue depth after Start: streamed %d (want 2), eager %d (want %d)",
			streamed.Depth, eager.Depth, 2*len(sends))
	}
	streamed.Depth = eager.Depth
	if !reflect.DeepEqual(eager, streamed) {
		t.Errorf("streamed replay differs from the eager reference: %d vs %d events, %d vs %d losses",
			streamed.Events, eager.Events, len(streamed.Loss[0]), len(eager.Loss[0]))
	}
}

// FuzzHeapPopOrder feeds arbitrary byte strings as queue workloads and
// checks every pop against the sorted reference. Each byte pair is one
// step: a value divisible by 5 pops (when anything is queued, advancing the
// time as Run does), any other odd value joins the series being collected,
// an even one ends that series and is pushed on its own. A value maps to a
// time in 0–500 ms, several ring spans, so keys land in all three tiers,
// before the time (clamped), and across the ring's wrap as pops advance it.
func FuzzHeapPopOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{5, 3, 3, 1, 255, 0, 7, 255})
	f.Add([]byte{9, 7, 7, 1, 2, 2, 201, 3, 3, 0})
	f.Add([]byte{255, 254, 40, 2, 0, 4, 0, 5, 254, 1, 253, 3, 0, 10, 0, 10, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &queueModel{tb: t}
		var series []time.Duration
		for i := 0; i+1 < len(data); i += 2 {
			v := uint16(data[i])<<8 | uint16(data[i+1])
			at := time.Duration(v) * (500 * time.Millisecond / 65536)
			switch {
			case v%5 == 0:
				if len(m.live) > 0 {
					m.pop()
				}
			case v%2 == 1:
				series = append(series, at)
			default:
				m.series(series)
				series = nil
				m.push(at)
			}
		}
		m.series(series)
		m.drain()
	})
}

// queueModel drives an engine's queue by hand — pushes, series, and pops
// that advance the time as Run does — beside the reference: every live
// event in (at, seq) order, kept sorted latest first. Each step checks the
// pop against the reference, Pending against its length, and that every
// queue entry holds exactly one slab slot.
type queueModel struct {
	tb   testing.TB
	eng  Engine
	live []popped // descending: the next to pop is last
}

func (m *queueModel) insert(p popped) {
	i := sort.Search(len(m.live), func(i int) bool { return m.live[i].before(p) })
	m.live = append(m.live, popped{})
	copy(m.live[i+1:], m.live[i:])
	m.live[i] = p
}

// push schedules one event at at.
func (m *queueModel) push(at time.Duration) {
	arg := m.eng.seq
	m.eng.scheduleCall(at, nopHandler{}, evTBFDrain, arg)
	m.insert(popped{at: max(at, m.eng.now), seq: m.eng.seq, kind: evTBFDrain, arg: arg})
	m.check()
}

// series schedules times as one series; the reference gets every item.
func (m *queueModel) series(times []time.Duration) {
	for i, at := range times {
		m.insert(popped{at: max(at, m.eng.now), seq: m.eng.seq + 1 + uint64(i), kind: evSeries, arg: uint64(i)})
	}
	m.eng.scheduleSeries(times, nopHandler{}, evSeries)
	m.check()
}

// pop pops the engine's minimum, checks it, and moves the time to it.
func (m *queueModel) pop() popped {
	m.tb.Helper()
	want := m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	got := popOne(&m.eng)
	if got != want {
		m.tb.Fatalf("popped %+v, reference %+v (horizon %d, %d keys, %d in the ring, %d far)",
			got, want, m.eng.horizon, len(m.eng.keys), m.eng.ringLen, len(m.eng.far))
	}
	m.eng.now = got.at
	m.check()
	return got
}

func (m *queueModel) drain() {
	m.tb.Helper()
	for len(m.live) > 0 {
		m.pop()
	}
	if n := m.eng.queueLen(); n != 0 {
		m.tb.Fatalf("queue holds %d entries after the reference drained", n)
	}
}

func (m *queueModel) check() {
	m.tb.Helper()
	if m.eng.Pending() != len(m.live) {
		m.tb.Fatalf("Pending = %d, reference holds %d", m.eng.Pending(), len(m.live))
	}
	if n := m.eng.queueLen(); n+len(m.eng.freeSlots) != len(m.eng.slab) {
		m.tb.Fatalf("%d queue entries + %d free slots != %d slab slots", n, len(m.eng.freeSlots), len(m.eng.slab))
	}
}

// bucketWidth and ringSpan are the queue's time bucket and the ring's span.
const (
	bucketWidth = time.Duration(1) << bucketShift
	ringSpan    = ringSize * bucketWidth
)

// TestQueueTiersMatchReference checks the two-tier queue against the
// sorted reference where its tiers meet: keys past the ring's span, keys on
// bucket and span boundaries, ties at one instant split between a refilled
// bucket, the ring, far and later pushes, bursts at one instant, and idle
// stretches longer than the span.
func TestQueueTiersMatchReference(t *testing.T) {
	t.Run("far", func(t *testing.T) {
		m := &queueModel{tb: t}
		rng := rand.New(rand.NewSource(1))
		var maxFar, maxRing int
		for step := 0; step < 6000; step++ {
			if len(m.live) == 0 || rng.Intn(3) > 0 {
				m.push(m.eng.now + time.Duration(rng.Int63n(int64(3*ringSpan))))
			} else {
				m.pop()
			}
			maxFar, maxRing = max(maxFar, len(m.eng.far)), max(maxRing, m.eng.ringLen)
		}
		m.drain()
		if maxFar < 100 || maxRing < 100 {
			t.Fatalf("far held at most %d keys and the ring %d: the tiers were not exercised", maxFar, maxRing)
		}
	})
	t.Run("boundaries", func(t *testing.T) {
		m := &queueModel{tb: t}
		rng := rand.New(rand.NewSource(2))
		for round := 0; round < 40; round++ {
			h := time.Duration(m.eng.horizon) * bucketWidth
			for _, at := range []time.Duration{
				m.eng.now, h - 1, h, h + 1, h + bucketWidth - 1, h + bucketWidth,
				h + ringSpan - bucketWidth, h + ringSpan - 1, h + ringSpan, h + ringSpan + 1,
				h + 2*ringSpan, h + 2*ringSpan - 1,
			} {
				m.push(at)
			}
			for n := 1 + rng.Intn(8); n > 0 && len(m.live) > 0; n-- {
				m.pop()
			}
		}
		m.drain()
	})
	t.Run("ties", func(t *testing.T) {
		m := &queueModel{tb: t}
		at := 3*bucketWidth + 17
		far := at + 3*ringSpan
		for i := 0; i < 50; i++ {
			m.push(at)
			m.push(far)
		}
		m.push(at + bucketWidth)
		// Stepping stones walk the time toward far, a quarter span at a time.
		for k := 1; k < 12; k++ {
			m.push(at + time.Duration(k)*ringSpan/4)
		}
		m.pop() // refills at's bucket
		if m.eng.now != at || m.eng.horizon != uint64(at)>>bucketShift+1 {
			t.Fatalf("now %v horizon %d after the first pop", m.eng.now, m.eng.horizon)
		}
		for i := 0; i < 50; i++ {
			m.push(at) // into the refilled bucket, behind its 49 left
		}
		for m.eng.now < at+11*ringSpan/4 {
			m.pop()
		}
		if b := uint64(far) >> bucketShift; b-m.eng.horizon >= ringSize || m.eng.far[0].at != far {
			t.Fatalf("far's bucket %d is not in the ring window from %d, or not far's first", b, m.eng.horizon)
		}
		for i := 0; i < 50; i++ {
			m.push(far) // the ring's share of a bucket far holds too
		}
		if m.eng.ringLen != 50 || len(m.eng.far) != 50 {
			t.Fatalf("%d keys in the ring and %d far, want 50 and 50", m.eng.ringLen, len(m.eng.far))
		}
		m.drain()
	})
	t.Run("burst", func(t *testing.T) {
		m := &queueModel{tb: t}
		at, later := 5*bucketWidth+3, 3*ringSpan+bucketWidth
		for i := 0; i < 10000; i++ {
			m.push(at)
			m.push(later)
		}
		for i := 0; i < 5000; i++ {
			m.pop()
			m.push(at)
		}
		m.drain()
	})
	t.Run("idle", func(t *testing.T) {
		m := &queueModel{tb: t}
		rng := rand.New(rand.NewSource(3))
		for round := 0; round < 60; round++ {
			gap := time.Duration(1+rng.Intn(20))*ringSpan + time.Duration(rng.Int63n(int64(bucketWidth)))
			for n := 1 + rng.Intn(4); n > 0; n-- {
				m.push(m.eng.now + gap + time.Duration(n))
			}
			m.push(m.eng.now + time.Duration(rng.Int63n(int64(ringSpan))))
			m.pop()
			m.push(m.eng.now)
			m.drain()
		}
	})
}

// TestStreamReKeysAcrossTiers runs the stream equivalence checks with times
// on a grid of whole buckets, every one on a bucket boundary, and on a 3 ms
// grid spanning several ring spans, so a stream's successor is re-keyed
// into the current bucket, the ring or far.
func TestStreamReKeysAcrossTiers(t *testing.T) {
	for _, unit := range []time.Duration{bucketWidth, 3 * time.Millisecond} {
		checkStreamPopOrder(t, 13, unit)
		checkStreamRun(t, 17, unit)
	}
}

// TestRunStopsInsideRefilledBucket stops a Run before the first event of a
// bucket Run has already moved into the heap, then pushes into that bucket
// — at, before and after its queued events, and before the time — and
// checks the rest of the run against the reference order.
func TestRunStopsInsideRefilledBucket(t *testing.T) {
	at := 10*bucketWidth + 100
	var eng Engine
	rec := &recorder{eng: &eng, unit: time.Microsecond}
	var want []qkey
	push := func(t time.Duration) {
		eng.scheduleCall(t, rec, evTCPPace, eng.seq)
		want = append(want, qkey{at: max(t, eng.now), seq: eng.seq})
	}
	for _, t := range []time.Duration{at, at + 5, at + bucketWidth, at + 3*ringSpan} {
		push(t)
	}
	until := at - 50
	if n := eng.Run(until); n != 0 || eng.Now() != until {
		t.Fatalf("Run(%v) processed %d events, now %v", until, n, eng.Now())
	}
	if b := uint64(at) >> bucketShift; eng.horizon != b+1 || len(eng.keys) != 2 {
		t.Fatalf("bucket %d not refilled: horizon %d, %d keys", b, eng.horizon, len(eng.keys))
	}
	for _, t := range []time.Duration{until, at - 10, at, at + 2, at - 100, at + bucketWidth - 1} {
		push(t)
	}
	eng.Run(time.Hour)
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	if len(rec.log) != len(want) {
		t.Fatalf("ran %d events, want %d", len(rec.log), len(want))
	}
	for i, k := range want {
		if got := rec.log[i]; got.at != k.at || got.arg != k.seq-1 {
			t.Fatalf("event %d ran at %v with arg %d, want at %v arg %d", i, got.at, got.arg, k.at, k.seq-1)
		}
	}
}

// TestQueueSteadyStateAllocatesNothing holds 4096 events with the trial's
// interval mix, which keeps keys in all three tiers: once the heaps and the
// slab have grown to their working size, running on allocates nothing —
// the ring's buckets are lists through the slab's slots, not slices.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	var eng Engine
	h := newHold(&eng, 4096, 1, trialOffsets())
	h.left = 1 << 62
	eng.Run(2 * time.Second)
	if len(eng.far) == 0 || eng.ringLen == 0 {
		t.Fatalf("%d keys far and %d in the ring: the tiers are not in use", len(eng.far), eng.ringLen)
	}
	allocs := testing.AllocsPerRun(20, func() { eng.Run(eng.Now() + 100*time.Millisecond) })
	if allocs != 0 {
		t.Errorf("%.1f allocations per 100 ms of a 4096-deep hold run, want 0", allocs)
	}
}
