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
	var ev payload
	k := eng.pop(&ev)
	return popped{at: k.at, seq: k.seq, kind: ev.kind, arg: ev.arg}
}

// drainHeap pops every event — queued stream items included — and returns
// the observed order.
func drainHeap(eng *Engine) []popped {
	out := make([]popped, 0, eng.Pending())
	for len(eng.keys) > 0 {
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
		if len(eng.keys) == 0 || rng.Intn(3) > 0 {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			eng.scheduleCall(at, nopHandler{}, evTBFDrain, uint64(step))
			live = append(live, popped{at: at, seq: eng.seq, kind: evTBFDrain, arg: uint64(step)})
			if len(eng.keys) > deepest {
				deepest = len(eng.keys)
			}
		} else if got, want := popOne(&eng), popMin(); got != want {
			t.Fatalf("step %d: popped %+v, want %+v", step, got, want)
		}
		if len(eng.keys)+len(eng.freeSlots) != len(eng.slab) {
			t.Fatalf("step %d: %d keys + %d free slots != %d slab slots",
				step, len(eng.keys), len(eng.freeSlots), len(eng.slab))
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

func randomScript(rng *rand.Rand) seriesScript {
	sc := seriesScript{start: time.Duration(rng.Intn(20)) * time.Microsecond}
	at := func() time.Duration { return time.Duration(rng.Intn(60)) * time.Microsecond }
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
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		sc := randomScript(rng)
		eager, streamed := sc.play(true, nopHandler{}), sc.play(false, nopHandler{})
		if eager.seq != streamed.seq {
			t.Fatalf("round %d: streamed engine consumed seq %d, eager %d", round, streamed.seq, eager.seq)
		}
		if len(streamed.keys) > len(sc.pushes)+len(sc.series) {
			t.Fatalf("round %d: %d queue entries for %d pushes + %d series",
				round, len(streamed.keys), len(sc.pushes), len(sc.series))
		}
		for step := 0; len(eager.keys) > 0; step++ {
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
// a follow-up for some of them so the run interleaves new pushes with
// stream successors.
type recorder struct {
	eng *Engine
	log []popped
}

func (r *recorder) handle(kind eventKind, arg uint64) {
	r.log = append(r.log, popped{at: r.eng.now, kind: kind, arg: arg})
	if kind != evTBFDrain || arg%3 != 0 {
		return
	}
	// Follow-ups land on the series' own time grid, some of them at the
	// current instant, to force ties; their own arg is not a multiple of 3,
	// which ends the chain.
	r.eng.afterCall(time.Duration(arg%5)*time.Microsecond, r, evTBFDrain, arg*3+1)
}

// TestStreamRunMatchesEagerRun runs the same scripts through Run, in two
// legs with a horizon in the middle of the schedule, so successors are
// queued while handlers push, and a Run boundary falls between two items of
// a series.
func TestStreamRunMatchesEagerRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		sc := randomScript(rng)
		var logs [2][]popped
		var counts [2][2]int
		for j, eager := range []bool{true, false} {
			rec := &recorder{}
			eng := sc.play(eager, rec)
			rec.eng = eng
			counts[j][0] = eng.Run(30 * time.Microsecond)
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
		out := outcome{Depth: len(eng.keys)}
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

// FuzzHeapPopOrder feeds arbitrary byte strings as event-time workloads —
// even bytes as ordinary pushes, runs of odd bytes as one series each — and
// checks the pop order is strictly increasing in (at, seq) and complete.
func FuzzHeapPopOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{5, 3, 3, 1, 255, 0, 7})
	f.Add([]byte{9, 7, 7, 1, 2, 2, 201, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var eng Engine
		var series []time.Duration
		flush := func() {
			eng.scheduleSeries(series, nopHandler{}, evSeries)
			series = nil
		}
		for _, b := range data {
			at := time.Duration(b) * time.Microsecond
			if b%2 == 1 {
				series = append(series, at)
				continue
			}
			flush()
			eng.scheduleCall(at, nopHandler{}, evTBFDrain, 0)
		}
		flush()
		if eng.Pending() != len(data) {
			t.Fatalf("Pending = %d after scheduling %d events", eng.Pending(), len(data))
		}
		got := drainHeap(&eng)
		if len(got) != len(data) {
			t.Fatalf("popped %d events, scheduled %d", len(got), len(data))
		}
		for i := 1; i < len(got); i++ {
			if !got[i-1].before(got[i]) {
				t.Fatalf("pop %d: (%v, %d) not after (%v, %d)",
					i, got[i].at, got[i].seq, got[i-1].at, got[i-1].seq)
			}
		}
	})
}
