package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

// holdSource is the classic hold-model workload for a priority queue: every
// dispatched event schedules exactly one successor a pseudo-random interval
// ahead, so the queue stays at its initial depth and each benchmark
// operation is one pop plus one push.
type holdSource struct {
	eng  *Engine
	left int
	rnd  uint64
	// offsets, when set, is a power-of-two table the intervals are drawn
	// from; nil draws them uniformly from (0, 1 ms].
	offsets []time.Duration
}

func (h *holdSource) handle(kind eventKind, _ uint64) {
	if h.left <= 0 {
		return
	}
	h.left--
	// xorshift64: cheap enough that the queue, not the generator, is timed.
	h.rnd ^= h.rnd << 13
	h.rnd ^= h.rnd >> 7
	h.rnd ^= h.rnd << 17
	d := time.Duration(h.rnd%uint64(time.Millisecond)) + 1
	if h.offsets != nil {
		d = h.offsets[h.rnd&uint64(len(h.offsets)-1)]
	}
	h.eng.afterCall(d, h, kind, 0)
}

// newHold queues depth events of a hold source, the i-th at time i*gap.
func newHold(eng *Engine, depth int, gap time.Duration, offsets []time.Duration) *holdSource {
	h := &holdSource{eng: eng, rnd: 88172645463325252, offsets: offsets}
	for i := 0; i < depth; i++ {
		eng.scheduleCall(time.Duration(i)*gap, h, evTBFDrain, 0)
	}
	return h
}

// trialOffsets is a table of 4096 successor intervals drawn from the mix a
// paper_cold trial pushes: 4 % at the current instant, 0.6 % log-uniform
// between 67 ms and 1 s (beyond the ring), the rest log-uniform between
// 30 µs and 67 ms.
func trialOffsets() []time.Duration {
	rng := rand.New(rand.NewSource(1))
	logUniform := func(lo, hi time.Duration) time.Duration {
		return time.Duration(float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64()))
	}
	out := make([]time.Duration, 4096)
	for i := range out {
		switch u := rng.Float64(); {
		case u < 0.04:
		case u < 0.046:
			out[i] = logUniform(67*time.Millisecond, time.Second)
		default:
			out[i] = logUniform(30*time.Microsecond, 67*time.Millisecond)
		}
	}
	return out
}

// BenchmarkEngineHold measures one pop + one push at a steady queue depth.
// Over one round of the paper_cold design a trial's queue holds 98 entries
// at the median (p90 179, max 406) now that replays are stream-backed;
// 32768 is what the eager per-packet preload used to build (DESIGN.md §8).
// The depth=N cases draw intervals uniformly from (0, 1 ms]; mix=trial
// draws them from the trial's own mix at about its median depth, so each
// tier of the queue is used as a trial uses it; instant holds 4096 keys at
// one time, every successor pushed at the current instant.
func BenchmarkEngineHold(b *testing.B) {
	cases := []struct {
		name    string
		depth   int
		gap     time.Duration
		offsets []time.Duration
	}{
		{"depth=64", 64, 1, nil},
		{"depth=4096", 4096, 1, nil},
		{"depth=32768", 32768, 1, nil},
		{"mix=trial", 96, 1, trialOffsets()},
		{"instant", 4096, 0, []time.Duration{0}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var eng Engine
			h := newHold(&eng, c.depth, c.gap, c.offsets)
			h.left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run(1 << 62)
		})
	}
}

// BenchmarkUDPReplayTrial is one 45 s netflix-trace replay through a policer
// and a link: the shape of a paper_cold UDP cell without background traffic,
// so the replay's own scheduling cost is what moves it.
func BenchmarkUDPReplayTrial(b *testing.B) {
	tr, err := trace.Generate("netflix", rand.New(rand.NewSource(1)), 45*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	rate := tr.AvgRate(trace.ServerToClient) / 2
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng Engine
		var flow *UDPFlow
		end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
		link := NewLink(&eng, "l", 20e6, 10*time.Millisecond, end)
		rl := NewRateLimiter(&eng, "tbf", rate, BurstForRTT(rate, 20*time.Millisecond), 30000, link)
		flow = NewUDPFlow(&eng, 1, ClassDifferentiated, rl)
		flow.Start(tr, 0)
		events += eng.Run(47 * time.Second)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTCPStep is the TCP flow on its own: one paced Reno sender over
// one 10 Mbit/s link with 20 ms of propagation, into its receiver, its
// ACKs back over the loss-free 20 ms return path — no limiter, no
// background traffic. An op is one new segment: the flow sends b.N of
// them and the run ends when the last is acknowledged. The link's 250 ms
// tail-drop queue makes the flow cycle through slow start, loss inference,
// retransmission and window cuts, so every sender path is timed.
func BenchmarkTCPStep(b *testing.B) {
	const mss = 1400
	var eng Engine
	var recv Hop
	link := NewLink(&eng, "l", 10e6, 20*time.Millisecond, HopFunc(func(pkt *Packet) { recv.Send(pkt) }))
	flow := NewTCPFlow(&eng, 1, TCPConfig{MSS: mss, Pacing: true, Class: ClassDifferentiated, Bytes: int64(b.N) * mss}, link, 20*time.Millisecond)
	recv = flow.Receiver()
	flow.Start(0)
	b.ReportAllocs()
	b.ResetTimer()
	events := eng.Run(1 << 62)
	b.StopTimer()
	if len(flow.Delivered) != b.N || flow.DeliveredBytes() != int64(b.N)*mss {
		b.Fatalf("%d segments delivered, want %d", len(flow.Delivered), b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/segment")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(flow.RtxCount)/float64(b.N), "rtx/segment")
}

// cbrSource offers left packets of size bytes, one every gap, to next.
type cbrSource struct {
	eng  *Engine
	next Hop
	gap  time.Duration
	size int
	left int
}

func (s *cbrSource) handle(kind eventKind, _ uint64) {
	if s.left <= 0 {
		return
	}
	s.left--
	pkt := s.eng.AllocPacket()
	pkt.Size, pkt.Class = s.size, ClassDifferentiated
	s.next.Send(pkt)
	s.eng.afterCall(s.gap, s, kind, 0)
}

// BenchmarkTBFStep is the token bucket on its own: one RateLimiter fed a
// constant-bit-rate series of 1000-byte packets at twice its 2 Mbit/s rate,
// forwarding into a sink that frees every packet — no link, TCP or
// background traffic. An op is one offered packet and its arrival event.
// Either mode forwards about half of them: the policer (no queue) drops
// the rest on arrival; the shaper (a 60 KB queue) queues them, spends a
// drain event on each it releases, and drops once the queue is full.
func BenchmarkTBFStep(b *testing.B) {
	const rate = 2e6
	for _, mode := range []struct {
		name  string
		queue int
	}{{"policer", 0}, {"shaper", 60000}} {
		b.Run("mode="+mode.name, func(b *testing.B) {
			var eng Engine
			sink := HopFunc(eng.FreePacket)
			rl := NewRateLimiter(&eng, "tbf", rate, BurstForRTT(rate, 20*time.Millisecond), mode.queue, sink)
			src := &cbrSource{eng: &eng, next: rl, gap: time.Duration(1000 * 8 / (2 * rate) * float64(time.Second)), size: 1000, left: b.N}
			eng.scheduleCall(0, src, evUDPSend, 0)
			b.ReportAllocs()
			b.ResetTimer()
			events := eng.Run(1 << 62)
			b.StopTimer()
			if rl.Matched != int64(b.N) || rl.Forwarded+rl.Dropped != rl.Matched {
				b.Fatalf("offered %d, matched %d, forwarded %d, dropped %d", b.N, rl.Matched, rl.Forwarded, rl.Dropped)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkFluidStep is the fluid integrator on its own: one FluidQueue, a
// 2 Mbit/s token bucket with a 60 KB queue, fed by one FluidBackground
// whose rate walks around 1.2× the bucket's rate — no packets, no link,
// no downstream queue. An op is one modulation step: the walk's draw, the
// queue integrated in closed form to the step and its inflow set anew.
// The walk spans 0.48–1.92× the rate, so steps land in every phase: tokens
// filling and burning, the queue filling, draining and overflowing.
func BenchmarkFluidStep(b *testing.B) {
	const rate = 2e6
	const period = 200 * time.Millisecond
	var eng Engine
	q := newFluidQueue(&eng, rate, float64(BurstForRTT(rate, 20*time.Millisecond)), 60000)
	src, err := NewFluidBackground(&eng, BackgroundConfig{
		MeanRate: 1.2 * rate, DiffFraction: 1, ModPeriod: period, Stop: time.Duration(b.N) * period,
	}, rand.New(rand.NewSource(1)), q, q)
	if err != nil {
		b.Fatal(err)
	}
	src.Start(0)
	b.ReportAllocs()
	b.ResetTimer()
	events := eng.Run(1 << 62)
	b.StopTimer()
	if src.Events < int64(b.N) {
		b.Fatalf("%d rate steps, want at least %d", src.Events, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
