package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

// zoomReplayTraces returns the two replay traces of a UDP grid point:
// 12 s zoom recordings extended to 45 s and Poisson-retimed (§3.4).
func zoomReplayTraces(tb testing.TB) [2]*trace.Trace {
	tb.Helper()
	var trs [2]*trace.Trace
	for i := range trs {
		tr, err := trace.Generate("zoom", rand.New(rand.NewSource(int64(1+i))), 12*time.Second)
		if err != nil {
			tb.Fatal(err)
		}
		tr = trace.ExtendTo(tr, trace.ReplayDuration)
		trs[i] = trace.PoissonRetime(rand.New(rand.NewSource(int64(101+i))), tr)
	}
	return trs
}

// runZoomReplay replays trs simultaneously over a two-path scenario whose
// common policer also carries modulated background, the shape of a
// common-limiter UDP grid point, and returns the events processed.
func runZoomReplay(eng *Engine, trs [2]*trace.Trace) (int, [2]*UDPFlow) {
	const bg = 4e6
	replay := trs[0].AvgRate(trace.ServerToClient)
	rate := (2*replay + bg) / 1.1
	burst := BurstForRTT(rate, 80*time.Millisecond)
	sc := NewScenario(eng, 1, CommonSpec{
		Limiter:        &LimiterSpec{Rate: rate, Burst: burst, Queue: burst},
		BgRate:         bg,
		BgDiffFraction: 1,
		BgModPeriod:    1500 * time.Millisecond,
		BgModSpread:    0.9,
	}, PathSpec{RTT: 50 * time.Millisecond}, PathSpec{RTT: 80 * time.Millisecond})
	var flows [2]*UDPFlow
	for i, tr := range trs {
		flows[i] = NewUDPFlow(eng, i+1, ClassDifferentiated, sc.Entry(i))
		sc.Register(i+1, flows[i].Receiver())
		flows[i].Start(tr, 0)
	}
	sc.StartBackground(0, trace.ReplayDuration)
	n := eng.Run(trace.ReplayDuration + 2*time.Second)
	for _, f := range flows {
		f.Finish(trace.ReplayDuration)
	}
	return n, flows
}

// TestUDPReplayPeakPending pins the queue depth of a 45 s replay: sends
// are pushed one at a time per source, so the queue holds sources, timers
// and packets in flight — not the trace. Scheduling every send up front
// would queue each flow's whole trace at t=0.
func TestUDPReplayPeakPending(t *testing.T) {
	trs := zoomReplayTraces(t)
	var eng Engine
	defer eng.Release()
	_, flows := runZoomReplay(&eng, trs)
	sent := flows[0].SentCount + flows[1].SentCount
	if sent < 4096 {
		t.Fatalf("replay sent only %d packets; the bound below would not bind", sent)
	}
	if peak := eng.PeakPending(); peak >= 1024 {
		t.Errorf("peak pending = %d events for %d sends, want < 1024", peak, sent)
	}
}

// nopHandler is an interned callback that does nothing.
type nopHandler struct{}

func (nopHandler) handle(eventKind, uint64) {}

// BenchmarkEngineQueue measures one steady-state pop+push at a fixed
// queue depth: pop the earliest event and schedule a replacement a
// pseudo-random delay (up to ~17 ms) after it, as a simulation does.
func BenchmarkEngineQueue(b *testing.B) {
	for _, depth := range []int{16, 256, 4096, 16384} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var eng Engine
			var h nopHandler
			lcg := uint64(depth)
			delay := func() time.Duration {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				return time.Duration(lcg >> 40)
			}
			step := func() {
				k, _ := eng.q.pop()
				eng.now = k.at
				eng.afterCall(delay(), h, evTCPPace, 0)
			}
			for i := 0; i < depth; i++ {
				eng.afterCall(delay(), h, evTCPPace, 0)
			}
			for i := 0; i < depth; i++ {
				step() // mix pop and push positions before timing
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				b.Fatalf("%v allocs per pop+push at depth %d, want 0", allocs, depth)
			}
			if eng.Pending() != depth {
				b.Fatalf("depth drifted to %d", eng.Pending())
			}
		})
	}
}

// BenchmarkUDPReplay runs one 45 s two-flow zoom replay per op (see
// runZoomReplay), reporting the engine's cost per event and its peak
// queue depth.
func BenchmarkUDPReplay(b *testing.B) {
	trs := zoomReplayTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	events, peak := 0, 0
	for i := 0; i < b.N; i++ {
		var eng Engine
		n, _ := runZoomReplay(&eng, trs)
		events += n
		peak = eng.PeakPending()
		eng.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(peak), "peak-pending")
}
