package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

// eagerUDP is the reference scheduler for UDPFlow.Start: it queues every
// send when the replay starts, packing (seq, size) into the event
// argument.
type eagerUDP struct{ f *UDPFlow }

func (r *eagerUDP) handle(_ eventKind, arg uint64) {
	r.f.transmit(int64(arg>>32), int(uint32(arg)))
}

func eagerStart(f *UDPFlow, tr *trace.Trace, at time.Duration) {
	ref := &eagerUDP{f: f}
	seq := int64(0)
	for _, p := range tr.Packets {
		if p.Dir != trace.ServerToClient {
			continue
		}
		f.eng.scheduleCall(at+p.Offset, ref, evUDPSend, uint64(seq)<<32|uint64(uint32(p.Size)))
		seq++
	}
	f.totalScheduled = seq
}

// dispatched is one event as a run saw it; Pkt is filled for sends.
type dispatched struct {
	At   time.Duration
	Seq  uint64
	Kind eventKind
	Pkt  string
}

// runRecorded is Engine.Run with a log of every dispatched event's key,
// kind and (through the replay's ingress hop) the packet a send built.
func runRecorded(e *Engine, until time.Duration, log *[]dispatched) {
	for e.Pending() > 0 && e.q.keys[0].at <= until {
		k, ev := e.q.pop()
		e.now = k.at
		*log = append(*log, dispatched{At: k.at, Seq: k.seq, Kind: ev.kind})
		e.dispatch(&ev)
	}
	if e.now < until {
		e.now = until
	}
}

// replayCase is one replay: a trace, the engine time Start runs at, and
// the replay's start time (early offsets clamp to now when at < now).
type replayCase struct {
	name    string
	packets []trace.Packet
	now, at time.Duration
}

// replayLog runs c through a lossy, reordering ingress hop among
// competing closures at equal times, starting the replay lazily or with
// the eager reference, and returns the dispatch log and the flow.
func replayLog(c replayCase, lazy bool) ([]dispatched, *UDPFlow) {
	var eng Engine
	var log []dispatched
	var flow *UDPFlow
	ingress := HopFunc(func(pkt *Packet) {
		log[len(log)-1].Pkt = fmt.Sprintf("flow=%d seq=%d size=%d class=%d sent=%v",
			pkt.Flow, pkt.Seq, pkt.Size, pkt.Class, pkt.SentAt)
		switch pkt.Seq % 4 {
		case 3:
			eng.FreePacket(pkt) // lost in flight
		default:
			eng.AfterDeliver(time.Duration(pkt.Seq%4)*time.Millisecond, pkt, flow.Receiver())
		}
	})
	flow = NewUDPFlow(&eng, 7, ClassDifferentiated, ingress)
	// Competitors on the whole-millisecond grid the traces use, some of
	// which push a same-time follower when they run.
	compete := func(from time.Duration) {
		for t := from; t < from+40*time.Millisecond; t += 3 * time.Millisecond {
			eng.Schedule(t, func() { eng.Schedule(eng.Now(), func() {}) })
		}
	}
	compete(0)
	runRecorded(&eng, c.now, &log)
	tr := &trace.Trace{Packets: c.packets}
	if lazy {
		flow.Start(tr, c.at)
	} else {
		eagerStart(flow, tr, c.at)
	}
	compete(c.now)
	runRecorded(&eng, time.Second, &log)
	flow.Finish(eng.Now())
	return log, flow
}

// checkLazyMatchesEager asserts the lazy replay dispatches exactly the
// eager reference's (at, seq, kind, packet) sequence and ends with the
// same measurements.
func checkLazyMatchesEager(t *testing.T, c replayCase) {
	t.Helper()
	want, wf := replayLog(c, false)
	got, gf := replayLog(c, true)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, eager reference %+v", c.name, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, eager reference %d", c.name, len(got), len(want))
	}
	for _, m := range []struct {
		name      string
		got, want any
	}{
		{"TxLog", gf.TxLog, wf.TxLog},
		{"LossLog", gf.LossLog, wf.LossLog},
		{"Delivered", gf.Delivered, wf.Delivered},
		{"SentCount", gf.SentCount, wf.SentCount},
		{"RecvCount", gf.RecvCount, wf.RecvCount},
	} {
		if !reflect.DeepEqual(m.got, m.want) {
			t.Errorf("%s: %s = %v, eager reference %v", c.name, m.name, m.got, m.want)
		}
	}
}

// packetsFromBytes decodes two bytes per packet: an offset in whole
// milliseconds (0-15, so duplicates are common, in any order), the
// direction, and the size.
func packetsFromBytes(data []byte) []trace.Packet {
	var ps []trace.Packet
	for i := 0; i+1 < len(data); i += 2 {
		dir := trace.ServerToClient
		if data[i]&0x80 != 0 {
			dir = trace.ClientToServer
		}
		ps = append(ps, trace.Packet{
			Offset: time.Duration(data[i]&0x0f) * time.Millisecond,
			Size:   100 + int(data[i+1]),
			Dir:    dir,
		})
	}
	return ps
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func s2c(off time.Duration, size int) trace.Packet {
	return trace.Packet{Offset: off, Size: size, Dir: trace.ServerToClient}
}

func c2s(off time.Duration, size int) trace.Packet {
	return trace.Packet{Offset: off, Size: size, Dir: trace.ClientToServer}
}

// TestUDPLazyReplayMatchesEager pins the lazy cursor to the eager
// reference on the shapes that stress its ordering argument.
func TestUDPLazyReplayMatchesEager(t *testing.T) {
	cases := []replayCase{
		{name: "interleaved-c2s", packets: []trace.Packet{
			c2s(0, 80), s2c(ms(1), 500), c2s(ms(1), 80), s2c(ms(2), 600), c2s(ms(5), 80), s2c(ms(6), 700)}},
		{name: "duplicate-offsets", packets: []trace.Packet{
			s2c(ms(3), 100), s2c(ms(3), 200), s2c(ms(3), 300), s2c(ms(6), 400), s2c(ms(6), 500)}},
		{name: "unsorted", packets: []trace.Packet{
			s2c(ms(9), 100), s2c(ms(2), 200), c2s(ms(1), 80), s2c(ms(9), 300), s2c(ms(0), 400), s2c(ms(5), 500)}},
		{name: "clamped-at-nonzero-now", now: ms(7), at: ms(1), packets: []trace.Packet{
			s2c(ms(5), 100), s2c(ms(0), 200), s2c(ms(6), 300), s2c(ms(2), 400), s2c(ms(6), 500), s2c(ms(9), 600)}},
		{name: "competing-equal-times", now: ms(3), at: ms(3), packets: []trace.Packet{
			s2c(0, 100), s2c(ms(3), 200), s2c(ms(6), 300), s2c(ms(6), 400), s2c(ms(9), 500)}},
		{name: "c2s-only", packets: []trace.Packet{c2s(0, 80), c2s(ms(1), 80)}},
		{name: "empty"},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		data := make([]byte, 2*(1+rng.Intn(40)))
		rng.Read(data)
		cases = append(cases, replayCase{
			name:    fmt.Sprintf("random-%d", i),
			packets: packetsFromBytes(data),
			now:     ms(rng.Intn(8)),
			at:      ms(rng.Intn(8)),
		})
	}
	for _, c := range cases {
		checkLazyMatchesEager(t, c)
	}
}

// TestUDPLazyReplayOfGeneratedTrace runs a generated, Poisson-retimed
// replay both ways.
func TestUDPLazyReplayOfGeneratedTrace(t *testing.T) {
	tr, err := trace.Generate("zoom", rand.New(rand.NewSource(3)), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tr = trace.PoissonRetime(rand.New(rand.NewSource(4)), tr)
	checkLazyMatchesEager(t, replayCase{name: "zoom", packets: tr.Packets, now: ms(20), at: ms(10)})
}

// FuzzUDPLazyReplay checks the lazy cursor against the eager reference
// on arbitrary traces: the first two bytes pick the engine time at Start
// and the replay start, the rest encode packets (see packetsFromBytes).
func FuzzUDPLazyReplay(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 3, 1, 3, 2, 0x81, 0, 1, 3})
	f.Add([]byte{7, 1, 5, 0, 0, 1, 6, 2, 2, 3, 6, 4, 9, 5})
	f.Add([]byte{3, 3, 0, 1, 3, 2, 6, 3, 6, 4, 0x83, 0, 9, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		checkLazyMatchesEager(t, replayCase{
			name:    "fuzz",
			now:     ms(int(data[0] % 16)),
			at:      ms(int(data[1] % 16)),
			packets: packetsFromBytes(data[2:]),
		})
	})
}

// TestUDPStartTwicePanics: a flow replays one trace. A second Start would
// overwrite the flow's send count (so Finish charged tail loss against the
// wrong trace) and its replay cursor.
func TestUDPStartTwicePanics(t *testing.T) {
	var eng Engine
	f := NewUDPFlow(&eng, 1, ClassDefault, Discard)
	tr := &trace.Trace{Packets: []trace.Packet{s2c(0, 100)}}
	f.Start(tr, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	f.Start(tr, time.Second)
}

// TestReleaseWithLazySendsPending stops a lossless replay mid-trace, with
// deliveries in flight and the next lazy send queued, and checks Release
// frees every pending delivery's packet exactly once (a second free
// panics) and nothing else.
func TestReleaseWithLazySendsPending(t *testing.T) {
	var eng Engine
	tr, err := trace.Generate("zoom", rand.New(rand.NewSource(5)), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var flow *UDPFlow
	end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
	link := NewLink(&eng, "l", 0, 40*time.Millisecond, end)
	flow = NewUDPFlow(&eng, 1, ClassDefault, link)
	flow.Start(tr, 0)
	eng.Run(2 * time.Second)

	var inFlight []*Packet
	sends := 0
	for _, k := range eng.q.keys {
		switch ev := eng.q.slab[k.slot]; ev.kind {
		case evDeliver:
			inFlight = append(inFlight, ev.pkt)
		case evUDPSend:
			sends++
		}
	}
	if len(inFlight) == 0 || sends != 1 {
		t.Fatalf("stopped with %d deliveries and %d sends pending, want some and 1", len(inFlight), sends)
	}
	eng.Release()
	for i, p := range inFlight {
		if !p.recycled {
			t.Errorf("pending delivery %d (seq %d) not freed by Release", i, p.Seq)
		}
	}
	if got := flow.SentCount - flow.RecvCount; got != int64(len(inFlight)) {
		t.Errorf("%d packets sent but not received, %d pending deliveries", got, len(inFlight))
	}
	if eng.q != nil || eng.free != nil {
		t.Error("Release kept the engine's queue or freelist")
	}
}
