package netsim

import (
	"sort"
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

	// Replay cursor (see Start). At most one send is pending at a time.
	started bool
	src     []trace.Packet // the replayed trace's packets
	order   []udpSend      // sends in send order; nil when src is already in it
	pos     int            // src index of the next send (when order is nil)
	sent    int            // sends dispatched so far
	base    time.Duration  // replay start: a send leaves at base+Offset,
	floor   time.Duration  // clamped up to the engine time at Start
	seqBase uint64         // engine sequences seqBase+1.. carry flow seqs 0..

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
// ServerToClient packets are transmitted; the k-th of them carries flow
// seq k and is sent at at+Offset, or at the current time if that lies in
// the past. tr must not be modified until the replay has been sent.
//
// Sends are pushed lazily, one pending at a time: Start reserves the
// replay's whole block of engine sequences, and each send pushes the next
// under the (time, sequence) key it would have had if Start had queued
// every send up front. Event order is therefore the same as eager
// scheduling, while the queue holds one event per source instead of the
// whole trace. A flow replays one trace: a second Start panics.
func (f *UDPFlow) Start(tr *trace.Trace, at time.Duration) {
	if f.started {
		panic("netsim: UDPFlow.Start called twice on one flow (a flow replays one trace)")
	}
	f.started = true
	f.src, f.base, f.floor = tr.Packets, at, f.eng.Now()

	n, sorted := 0, true
	var prev time.Duration
	for i := range f.src {
		if f.src[i].Dir != trace.ServerToClient {
			continue
		}
		t := f.sendAt(i)
		if t < prev {
			sorted = false
		}
		prev, n = t, n+1
	}
	f.totalScheduled = int64(n)
	if n == 0 {
		return
	}
	f.seqBase = f.eng.reserveSeq(n)
	if sorted {
		f.pos = f.skipToSend(0)
	} else {
		// Send order is (send time, flow seq): a stable sort by send time
		// of the sends in trace order.
		f.order = make([]udpSend, 0, n)
		for i := range f.src {
			if f.src[i].Dir == trace.ServerToClient {
				f.order = append(f.order, udpSend{idx: int32(i), seq: int32(len(f.order))})
			}
		}
		sort.SliceStable(f.order, func(a, b int) bool {
			return f.sendAt(int(f.order[a].idx)) < f.sendAt(int(f.order[b].idx))
		})
	}
	// The delivery log's final size is bounded by the send count, so size
	// it once instead of letting append double its way up.
	if f.Delivered == nil {
		f.Delivered = make([]DeliveryEvent, 0, n)
	}
	f.pushNext()
}

// udpSend is one send of an out-of-order trace: its src index and flow seq.
type udpSend struct{ idx, seq int32 }

// sendAt returns the send time of src[i].
func (f *UDPFlow) sendAt(i int) time.Duration {
	if t := f.base + f.src[i].Offset; t > f.floor {
		return t
	}
	return f.floor
}

// skipToSend returns the first ServerToClient index of src at or after i.
func (f *UDPFlow) skipToSend(i int) int {
	for i < len(f.src) && f.src[i].Dir != trace.ServerToClient {
		i++
	}
	return i
}

// cursor returns the src index and flow seq of the next send.
func (f *UDPFlow) cursor() (idx, seq int) {
	if f.order != nil {
		s := f.order[f.sent]
		return int(s.idx), int(s.seq)
	}
	return f.pos, f.sent
}

// pushNext queues the cursor's send, if any remain, under its reserved
// engine sequence.
func (f *UDPFlow) pushNext() {
	if int64(f.sent) == f.totalScheduled {
		return
	}
	idx, seq := f.cursor()
	f.eng.pushSeq(f.sendAt(idx), f.seqBase+1+uint64(seq), event{kind: evUDPSend, h: f})
}

// handle dispatches the flow's interned engine callbacks.
func (f *UDPFlow) handle(kind eventKind, _ uint64) {
	if kind != evUDPSend {
		return
	}
	idx, seq := f.cursor()
	f.sent++
	if f.order == nil {
		f.pos = f.skipToSend(f.pos + 1)
	}
	f.transmit(int64(seq), f.src[idx].Size)
	f.pushNext()
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
