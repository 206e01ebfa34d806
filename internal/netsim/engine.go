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
// The scheduling hot path is allocation-free in steady state: pending
// events are 24-byte (time, sequence, slot) keys in a 4-ary min-heap over
// a slab of typed payload records (no container/heap interface{} boxing,
// no per-delivery closures), hop queues are growable ring buffers, and
// packets recycle through an engine-owned freelist. Trace replays feed the
// queue one send at a time. See DESIGN.md §8 for the event model and the
// packet-ownership rules.
package netsim

import (
	"sync"
	"time"
)

// Experiments build one short-lived Engine per trial, so the expensive
// backing arrays — the event queue and the packet freelist — are recycled
// across engines through sync.Pools. This is pure storage reuse: buffers
// come back empty (the queue) or fully reset on AllocPacket (packets), so
// event order and packet contents are unaffected. Both pools are
// goroutine-safe; the parallel experiment runner shares them across
// workers.
var (
	pqPool       sync.Pool // *eventQueue, empty, slab contents zeroed
	freelistPool sync.Pool // *[]*Packet, every element recycled (dead)
)

// Engine is the discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now  time.Duration
	q    *eventQueue // nil until the first push and after recycling
	seq  uint64
	peak int // most events ever pending at once

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
	// evFunc runs a closure — the compatibility shim for cold paths and
	// tests (Engine.Schedule / Engine.After).
	evFunc eventKind = iota
	// evDeliver hands a packet to a hop (link/limiter egress).
	evDeliver
	// The remaining kinds are interned method callbacks, dispatched to the
	// event's handler with the packed arg.
	evLinkTransmitNext
	evTBFDrain
	evTCPTrySend
	evTCPPace
	evTCPRTO // arg: timer generation
	evTCPAck // arg: seq<<1 | echoRtx
	evUDPSend
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

// event is a typed payload record. Exactly one of the payload groups is
// used, selected by kind: fn (evFunc), pkt+hop (evDeliver), or h+arg
// (interned callbacks). Its place in time lives in the eventKey that
// points at it.
type event struct {
	arg  uint64
	pkt  *Packet
	hop  Hop
	h    handler
	fn   func()
	kind eventKind
}

// eventKey orders one pending event. It holds no pointers, so sifting
// keys moves 24 bytes with no write barriers however large the payload.
type eventKey struct {
	at   time.Duration
	seq  uint64
	slot int // index of the payload in eventQueue.slab
}

// keyLess is the total event order: time, then insertion sequence. Every
// (at, seq) pair is unique, so any correct heap yields the same pop order —
// the determinism contract does not depend on heap arity or layout.
func keyLess(a, b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the pending-event store. The three arrays travel together
// through pqPool.
type eventQueue struct {
	keys   []eventKey // 4-ary min-heap by (at, seq)
	slab   []event    // payloads; vacant entries are zeroed
	vacant []int      // slab slots free for reuse
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn at simulation time at. Events scheduled in the past run
// at the current time, after already-pending events for that time.
//
// This is the closure compatibility shim: it allocates the closure like any
// Go function value. Hot paths inside the package use the typed record
// schedulers below instead.
func (e *Engine) Schedule(at time.Duration, fn func()) {
	e.push(at, event{kind: evFunc, fn: fn})
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) {
	e.Schedule(e.now+d, fn)
}

// ScheduleDeliver hands pkt to hop at simulation time at without
// allocating. A nil hop is a terminal delivery: the packet is recycled.
func (e *Engine) ScheduleDeliver(at time.Duration, pkt *Packet, hop Hop) {
	e.push(at, event{kind: evDeliver, pkt: pkt, hop: hop})
}

// AfterDeliver hands pkt to hop d from now without allocating.
func (e *Engine) AfterDeliver(d time.Duration, pkt *Packet, hop Hop) {
	e.ScheduleDeliver(e.now+d, pkt, hop)
}

// scheduleCall schedules an interned callback event.
func (e *Engine) scheduleCall(at time.Duration, h handler, kind eventKind, arg uint64) {
	e.push(at, event{kind: kind, h: h, arg: arg})
}

// afterCall schedules an interned callback event d from now.
func (e *Engine) afterCall(d time.Duration, h handler, kind eventKind, arg uint64) {
	e.scheduleCall(e.now+d, h, kind, arg)
}

// push clamps at to the present, assigns the next insertion sequence, and
// queues the event.
func (e *Engine) push(at time.Duration, ev event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.pushSeq(at, e.seq, ev)
}

// reserveSeq claims the next n insertion sequences, base+1..base+n, for a
// source that pushes its events later through pushSeq: a lazy source keeps
// the exact (at, seq) keys it would have had if it had pushed all n events
// at the moment it reserved them.
func (e *Engine) reserveSeq(n int) (base uint64) {
	base = e.seq
	e.seq += uint64(n)
	return base
}

// pushSeq queues ev under an explicit (at, seq) key: either a fresh one
// from push, or one from a reserveSeq range. at must not lie in the past
// and seq must not be pending already; both are the caller's contract.
func (e *Engine) pushSeq(at time.Duration, seq uint64, ev event) {
	q := e.q
	if q == nil {
		q, _ = pqPool.Get().(*eventQueue)
		if q == nil {
			q = new(eventQueue)
		}
		e.q = q
	}
	var slot int
	if n := len(q.vacant); n > 0 {
		slot = q.vacant[n-1]
		q.vacant = q.vacant[:n-1]
		q.slab[slot] = ev
	} else {
		slot = len(q.slab)
		q.slab = append(q.slab, ev)
	}
	q.keys = append(q.keys, eventKey{at: at, seq: seq, slot: slot})
	q.siftUp(len(q.keys) - 1)
	if n := len(q.keys); n > e.peak {
		e.peak = n
	}
}

// The heap is 4-ary: children of i are 4i+1..4i+4, parent is (i-1)/4.
// Shallower than a binary heap (fewer levels per op on deep queues), with
// the 4-way child minimum spanning at most two cache lines of keys. Both
// sifts move a hole instead of swapping: each level copies one key, and
// the moving key is written once at its final position.

func (q *eventQueue) siftUp(i int) {
	keys := q.keys
	k := keys[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !keyLess(&k, &keys[p]) {
			break
		}
		keys[i] = keys[p]
		i = p
	}
	keys[i] = k
}

// siftDown places k into the heap starting from the hole at the root.
func (q *eventQueue) siftDown(k eventKey) {
	keys := q.keys
	n := len(keys)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if keyLess(&keys[c], &keys[min]) {
				min = c
			}
		}
		if !keyLess(&keys[min], &k) {
			break
		}
		keys[i] = keys[min]
		i = min
	}
	keys[i] = k
}

// pop removes the minimum event and returns its key and payload. The
// payload's slab slot is zeroed and becomes vacant, so the slab never
// grows past the peak number of pending events and its spare entries
// never pin packets or closures.
func (q *eventQueue) pop() (eventKey, event) {
	top := q.keys[0]
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	if n > 0 {
		q.siftDown(last)
	}
	ev := q.slab[top.slot]
	q.slab[top.slot] = event{}
	q.vacant = append(q.vacant, top.slot)
	return top, ev
}

// dispatch runs one event.
func (e *Engine) dispatch(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
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
// until. It returns the number of events processed.
func (e *Engine) Run(until time.Duration) int {
	processed := 0
	for e.q != nil && len(e.q.keys) > 0 {
		if e.q.keys[0].at > until {
			// Leave it for a later Run and stop.
			e.now = until
			return processed
		}
		k, ev := e.q.pop()
		e.now = k.at
		e.dispatch(&ev)
		processed++
	}
	if e.now < until {
		e.now = until
	}
	// The queue drained: the simulation is over or quiescent, so hand the
	// backing arrays to the cross-engine pools. pop zeroed every vacated
	// slab slot, and a freed packet is by contract unreferenced, so neither
	// pool pins live objects. A later push/AllocPacket simply re-acquires.
	e.recycle()
	return processed
}

// recycle hands the (empty, zeroed) event queue and the packet freelist
// to the cross-engine pools.
func (e *Engine) recycle() {
	if q := e.q; q != nil {
		q.keys, q.slab, q.vacant = q.keys[:0], q.slab[:0], q.vacant[:0]
		e.q = nil
		pqPool.Put(q)
	}
	if len(e.free) > 0 {
		fl := e.free
		e.free = nil
		freelistPool.Put(&fl)
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	if e.q == nil {
		return 0
	}
	return len(e.q.keys)
}

// PeakPending returns the largest number of events that were ever pending
// at once on this engine. Like the event order itself it is deterministic,
// so it is a stable gauge of queue depth, which sets the cost of every
// push and pop.
func (e *Engine) PeakPending() int { return e.peak }

// Release hands the engine's backing arrays to the cross-engine pools and
// recycles the packets of still-pending deliveries. Trial runners stop at
// a fixed horizon with events (churn, background, retransmission timers,
// replay sends) still queued, so Run's drained-queue recycling never fires
// for them; calling Release when a trial's results have been read closes
// that gap. The engine must not be used again afterwards.
func (e *Engine) Release() {
	if q := e.q; q != nil {
		// Each pending key owns a distinct slot, so every pending
		// delivery's packet is freed exactly once; vacant slots are zero.
		for _, k := range q.keys {
			if ev := &q.slab[k.slot]; ev.kind == evDeliver && ev.pkt != nil {
				e.FreePacket(ev.pkt)
			}
		}
		clear(q.slab)
	}
	e.recycle()
}

// AllocPacket returns a zeroed packet, recycling one from the freelist
// when available. Sources inside the simulation must allocate through this
// so steady-state traffic reuses a bounded working set instead of
// allocating per send.
func (e *Engine) AllocPacket() *Packet {
	e.allocCount++
	if e.free == nil {
		// First allocation: adopt a recycled freelist (packets and all)
		// from an earlier engine, or start a fresh one.
		if fl, _ := freelistPool.Get().(*[]*Packet); fl != nil {
			e.free = *fl
		} else {
			e.free = make([]*Packet, 0, 8)
		}
	}
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
