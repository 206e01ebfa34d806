package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// pushTagged queues an event whose payload records its own key's seq, so
// a pop can check that the slab slot it read belongs to the key popped.
func pushTagged(eng *Engine, at time.Duration) eventKey {
	eng.push(at, event{kind: evTCPPace, arg: eng.seq + 1})
	if at < eng.now {
		at = eng.now
	}
	return eventKey{at: at, seq: eng.seq}
}

// popChecked pops the minimum key and checks the queue's invariants: the
// payload is the key's own, the slab accounts for every slot, and it
// never holds more entries than were ever pending at once.
func popChecked(t *testing.T, eng *Engine) eventKey {
	t.Helper()
	k, ev := eng.q.pop()
	if ev.arg != k.seq {
		t.Fatalf("key seq %d popped the payload of seq %d", k.seq, ev.arg)
	}
	checkSlab(t, eng)
	return k
}

func checkSlab(t *testing.T, eng *Engine) {
	t.Helper()
	q := eng.q
	if len(q.slab) > eng.PeakPending() {
		t.Fatalf("slab holds %d slots, peak pending is %d", len(q.slab), eng.PeakPending())
	}
	if len(q.slab) != len(q.keys)+len(q.vacant) {
		t.Fatalf("slab %d slots != %d pending + %d vacant", len(q.slab), len(q.keys), len(q.vacant))
	}
	for _, s := range q.vacant {
		if ev := &q.slab[s]; ev.kind != 0 || ev.arg != 0 || ev.pkt != nil || ev.hop != nil || ev.h != nil || ev.fn != nil {
			t.Fatalf("vacant slot %d not zeroed: %+v", s, q.slab[s])
		}
	}
}

// drainHeap pops every event and returns the observed key order.
func drainHeap(t *testing.T, eng *Engine) []eventKey {
	var out []eventKey
	for eng.Pending() > 0 {
		out = append(out, popChecked(t, eng))
	}
	return out
}

func sortKeys(ks []eventKey) {
	sort.Slice(ks, func(i, j int) bool { return keyLess(&ks[i], &ks[j]) })
}

func sameOrder(got, want []eventKey) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].at != want[i].at || got[i].seq != want[i].seq {
			return false
		}
	}
	return true
}

// TestHeapPopOrderMatchesSort pins the key heap's pop order against the
// reference total order — sort by (at, seq) — on random workloads.
func TestHeapPopOrderMatchesSort(t *testing.T) {
	f := func(raw []uint16) bool {
		var eng Engine
		want := make([]eventKey, 0, len(raw))
		for _, v := range raw {
			want = append(want, pushTagged(&eng, time.Duration(v)*time.Microsecond))
		}
		sortKeys(want)
		return sameOrder(drainHeap(t, &eng), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHeapInterleavedPushPop exercises mixed push/pop sequences (the
// steady-state shape of a simulation run, where popped slab slots are
// reused by later pushes) against a linear-scan reference.
func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var eng Engine
	var live []eventKey
	pushes := 0
	popMin := func() eventKey {
		mi := 0
		for i := range live {
			if keyLess(&live[i], &live[mi]) {
				mi = i
			}
		}
		k := live[mi]
		live = append(live[:mi], live[mi+1:]...)
		return k
	}
	for step := 0; step < 5000; step++ {
		if eng.Pending() == 0 || rng.Intn(3) > 0 {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			live = append(live, pushTagged(&eng, at))
			pushes++
		} else {
			want := popMin()
			got := popChecked(t, &eng)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("step %d: popped (%v, %d), want (%v, %d)",
					step, got.at, got.seq, want.at, want.seq)
			}
		}
	}
	if len(eng.q.slab) >= pushes {
		t.Fatalf("slab grew to %d slots over %d pushes: popped slots not reused", len(eng.q.slab), pushes)
	}
	for _, got := range drainHeap(t, &eng) {
		want := popMin()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: popped (%v, %d), want (%v, %d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
}

// TestHeapRecycledQueueComesBackEmpty: a queue recycled through pqPool by
// a drained Run serves the next engine with empty keys and no slots, so
// slab size still tracks that engine's own peak.
func TestHeapRecycledQueueComesBackEmpty(t *testing.T) {
	var a Engine
	for i := 0; i < 100; i++ {
		a.Schedule(time.Duration(i), func() {})
	}
	a.Run(time.Second)
	if a.q != nil {
		t.Fatal("drained Run kept its queue")
	}
	var b Engine
	pushTagged(&b, 0)
	if len(b.q.keys) != 1 || len(b.q.slab) != 1 || len(b.q.vacant) != 0 {
		t.Fatalf("second engine's queue: %d keys, %d slots, %d vacant",
			len(b.q.keys), len(b.q.slab), len(b.q.vacant))
	}
	if b.PeakPending() != 1 {
		t.Fatalf("PeakPending = %d, want 1", b.PeakPending())
	}
}

// FuzzHeapPopOrder reads a byte string as a push/pop workload — an odd
// byte pops (when anything is pending), an even byte pushes at that many
// microseconds from now — and checks every pop against the reference
// (at, seq) order and the slab invariants of popChecked.
func FuzzHeapPopOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{6, 2, 2, 1, 254, 0, 8, 1, 1, 4, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var eng Engine
		var live []eventKey
		for _, b := range data {
			if b&1 == 0 {
				live = append(live, pushTagged(&eng, eng.now+time.Duration(b)*time.Microsecond))
				continue
			}
			if len(live) == 0 {
				continue
			}
			sortKeys(live)
			got := popChecked(t, &eng)
			eng.now = got.at
			if got.at != live[0].at || got.seq != live[0].seq {
				t.Fatalf("popped (%v, %d), want (%v, %d)", got.at, got.seq, live[0].at, live[0].seq)
			}
			live = live[1:]
		}
		sortKeys(live)
		if got := drainHeap(t, &eng); !sameOrder(got, live) {
			t.Fatalf("drain order %v, want %v", got, live)
		}
	})
}
