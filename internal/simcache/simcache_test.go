package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nal-epfl/wehey/internal/frame"
)

// stringCodec is the trivial identity codec used by the disk tests.
var stringCodec = Codec[string]{
	Encode: func(s string) []byte { return []byte(s) },
	Decode: func(b []byte) (string, error) { return string(b), nil },
}

func TestKeyOfSeparatesStampAndSpec(t *testing.T) {
	a := KeyFor("v1", "spec")
	if a != KeyFor("v1", "spec") {
		t.Fatal("KeyFor is not deterministic")
	}
	for name, other := range map[string]Key{
		"stamp":          KeyFor("v2", "spec"),
		"spec":           KeyFor("v1", "spec!"),
		"boundary shift": KeyFor("v1s", "pec"),
	} {
		if other == a {
			t.Errorf("changing the %s did not change the key", name)
		}
	}
	// Variable-length fields are length-prefixed: shifting an element or a
	// byte across a field boundary is a different spec.
	type pair struct {
		A, B []int
		S, T string
	}
	if KeyFor("v1", pair{A: []int{1, 2}, B: []int{3}}) == KeyFor("v1", pair{A: []int{1}, B: []int{2, 3}}) {
		t.Error("shifting a slice element across fields did not change the key")
	}
	if KeyFor("v1", pair{S: "ab", T: "c"}) == KeyFor("v1", pair{S: "a", T: "bc"}) {
		t.Error("shifting a string byte across fields did not change the key")
	}
}

// TestSingleFlight is the -race verified dedup guarantee: N concurrent
// requests for one key run exactly one computation, and everyone gets its
// value.
func TestSingleFlight(t *testing.T) {
	c := New[int]()
	key := KeyFor("v1", "the one spec")
	const goroutines = 32
	var computes atomic.Int64
	var wg sync.WaitGroup
	var release sync.WaitGroup
	release.Add(1)
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			release.Wait() // line everyone up on the same key
			results[g] = c.Get(key, func() int {
				computes.Add(1)
				return 42
			})
		}(g)
	}
	release.Done()
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for g, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d got %d", g, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, goroutines-1)
	}
}

func TestMemoryHitAcrossSequentialGets(t *testing.T) {
	c := New[string]()
	key := KeyFor("v1", "k")
	calls := 0
	compute := func() string { calls++; return "value" }
	if got := c.Get(key, compute); got != "value" {
		t.Fatalf("first Get = %q", got)
	}
	if got := c.Get(key, compute); got != "value" {
		t.Fatalf("second Get = %q", got)
	}
	if calls != 1 {
		t.Fatalf("compute called %d times", calls)
	}
}

func TestDiskRoundTripAcrossProcessLifetimes(t *testing.T) {
	dir := t.TempDir()
	key := KeyFor("v1", "spec")

	cold, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Get(key, func() string { return "payload" }); got != "payload" {
		t.Fatalf("cold Get = %q", got)
	}
	if st := cold.Stats(); st.Misses != 1 || st.BytesWritten == 0 {
		t.Fatalf("cold stats = %+v, want 1 miss and a disk write", st)
	}
	// The entry is byte for byte the hand-laid layout every existing cache
	// directory holds — "WHYSIMC1", the payload's LE u64 length, its
	// SHA-256, the payload — so the warm process reads that layout back.
	sum := sha256.Sum256([]byte("payload"))
	want := append(append(binary.LittleEndian.AppendUint64([]byte("WHYSIMC1"), 7), sum[:]...), "payload"...)
	if raw, err := os.ReadFile(cold.entryPath(key)); err != nil || !bytes.Equal(raw, want) {
		t.Fatalf("entry = %x, %v; want the hand-laid %x", raw, err, want)
	}

	// A fresh cache over the same directory stands in for a new process.
	warm, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	got := warm.Get(key, func() string {
		t.Error("warm Get recomputed despite a valid disk entry")
		return "recomputed"
	})
	if got != "payload" {
		t.Fatalf("warm Get = %q", got)
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Misses != 0 || st.BytesRead == 0 {
		t.Fatalf("warm stats = %+v, want 1 disk hit", st)
	}
}

// corruptions maps a name to a mutation of a valid on-disk entry. Every
// one must read as a miss — recompute, never a panic or a wrong value.
var corruptions = map[string]func([]byte) []byte{
	"truncated header":  func(b []byte) []byte { return b[:(len(entryMagic)+frame.HeaderSize)/2] },
	"truncated payload": func(b []byte) []byte { return b[:len(b)-1] },
	"empty file":        func([]byte) []byte { return nil },
	"bad magic":         func(b []byte) []byte { b[0] ^= 0xff; return b },
	"flipped payload":   func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
	"flipped checksum":  func(b []byte) []byte { b[len(entryMagic)+9] ^= 0xff; return b },
	"extra bytes":       func(b []byte) []byte { return append(b, 0xaa) },
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	for name, corrupt := range corruptions {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			dir := t.TempDir()
			key := KeyFor("v1", "spec")
			seed, err := NewDisk(dir, stringCodec)
			if err != nil {
				t.Fatal(err)
			}
			seed.Get(key, func() string { return "truth" })

			path := seed.entryPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c, err := NewDisk(dir, stringCodec)
			if err != nil {
				t.Fatal(err)
			}
			recomputed := false
			if got := c.Get(key, func() string { recomputed = true; return "truth" }); got != "truth" {
				t.Fatalf("Get over corrupt entry = %q", got)
			}
			if !recomputed {
				t.Fatal("corrupt entry served without recompute")
			}
			st := c.Stats()
			if st.Corrupt != 1 || st.DiskHits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want corrupt=1 misses=1", st)
			}
			// The recompute must have replaced the bad entry with a good one.
			fresh, err := NewDisk(dir, stringCodec)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Get(key, func() string {
				t.Error("repaired entry not served from disk")
				return "truth"
			})
		})
	}
}

func TestDecodeFailureIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := KeyFor("v1", "spec")
	strict := Codec[string]{
		Encode: stringCodec.Encode,
		Decode: func(b []byte) (string, error) { return "", fmt.Errorf("schema drift") },
	}
	seed, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	seed.Get(key, func() string { return "truth" })

	c, err := NewDisk(dir, strict)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(key, func() string { return "truth" }); got != "truth" {
		t.Fatalf("Get = %q", got)
	}
	if st := c.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the undecodable entry counted corrupt", st)
	}
}

// TestVersionStampMismatchIsAMiss pins the invalidation rule: the stamp
// participates in the key, so entries written under one schema are
// invisible — a plain miss, not an error — under another.
func TestVersionStampMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	spec := "same spec"

	v1, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	v1.Get(KeyFor("schema/v1", spec), func() string { return "old-schema result" })

	v2, err := NewDisk(dir, stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	got := v2.Get(KeyFor("schema/v2", spec), func() string {
		recomputed = true
		return "new-schema result"
	})
	if !recomputed || got != "new-schema result" {
		t.Fatalf("recomputed=%v got=%q: v2 must not see v1 entries", recomputed, got)
	}
	if st := v2.Stats(); st.DiskHits != 0 || st.Corrupt != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want a clean miss", st)
	}
}

// TestPanickedLeaderReleasesWaiters: a panicking compute must not wedge
// concurrent waiters on the same key, and a retry must succeed.
func TestPanickedLeaderReleasesWaiters(t *testing.T) {
	c := New[int]()
	key := KeyFor("v1", "k")

	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		c.Get(key, func() int {
			close(leaderStarted)
			<-release
			panic("simulated compute failure")
		})
	}()

	<-leaderStarted
	go func() {
		// This waiter blocks on the leader's flight, observes the failure,
		// and becomes the new leader.
		done <- c.Get(key, func() int { return 7 })
	}()
	close(release)
	if got := <-done; got != 7 {
		t.Fatalf("waiter after failed leader got %d", got)
	}
}

func TestEntryPathFansOut(t *testing.T) {
	c, err := NewDisk(t.TempDir(), stringCodec)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor("v1", "x")
	p := c.entryPath(k)
	sub := filepath.Base(filepath.Dir(p))
	if len(sub) != 2 || !strings.HasPrefix(filepath.Base(p), k.String()[2:]) {
		t.Fatalf("unexpected entry path layout: %s", p)
	}
}
