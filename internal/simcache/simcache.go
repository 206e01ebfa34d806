// Package simcache is a content-addressed result store for deterministic
// computations: given a computation's full input (its "spec", keyed by
// KeyFor) and a schema stamp, it memoizes the result in process — with
// single-flight deduplication, so N concurrent requests for one key
// execute the computation exactly once — and optionally on disk, so a
// later process can skip the computation entirely.
//
// The cache is only sound for *pure* computations: the result must be a
// function of the keyed spec fields and nothing else. Callers must also
// treat returned values as immutable — the in-process layer hands the
// same value (including any backing slices and maps) to every requester
// of a key.
//
// Invalidation is by key derivation, not by scanning: the schema stamp
// and the spec type's shape participate in the key hash (KeyFor), so
// bumping the stamp or changing the struct orphans every existing entry —
// a version mismatch is indistinguishable from a miss. Corrupt or
// truncated disk entries are detected by checksum and likewise degrade to
// a miss (and are deleted), never to a panic or a wrong result.
package simcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/nal-epfl/wehey/internal/frame"
)

// Codec round-trips values through the disk layer. Encode must be
// deterministic and Decode(Encode(v)) must reproduce v exactly — a cached
// result has to be indistinguishable from a recomputed one.
type Codec[V any] struct {
	Encode func(V) []byte
	Decode func([]byte) (V, error)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts in-process hits, including single-flight waiters that
	// blocked on a computation already running.
	Hits int64
	// DiskHits counts results loaded from the disk layer.
	DiskHits int64
	// Misses counts computations actually executed.
	Misses int64
	// Corrupt counts disk entries that were unreadable, truncated,
	// checksum-mismatched, or undecodable; each was treated as a miss.
	Corrupt int64
	// BytesRead and BytesWritten count disk-layer payload traffic.
	BytesRead    int64
	BytesWritten int64
	// WriteErrors counts failed disk writes (non-fatal: the result is
	// still returned, it just isn't persisted).
	WriteErrors int64
}

// Requests returns the total number of Get calls accounted for.
func (s Stats) Requests() int64 { return s.Hits + s.DiskHits + s.Misses }

// HitRate returns the fraction of requests served without computing.
func (s Stats) HitRate() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(s.Requests())
}

// String renders the counters in the stable `k=v` form the CI gate and
// the cmds grep for.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d disk-hits=%d misses=%d corrupt=%d read=%dB written=%dB write-errors=%d hit-rate=%.1f%%",
		s.Hits, s.DiskHits, s.Misses, s.Corrupt, s.BytesRead, s.BytesWritten, s.WriteErrors, 100*s.HitRate())
}

// Cache is a content-addressed memoization table for one value type.
// The zero value is not usable; construct with New or NewDisk.
type Cache[V any] struct {
	dir   string // "" = memory only
	codec Codec[V]

	mu      sync.Mutex
	flights map[Key]*flight[V]

	hits, diskHits, misses, corrupt  atomic.Int64
	bytesRead, bytesWritten, wErrors atomic.Int64
}

// flight is one key's computation: the first requester (the leader)
// computes and publishes val, everyone else blocks on done. A flight
// doubles as the memoized entry once done is closed.
type flight[V any] struct {
	done   chan struct{}
	val    V
	failed bool // the leader panicked; waiters must re-request
}

// New returns a memory-only cache.
func New[V any]() *Cache[V] {
	return &Cache[V]{flights: make(map[Key]*flight[V])}
}

// NewDisk returns a cache persisting entries under dir (created if
// missing) using codec for the round-trip.
func NewDisk[V any](dir string, codec Codec[V]) (*Cache[V], error) {
	if dir == "" {
		return nil, fmt.Errorf("simcache: empty cache directory")
	}
	if codec.Encode == nil || codec.Decode == nil {
		return nil, fmt.Errorf("simcache: disk cache needs a complete codec")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	c := New[V]()
	c.dir = dir
	c.codec = codec
	return c, nil
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		DiskHits:     c.diskHits.Load(),
		Misses:       c.misses.Load(),
		Corrupt:      c.corrupt.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		WriteErrors:  c.wErrors.Load(),
	}
}

// Get returns the value for key, computing it at most once per process
// (and at most once ever, with a disk layer): concurrent requests for the
// same key block until the single leader finishes. compute must be pure
// with respect to key.
func (c *Cache[V]) Get(key Key, compute func() V) V {
	for {
		c.mu.Lock()
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-f.done
			if !f.failed {
				c.hits.Add(1)
				return f.val
			}
			continue // leader panicked: race to become the new leader
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		return c.lead(key, f, compute)
	}
}

// lead runs the leader side of one flight: disk probe, compute, publish.
func (c *Cache[V]) lead(key Key, f *flight[V], compute func() V) V {
	completed := false
	defer func() {
		if completed {
			return
		}
		// compute panicked. Unpublish the flight so a waiter (or a later
		// request) can retry, release the waiters, and let the panic
		// propagate to the leader's caller.
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		f.failed = true
		close(f.done)
	}()
	if v, ok := c.loadDisk(key); ok {
		c.diskHits.Add(1)
		f.val = v
		completed = true
		close(f.done)
		return v
	}
	v := compute()
	c.misses.Add(1)
	f.val = v
	completed = true
	c.storeDisk(key, v)
	close(f.done)
	return v
}

// Disk entry layout: an 8-byte magic (doubling as the file-format
// version) followed by exactly one internal/frame record holding the
// payload. The key never appears inside the file — it is the file name.
const entryMagic = "WHYSIMC1"

// entryPath fans entries out over 256 subdirectories so huge grids don't
// produce one enormous flat directory.
func (c *Cache[V]) entryPath(key Key) string {
	hx := key.String()
	return filepath.Join(c.dir, hx[:2], hx[2:]+".sim")
}

// loadDisk probes the disk layer. Any malformed entry counts as corrupt,
// is deleted best-effort, and reads as a miss.
func (c *Cache[V]) loadDisk(key Key) (V, bool) {
	var zero V
	if c.dir == "" {
		return zero, false
	}
	path := c.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.dropCorrupt(path)
		}
		return zero, false
	}
	payload, ok := checkEntry(raw)
	if !ok {
		c.dropCorrupt(path)
		return zero, false
	}
	v, err := c.codec.Decode(payload)
	if err != nil {
		c.dropCorrupt(path)
		return zero, false
	}
	c.bytesRead.Add(int64(len(payload)))
	return v, true
}

// checkEntry validates the magic, framing and checksum, returning the
// payload. Bytes after the frame make the entry corrupt.
func checkEntry(raw []byte) ([]byte, bool) {
	if len(raw) < len(entryMagic) || string(raw[:len(entryMagic)]) != entryMagic {
		return nil, false
	}
	payload, rest, ok := frame.Next(raw[len(entryMagic):])
	return payload, ok && len(rest) == 0
}

func (c *Cache[V]) dropCorrupt(path string) {
	c.corrupt.Add(1)
	// Best-effort: leaving the entry behind only costs a recheck.
	_ = os.Remove(path)
}

// storeDisk persists a computed value. Failures are counted, not fatal:
// the caller already has the value.
func (c *Cache[V]) storeDisk(key Key, v V) {
	if c.dir == "" {
		return
	}
	payload := c.codec.Encode(v)
	buf := make([]byte, 0, len(entryMagic)+frame.HeaderSize+len(payload))
	buf = frame.Append(append(buf, entryMagic...), payload)

	path := c.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.wErrors.Add(1)
		return
	}
	// Write-then-rename keeps concurrent processes (two cold runs sharing
	// a directory) from observing a torn entry; the checksum catches
	// whatever slips through anyway.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		c.wErrors.Add(1)
		return
	}
	if _, err := tmp.Write(buf); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		c.wErrors.Add(1)
		return
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		c.wErrors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		c.wErrors.Add(1)
		return
	}
	c.bytesWritten.Add(int64(len(payload)))
}
