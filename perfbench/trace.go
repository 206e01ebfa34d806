package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own code. Start and End are nanoseconds since the
// tracer's origin; Parent is the index of the enclosing span (-1 for a
// root); Op identifies the unit of work the span belongs to: a session
// index, a spec index, or a campaign name with the index of the first job
// of a submitted batch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning -1, so the untraced
// path pays one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns every closed span's duration for name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, for every closed span named name, its duration minus
// the part of its interval covered by its children, in ms.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(children[i], s.Start, s.End))/1e6)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// write dumps every span as JSON lines to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
