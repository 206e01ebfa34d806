package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

// TestJobsPagingEdges pins the /jobs cursor edges the transparent pager
// relies on: an over-cap limit is clamped server-side, a listing whose
// total is an exact multiple of the page size terminates on an empty tail
// page, and a cursor past the end returns an empty page — not an error.
func TestJobsPagingEdges(t *testing.T) {
	b := newStubBackend()
	s, err := NewScheduler(Options{
		Workers:    1,
		QueueLimit: 4 * listLimitMax,
		Clock:      clock.NewManual(time.Unix(1700000000, 0)),
		Backends:   map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Not started: the backlog stays queued; this test is about listing.
	const total = 2 * listLimitMax // exact multiple of the page size
	specs := make([]Spec, listLimitMax)
	for page := 0; page < total/len(specs); page++ {
		for i := range specs {
			specs[i] = stubSpec(int64(page*len(specs) + i))
		}
		if _, err := s.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// A limit far above the cap is clamped to it, not honored or rejected.
	page, err := c.JobsPage(ctx, "", 10*listLimitMax)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != listLimitMax {
		t.Fatalf("over-cap request returned %d jobs, want the %d cap", len(page), listLimitMax)
	}

	// A cursor at the very last job yields an empty page (the pager's
	// termination probe when total ≡ 0 mod pageSize)...
	lastID := fmt.Sprintf("j%06d", total)
	tail, err := c.JobsPage(ctx, lastID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 0 {
		t.Fatalf("cursor at last job returned %d jobs, want 0", len(tail))
	}
	// ...and so does a cursor past any job that ever existed.
	past, err := c.JobsPage(ctx, fmt.Sprintf("%d", 50*total), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(past) != 0 {
		t.Fatalf("cursor past end returned %d jobs, want 0", len(past))
	}

	// The transparent pager survives the exact-multiple edge: two full
	// pages, then the empty tail terminates it at the right count.
	all, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("listed %d jobs, want %d", len(all), total)
	}
	for i, j := range all {
		if j.Seq != uint64(i+1) {
			t.Fatalf("job %d out of order: seq %d", i, j.Seq)
		}
	}
}

// TestMetricsExposeShardAndJournalCounters asserts the client-visible
// Metrics snapshot — what `wehey-submit metrics` prints — carries the
// shard-scheduler and journal group-commit counters, not just the raw
// /metrics endpoint.
func TestMetricsExposeShardAndJournalCounters(t *testing.T) {
	b := newStubBackend()
	s, err := NewScheduler(Options{
		Workers:     2,
		Shards:      8,
		JournalPath: filepath.Join(t.TempDir(), "journal.wj"),
		Clock:       clock.NewManual(time.Unix(1700000000, 0)),
		Backends:    map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()

	// Two jobs on one server pair: the second must be passed over while
	// the first holds the pair token, ticking the skip counter.
	b.block = make(chan struct{})
	specs := []Spec{stubSpec(1), stubSpec(2)}
	for i := range specs {
		specs[i].ServerPair = "sp1-sp2"
	}
	jobs, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, jobs[0].ID, StateRunning)
	close(b.block)
	for _, j := range jobs {
		waitState(t, s, j.ID, StateDone)
	}

	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	m, err := (&Client{BaseURL: srv.URL}).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.SchedulerShards != 8 {
		t.Errorf("SchedulerShards = %d, want 8", m.SchedulerShards)
	}
	if m.ClaimScans == 0 {
		t.Error("ClaimScans = 0 after jobs ran")
	}
	if m.JournalAppends == 0 || m.JournalBatchCommits == 0 {
		t.Errorf("journal counters %d/%d, want both nonzero",
			m.JournalAppends, m.JournalBatchCommits)
	}
	if m.Done != 2 {
		t.Errorf("Done = %d, want 2", m.Done)
	}
}

// TestListPageCursorNeverSkipsAJob: batches reserve their seqs before the
// journal fsync and publish after it, so concurrent batches publish out of
// order. A cursor pager racing them must still see every job: once a
// page has returned seq s, no job with a lower seq may show up later.
func TestListPageCursorNeverSkipsAJob(t *testing.T) {
	const submitters, batches, perBatch = 4, 8, 8 // 256 jobs: the default queue limit
	s := journalScheduler(t, filepath.Join(t.TempDir(), "journal.wj"), newStubBackend())
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := make([]Spec, perBatch)
			for b := 0; b < batches; b++ {
				for i := range specs {
					specs[i] = stubSpec(int64(i))
				}
				if _, err := s.SubmitBatch(specs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	submitted := make(chan struct{})
	go func() { wg.Wait(); close(submitted) }()

	var cursor uint64
	seen := 0
	for done := false; ; {
		select {
		case <-submitted:
			done = true
		default:
		}
		page := s.ListPage(cursor, 16)
		if done && len(page) == 0 {
			break
		}
		for _, j := range page {
			cursor = j.Seq
		}
		seen += len(page)
	}
	if total := len(s.List()); seen != total {
		t.Fatalf("cursor pager saw %d of %d jobs: it skipped %d", seen, total, total-seen)
	}
}
