package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/frame"
)

// writeJournal hand-builds a journal file from records, simulating the
// state a killed process leaves behind (OpenJournal + Append + no Close is
// exactly a SIGKILL: every record was fsynced, nothing else exists).
func writeJournal(t *testing.T, path string, records ...record) {
	t.Helper()
	jr, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := jr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

func submitRecord(id string, seq uint64, seed int64) record {
	spec := stubSpec(seed)
	return record{Op: recSubmit, ID: id, Seq: seq, Spec: &spec}
}

// journalScheduler opens a scheduler over the journal with the stub
// backend and a manual clock, NOT started (tests inspect recovery first).
func journalScheduler(t *testing.T, path string, b Backend) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Options{
		Workers:     2,
		Clock:       clock.NewManual(time.Unix(1700000000, 0)),
		JournalPath: path,
		Backends:    map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestJournalResumeAfterKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j", "journal.wj")
	// The dead process submitted three jobs and completed the first.
	writeJournal(t, path,
		submitRecord("j000001", 1, 1),
		submitRecord("j000002", 2, 2),
		submitRecord("j000003", 3, 3),
		record{Op: recDone, ID: "j000001", Result: &Result{Backend: "stub", Detail: "old"}},
	)

	b := newStubBackend()
	s := journalScheduler(t, path, b)
	// Recovery state before any execution.
	if got, _ := s.Get("j000001"); got.State != StateDone || got.Result == nil || got.Result.Detail != "old" {
		t.Fatalf("completed job not recovered: %+v", got)
	}
	for _, id := range []string{"j000002", "j000003"} {
		if got, _ := s.Get(id); got.State != StateQueued || !got.Resumed {
			t.Fatalf("job %s = %s resumed=%v, want queued resumed", id, got.State, got.Resumed)
		}
	}

	s.Start()
	waitState(t, s, "j000002", StateDone)
	waitState(t, s, "j000003", StateDone)
	// The completed job must not have run again; the others exactly once.
	if n := b.runCount(1); n != 0 {
		t.Errorf("done job re-ran %d times", n)
	}
	for seed := int64(2); seed <= 3; seed++ {
		if n := b.runCount(seed); n != 1 {
			t.Errorf("resumed job seed=%d ran %d times, want 1", seed, n)
		}
	}
	// New submissions continue the sequence, not reuse recovered IDs.
	job, err := s.Submit(stubSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if job.Seq != 4 || job.ID != "j000004" {
		t.Errorf("post-recovery submission = %s seq %d, want j000004 seq 4", job.ID, job.Seq)
	}
	if m := s.Metrics(); m.Resumed != 2 {
		t.Errorf("resumed = %d, want 2", m.Resumed)
	}
}

func TestJournalLiveRestartCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	b := newStubBackend()
	b.block = make(chan struct{}) // jobs hang: Close interrupts them
	b.started = make(chan int64, 8)

	s1 := journalScheduler(t, path, b)
	s1.Start()
	if _, err := s1.Submit(stubSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-b.started
	if _, err := s1.Submit(stubSpec(2)); err != nil {
		t.Fatal(err)
	}
	s1.Close() // interrupts the running attempt; nothing completed

	// Second process: jobs run to completion this time.
	b.mu.Lock()
	b.block = nil
	b.mu.Unlock()
	s2 := journalScheduler(t, path, b)
	s2.Start()
	j1 := waitState(t, s2, "j000001", StateDone)
	waitState(t, s2, "j000002", StateDone)
	if !j1.Resumed {
		t.Error("restarted job not marked resumed")
	}
	s2.Close()

	// Third process: everything is terminal; nothing runs again.
	s3 := journalScheduler(t, path, newFailingStub(t))
	if got, _ := s3.Get("j000001"); got.State != StateDone {
		t.Errorf("job 1 = %s after third open, want done", got.State)
	}
	if got, _ := s3.Get("j000002"); got.State != StateDone {
		t.Errorf("job 2 = %s after third open, want done", got.State)
	}
}

// newFailingStub is a backend that fails the test if it ever runs.
func newFailingStub(t *testing.T) Backend {
	b := newStubBackend()
	b.fail = func(seed int64, _ int) error {
		t.Errorf("terminal job re-ran (seed %d)", seed)
		return errors.New("must not run")
	}
	return b
}

func TestJournalTornTailDroppedAndRequeued(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	writeJournal(t, path,
		submitRecord("j000001", 1, 1),
		record{Op: recDone, ID: "j000001"},
		submitRecord("j000002", 2, 2),
	)
	// Simulate a crash mid-append: half a record of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte("\x40\x00\x00\x00\x00\x00\x00\x00torn-checksum-and-truncated")
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := newStubBackend()
	s := journalScheduler(t, path, b)
	s.Start()
	if m := s.Metrics(); m.JournalDroppedBytes != len(torn) {
		t.Errorf("dropped bytes = %d, want %d", m.JournalDroppedBytes, len(torn))
	}
	// The valid prefix survived: job 1 done, job 2 re-queued and runnable.
	if got, _ := s.Get("j000001"); got.State != StateDone {
		t.Errorf("job 1 = %s, want done", got.State)
	}
	waitState(t, s, "j000002", StateDone)
	s.Close()

	// The compaction cleaned the tail: reopening finds a pristine file.
	_, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DroppedBytes != 0 {
		t.Errorf("reopen dropped %d bytes, want 0 after compaction", rec.DroppedBytes)
	}
	// Original submits + done, plus the re-run's terminal record.
	if len(rec.Records) != 4 {
		t.Errorf("reopen found %d records, want 4", len(rec.Records))
	}
}

func TestJournalDuplicateTerminalSuppressed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	writeJournal(t, path,
		submitRecord("j000001", 1, 1),
		record{Op: recDone, ID: "j000001", Result: &Result{Detail: "first"}},
		record{Op: recDone, ID: "j000001", Result: &Result{Detail: "second"}},
		record{Op: recFail, ID: "j000001", Error: "late failure"},
	)
	s := journalScheduler(t, path, newFailingStub(t))
	got, _ := s.Get("j000001")
	if got.State != StateDone || got.Result == nil || got.Result.Detail != "first" {
		t.Errorf("job = %s result %+v, want done with the first result", got.State, got.Result)
	}
	if m := s.Metrics(); m.JournalDupTerminals != 2 {
		t.Errorf("dup terminals = %d, want 2", m.JournalDupTerminals)
	}
}

func TestJournalCorruptHeadQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	jr, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if !rec.Rewritten || rec.DroppedBytes == 0 || len(rec.Records) != 0 {
		t.Errorf("recovery = %+v, want rewritten with all bytes dropped", rec)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt original not preserved: %v", err)
	}
	// The fresh file accepts appends and round-trips.
	if err := jr.Append(submitRecord("j000001", 1, 1)); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	_, rec2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != 1 || rec2.DroppedBytes != 0 {
		t.Errorf("reopen = %+v, want 1 clean record", rec2)
	}
}

func TestJournalChecksumFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	writeJournal(t, path,
		submitRecord("j000001", 1, 1),
		submitRecord("j000002", 2, 2),
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // flip a payload byte of the last record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0].ID != "j000001" {
		t.Errorf("records = %+v, want only the intact first record", rec.Records)
	}
	if rec.DroppedBytes == 0 {
		t.Error("flipped record not counted as dropped")
	}
}

// handJournal lays journal bytes out by hand, without internal/frame:
// "WHYJRNL1", then per record the JSON payload's LE u64 length, its
// SHA-256, and the payload — the layout of every journal on disk.
func handJournal(t testing.TB, records ...record) []byte {
	raw := []byte("WHYJRNL1")
	for i := range records {
		payload, err := json.Marshal(&records[i])
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		raw = append(append(binary.LittleEndian.AppendUint64(raw, uint64(len(payload))), sum[:]...), payload...)
	}
	return raw
}

// TestJournalRecordRoundTrip: a journal laid out by hand opens without
// repair and yields its record intact, and an append extends it to
// exactly the hand-laid bytes of both records.
func TestJournalRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	spec := Spec{Backend: BackendSim, Seed: 7, ServerPair: "A",
		Sim: &SimJob{App: "tcpbulk", Duration: time.Second}}
	recs := []record{{Op: recSubmit, ID: "j000042", Seq: 42, Spec: &spec}, submitRecord("j000043", 43, 1)}
	if err := os.WriteFile(path, handJournal(t, recs[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	jr, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Rewritten || len(rec.Records) != 1 || rec.Records[0].Seq != 42 || rec.Records[0].Spec.Sim.App != "tcpbulk" {
		t.Fatalf("recovery = %+v, want the one record intact and no repair", rec)
	}
	if err := jr.Append(recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, handJournal(t, recs...)) {
		t.Fatalf("journal bytes differ from the hand-laid layout: %x", got)
	}
}

// FuzzOpenJournal: whatever follows the magic, OpenJournal must not
// panic, and its repair must be final — a second open recovers the same
// records with nothing dropped and no rewrite.
func FuzzOpenJournal(f *testing.F) {
	spec := stubSpec(7)
	body := handJournal(f,
		record{Op: recSubmit, ID: "j000001", Seq: 1, Spec: &spec},
		record{Op: recDone, ID: "j000001", Result: &Result{}},
		record{Op: recFail, ID: "j000002", Error: "boom"},
	)[len(journalMagic):]
	for _, n := range []int{len(body), 1, frame.HeaderSize + 3, len(body) / 2, len(body) - 1} {
		f.Add(body[:n])
	}
	flipped := bytes.Clone(body)
	flipped[8] ^= 0x01 // the first record's checksum
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "journal.wj")
		if err := os.WriteFile(path, append([]byte(journalMagic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var recs [2]Recovery
		for i := range recs {
			jr, rec, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}
			recs[i] = rec
		}
		if recs[1].DroppedBytes != 0 || recs[1].Rewritten || !reflect.DeepEqual(recs[0].Records, recs[1].Records) {
			t.Fatalf("repair not final:\n first %+v\nsecond %+v", recs[0], recs[1])
		}
	})
}
