package service

import (
	"fmt"
	"os"
	"sort"
)

// LoadJournalJobs reads a campaign journal without opening it for
// writing: no compaction, no appender, no mutation of the file — safe on
// a journal another process is still appending to, and the substrate of
// `wehey-map infer` (one-shot aggregation over a jobs dump). Records are
// folded into job snapshots exactly as scheduler recovery would fold
// them: a submit opens the job (queued), a terminal record closes it. A
// torn tail or malformed record simply ends the scan — every record
// before it is well-formed by construction.
func LoadJournalJobs(path string) ([]Job, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: read journal: %w", err)
	}
	if len(raw) < len(journalMagic) || string(raw[:len(journalMagic)]) != journalMagic {
		return nil, fmt.Errorf("service: %s is not a campaign journal", path)
	}

	byID := make(map[string]*Job)
	var order []*Job
	recs, _ := readRecords(raw[len(journalMagic):])
	for _, r := range recs {
		switch r.Op {
		case recSubmit:
			if r.Spec == nil || byID[r.ID] != nil {
				continue
			}
			j := &Job{ID: r.ID, Seq: r.Seq, Spec: *r.Spec, State: StateQueued}
			byID[r.ID] = j
			order = append(order, j)
		case recDone:
			if j := byID[r.ID]; j != nil && !j.State.Terminal() {
				j.State = StateDone
				j.Result = r.Result
			}
		case recFail:
			if j := byID[r.ID]; j != nil && !j.State.Terminal() {
				j.State = StateFailed
				j.Error = r.Error
			}
		case recCancel:
			if j := byID[r.ID]; j != nil && !j.State.Terminal() {
				j.State = StateCanceled
				j.Error = r.Error
			}
		}
	}

	out := make([]Job, len(order))
	for i, j := range order {
		out[i] = *j
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, nil
}
