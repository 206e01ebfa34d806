package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// record is one line of a result set: a run's result tagged with what was
// run. perfbench --record FILE appends one per run.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// minPairs is the number of parent/change pairs a verdict needs.
const minPairs = 10

// compareMain compares a parent result set with a change's. For every
// workload and metric it prints both medians and quartiles, the share of
// pairs the change won, and a verdict by the rule of the choosing-metrics
// guide:
//   - improved: at least 10 pairs, the change wins at least nine tenths of
//     them (ties count for neither side), and the medians differ by more
//     than the parent's own spread (its interquartile distance);
//   - worse: the same rule with the sides swapped, or the change's median
//     is worse than the parent's by more than the metric's bound;
//   - unresolved: fewer than 10 pairs, or the parent's spread is wider
//     than the bound and not every change run beats every parent run;
//   - no worse: otherwise.
//
// Runs pair up by workload, mode and seed; per-layer metrics, which have
// no bound, are never "no worse".
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare parent.jsonl change.jsonl")
	}
	sp, err := loadSpec(benchFile)
	if err != nil {
		return err
	}
	defs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		defs[m.Name] = m
	}
	parent, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return err
	}

	type key struct {
		workload string
		trace    bool
	}
	groups := map[key]bool{}
	for _, rec := range parent {
		groups[key{rec.Workload, rec.Trace}] = true
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})

	fmt.Printf("%-9s %-32s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "parent p50", "parent q1..q3", "change p50", "change q1..q3", "won", "verdict")
	for _, k := range keys {
		pa := bySeed(parent, k.workload, k.trace)
		ch := bySeed(change, k.workload, k.trace)
		names := map[string]bool{}
		for _, rec := range pa {
			for n := range rec.Result.Metrics {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			def, ok := defs[name]
			if !ok {
				continue
			}
			var a, b []float64
			won, pairs := 0, 0
			for seed, ra := range pa {
				rb, ok := ch[seed]
				if !ok {
					continue
				}
				va, okA := ra.Result.Metrics[name]
				vb, okB := rb.Result.Metrics[name]
				if !okA || !okB {
					continue
				}
				a, b = append(a, va.Value), append(b, vb.Value)
				pairs++
				if better(def, vb.Value, va.Value) {
					won++
				}
			}
			if pairs == 0 {
				continue
			}
			v := verdict(def, a, b, won, pairs, k.trace)
			fmt.Printf("%-9s %-32s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %3d/%-2d  %s\n",
				k.workload, name, median(a), quantile(a, 0.25), quantile(a, 0.75),
				median(b), quantile(b, 0.25), quantile(b, 0.75), won, pairs, v)
		}
	}
	return nil
}

// better reports whether x is better than y for metric m.
func better(m metricSpec, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

func verdict(m metricSpec, a, b []float64, won, pairs int, perLayer bool) string {
	medA, medB := median(a), median(b)
	spreadA := quantile(a, 0.75) - quantile(a, 0.25)
	lost := 0
	for i := range a {
		if better(m, a[i], b[i]) {
			lost++
		}
	}
	switch {
	case pairs < minPairs:
		return "unresolved"
	case 10*won >= 9*pairs && better(m, medB, medA) && math.Abs(medB-medA) > spreadA:
		return "improved"
	case 10*lost >= 9*pairs && better(m, medA, medB) && math.Abs(medB-medA) > spreadA:
		return "worse"
	case perLayer:
		return "unresolved"
	case better(m, medA, medB) && math.Abs(medB-medA) > m.Bound*math.Abs(medA):
		return "worse"
	case spreadA > m.Bound*math.Abs(medA) && !allBetter(m, b, a):
		return "unresolved"
	default:
		return "no worse"
	}
}

// allBetter reports whether every value of xs beats every value of ys.
func allBetter(m metricSpec, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(m, x, y) {
				return false
			}
		}
	}
	return true
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// bySeed indexes one workload's runs of one mode by seed (a later run of
// a seed replaces an earlier one).
func bySeed(recs []record, workload string, trace bool) map[int64]record {
	out := map[int64]record{}
	for _, rec := range recs {
		if rec.Workload == workload && rec.Trace == trace {
			out[rec.Seed] = rec
		}
	}
	return out
}
