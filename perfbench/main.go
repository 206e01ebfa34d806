// Command perfbench is the repository benchmark. It runs one workload
// from inputs generated from a seed, checks the outputs, and prints the
// metrics named in BENCHMARK.json as the last line of standard output:
//
//	perfbench --workload session --seed 3 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced;
// with --trace 1 it runs the same operations untraced and then traced,
// and prints the per-layer metrics and the tracing overhead. Spans are
// recorded around the benchmark's own calls into each layer and written
// to the output directory when the run ends.
//
//	perfbench compare old.jsonl new.jsonl
//
// compares two result sets recorded with --record (see compare.go).
//
// Run it from the repository root (perfbench/run.sh builds and runs it).
// WORKLOADS.md describes the workloads and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose per-op outputs are pinned in digest/.
const defaultSeed = 1

// benchFile and digestDir are relative to the repository root, where the
// benchmark runs.
const (
	benchFile = "BENCHMARK.json"
	digestDir = "perfbench/digest"
)

// setup_s is the median of several set-ups in one run. The session and
// grid set-ups last about 0.1 s, so they repeat often; the campaign's
// warms 64 simulations, several seconds, so it repeats less.
const (
	setupRepeats         = 9
	campaignSetupRepeats = 3
)

// missedMs is the latency given to an op that failed or was rejected: it
// misses every latency limit.
const missedMs = 1e9

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is the part of BENCHMARK.json the program reads: the metric names
// and units it must print.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// run carries one workload execution: its inputs, the metrics it
// produces, and the output checks that failed.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string // output directory for traces and op logs
	digest   bool   // rewrite the default-seed digest instead of checking it

	attempted, failed int64
	e2e, layers       map[string]metric
	named             []string // issue-named metrics, printed for people
	checks            []string // failed output checks
}

// setE2E sets an end-to-end metric and prints it under the
// workload-qualified name the metric has for people.
func (r *run) setE2E(name, named string, v float64, unit string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	r.name(named, v, unit)
}

func (r *run) setLayer(name string, v float64, unit string) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// name records a metric under its workload-qualified name for the
// human-readable report.
func (r *run) name(name string, v float64, unit string) {
	r.named = append(r.named, fmt.Sprintf("%-34s %14.6g %s", name, v, unit))
}

func (r *run) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) error{
	"session":  runSession,
	"grid":     runGrid,
	"campaign": runCampaign,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func benchMain() error {
	var (
		workload = flag.String("workload", "", "workload to run: session, grid or campaign")
		seed     = flag.Int64("seed", defaultSeed, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build/perfbench", "directory for traces and op logs")
		record   = flag.String("record", "", "append the result, with workload and seed, to this JSON-lines file")
		digest   = flag.Bool("write-digest", false, "rewrite digest/<workload>.txt from this run (default seed only)")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *traceArg != 0 && *traceArg != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceArg)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *digest && *seed != defaultSeed {
		return fmt.Errorf("--write-digest needs the default seed %d", defaultSeed)
	}
	sp, err := loadSpec(benchFile)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: float64(*seconds), traced: *traceArg == 1,
		out: *out, digest: *digest,
		e2e: map[string]metric{}, layers: map[string]metric{},
	}
	if err := fn(r); err != nil {
		return err
	}
	r.setE2E("max_rss_mb", r.workload+".max_rss_mb", maxRSSMB(), "MB")

	res := result{
		Correct:   len(r.checks) == 0,
		Attempted: r.attempted,
		Failed:    min(r.failed, r.attempted), // an op can fail more than one check
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		r.fail("no operation attempted")
		res.Correct = false
		res.Attempted = 1
		res.Failed = 1
	}
	r.name(r.workload+".fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	want, have := sp.EndToEnd, r.e2e
	if r.traced {
		want, have = sp.PerLayer, r.layers
	}
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok && !r.traced {
			return fmt.Errorf("workload %s did not measure %s", r.workload, m.Name)
		}
		if !ok {
			// The layer is not on this workload's path: it did no work.
			v = metric{Unit: m.Unit}
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("metric %s: measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}

	fmt.Printf("workload %s seed %d seconds %g traced %v\n", r.workload, r.seed, r.seconds, r.traced)
	for _, l := range r.named {
		fmt.Println(l)
	}
	if r.traced {
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
	for _, c := range r.checks {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if *record != "" {
		if err := appendRecord(*record, r, res); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// appendRecord appends one result, tagged with its workload, seed and
// mode, to a JSON-lines result set for compare mode.
func appendRecord(path string, r *run, res result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(record{Workload: r.workload, Seed: r.seed, Trace: r.traced, Result: res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkOps checks a run's per-op output lines. At the default seed (at
// every seed when anySeed is set) they must match the pinned digest line
// for line; --write-digest rewrites it instead. At any seed they must
// match the op log that a run of the other mode (traced or untraced) left
// in the output directory. period > 0 compares op i against pinned line
// i mod period.
func (r *run) checkOps(ops []string, period int, anySeed bool) error {
	if r.seed == defaultSeed || (anySeed && !r.digest) {
		path := filepath.Join(digestDir, r.workload+".txt")
		if r.digest {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			n := len(ops)
			if period > 0 {
				n = min(n, period)
			}
			return os.WriteFile(path, []byte(strings.Join(ops[:n], "\n")+"\n"), 0o644)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("read digest: %w", err)
		}
		pinned := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
		r.compareOps("digest "+path, pinned, ops, period)
	}
	mode := map[bool]string{false: "untraced", true: "traced"}
	mine := filepath.Join(r.out, fmt.Sprintf("ops-%s-%d-%s.txt", r.workload, r.seed, mode[r.traced]))
	other := filepath.Join(r.out, fmt.Sprintf("ops-%s-%d-%s.txt", r.workload, r.seed, mode[!r.traced]))
	if b, err := os.ReadFile(other); err == nil {
		r.compareOps("op log "+other, strings.Split(strings.TrimRight(string(b), "\n"), "\n"), ops, 0)
	}
	return os.WriteFile(mine, []byte(strings.Join(ops, "\n")+"\n"), 0o644)
}

// compareOps counts an op as failed when its output differs from the
// reference line; ops beyond the reference are not compared.
func (r *run) compareOps(what string, ref, ops []string, period int) {
	bad := 0
	for i, op := range ops {
		j := i
		if period > 0 {
			j = i % period
		}
		if j >= len(ref) || ref[j] == op {
			continue
		}
		if bad == 0 {
			r.fail("%s: op %d is %q, want %q", what, i, op, ref[j])
		}
		bad++
	}
	if bad > 0 {
		r.failed += int64(bad)
		r.fail("%s: %d of %d ops differ", what, bad, len(ops))
	}
}

// deadline is now plus the given seconds.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// tracePath is where the run's spans are written.
func (r *run) tracePath() string {
	return filepath.Join(r.out, fmt.Sprintf("trace-%s-%d.jsonl", r.workload, r.seed))
}
