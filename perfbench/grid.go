package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/trace"
)

// The grid workload: a batch over a fixed Table-2 spec set, spread with
// experiments.ForEach across two workers. Each item is experiments.RunSim
// followed by core.DetectCommonBottleneck seeded with
// experiments.DetectSeed — Config.Verdict without a cache. Passes over the
// spec set repeat until the measured time is used up.

const gridWorkers = 2

var (
	gridApps    = []string{experiments.TCPBulkApp, "skype", "zoom"}
	gridFactors = []float64{1.3, 1.5, 2.5}
)

// gridSeeds is the number of simulation seeds per Table-2 point.
const gridSeeds = 2

// gridSpecs is the fixed spec set: both limiter placements × three apps
// × three input factors × gridSeeds simulation seeds, default 45 s
// replays and packet-mode background. Like the paper's grid it does not
// depend on the workload seed, which only orders the items (gridOrders).
func gridSpecs() []experiments.SimSpec {
	var specs []experiments.SimSpec
	for _, pl := range []experiments.LimiterPlacement{experiments.LimiterCommon, experiments.LimiterNonCommon} {
		for _, app := range gridApps {
			for _, f := range gridFactors {
				for k := 1; k <= gridSeeds; k++ {
					specs = append(specs, experiments.SimSpec{App: app, InputFactor: f, Placement: pl, Seed: int64(k)})
				}
			}
		}
	}
	return specs
}

// gridOrders returns the order in which pass p hands specs to the
// workers: a fresh permutation per pass, drawn from the workload seed, so
// which simulations share the two cores averages out over the passes.
func gridOrders(seed int64, n int) func(p int) []int {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "grid", 0)))
	var orders [][]int
	return func(p int) []int {
		for len(orders) <= p {
			orders = append(orders, rng.Perm(n))
		}
		return orders[p]
	}
}

// gridItem is one spec's outcome.
type gridItem struct {
	line   string
	events int64
	ms     float64
	res    experiments.SimResult
}

// runItem simulates and classifies spec i, recording spans when tr is
// non-nil.
func runItem(spec experiments.SimSpec, i int, tr *tracer) (gridItem, error) {
	op := strconv.Itoa(i)
	t0 := time.Now()
	root := tr.begin("grid.item", -1, op)
	id := tr.begin("experiments.runsim", root, op)
	res := experiments.RunSim(spec)
	tr.end(id)
	id = tr.begin("core.detect", root, op)
	out, err := core.DetectCommonBottleneck(rand.New(rand.NewSource(experiments.DetectSeed(spec.Seed))),
		core.DetectorInput{M1: &res.M1, M2: &res.M2}, core.DetectorConfig{})
	tr.end(id)
	tr.end(root)
	it := gridItem{events: res.Events, ms: time.Since(t0).Seconds() * 1e3, res: res}
	if err != nil {
		it.line = fmt.Sprintf("%d error", i)
		return it, err
	}
	it.line = fmt.Sprintf("%d %s placement=%d factor=%g events=%d loss=%016x/%016x evidence=%q localized=%t",
		i, spec.App, spec.Placement, spec.InputFactor, res.Events,
		hashFloats(0, res.LossRate[0]), hashFloats(0, res.LossRate[1]), out.Evidence.String(), out.Evidence.Found())
	return it, nil
}

// gridPass runs every spec once on the worker pool, in the given order,
// and returns the outcomes indexed by spec.
func gridPass(specs []experiments.SimSpec, order []int, tr *tracer) ([]gridItem, []error) {
	items := make([]gridItem, len(specs))
	errs := make([]error, len(specs))
	experiments.ForEach(len(order), gridWorkers, func(k int) struct{} {
		i := order[k]
		items[i], errs[i] = runItem(specs[i], i, tr)
		return struct{}{}
	})
	return items, errs
}

func runGrid(r *run) error {
	var specs []experiments.SimSpec
	var order func(int) []int
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		specs = gridSpecs()
		order = gridOrders(r.seed, len(specs))
		// Warm-up: one simulation, so the engine's pools exist before timing.
		if _, err := runItem(specs[0], 0, nil); err != nil {
			return fmt.Errorf("grid warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setE2E("setup_s", "grid.setup_s", median(setups), "s")

	budget := r.seconds
	if r.traced {
		budget /= 2
	}
	var lat []float64
	var lines []string
	var passes int
	rt0 := readRuntime()
	t0 := time.Now()
	stop := deadline(budget)
	for passes == 0 || time.Now().Before(stop) {
		items, errs := gridPass(specs, order(passes), nil)
		for i, it := range items {
			r.attempted++
			if errs[i] != nil {
				r.failed++
				r.fail("grid spec %d: %v", i, errs[i])
			}
			lat = append(lat, it.ms)
			lines = append(lines, it.line)
		}
		passes++
	}
	elapsed := time.Since(t0).Seconds()
	rd := rt0.to(readRuntime())
	n := len(lines)
	r.setE2E("latency_p50_ms", "grid.item_p50_ms", quantile(lat, 0.5), "ms")
	r.name("grid.item_p75_ms", quantile(lat, 0.75), "ms")
	r.name("grid.item_p90_ms", quantile(lat, 0.9), "ms")
	r.setE2E("throughput_per_s", "grid.sims_per_s", float64(n)/elapsed, "1/s")
	r.name("grid.passes", float64(passes), "count")

	if r.traced {
		if err := r.traceGrid(specs, order, passes, lines, elapsed, rd); err != nil {
			return err
		}
	}
	// The spec set is the same at every seed, so every seed is checked
	// against the pinned outputs.
	return r.checkOps(lines, len(specs), true)
}

// traceGrid reruns the untraced pass count with tracing on, checks the
// outputs agree op for op, and derives the per-layer metrics.
func (r *run) traceGrid(specs []experiments.SimSpec, order func(int) []int, passes int, untraced []string, untracedS float64, rd runtimeDelta) error {
	tr := newTracer()
	var traced []string
	var events int64
	var frozen []*experiments.SimResult
	a0 := readRuntime()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		items, _ := gridPass(specs, order(p), tr)
		for i, it := range items {
			traced = append(traced, it.line)
			events += it.events
			if p == 0 && i%3 == 0 {
				frozen = append(frozen, &items[i].res)
			}
		}
	}
	wall := time.Since(t0).Seconds()
	allocs := a0.to(readRuntime()).allocBytes
	r.compareOps("traced pass", untraced, traced, 0)

	sims := float64(len(traced))
	runsim := tr.durations("experiments.runsim")
	r.setLayer("trace.overhead_share", (wall-untracedS)/untracedS, "ratio")
	r.setLayer("netsim.ns_per_event", sum(runsim)*1e6/float64(events), "ns")
	r.setLayer("netsim.events_per_sim", float64(events)/sims, "count")
	// Heap allocation is process-wide; with two workers it cannot be split
	// per span, so the pass's total is divided by its events (the detector
	// allocates under 1 %).
	r.setLayer("netsim.alloc_b_per_event", allocs/float64(events), "B")
	r.setLayer("experiments.runsim_ms_p50", median(runsim), "ms")
	r.setLayer("experiments.pool_busy_share", sum(tr.durations("grid.item"))/1e3/(gridWorkers*wall), "ratio")
	r.setLayer("core.detect_us", median(tr.durations("core.detect"))*1e3, "us")
	r.setRuntimeLayers(rd, len(untraced))

	r.setLayer("trace.gen_ms", timeTraceGen(specs, r), "ms")
	r.setLayer("core.losstrend_us", timeKernel(len(frozen), func(i int) error {
		_, err := core.LossTrendCorrelation(&frozen[i].M1, &frozen[i].M2, core.LossTrendConfig{})
		return err
	}, r), "us")
	return tr.write(r.tracePath())
}

// timeTraceGen times, per UDP spec, the trace generation RunSim does for
// its two paths: Generate, ExtendTo and PoissonRetime. It returns the
// median per spec in ms.
func timeTraceGen(specs []experiments.SimSpec, r *run) float64 {
	var udp []experiments.SimSpec
	for _, s := range specs {
		if s.App != experiments.TCPBulkApp {
			udp = append(udp, s)
		}
	}
	var per []float64
	for _, s := range udp {
		t0 := time.Now()
		for i := 0; i < 2; i++ {
			tr, err := trace.Generate(s.App, rand.New(rand.NewSource(s.Seed+int64(i))), 12*time.Second)
			if err != nil {
				r.fail("trace.Generate %s: %v", s.App, err)
				return 0
			}
			tr = trace.ExtendTo(tr, 45*time.Second)
			_ = trace.PoissonRetime(rand.New(rand.NewSource(s.Seed+100+int64(i))), tr)
		}
		per = append(per, time.Since(t0).Seconds()*1e3)
	}
	return median(per)
}
