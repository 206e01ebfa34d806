package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/fleet"
	"github.com/nal-epfl/wehey/internal/service"
	"github.com/nal-epfl/wehey/internal/tomo"
)

// The campaign workload: the planted fleet campaign (12 ISPs, one
// throttled, one starved, 2048 sessions) served by service.Handler on a
// loopback listener over a two-worker scheduler with the sim backend and a
// durable journal in a temporary directory under the output directory.
// Traffic crosses the host's loopback interface, not a real link, and the
// journal fsyncs to the local disk. One service.Client, limited to two
// connections, drives it; a fleet.Follower on the same client watches.
//
// Set-up warms the shared SimCache with the campaign's distinct
// simulations, so netsim does no work in the timed region.
//
// Phase 1 is an open loop: Poisson arrivals from independent users at a
// fixed rate, submitted per tick with POST /jobs:batch, never retried;
// each job's latency runs from its due time to its FinishedAt. Phase 2
// plants the campaign all at once, `drains` times in a row under a new
// campaign name each time, and times each drain from its first submit
// until the follower's map is complete.

const (
	campaignWorkers = 2
	// campaignQueueLimit admits a whole campaign at once.
	campaignQueueLimit = 4096
	campaignBatch      = 256
	followerPoll       = 20 * time.Millisecond
	// phase1Rate is the open-loop arrival rate in jobs/s, about half the
	// phase-2 drain rate measured on a 2-vCPU VM when this benchmark was
	// written. A lower rate does not steady the latency: at 150 jobs/s
	// the median doubled, because the vCPUs idle between arrivals and the
	// host wakes them late. It is frozen: changing it changes the
	// workload.
	phase1Rate = 300.0
	// phase1Share is the share of the measured seconds given to phase 1;
	// the drains of phase 2 take the rest.
	phase1Share = 0.5
	// drains is the number of phase-2 drains; map_s is their median.
	drains = 5
)

type campaignEnv struct {
	seed             int64
	planted, starved int
	cache            *experiments.SimCache
	open             fleet.Campaign
	openSpecs        []service.Spec
	drain            [drains]fleet.Campaign
	drainSpecs       [drains][]service.Spec
	ident            []tomo.SegmentIdent
	expect           map[string]string        // verdict per simulation key
	warm             []experiments.SimSpec    // the distinct simulations
	frozen           []*experiments.SimResult // their results
	warmAllocB       float64                  // heap bytes allocated warming the cache
}

func simKey(seed int64, placement string) string {
	return placement + "/" + strconv.FormatInt(seed, 10)
}

func verdictLine(localized bool, evidence string, loss [2]float64) string {
	return fmt.Sprintf("localized=%t evidence=%q loss=%016x/%016x",
		localized, evidence, hashFloats(0, loss[0]), hashFloats(0, loss[1]))
}

// newCampaignEnv plants the campaigns and warms a fresh simulation cache
// with every distinct simulation they need.
func newCampaignEnv(seed int64, tr *tracer) (*campaignEnv, error) {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "campaign", 0)))
	e := &campaignEnv{seed: seed, cache: experiments.NewSimCache(), expect: map[string]string{}}
	e.planted = rng.Intn(12)
	e.starved = (e.planted + 1 + rng.Intn(11)) % 12
	spec := experiments.FleetCampaignSpec{
		ISPs: 12, Sessions: 2048,
		ThrottledISPs: []int{e.planted}, StarvedISPs: []int{e.starved},
		Seed: seed,
	}
	e.open = fleet.NewCampaign(fmt.Sprintf("open-%d", seed), spec)
	e.openSpecs = e.open.JobSpecs()
	for k := range e.drain {
		e.drain[k] = fleet.NewCampaign(fmt.Sprintf("drain-%d-%d", seed, k), spec)
		e.drainSpecs[k] = e.drain[k].JobSpecs()
	}
	e.ident = e.open.PathMatrix().Identify()

	seen := map[experiments.SimSpec]bool{}
	for _, s := range e.open.Plan() {
		if !seen[s.Spec] {
			seen[s.Spec] = true
			e.warm = append(e.warm, s.Spec)
		}
	}
	a0 := readRuntime()
	e.frozen = experiments.ForEach(len(e.warm), campaignWorkers, func(i int) *experiments.SimResult {
		id := tr.begin("simcache.miss", -1, strconv.Itoa(i))
		res := e.cache.Run(e.warm[i])
		tr.end(id)
		return &res
	})
	e.warmAllocB = a0.to(readRuntime()).allocBytes
	cfg := experiments.Config{Cache: e.cache}
	for _, s := range e.warm {
		v, err := cfg.Verdict(s)
		if err != nil {
			return nil, fmt.Errorf("campaign set-up: verdict for seed %d: %w", s.Seed, err)
		}
		placement := "noncommon"
		if s.Placement == experiments.LimiterCommon {
			placement = "common"
		}
		e.expect[simKey(s.Seed, placement)] = verdictLine(v.LocalizedToISP, v.Evidence, v.LossRate)
	}
	return e, nil
}

// expectLines lists the verdict of every distinct simulation, sorted by
// key: the campaign's pinned outputs.
func (e *campaignEnv) expectLines() []string {
	lines := make([]string, 0, len(e.expect))
	for k, v := range e.expect {
		lines = append(lines, k+" "+v)
	}
	sort.Strings(lines)
	return lines
}

// campaignServer is the service under test on a loopback listener.
type campaignServer struct {
	sched   *service.Scheduler
	srv     *http.Server
	served  chan error
	client  *service.Client
	tp      *http.Transport
	journal string
}

func startServer(cache *experiments.SimCache, dir string) (*campaignServer, error) {
	journal := filepath.Join(dir, "journal.wj")
	sched, err := service.NewScheduler(service.Options{
		Workers:     campaignWorkers,
		QueueLimit:  campaignQueueLimit,
		JournalPath: journal,
		Backends:    map[string]service.Backend{service.BackendSim: service.NewSimBackend(cache)},
	})
	if err != nil {
		return nil, err
	}
	sched.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, err
	}
	s := &campaignServer{
		sched:   sched,
		srv:     &http.Server{Handler: service.Handler(sched)},
		served:  make(chan error, 1),
		tp:      &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		journal: journal,
	}
	s.client = &service.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: s.tp}}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, waits for the server goroutine, and drains the
// scheduler, which closes the journal.
func (s *campaignServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tp.CloseIdleConnections()
	s.sched.Close()
	return err
}

// campaignPass is what one pass over both phases measured.
type campaignPass struct {
	verdictMs, lateMs, waitMs, execMs, submitMs []float64
	mapS                                        []float64 // per drain
	attempted, failed, rejected                 int64
	followed                                    [drains][]byte // the follower's maps
	score                                       [drains]fleet.Score
	lines                                       []string // drain verdicts, op for op
	metrics                                     service.Metrics
	pages, statusBatches                        int64
	hitRatio                                    float64
}

// pass runs phase 1 for p1 seconds and then the drains, on a fresh
// server, and checks the outputs.
func (e *campaignEnv) pass(r *run, tr *tracer, p1 float64) (*campaignPass, error) {
	dir, err := os.MkdirTemp(r.out, "campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(e.cache, dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	p := &campaignPass{}
	stats0 := e.cache.Stats()
	err = e.phase1(ctx, srv.client, tr, p1, p)
	for k := 0; k < drains && err == nil; k++ {
		err = e.phase2(ctx, srv.client, tr, k, p)
	}
	if err == nil {
		p.metrics, err = srv.client.Metrics(ctx)
	}
	stats1 := e.cache.Stats()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	hits, misses := stats1.Hits-stats0.Hits, stats1.Misses-stats0.Misses
	p.hitRatio = float64(hits) / float64(max(hits+misses, 1))
	if misses != 0 {
		r.fail("campaign: %d simulations ran in the timed region", misses)
	}
	return p, e.check(r, srv.journal, p)
}

// phase1 offers open-loop Poisson arrivals for p1 seconds, then waits for
// every admitted job to finish and collects the latencies.
func (e *campaignEnv) phase1(ctx context.Context, c *service.Client, tr *tracer, p1 float64, p *campaignPass) error {
	rng := rand.New(rand.NewSource(deriveSeed(e.seed, "arrivals", 0)))
	var due []time.Duration
	for t := rng.ExpFloat64() / phase1Rate; t < p1; t += rng.ExpFloat64() / phase1Rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	byID := make(map[string]time.Duration, len(due))
	start := time.Now()
	for next := 0; next < len(due); {
		if wait := due[next] - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		// Every job due by now goes in this tick's batch.
		now := time.Since(start)
		n := 0
		for next+n < len(due) && due[next+n] <= now {
			n++
		}
		specs := make([]service.Spec, n)
		for k := range specs {
			specs[k] = e.openSpecs[(next+k)%len(e.openSpecs)]
		}
		sent := time.Now()
		id := tr.begin("service.submit", -1, fmt.Sprintf("%s#%d", e.open.Name, next))
		jobs, err := c.SubmitBatch(ctx, specs)
		tr.end(id)
		p.attempted += int64(n)
		for k := 0; k < n; k++ {
			p.lateMs = append(p.lateMs, sent.Sub(start.Add(due[next+k])).Seconds()*1e3)
			if err == nil {
				byID[jobs[k].ID] = due[next+k]
			} else {
				// A rejected batch is never retried: its jobs fail and
				// miss every latency limit.
				p.rejected++
				p.verdictMs = append(p.verdictMs, missedMs)
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		next += n
	}
	p.submitMs = tr.durations("service.submit")
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		if m.Queued == 0 && m.Running == 0 && m.WaitRetry == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		due, ok := byID[j.ID]
		if !ok {
			continue
		}
		if j.State != service.StateDone {
			p.verdictMs = append(p.verdictMs, missedMs)
			continue
		}
		p.verdictMs = append(p.verdictMs, j.FinishedAt.Sub(start.Add(due)).Seconds()*1e3)
		p.waitMs = append(p.waitMs, j.StartedAt.Sub(j.SubmittedAt).Seconds()*1e3)
		p.execMs = append(p.execMs, j.FinishedAt.Sub(j.StartedAt).Seconds()*1e3)
	}
	return nil
}

// phase2 plants drain campaign k at once and follows it to a complete
// map.
func (e *campaignEnv) phase2(ctx context.Context, c *service.Client, tr *tracer, k int, p *campaignPass) error {
	f := &fleet.Follower{Client: c, Campaign: e.drain[k].Name, Poll: followerPoll}
	if _, err := f.Sync(ctx); err != nil { // move the cursor past earlier jobs
		return err
	}
	base := f.Stats()
	specs := e.drainSpecs[k]
	t0 := time.Now()
	for i := 0; i < len(specs); i += campaignBatch {
		batch := specs[i:min(i+campaignBatch, len(specs))]
		p.attempted += int64(len(batch))
		id := tr.begin("service.submit", -1, fmt.Sprintf("%s#%d", e.drain[k].Name, i))
		_, err := c.SubmitBatch(ctx, batch)
		tr.end(id)
		if err != nil {
			p.rejected += int64(len(batch))
			return fmt.Errorf("phase 2 submit: %w", err)
		}
	}
	// The follower starts once every batch is acknowledged. Listing while
	// a batch is being published can skip jobs: Scheduler.ListPage ranges
	// over a sync.Map, which is not a snapshot, so a page may hold a
	// job's successor but not the job, and the seq cursor then passes it
	// for good. Following during submission, 2 of about 40 drains never
	// completed.
	if err := follow(ctx, f, base, int64(len(specs)), tr); err != nil {
		return fmt.Errorf("phase 2 follow: %w", err)
	}
	id := tr.begin("fleet.snapshot", -1, e.drain[k].Name)
	m := f.Agg.Snapshot(e.ident)
	tr.end(id)
	p.mapS = append(p.mapS, time.Since(t0).Seconds())
	st := f.Stats()
	p.pages += st.Pages - base.Pages
	p.statusBatches += st.StatusBatches - base.StatusBatches
	b, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	p.followed[k] = b
	p.score[k] = e.drain[k].ScoreMap(m)
	return nil
}

// follow syncs until every job of the followed campaign is terminal, with
// a span per Sync.
func follow(ctx context.Context, f *fleet.Follower, base fleet.FollowerStats, total int64, tr *tracer) error {
	for {
		id := tr.begin("fleet.sync", -1, f.Campaign)
		pending, err := f.Sync(ctx)
		tr.end(id)
		if err != nil {
			return err
		}
		st := f.Stats()
		if pending == 0 && st.Credited+st.Skipped-base.Skipped >= total {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(followerPoll):
		}
	}
}

// check requires of every drain that the followed map ranks the planted
// ISP first, reports the starved ISP unidentifiable, and is byte-identical
// to the map rebuilt offline from the journal. It requires every
// journaled job to have finished with its expected verdict, and records
// the drains' verdicts as the pass's op lines.
func (e *campaignEnv) check(r *run, journal string, p *campaignPass) error {
	jobs, err := service.LoadJournalJobs(journal)
	if err != nil {
		return err
	}
	starved := fleet.ISPSegment(e.starved)
	for k := range e.drain {
		s := p.score[k]
		if s.TopISP != e.planted || !s.TopIsPlanted {
			r.fail("campaign drain %d: top-ranked ISP %d, planted %d", k, s.TopISP, e.planted)
		}
		found := false
		for _, u := range s.Unidentifiable {
			found = found || u == starved
		}
		if !found {
			r.fail("campaign drain %d: starved %s not reported unidentifiable", k, starved)
		}
		agg := fleet.NewAggregator()
		fleet.FromJobs(agg, e.drain[k].Name, jobs)
		offline, err := agg.Snapshot(e.ident).MarshalIndent()
		if err != nil {
			return err
		}
		if !bytes.Equal(offline, p.followed[k]) {
			r.fail("campaign drain %d: map rebuilt from the journal differs from the followed map", k)
		}
	}

	drainIdx := map[string]int{}
	for k, c := range e.drain {
		drainIdx[c.Name] = k
	}
	n := len(e.drainSpecs[0])
	p.lines = make([]string, drains*n)
	for _, j := range jobs {
		if j.State != service.StateDone || j.Result == nil {
			p.failed++
			r.fail("campaign: job %s ended %s: %s", j.ID, j.State, j.Error)
			continue
		}
		got := verdictLine(j.Result.LocalizedToISP, j.Result.Evidence, j.Result.LossRates)
		if want := e.expect[simKey(j.Spec.Seed, j.Spec.Sim.Placement)]; got != want {
			p.failed++
			r.fail("campaign: job %s verdict %s, want %s", j.ID, got, want)
		}
		if k, ok := drainIdx[j.Spec.Fleet.Campaign]; ok {
			s := j.Spec.Fleet.Session
			p.lines[k*n+s] = fmt.Sprintf("%d/%d isp=%d %s", k, s, j.Spec.Fleet.ISP, got)
		}
	}
	return nil
}

func runCampaign(r *run) error {
	var env *campaignEnv
	var setups []float64
	var setupTr *tracer
	if r.traced {
		setupTr = newTracer()
	}
	for k := 0; k < campaignSetupRepeats; k++ {
		t0 := time.Now()
		e, err := newCampaignEnv(r.seed, setupTr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	r.setE2E("setup_s", "campaign.setup_s", median(setups), "s")

	budget := r.seconds
	if r.traced {
		budget /= 2 // the other half repeats the pass traced
	}
	rt0 := readRuntime()
	p, err := env.pass(r, nil, phase1Share*budget)
	if err != nil {
		return err
	}
	rd := rt0.to(readRuntime())
	r.attempted += p.attempted
	r.failed += min(p.failed+p.rejected, p.attempted)
	if p.rejected > 0 {
		r.fail("campaign: %d jobs rejected", p.rejected)
	}
	mapS := median(p.mapS)
	drain := float64(len(env.drainSpecs[0])) / mapS
	r.setE2E("latency_p50_ms", "campaign.verdict_p50_ms", quantile(p.verdictMs, 0.5), "ms")
	r.name("campaign.verdict_p75_ms", quantile(p.verdictMs, 0.75), "ms")
	r.name("campaign.verdict_p90_ms", quantile(p.verdictMs, 0.9), "ms")
	r.setE2E("throughput_per_s", "campaign.drain_per_s", drain, "1/s")
	r.name("campaign.verdict_p99_ms", quantile(p.verdictMs, 0.99), "ms")
	r.name("campaign.phase1_jobs", float64(len(p.verdictMs)), "count")
	r.name("campaign.map_s", mapS, "s")

	if r.traced {
		if err := r.traceCampaign(env, p, setupTr, rd); err != nil {
			return err
		}
	}
	return r.checkOps(env.expectLines(), 0, false)
}

// traceCampaign repeats the pass traced, checks the drains' verdicts and
// maps agree with the untraced pass, and derives the per-layer metrics.
func (r *run) traceCampaign(env *campaignEnv, untraced *campaignPass, setupTr *tracer, rd runtimeDelta) error {
	tr := newTracer()
	p, err := env.pass(r, tr, phase1Share*r.seconds/2)
	if err != nil {
		return err
	}
	r.compareOps("traced pass", untraced.lines, p.lines, 0)
	for k := range p.followed {
		if !bytes.Equal(untraced.followed[k], p.followed[k]) {
			r.fail("campaign drain %d: traced and untraced passes followed different maps", k)
		}
	}

	r.setLayer("trace.overhead_share", (median(p.mapS)-median(untraced.mapS))/median(untraced.mapS), "ratio")
	r.setLayer("service.submit_ms_p50", quantile(p.submitMs, 0.5), "ms")
	r.setLayer("service.submit_ms_p99", quantile(p.submitMs, 0.99), "ms")
	r.setLayer("service.queue_wait_ms_p50", quantile(p.waitMs, 0.5), "ms")
	r.setLayer("service.queue_wait_ms_p99", quantile(p.waitMs, 0.99), "ms")
	r.setLayer("service.exec_ms_p50", quantile(p.execMs, 0.5), "ms")
	r.setLayer("service.exec_ms_p99", quantile(p.execMs, 0.99), "ms")
	r.setLayer("service.records_per_commit",
		float64(p.metrics.JournalBatchRecords)/float64(max(p.metrics.JournalBatchCommits, 1)), "count")
	r.setLayer("service.rejected", float64(p.metrics.Rejected), "count")
	r.setLayer("fleet.sync_ms_p50", median(tr.durations("fleet.sync")), "ms")
	r.setLayer("fleet.pages", float64(p.pages)/drains, "count")
	r.setLayer("fleet.status_batches", float64(p.statusBatches)/drains, "count")
	r.setLayer("fleet.snapshot_ms", median(tr.durations("fleet.snapshot")), "ms")
	r.setLayer("loadgen.late_p99_ms", quantile(p.lateMs, 0.99), "ms")
	r.setLayer("simcache.hit_ratio", p.hitRatio, "ratio")
	r.setRuntimeLayers(rd, int(untraced.attempted))

	// Netsim runs only in set-up here: every miss is one RunSim.
	var events int64
	for _, res := range env.frozen {
		events += res.Events
	}
	miss := setupTr.durations("simcache.miss")
	r.setLayer("simcache.miss_ms", median(miss), "ms")
	r.setLayer("netsim.ns_per_event", sum(miss)*1e6/float64(events*int64(len(miss)/len(env.frozen))), "ns")
	r.setLayer("netsim.events_per_sim", float64(events)/float64(len(env.frozen)), "count")
	r.setLayer("netsim.alloc_b_per_event", env.warmAllocB/float64(events), "B")

	r.setLayer("simcache.hit_us", timeKernel(len(env.warm), func(i int) error {
		env.cache.Run(env.warm[i])
		return nil
	}, r), "us")
	rng := rand.New(rand.NewSource(1))
	r.setLayer("core.detect_us", timeKernel(len(env.frozen), func(i int) error {
		_, err := core.DetectCommonBottleneck(rng, core.DetectorInput{M1: &env.frozen[i].M1, M2: &env.frozen[i].M2}, core.DetectorConfig{})
		return err
	}, r), "us")
	r.setLayer("core.losstrend_us", timeKernel(len(env.frozen), func(i int) error {
		_, err := core.LossTrendCorrelation(&env.frozen[i].M1, &env.frozen[i].M2, core.LossTrendConfig{})
		return err
	}, r), "us")
	if err := setupTr.write(filepath.Join(r.out, fmt.Sprintf("trace-%s-%d-setup.jsonl", r.workload, r.seed))); err != nil {
		return err
	}
	return tr.write(r.tracePath())
}
