package validate

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/service"
	"github.com/nal-epfl/wehey/internal/stats"
)

// MG1Point is one service-model validation point: a Poisson job stream
// offered to a real internal/service.Scheduler on a manual clock, compared
// against twin.MGc at the same parameters. Like TBFPoint, its Name and Tol
// are not part of its cache key.
type MG1Point struct {
	Name        string `cache:"-"`
	Servers     int
	Lambda      float64 // jobs/s
	MeanService float64 // seconds
	// SCV selects the service-time law the driver can actually draw:
	// 1 = exponential, 0 = deterministic.
	SCV  float64
	Jobs int
	Seed int64
	Tol  MG1Tolerance `cache:"-"`
}

// MG1Tolerance is the relative acceptance band on each sojourn statistic.
type MG1Tolerance struct {
	MeanRel, P50Rel, P95Rel float64
}

// MG1Summary is the measured ground truth for one MG1Point.
type MG1Summary struct {
	Jobs int
	// ExactSchedule reports that every scheduler sojourn matched the
	// FIFO c-server reference recurrence to the nanosecond — the
	// scheduler's discipline, not just its averages, is being validated.
	ExactSchedule bool
	// MeanSojourn, P50, P95 are empirical sojourn statistics in seconds
	// (submit → finish on the scheduler's own clock).
	MeanSojourn, P50, P95 float64
}

// delayBackend is a service backend whose "work" is a pure manual-clock
// wait: the job's service time rides in Spec.Seed as nanoseconds. The
// armed counter increments only after the timer is registered with the
// clock, which is what lets the driver advance time without racing a
// not-yet-armed timer past its deadline.
type delayBackend struct {
	clk   *clock.Manual
	armed *atomic.Int64
}

func (b *delayBackend) Run(ctx context.Context, spec service.Spec) (*service.Result, error) {
	timer := b.clk.NewTimer(time.Duration(spec.Seed))
	b.armed.Add(1)
	select {
	case <-timer.C():
		return &service.Result{Backend: "delay", Detail: "delay elapsed"}, nil
	case <-ctx.Done():
		timer.Stop()
		return nil, ctx.Err()
	}
}

// RunMG1Point replays one Poisson job stream through a real Scheduler on a
// manual clock and summarizes the sojourn times. The driver is an
// event-stepped lockstep:
//
//  1. Draw arrivals and service times from the point's seed and compute
//     the FIFO c-server reference schedule (start/finish per job) by the
//     standard earliest-free-server recurrence.
//  2. Walk the merged arrival/finish timeline. At each instant, submit
//     the due arrivals, then wait until the scheduler has started
//     (armed timers) and finished exactly as many jobs as the reference
//     says are due — only then advance the clock to the next instant.
//
// Step 2's waits make the concurrent scheduler deterministic from the
// outside: no timer is ever asked to fire before it is armed, and no
// timestamp is taken after the clock has moved past its true instant.
func RunMG1Point(pt MG1Point) MG1Summary {
	if pt.Servers < 1 || pt.Jobs < 1 || pt.Lambda <= 0 || pt.MeanService <= 0 {
		return MG1Summary{}
	}
	rng := rand.New(rand.NewSource(pt.Seed))
	arr := make([]time.Duration, pt.Jobs)
	svc := make([]time.Duration, pt.Jobs)
	var t time.Duration
	for i := range arr {
		t += secsToDur(rng.ExpFloat64() / pt.Lambda)
		arr[i] = t
		s := pt.MeanService
		if pt.SCV > 0 {
			s = rng.ExpFloat64() * pt.MeanService
		}
		d := secsToDur(s)
		if d < time.Nanosecond {
			d = time.Nanosecond
		}
		svc[i] = d
	}

	// Reference schedule: jobs start in arrival order on the earliest-free
	// server.
	free := make([]time.Duration, pt.Servers)
	finish := make([]time.Duration, pt.Jobs)
	starts := make([]time.Duration, pt.Jobs)
	for k := range arr {
		mi := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[mi] {
				mi = i
			}
		}
		st := arr[k]
		if free[mi] > st {
			st = free[mi]
		}
		starts[k] = st
		finish[k] = st + svc[k]
		free[mi] = finish[k]
	}

	// Merged timeline and its cumulative expectations.
	timeline := append(append([]time.Duration(nil), arr...), finish...)
	sort.Slice(timeline, func(i, j int) bool { return timeline[i] < timeline[j] })
	sortedStarts := append([]time.Duration(nil), starts...)
	sort.Slice(sortedStarts, func(i, j int) bool { return sortedStarts[i] < sortedStarts[j] })
	sortedFinish := append([]time.Duration(nil), finish...)
	sort.Slice(sortedFinish, func(i, j int) bool { return sortedFinish[i] < sortedFinish[j] })

	var armed atomic.Int64
	clk := clock.NewManual(time.Unix(0, 0))
	sched, err := service.NewScheduler(service.Options{
		Workers:         pt.Servers,
		QueueLimit:      pt.Jobs + 1,
		DefaultDeadline: 1 << 56, // ~2 years of manual time: never reached
		Clock:           clk,
		Backends:        map[string]service.Backend{"delay": &delayBackend{clk: clk, armed: &armed}},
	})
	if err != nil {
		panic(fmt.Sprintf("twin validate: scheduler: %v", err))
	}
	sched.Start()
	defer sched.Close()

	var cur time.Duration
	ai := 0
	for _, et := range timeline {
		if et > cur {
			clk.Advance(et - cur)
			cur = et
		}
		for ai < pt.Jobs && arr[ai] <= cur {
			if _, err := sched.Submit(service.Spec{Backend: "delay", Seed: int64(svc[ai])}); err != nil {
				panic(fmt.Sprintf("twin validate: submit: %v", err))
			}
			ai++
		}
		waitCounters(&armed, countLE(sortedStarts, cur), sched, countLE(sortedFinish, cur))
	}

	jobs := sched.List()
	sojourns := make([]float64, 0, len(jobs))
	exact := len(jobs) == pt.Jobs
	for i, j := range jobs {
		s := j.FinishedAt.Sub(j.SubmittedAt)
		if i < pt.Jobs && s != finish[i]-arr[i] {
			exact = false
		}
		sojourns = append(sojourns, s.Seconds())
	}
	return MG1Summary{
		Jobs:          len(jobs),
		ExactSchedule: exact,
		MeanSojourn:   stats.Mean(sojourns),
		P50:           stats.Quantile(sojourns, 0.50),
		P95:           stats.Quantile(sojourns, 0.95),
	}
}

// waitCounters blocks until the scheduler has armed wantStarts backend
// timers and completed wantDone jobs. The bound is generous — the
// scheduler only has microseconds of real work per event — and hitting it
// means the lockstep protocol itself is broken, which no summary value
// could report faithfully.
func waitCounters(armed *atomic.Int64, wantStarts int, sched *service.Scheduler, wantDone int) {
	for spin := 0; ; spin++ {
		if armed.Load() >= int64(wantStarts) && sched.Metrics().Done >= int64(wantDone) {
			return
		}
		if spin > 2_000_000 {
			panic("twin validate: scheduler stalled against the reference schedule")
		}
		// A short Gosched burst catches same-instant handoffs; after that,
		// sleep — busy-spinning starves the very goroutines being waited
		// on when several points run concurrently.
		if spin < 32 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// countLE returns how many elements of the sorted slice are ≤ t.
func countLE(sorted []time.Duration, t time.Duration) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > t })
}

// secsToDur converts float64 seconds to a Duration.
func secsToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
