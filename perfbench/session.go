package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/wehe"
)

// The session workload: one client, closed loop. Back-to-back
// Localizer.Localize calls over NewSimSession, rotating the five Table-1
// ISP profiles at 20 s replays; each session has its own rngs derived
// from the workload seed, and T_diff comes from a synthetic WeHe history.

const sessionReplay = 20 * time.Second

type sessionEnv struct {
	seed     int64
	history  *wehe.History
	tdiff    []float64
	profiles []isp.Profile
}

// newSessionEnv builds the session inputs and runs one warm-up session.
func newSessionEnv(seed int64) (*sessionEnv, error) {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "history", 0)))
	e := &sessionEnv{
		seed:     seed,
		history:  wehe.SynthHistory(rng, wehe.SynthHistorySpec{Clients: 15, TestsPerClient: 9, Spread: 0.15}),
		profiles: isp.FiveISPs(),
	}
	e.tdiff = e.history.TDiff("", "netflix", "carrier-1")
	if len(e.tdiff) == 0 {
		return nil, fmt.Errorf("session setup: empty T_diff")
	}
	if _, err := e.op(-1, nil, nil); err != nil {
		return nil, fmt.Errorf("session warm-up: %w", err)
	}
	return e, nil
}

// sessionCapture keeps one session's detector inputs for the
// frozen-input kernel timings.
type sessionCapture struct {
	single [2]wehey.PathReplay // original, bit-inverted on p0
	in     core.DetectorInput
}

// tracedSession decorates a ReplaySession with a span per replay.
type tracedSession struct {
	inner  wehey.ReplaySession
	tr     *tracer
	parent int
	op     string

	replays int
	single  []wehey.PathReplay
	simOrig *[2]wehey.PathReplay
}

func (s *tracedSession) SingleReplay(original bool) (wehey.PathReplay, error) {
	id := s.tr.begin("wehey.replay", s.parent, s.op)
	pr, err := s.inner.SingleReplay(original)
	s.tr.end(id)
	s.replays++
	s.single = append(s.single, pr)
	return pr, err
}

func (s *tracedSession) SimultaneousReplay(original bool) ([2]wehey.PathReplay, error) {
	id := s.tr.begin("wehey.replay", s.parent, s.op)
	pr, err := s.inner.SimultaneousReplay(original)
	s.tr.end(id)
	s.replays++
	if original {
		s.simOrig = &pr
	}
	return pr, err
}

// sessionOp is one session's outcome.
type sessionOp struct {
	line    string // verdict tuple, compared op for op
	replays int
}

// op runs session i (i < 0: the warm-up) and, when capture is non-nil,
// stores its detector inputs there.
func (e *sessionEnv) op(i int, tr *tracer, capture *sessionCapture) (sessionOp, error) {
	p := e.profiles[(i+len(e.profiles))%len(e.profiles)]
	opID := strconv.Itoa(i)
	sess := &tracedSession{
		inner: wehey.NewSimSession(rand.New(rand.NewSource(deriveSeed(e.seed, "session", i))), p, sessionReplay),
		tr:    tr,
		op:    opID,
	}
	l := wehey.Localizer{Rand: rand.New(rand.NewSource(deriveSeed(e.seed, "detect", i))), History: e.history}
	id := tr.begin("wehey.localize", -1, opID)
	sess.parent = id
	v, err := l.Localize(sess, e.tdiff)
	tr.end(id)
	if err != nil {
		return sessionOp{line: fmt.Sprintf("%d error", i)}, err
	}
	if capture != nil && len(sess.single) == 2 {
		capture.single = [2]wehey.PathReplay{sess.single[0], sess.single[1]}
		capture.in = core.DetectorInput{X: v.X, Y: v.Y, TDiff: e.tdiff}
		if s := sess.simOrig; s != nil {
			capture.in.M1, capture.in.M2 = s[0].Measurements, s[1].Measurements
		}
	}
	line := fmt.Sprintf("%d %s wehe=%t confirmed=%t evidence=%q localized=%t xy=%016x",
		i, p.Name, v.WeHeDetected, v.Confirmed, v.Evidence.String(), v.LocalizedToISP,
		hashFloats(hashFloats(0, v.X...), v.Y...))
	return sessionOp{line: line, replays: sess.replays}, nil
}

func runSession(r *run) error {
	var env *sessionEnv
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		e, err := newSessionEnv(r.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	r.setE2E("setup_s", "session.setup_s", median(setups), "s")

	budget := r.seconds
	if r.traced {
		budget /= 2 // the other half replays the same sessions traced
	}
	var lat []float64
	var lines []string
	rt0 := readRuntime()
	t0 := time.Now()
	stop := deadline(budget)
	var failedAt []int
	for i := 0; time.Now().Before(stop); i++ {
		s := time.Now()
		op, err := env.op(i, nil, nil)
		lat = append(lat, time.Since(s).Seconds()*1e3)
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("session %d: %v", i, err)
			failedAt = append(failedAt, i)
		}
		lines = append(lines, op.line)
	}
	elapsed := time.Since(t0).Seconds()
	rd := rt0.to(readRuntime())
	n := len(lines)
	for _, i := range failedAt {
		lat[i] = missedMs // a failed session misses every latency limit
	}
	r.setE2E("latency_p50_ms", "session.p50_ms", quantile(lat, 0.5), "ms")
	r.name("session.p75_ms", quantile(lat, 0.75), "ms")
	r.name("session.p90_ms", quantile(lat, 0.9), "ms")
	r.setE2E("throughput_per_s", "session.per_s", float64(n)/elapsed, "1/s")
	r.name("session.count", float64(n), "count")

	if r.traced {
		if err := r.traceSessions(env, lines, elapsed, rd); err != nil {
			return err
		}
	}
	return r.checkOps(lines, 0, false)
}

// traceSessions replays the untraced pass's sessions with tracing on,
// checks that they agree op for op, and derives the per-layer metrics.
func (r *run) traceSessions(env *sessionEnv, untraced []string, untracedS float64, rd runtimeDelta) error {
	n := len(untraced)
	tr := newTracer()
	var caps []sessionCapture
	traced := make([]string, n)
	replays := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var c sessionCapture
		op, _ := env.op(i, tr, &c) // a failure shows as a differing op line
		traced[i] = op.line
		replays += op.replays
		if len(caps) < 32 && c.in.M1 != nil {
			caps = append(caps, c)
		}
	}
	tracedS := time.Since(t0).Seconds()
	r.compareOps("traced pass", untraced, traced, 0)

	r.setLayer("trace.overhead_share", (tracedS-untracedS)/untracedS, "ratio")
	r.setLayer("wehey.replay_ms", median(tr.durations("wehey.replay")), "ms")
	r.setLayer("wehey.replays_per_session", float64(replays)/float64(n), "count")
	r.setLayer("wehey.localize_self_ms", median(tr.selfTimes("wehey.localize")), "ms")
	r.setRuntimeLayers(rd, n)

	if len(caps) == 0 {
		r.fail("no session reached the common-bottleneck detector")
	} else {
		r.setLayer("wehe.detect_us", timeKernel(len(caps), func(i int) error {
			_, err := wehe.DetectDifferentiation(caps[i].single[0].Throughput, caps[i].single[1].Throughput, wehe.DetectionConfig{})
			return err
		}, r), "us")
		rng := rand.New(rand.NewSource(1))
		r.setLayer("core.tputcmp_us", timeKernel(len(caps), func(i int) error {
			_, err := core.ThroughputComparison(rng, caps[i].in.X, caps[i].in.Y, caps[i].in.TDiff, core.ThroughputCmpConfig{})
			return err
		}, r), "us")
		r.setLayer("core.losstrend_us", timeKernel(len(caps), func(i int) error {
			_, err := core.LossTrendCorrelation(caps[i].in.M1, caps[i].in.M2, core.LossTrendConfig{})
			return err
		}, r), "us")
		r.setLayer("core.detect_us", timeKernel(len(caps), func(i int) error {
			_, err := core.DetectCommonBottleneck(rng, caps[i].in, core.DetectorConfig{})
			return err
		}, r), "us")
	}
	return tr.write(r.tracePath())
}
