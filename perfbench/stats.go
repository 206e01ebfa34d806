package main

import (
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// hashFloats folds the exact bits of every value into h, so two op
// outputs hash equal only when they are bit-identical.
func hashFloats(h uint64, xs ...float64) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(h >> (8 * i))
	}
	f.Write(b[:])
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		f.Write(b[:])
	}
	return f.Sum64()
}

// deriveSeed gives op i of a workload its own seed, a pure function of
// the workload seed.
func deriveSeed(seed int64, tag string, i int) int64 {
	f := fnv.New64a()
	f.Write([]byte(tag))
	return int64(hashFloats(f.Sum64(), float64(seed), float64(i)) >> 1)
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPUShare                         float64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		allocObjects: float64(b.allocObjects - a.allocObjects),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeKernel calls fn on each frozen input in turn, for at least
// kernelTime and at least once per input, and returns the median time
// per call in µs. An error from fn fails the run's output check.
func timeKernel(n int, fn func(i int) error, r *run) float64 {
	var per []float64
	start := time.Now()
	for time.Since(start) < kernelTime {
		for i := 0; i < n; i++ {
			t := time.Now()
			err := fn(i)
			per = append(per, float64(time.Since(t).Nanoseconds())/1e3)
			if err != nil {
				r.fail("kernel on frozen input %d: %v", i, err)
				return median(per)
			}
		}
	}
	return median(per)
}

// kernelTime is how long each frozen-input kernel is timed.
const kernelTime = 300 * time.Millisecond

// setRuntimeLayers reports the runtime counters of a pass of ops ops.
func (r *run) setRuntimeLayers(rd runtimeDelta, ops int) {
	ops = max(ops, 1)
	r.setLayer("runtime.gc_cpu_share", rd.gcCPUShare, "ratio")
	r.setLayer("runtime.alloc_mb_per_op", rd.allocBytes/float64(ops)/(1<<20), "MB")
	r.setLayer("runtime.alloc_objects_per_op", rd.allocObjects/float64(ops), "count")
	r.setLayer("runtime.gc_cycles", rd.gcCycles, "count")
}
