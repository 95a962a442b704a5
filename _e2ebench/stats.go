package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// geomean returns the geometric mean of positive values (0 if empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean (0 if empty).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// peakRSSMB returns the process's peak resident set (getrusage maxrss,
// which Linux reports in KiB: the same figure as VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// subWindows is how many equal slices a measured window is cut into:
// the reported p50 and throughput are medians over the slices, so a
// transient stall of a shared machine moves one slice, not the figure.
const subWindows = 10

// timedOp is one completed operation: when it ended (since the window
// started) and how long it took.
type timedOp struct {
	EndNS int64
	LatMS float64
}

// tailSamples is the fewest samples a slice needs for its p99 to have
// ten samples beyond it.
const tailSamples = 1000

// windowStats returns medians over equal slices of the window: of the
// per-slice p50 latency and completion rate over subWindows slices, and
// of the per-slice p99 over as many slices (at most subWindows) as leave
// each at least tailSamples operations.
func windowStats(ops []timedOp, elapsed time.Duration) (p50, p99, perSec float64) {
	p50s, rates := sliceStats(ops, elapsed, subWindows, 0.5)
	p99s, _ := sliceStats(ops, elapsed, min(max(len(ops)/tailSamples, 1), subWindows), 0.99)
	return median(p50s), median(p99s), median(rates)
}

// sliceStats cuts the window into n equal slices by completion time and
// returns each non-empty slice's q-quantile latency and every slice's
// completion rate.
func sliceStats(ops []timedOp, elapsed time.Duration, n int, q float64) (quantiles, rates []float64) {
	slice := elapsed / time.Duration(n)
	if slice <= 0 {
		return nil, nil
	}
	buckets := make([][]float64, n)
	for _, op := range ops {
		b := min(int(op.EndNS/slice.Nanoseconds()), n-1)
		buckets[b] = append(buckets[b], op.LatMS)
	}
	for _, b := range buckets {
		rates = append(rates, float64(len(b))/slice.Seconds())
		if len(b) > 0 {
			quantiles = append(quantiles, percentile(b, q))
		}
	}
	return quantiles, rates
}

// setupMedian runs build n times, tears down every instance but the
// last, and returns the last instance with the median wall time of the n
// set-ups in seconds. Repeating the set-up is what makes setup_s steady
// enough to gate on.
func setupMedian[T any](n int, build func() (T, func(), error)) (T, func(), float64, error) {
	var inst T
	var teardown func()
	var secs []float64
	for i := 0; i < n; i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		start := time.Now()
		v, td, err := build()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			var zero T
			return zero, nil, 0, err
		}
		inst, teardown = v, td
	}
	return inst, teardown, median(secs), nil
}
