package results

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram is a logarithmically-bucketed latency histogram (power-of-2
// buckets from 1µs up). Per-operation latency distributions complement
// the time-interval logs: averages hide the tail, which is exactly where
// consistency points, journal commits and allocation stalls live.
type Histogram struct {
	buckets [48]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	// bits.Len64 gives floor(log2(us))+1 directly in integer arithmetic;
	// the float Log2 it replaces cost a convert+libm call per observation.
	b := bits.Len64(uint64(us))
	if b >= len(Histogram{}.buckets) {
		b = len(Histogram{}.buckets) - 1
	}
	return b
}

// Add records one latency observation.
func (h *Histogram) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += int64(d)
	if h.count == 1 || int64(d) < h.min {
		h.min = int64(d)
	}
	if int64(d) > h.max {
		h.max = int64(d)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Min and Max return the extreme observations.
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// bucketUpper returns the inclusive upper bound of bucket b: the largest
// duration that bucketOf maps into b. Bucket 0 holds everything below
// 1µs; bucket b>=1 holds [2^(b-1)µs, 2^b µs), so the true inclusive
// bound sits one nanosecond under the next power-of-two edge.
func bucketUpper(b int) time.Duration {
	if b == 0 {
		return time.Microsecond - time.Nanosecond
	}
	return time.Duration(1<<uint(b))*time.Microsecond - time.Nanosecond
}

// Percentile returns an upper bound for the p-quantile (0 < p <= 1) at
// bucket resolution.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for b, n := range h.buckets {
		seen += n
		if seen >= target {
			up := bucketUpper(b)
			if up > time.Duration(h.max) {
				return time.Duration(h.max)
			}
			return up
		}
	}
	return time.Duration(h.max)
}

// String renders count, mean and the common tail percentiles.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50<=%v p99<=%v max=%v",
		h.count, h.Mean(), h.Percentile(0.50), h.Percentile(0.99), h.Max())
}
