package results

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 0; i < 100; i++ {
		h.Add(time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != time.Millisecond || h.Max() != time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// All mass in one bucket: every percentile bounded by ~2x the value
	// (bucket resolution) and never above max.
	if p := h.Percentile(0.99); p > h.Max() {
		t.Fatalf("p99 = %v > max %v", p, h.Max())
	}
}

func TestHistogramTail(t *testing.T) {
	var h Histogram
	for i := 0; i < 990; i++ {
		h.Add(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Add(50 * time.Millisecond)
	}
	p50 := h.Percentile(0.50)
	p999 := h.Percentile(0.999)
	if p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want ~100µs bucket", p50)
	}
	if p999 < 10*time.Millisecond {
		t.Fatalf("p999 = %v, want to catch the 50ms tail", p999)
	}
	if !strings.Contains(h.String(), "n=1000") {
		t.Fatalf("string = %q", h.String())
	}
}

// TestHistogramBucketEdges pins the power-of-two bucket layout: each edge
// (1µs, 2µs, 4µs, ...) starts a new bucket, everything below the edge
// stays in the previous one, and bucketUpper reports the true inclusive
// bound — the largest duration bucketOf maps into the bucket.
func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond - time.Nanosecond, 0},
		{time.Microsecond, 1},
		{2*time.Microsecond - time.Nanosecond, 1},
		{2 * time.Microsecond, 2},
		{4*time.Microsecond - time.Nanosecond, 2},
		{4 * time.Microsecond, 3},
		{8 * time.Microsecond, 4},
		{1024 * time.Microsecond, 11},
		{time.Second, 20}, // 1e6 µs: 2^19 <= 1e6 < 2^20
		{time.Hour, 32},   // 3.6e9 µs: 2^31 <= 3.6e9 < 2^32
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// bucketUpper(b) must be the largest duration still mapping to b, and
	// one more nanosecond must fall into b+1.
	for b := 0; b < 20; b++ {
		up := bucketUpper(b)
		if got := bucketOf(up); got != b {
			t.Errorf("bucketOf(bucketUpper(%d)=%v) = %d, want %d", b, up, got, b)
		}
		if got := bucketOf(up + time.Nanosecond); got != b+1 {
			t.Errorf("bucketOf(bucketUpper(%d)+1ns) = %d, want %d", b, got, b+1)
		}
	}
}

// Property: percentiles are monotone in p and bounded by max.
func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(us []uint32) bool {
		if len(us) == 0 {
			return true
		}
		var h Histogram
		for _, u := range us {
			h.Add(time.Duration(u%10_000_000) * time.Microsecond)
		}
		prev := time.Duration(0)
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			if v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
