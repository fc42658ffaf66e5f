package clientcache

import (
	"testing"
	"testing/quick"
	"time"

	"dmetabench/internal/fs"
)

// fakeClock is a settable clock for cache tests.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestAttrCacheTTL(t *testing.T) {
	clk := &fakeClock{}
	c := NewAttrCache(3*time.Second, clk.now)
	c.Put("/f", fs.Attr{Ino: 7})
	if a, ok := c.Get("/f"); !ok || a.Ino != 7 {
		t.Fatalf("fresh get: %v %v", a, ok)
	}
	clk.t = 2 * time.Second
	if _, ok := c.Get("/f"); !ok {
		t.Fatal("entry expired early")
	}
	clk.t = 4 * time.Second
	if _, ok := c.Get("/f"); ok {
		t.Fatal("entry survived past TTL")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestAttrCacheInvalidateClear(t *testing.T) {
	clk := &fakeClock{}
	c := NewAttrCache(time.Minute, clk.now)
	c.Put("/a", fs.Attr{})
	c.Put("/b", fs.Attr{})
	c.Invalidate("/a")
	if _, ok := c.Get("/a"); ok {
		t.Fatal("invalidated entry returned")
	}
	if _, ok := c.Get("/b"); !ok {
		t.Fatal("unrelated entry dropped")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("len after clear = %d", c.Len())
	}
}

func TestDentryCachePositiveNegative(t *testing.T) {
	clk := &fakeClock{}
	d := NewDentryCache(30*time.Second, clk.now)
	d.PutPositive("/f", 42)
	ino, neg, ok := d.Lookup("/f")
	if !ok || neg || ino != 42 {
		t.Fatalf("positive lookup: %d %v %v", ino, neg, ok)
	}
	d.PutNegative("/g")
	_, neg, ok = d.Lookup("/g")
	if !ok || !neg {
		t.Fatalf("negative lookup: %v %v", neg, ok)
	}
	clk.t = time.Minute
	if _, _, ok := d.Lookup("/f"); ok {
		t.Fatal("entry survived past TTL")
	}
}

func TestAttrCacheTTLExactBoundary(t *testing.T) {
	// The freshness test is now-fetched > TTL: an entry aged exactly TTL
	// is still served (acregmax is inclusive), one tick past it is not.
	clk := &fakeClock{}
	c := NewAttrCache(3*time.Second, clk.now)
	c.Put("/f", fs.Attr{Ino: 9})
	clk.t = 3 * time.Second
	if _, ok := c.Get("/f"); !ok {
		t.Fatal("entry aged exactly TTL rejected")
	}
	clk.t = 3*time.Second + 1
	if _, ok := c.Get("/f"); ok {
		t.Fatal("entry one tick past TTL served")
	}
}

func TestDentryCacheTTLExactBoundary(t *testing.T) {
	clk := &fakeClock{}
	d := NewDentryCache(30*time.Second, clk.now)
	d.PutPositive("/f", 5)
	clk.t = 30 * time.Second
	if _, _, ok := d.Lookup("/f"); !ok {
		t.Fatal("dentry aged exactly TTL rejected")
	}
	clk.t = 30*time.Second + 1
	if _, _, ok := d.Lookup("/f"); ok {
		t.Fatal("dentry one tick past TTL served")
	}
}

func TestDentryNegativeFlipsToPositive(t *testing.T) {
	// A create after a failed lookup overwrites the negative entry in
	// place; the positive entry carries the new inode and a fresh TTL.
	clk := &fakeClock{}
	d := NewDentryCache(10*time.Second, clk.now)
	d.PutNegative("/f")
	if _, neg, ok := d.Lookup("/f"); !ok || !neg {
		t.Fatal("negative entry not cached")
	}
	clk.t = 6 * time.Second
	d.PutPositive("/f", 77)
	ino, neg, ok := d.Lookup("/f")
	if !ok || neg || ino != 77 {
		t.Fatalf("after flip: ino=%d neg=%v ok=%v, want 77/false/true", ino, neg, ok)
	}
	// The flip refreshed the TTL: alive at t=15s (9s after the flip),
	// gone one tick past t=16s.
	clk.t = 15 * time.Second
	if _, neg, ok := d.Lookup("/f"); !ok || neg {
		t.Fatal("flipped entry expired on the stale negative's clock")
	}
	clk.t = 16*time.Second + 1
	if _, _, ok := d.Lookup("/f"); ok {
		t.Fatal("flipped entry survived past its refreshed TTL")
	}
}

func TestAttrCacheClearResetsStats(t *testing.T) {
	clk := &fakeClock{}
	c := NewAttrCache(time.Minute, clk.now)
	c.Put("/a", fs.Attr{})
	c.Get("/a") // hit
	c.Get("/b") // miss
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("pre-clear stats = %d/%d, want 1/1", h, m)
	}
	c.Clear()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("stats survived Clear: %d/%d, want 0/0", h, m)
	}
	if c.Len() != 0 {
		t.Fatalf("entries survived Clear: %d", c.Len())
	}
	// Counters accumulate cleanly after the reset.
	c.Get("/a")
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("post-clear stats = %d/%d, want 0/1", h, m)
	}
}

// Property: a Put followed by Get within TTL always returns the stored
// attributes, for arbitrary paths and inode numbers.
func TestAttrCacheRoundTrip(t *testing.T) {
	f := func(path string, ino uint64, size int64) bool {
		clk := &fakeClock{}
		c := NewAttrCache(time.Second, clk.now)
		want := fs.Attr{Ino: fs.Ino(ino), Size: size}
		c.Put(path, want)
		got, ok := c.Get(path)
		return ok && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
