package clientcache

import (
	"testing"
	"time"

	"dmetabench/internal/fs"
)

// leaseEnv builds a lease cache over a settable clock and a mutable
// per-authority epoch table.
func leaseEnv(check bool) (*LeaseCache, *fakeClock, []uint64) {
	clk := &fakeClock{}
	epochs := make([]uint64, 4)
	var epochOf func(int) uint64
	if check {
		epochOf = func(a int) uint64 { return epochs[a] }
	}
	return NewLeaseCache(clk.now, epochOf), clk, epochs
}

func TestLeaseCacheGrantHitExpiry(t *testing.T) {
	c, clk, _ := leaseEnv(true)
	c.Put("/f", fs.Attr{Ino: 7}, 10*time.Second, 0, 0)
	if a, ok := c.Get("/f"); !ok || a.Ino != 7 {
		t.Fatalf("fresh lease: %v %v", a, ok)
	}
	clk.t = 10 * time.Second // inclusive boundary, like the TTL caches
	if _, ok := c.Get("/f"); !ok {
		t.Fatal("lease rejected at exact expiry")
	}
	clk.t = 10*time.Second + 1
	if _, ok := c.Get("/f"); ok {
		t.Fatal("lease served past expiry")
	}
	if h, m, _, _ := c.Stats(); h != 2 || m != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", h, m)
	}
}

func TestLeaseCacheRevoke(t *testing.T) {
	c, _, _ := leaseEnv(true)
	c.Put("/f", fs.Attr{Ino: 1}, time.Minute, 0, 0)
	if !c.Revoke("/f") {
		t.Fatal("revocation of a held lease reported no lease")
	}
	if _, ok := c.Get("/f"); ok {
		t.Fatal("revoked lease served")
	}
	// Re-grant after revocation serves again.
	c.Put("/f", fs.Attr{Ino: 2}, time.Minute, 0, 0)
	if a, ok := c.Get("/f"); !ok || a.Ino != 2 {
		t.Fatal("re-granted lease not served")
	}
	if _, _, rev, _ := c.Stats(); rev != 1 {
		t.Fatalf("revoked = %d, want 1", rev)
	}
}

func TestLeaseCacheEpochBulkInvalidation(t *testing.T) {
	// A failover bumps one authority's epoch; every lease it granted
	// dies in one step while other authorities' leases survive.
	c, _, epochs := leaseEnv(true)
	c.Put("/a", fs.Attr{Ino: 1}, time.Minute, 0, epochs[0])
	c.Put("/b", fs.Attr{Ino: 2}, time.Minute, 0, epochs[0])
	c.Put("/c", fs.Attr{Ino: 3}, time.Minute, 1, epochs[1])
	epochs[0]++ // slice 0 crashed and failed over
	for _, p := range []string{"/a", "/b"} {
		if _, ok := c.Get(p); ok {
			t.Fatalf("%s served across an epoch move", p)
		}
	}
	if a, ok := c.Get("/c"); !ok || a.Ino != 3 {
		t.Fatal("unrelated authority's lease dropped")
	}
	if _, _, _, drops := c.Stats(); drops != 2 {
		t.Fatalf("epochDrops = %d, want 2", drops)
	}
}

func TestLeaseCacheNoEpochCheckTrustsAcrossFailover(t *testing.T) {
	// With epoch checking disabled (nil epochOf) the lease survives the
	// epoch move until expiry — the E24 stale-read window.
	c, clk, epochs := leaseEnv(false)
	c.Put("/a", fs.Attr{Ino: 1}, 8*time.Second, 0, epochs[0])
	epochs[0]++
	if _, ok := c.Get("/a"); !ok {
		t.Fatal("unchecked lease dropped at epoch move")
	}
	clk.t = 9 * time.Second
	if _, ok := c.Get("/a"); ok {
		t.Fatal("unchecked lease survived its expiry")
	}
}

// Revocation-vs-crash races: a server revocation can arrive after the
// client already dropped the lease (epoch bump observed first, or the
// lease expired), and a crash-time bulk invalidation can land after a
// revocation already emptied the entry. Every ordering must converge on
// the same state: no lease, no double counting, and a subsequent
// re-grant serving normally.
func TestLeaseCacheRevokeAfterEpochDrop(t *testing.T) {
	c, _, epochs := leaseEnv(true)
	c.Put("/f", fs.Attr{Ino: 1}, time.Minute, 2, epochs[2])
	epochs[2]++
	if _, ok := c.Get("/f"); ok { // the epoch drop lands first
		t.Fatal("lease served across epoch move")
	}
	if c.Revoke("/f") { // late callback for the dead lease
		t.Fatal("revocation after bulk invalidation reported a held lease")
	}
	if _, _, rev, drops := c.Stats(); rev != 0 || drops != 1 {
		t.Fatalf("revoked/drops = %d/%d, want 0/1", rev, drops)
	}
	// The re-granted lease at the new epoch is live.
	c.Put("/f", fs.Attr{Ino: 2}, time.Minute, 2, epochs[2])
	if a, ok := c.Get("/f"); !ok || a.Ino != 2 {
		t.Fatal("re-grant at the new epoch not served")
	}
}

func TestLeaseCacheEpochDropAfterRevoke(t *testing.T) {
	// Reverse order: the callback lands first, then the client observes
	// the epoch move. Nothing is left to drop; stats count one
	// revocation and zero epoch drops.
	c, _, epochs := leaseEnv(true)
	c.Put("/f", fs.Attr{Ino: 1}, time.Minute, 1, epochs[1])
	if !c.Revoke("/f") {
		t.Fatal("revocation of a held lease reported no lease")
	}
	epochs[1]++
	if _, ok := c.Get("/f"); ok {
		t.Fatal("revoked lease resurrected by epoch move")
	}
	if _, _, rev, drops := c.Stats(); rev != 1 || drops != 0 {
		t.Fatalf("revoked/drops = %d/%d, want 1/0", rev, drops)
	}
}

func TestLeaseCacheRevokeExpiredLease(t *testing.T) {
	// A callback racing the lease's own expiry: the entry is still in
	// the map but past expiry; revocation still clears it (idempotent
	// with a Get-triggered drop) and a second revocation is a no-op.
	c, clk, _ := leaseEnv(true)
	c.Put("/f", fs.Attr{Ino: 1}, time.Second, 0, 0)
	clk.t = 2 * time.Second
	if !c.Revoke("/f") {
		t.Fatal("revocation of a lapsed-but-cached lease dropped nothing")
	}
	if c.Revoke("/f") {
		t.Fatal("second revocation reported a held lease")
	}
}

func TestLeaseCacheClearResetsStats(t *testing.T) {
	c, _, _ := leaseEnv(true)
	c.Put("/a", fs.Attr{}, time.Minute, 0, 0)
	c.Get("/a")
	c.Get("/b")
	c.Revoke("/a")
	c.Clear()
	if h, m, r, d := c.Stats(); h != 0 || m != 0 || r != 0 || d != 0 {
		t.Fatalf("stats survived Clear: %d/%d/%d/%d", h, m, r, d)
	}
	if c.Len() != 0 {
		t.Fatalf("entries survived Clear: %d", c.Len())
	}
}
