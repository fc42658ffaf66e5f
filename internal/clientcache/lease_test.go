package clientcache

import (
	"testing"
	"time"

	"dmetabench/internal/fs"
)

// leaseEnv builds a name cache over a settable clock and a mutable
// per-authority epoch table; the lease tests drive its lease half.
func leaseEnv(check bool) (*NameCache, *fakeClock, []uint64) {
	clk := &fakeClock{}
	epochs := make([]uint64, 4)
	var epochOf func(int) uint64
	if check {
		epochOf = func(a int) uint64 { return epochs[a] }
	}
	return NewNameCache(time.Hour, time.Hour, clk.now, epochOf), clk, epochs
}

func TestLeaseCacheGrantHitExpiry(t *testing.T) {
	c, clk, _ := leaseEnv(true)
	c.PutLease("/f", fs.Attr{Ino: 7}, 10*time.Second, 0, 0)
	if a, ok := c.Lease("/f"); !ok || a.Ino != 7 {
		t.Fatalf("fresh lease: %v %v", a, ok)
	}
	clk.t = 10 * time.Second // inclusive boundary, like the TTL caches
	if _, ok := c.Lease("/f"); !ok {
		t.Fatal("lease rejected at exact expiry")
	}
	clk.t = 10*time.Second + 1
	if _, ok := c.Lease("/f"); ok {
		t.Fatal("lease served past expiry")
	}
	if h, m, _, _ := c.Stats(); h != 2 || m != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", h, m)
	}
}

func TestLeaseCacheRevoke(t *testing.T) {
	c, _, _ := leaseEnv(true)
	c.PutLease("/f", fs.Attr{Ino: 1}, time.Minute, 0, 0)
	if !c.Revoke("/f") {
		t.Fatal("revocation of a held lease reported no lease")
	}
	if _, ok := c.Lease("/f"); ok {
		t.Fatal("revoked lease served")
	}
	// Re-grant after revocation serves again.
	c.PutLease("/f", fs.Attr{Ino: 2}, time.Minute, 0, 0)
	if a, ok := c.Lease("/f"); !ok || a.Ino != 2 {
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
	c.PutLease("/a", fs.Attr{Ino: 1}, time.Minute, 0, epochs[0])
	c.PutLease("/b", fs.Attr{Ino: 2}, time.Minute, 0, epochs[0])
	c.PutLease("/c", fs.Attr{Ino: 3}, time.Minute, 1, epochs[1])
	epochs[0]++ // slice 0 crashed and failed over
	for _, p := range []string{"/a", "/b"} {
		if _, ok := c.Lease(p); ok {
			t.Fatalf("%s served across an epoch move", p)
		}
	}
	if a, ok := c.Lease("/c"); !ok || a.Ino != 3 {
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
	c.PutLease("/a", fs.Attr{Ino: 1}, 8*time.Second, 0, epochs[0])
	epochs[0]++
	if _, ok := c.Lease("/a"); !ok {
		t.Fatal("unchecked lease dropped at epoch move")
	}
	clk.t = 9 * time.Second
	if _, ok := c.Lease("/a"); ok {
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
	c.PutLease("/f", fs.Attr{Ino: 1}, time.Minute, 2, epochs[2])
	epochs[2]++
	if _, ok := c.Lease("/f"); ok { // the epoch drop lands first
		t.Fatal("lease served across epoch move")
	}
	if c.Revoke("/f") { // late callback for the dead lease
		t.Fatal("revocation after bulk invalidation reported a held lease")
	}
	if _, _, rev, drops := c.Stats(); rev != 0 || drops != 1 {
		t.Fatalf("revoked/drops = %d/%d, want 0/1", rev, drops)
	}
	// The re-granted lease at the new epoch is live.
	c.PutLease("/f", fs.Attr{Ino: 2}, time.Minute, 2, epochs[2])
	if a, ok := c.Lease("/f"); !ok || a.Ino != 2 {
		t.Fatal("re-grant at the new epoch not served")
	}
}

func TestLeaseCacheEpochDropAfterRevoke(t *testing.T) {
	// Reverse order: the callback lands first, then the client observes
	// the epoch move. Nothing is left to drop; stats count one
	// revocation and zero epoch drops.
	c, _, epochs := leaseEnv(true)
	c.PutLease("/f", fs.Attr{Ino: 1}, time.Minute, 1, epochs[1])
	if !c.Revoke("/f") {
		t.Fatal("revocation of a held lease reported no lease")
	}
	epochs[1]++
	if _, ok := c.Lease("/f"); ok {
		t.Fatal("revoked lease resurrected by epoch move")
	}
	if _, _, rev, drops := c.Stats(); rev != 1 || drops != 0 {
		t.Fatalf("revoked/drops = %d/%d, want 1/0", rev, drops)
	}
}

func TestLeaseCacheRevokeExpiredLease(t *testing.T) {
	// A callback racing the lease's own expiry: the lease is still in
	// the cache but past expiry; revocation still clears it (idempotent
	// with a Get-triggered drop) and a second revocation is a no-op.
	c, clk, _ := leaseEnv(true)
	c.PutLease("/f", fs.Attr{Ino: 1}, time.Second, 0, 0)
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
	c.PutLease("/a", fs.Attr{}, time.Minute, 0, 0)
	c.Lease("/a")
	c.Lease("/b")
	c.Revoke("/a")
	c.Clear()
	if h, m, r, d := c.Stats(); h != 0 || m != 0 || r != 0 || d != 0 {
		t.Fatalf("stats survived Clear: %d/%d/%d/%d", h, m, r, d)
	}
	if c.LeaseLen() != 0 || c.entries.len() != 0 {
		t.Fatalf("leases, paths survived Clear: %d, %d", c.LeaseLen(), c.entries.len())
	}
}

// TestNameCacheHalvesLiveApart pins that each half of an entry ends on
// its own: a lapsed, epoch-dropped or silently invalidated lease (the
// mutator's own revocation) leaves the dentry, a lapsed or dropped
// dentry leaves the lease, and a server revocation takes the lease and
// the dentry but not the attributes. The slot goes only with its last
// half.
func TestNameCacheHalvesLiveApart(t *testing.T) {
	clk := &fakeClock{}
	epochs := []uint64{0}
	c := NewNameCache(time.Hour, 10*time.Second, clk.now, func(a int) uint64 { return epochs[a] })
	grant := func(expiry time.Duration) { c.PutLease("/f", fs.Attr{Ino: 7}, expiry, 0, epochs[0]) }
	dentry := func() bool { _, _, ok := c.Dentry("/f"); return ok }
	lease := func() bool { _, ok := c.Lease("/f"); return ok }

	c.PutDentry("/f", 7, false)
	grant(time.Second)
	clk.t = 2 * time.Second // the lease lapses, the dentry is fresh
	if lease() || !dentry() {
		t.Fatal("a lapsed lease took the dentry with it")
	}
	grant(time.Hour)
	epochs[0]++
	if lease() || !dentry() {
		t.Fatal("an epoch-dropped lease took the dentry with it")
	}
	grant(time.Hour)
	c.InvalidateLease("/f")
	if lease() || !dentry() {
		t.Fatal("an invalidated lease took the dentry with it")
	}

	grant(time.Hour)
	clk.t = 20 * time.Second // the dentry lapses, the lease holds
	if dentry() || !lease() {
		t.Fatal("a lapsed dentry took the lease with it")
	}
	c.PutDentry("/f", 7, false)
	c.InvalidateDentry("/f")
	if dentry() || !lease() || c.LeaseLen() != 1 {
		t.Fatal("a dropped dentry took the lease with it")
	}

	c.PutDentry("/f", 7, false)
	c.PutAttr("/f", fs.Attr{Ino: 7})
	if !c.Revoke("/f") || dentry() || lease() {
		t.Fatal("a revocation left the lease or the dentry")
	}
	if _, ok := c.Attr("/f"); !ok {
		t.Fatal("a revocation took the attributes")
	}
	c.Invalidate("/f")
	grant(time.Hour)
	c.InvalidateLease("/f")
	if n := c.entries.len(); n != 0 || c.AttrLen()+c.DentryLen()+c.LeaseLen() != 0 {
		t.Fatalf("%d paths left after every half went, want 0", n)
	}
}

// TestCacheWrappersUseHalves pins that AttrCache and LeaseCache answer
// from NameCache's attribute and lease halves.
func TestCacheWrappersUseHalves(t *testing.T) {
	clk := &fakeClock{}
	attrs := NewAttrCache(time.Second, clk.now)
	attrs.Put("/f", fs.Attr{Ino: 3})
	leases := NewLeaseCache(clk.now, nil)
	leases.Put("/f", fs.Attr{Ino: 4}, time.Second, 0, 0)
	if a, ok := attrs.Get("/f"); !ok || a.Ino != 3 || attrs.AttrLen() != 1 || attrs.DentryLen() != 0 {
		t.Fatalf("AttrCache.Get = %+v, %v with %d attributes, %d dentries", a, ok, attrs.AttrLen(), attrs.DentryLen())
	}
	if a, ok := leases.Get("/f"); !ok || a.Ino != 4 || leases.LeaseLen() != 1 || leases.DentryLen() != 0 {
		t.Fatalf("LeaseCache.Get = %+v, %v with %d leases, %d dentries", a, ok, leases.LeaseLen(), leases.DentryLen())
	}
	clk.t = time.Second + 1
	if _, ok := attrs.Get("/f"); ok {
		t.Fatal("AttrCache served past its TTL")
	}
	if _, ok := leases.Get("/f"); ok || leases.LeaseLen() != 0 {
		t.Fatal("LeaseCache kept a lapsed lease")
	}
}
