package clientcache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dmetabench/internal/fs"
)

// The plain-map caches below are the reference the slot store must
// match answer for answer: each is its cache with the entries in a Go
// map, as the caches kept them before.

// refNameEntry is one path's two halves in one map value, the layout
// NameCache had before its attribute halves moved to pages of their own.
type refNameEntry struct {
	attr          fs.Attr
	attrAt        time.Duration
	ino           fs.Ino
	dentryAt      time.Duration
	hasAttr       bool
	hasDentry     bool
	negative, dir bool
}

type refNames struct {
	attrTTL, dentryTTL time.Duration
	now                func() time.Duration
	m                  map[string]refNameEntry
	hits, misses       int64
}

func (c *refNames) Attr(p string) (fs.Attr, bool) {
	e, ok := c.m[p]
	if !ok || !e.hasAttr || c.now()-e.attrAt > c.attrTTL {
		c.misses++
		return fs.Attr{}, false
	}
	c.hits++
	return e.attr, true
}

func (c *refNames) DentryDir(p string) (fs.Ino, bool, bool, bool) {
	e, ok := c.m[p]
	if !ok || !e.hasDentry || c.now()-e.dentryAt > c.dentryTTL {
		return 0, false, false, false
	}
	return e.ino, e.dir, e.negative, true
}

func (c *refNames) Put(p string, a fs.Attr) {
	now := c.now()
	c.m[p] = refNameEntry{attr: a, attrAt: now, ino: a.Ino, dentryAt: now, hasAttr: true, hasDentry: true,
		dir: a.Type == fs.TypeDirectory}
}

func (c *refNames) PutAttr(p string, a fs.Attr) {
	e := c.m[p]
	e.attr, e.attrAt, e.hasAttr = a, c.now(), true
	c.m[p] = e
}

func (c *refNames) PutDentry(p string, ino fs.Ino, dir bool) {
	e := c.m[p]
	e.ino, e.dentryAt, e.hasDentry, e.negative, e.dir = ino, c.now(), true, false, dir
	c.m[p] = e
}

func (c *refNames) PutNegative(p string) {
	e := c.m[p]
	e.ino, e.dentryAt, e.hasDentry, e.negative, e.dir = 0, c.now(), true, true, false
	c.m[p] = e
}

func (c *refNames) InvalidateDentry(p string) {
	e, ok := c.m[p]
	switch {
	case !ok:
	case e.hasAttr:
		e.hasDentry, e.negative, e.dir, e.ino = false, false, false, 0
		c.m[p] = e
	default:
		delete(c.m, p)
	}
}

// halves counts the paths holding each half.
func (c *refNames) halves() (attrs, dentries int) {
	for _, e := range c.m {
		if e.hasAttr {
			attrs++
		}
		if e.hasDentry {
			dentries++
		}
	}
	return attrs, dentries
}

type refAttrs struct {
	ttl          time.Duration
	now          func() time.Duration
	m            map[string]attrEntry
	hits, misses int64
}

func (c *refAttrs) Get(p string) (fs.Attr, bool) {
	e, ok := c.m[p]
	if !ok || c.now()-e.fetched > c.ttl {
		c.misses++
		return fs.Attr{}, false
	}
	c.hits++
	return e.attr, true
}

type refLeases struct {
	now                               func() time.Duration
	epochOf                           func(int) uint64
	m                                 map[string]leaseEntry
	hits, misses, revoked, epochDrops int64
}

func (c *refLeases) Get(p string) (fs.Attr, bool) {
	e, ok := c.m[p]
	switch {
	case !ok:
	case c.epochOf(e.authority) != e.epoch:
		delete(c.m, p)
		c.epochDrops++
	case c.now() > e.expiry:
		delete(c.m, p)
	default:
		c.hits++
		return e.attr, true
	}
	c.misses++
	return fs.Attr{}, false
}

func (c *refLeases) Revoke(p string) bool {
	if _, ok := c.m[p]; !ok {
		return false
	}
	delete(c.m, p)
	c.revoked++
	return true
}

// TestSlotCachesMatchMaps drives NameCache, AttrCache and LeaseCache and
// their plain-map references through one seeded sequence of fills,
// dentry-only puts, reads, invalidations, revocations and clears, with a
// clock that lapses both TTLs and the leases and epochs that move, and
// requires every answer, every Len, every per-half count and every
// Stats to agree after every step. The path pool is large enough that
// the stores fill several pages and reuse freed slots, and NameCache's
// attribute pages, addressed by the dentry pages' slot numbers, must
// answer through slot reuse.
func TestSlotCachesMatchMaps(t *testing.T) {
	const attrTTL, dentryTTL, leaseTTL = 3 * time.Second, 30 * time.Second, 10 * time.Second
	var now time.Duration
	clock := func() time.Duration { return now }
	epochs := make([]uint64, 3)
	epochOf := func(a int) uint64 { return epochs[a] }

	names := NewNameCache(attrTTL, dentryTTL, clock)
	attrs := NewAttrCache(attrTTL, clock)
	leases := NewLeaseCache(clock, epochOf)
	rNames := &refNames{attrTTL: attrTTL, dentryTTL: dentryTTL, now: clock, m: map[string]refNameEntry{}}
	rAttrs := &refAttrs{ttl: attrTTL, now: clock, m: map[string]attrEntry{}}
	rLeases := &refLeases{now: clock, epochOf: epochOf, m: map[string]leaseEntry{}}

	paths := make([]string, 700)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%d/f%d", i%7, i)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 200_000; step++ {
		now += time.Duration(rng.Intn(40)) * time.Millisecond
		p := paths[rng.Intn(len(paths))]
		a := fs.Attr{Ino: fs.Ino(1 + rng.Intn(1000)), Size: int64(step)}
		switch op := rng.Intn(100); {
		case op < 30:
			names.Put(p, a)
			rNames.Put(p, a)
			attrs.Put(p, a)
			rAttrs.m[p] = attrEntry{attr: a, fetched: now}
			auth := rng.Intn(len(epochs))
			expiry := now + time.Duration(rng.Int63n(int64(leaseTTL)))
			leases.Put(p, a, expiry, auth, epochs[auth])
			rLeases.m[p] = leaseEntry{attr: a, expiry: expiry, authority: auth, epoch: epochs[auth]}
		case op < 35:
			names.PutAttr(p, a)
			rNames.PutAttr(p, a)
		case op < 40:
			dir := a.Ino%2 == 0
			names.PutDentry(p, a.Ino, dir)
			rNames.PutDentry(p, a.Ino, dir)
		case op < 44:
			names.PutNegative(p)
			rNames.PutNegative(p)
		case op < 56:
			ga, gok := attrs.Get(p)
			wa, wok := rAttrs.Get(p)
			if ga != wa || gok != wok {
				t.Fatalf("step %d: AttrCache.Get(%s) = %+v, %v; map gives %+v, %v", step, p, ga, gok, wa, wok)
			}
			ga, gok = leases.Get(p)
			wa, wok = rLeases.Get(p)
			if ga != wa || gok != wok {
				t.Fatalf("step %d: LeaseCache.Get(%s) = %+v, %v; map gives %+v, %v", step, p, ga, gok, wa, wok)
			}
		case op < 66:
			ga, gok := names.Attr(p)
			wa, wok := rNames.Attr(p)
			if ga != wa || gok != wok {
				t.Fatalf("step %d: Attr(%s) = %+v, %v; map gives %+v, %v", step, p, ga, gok, wa, wok)
			}
			gi, gneg, gok := names.Dentry(p)
			wi, wdir, wneg, wok := rNames.DentryDir(p)
			if gi != wi || gneg != wneg || gok != wok {
				t.Fatalf("step %d: Dentry(%s) = %d, %v, %v; map gives %d, %v, %v", step, p, gi, gneg, gok, wi, wneg, wok)
			}
			if gdir, _, _ := names.DentryDir(p); gdir != wdir {
				t.Fatalf("step %d: DentryDir(%s) reads dir %v; map gives %v", step, p, gdir, wdir)
			}
		case op < 78:
			names.Invalidate(p)
			delete(rNames.m, p)
			attrs.Invalidate(p)
			delete(rAttrs.m, p)
			leases.Invalidate(p)
			delete(rLeases.m, p)
		case op < 84:
			names.InvalidateDentry(p)
			rNames.InvalidateDentry(p)
		case op < 92:
			if g, w := leases.Revoke(p), rLeases.Revoke(p); g != w {
				t.Fatalf("step %d: Revoke(%s) = %v; map gives %v", step, p, g, w)
			}
		case op < 96:
			now += time.Duration(rng.Intn(3)) * attrTTL
		case op < 99:
			epochs[rng.Intn(len(epochs))]++
		default:
			if rng.Intn(50) == 0 {
				names.Clear()
				clear(rNames.m)
				rNames.hits, rNames.misses = 0, 0
				attrs.Clear()
				rAttrs.m, rAttrs.hits, rAttrs.misses = map[string]attrEntry{}, 0, 0
				leases.Clear()
				rLeases.m = map[string]leaseEntry{}
				rLeases.hits, rLeases.misses, rLeases.revoked, rLeases.epochDrops = 0, 0, 0, 0
			}
		}
		if g, w := names.entries.len(), len(rNames.m); g != w {
			t.Fatalf("step %d: NameCache holds %d paths; map holds %d", step, g, w)
		}
		if wa, wd := rNames.halves(); names.AttrLen() != wa || names.DentryLen() != wd {
			t.Fatalf("step %d: AttrLen, DentryLen = %d, %d; map holds %d, %d",
				step, names.AttrLen(), names.DentryLen(), wa, wd)
		}
		if h, m := names.Stats(); h != rNames.hits || m != rNames.misses {
			t.Fatalf("step %d: NameCache.Stats = %d/%d; map gives %d/%d", step, h, m, rNames.hits, rNames.misses)
		}
		if g, w := attrs.Len(), len(rAttrs.m); g != w {
			t.Fatalf("step %d: AttrCache.Len = %d; map holds %d", step, g, w)
		}
		if g, w := leases.Len(), len(rLeases.m); g != w {
			t.Fatalf("step %d: LeaseCache.Len = %d; map holds %d", step, g, w)
		}
		if h, m := attrs.Stats(); h != rAttrs.hits || m != rAttrs.misses {
			t.Fatalf("step %d: AttrCache.Stats = %d/%d; map gives %d/%d", step, h, m, rAttrs.hits, rAttrs.misses)
		}
		h, m, r, e := leases.Stats()
		if h != rLeases.hits || m != rLeases.misses || r != rLeases.revoked || e != rLeases.epochDrops {
			t.Fatalf("step %d: LeaseCache.Stats = %d/%d/%d/%d; map gives %d/%d/%d/%d", step,
				h, m, r, e, rLeases.hits, rLeases.misses, rLeases.revoked, rLeases.epochDrops)
		}
	}
	if n := len(names.entries.pages); n < pageShift+3 {
		t.Fatalf("the name cache grew %d pages; the sequence must fill at least two full ones", n)
	}
	if a, d := len(names.attrPages), len(names.entries.pages); a > d {
		t.Fatalf("the name cache holds %d attribute pages for %d dentry pages", a, d)
	}
}

// TestSlotPutAllocs pins the store's allocation contract: refreshing a
// present path allocates nothing, and a new path takes a freed slot
// instead of a page.
func TestSlotPutAllocs(t *testing.T) {
	clock := func() time.Duration { return 0 }
	a := fs.Attr{Ino: 3}
	big := NewNameCache(time.Hour, time.Hour, clock)
	paths := make([]string, 1000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/%d", i)
		big.Put(paths[i], a)
	}
	if avg := testing.AllocsPerRun(100, func() { big.Put(paths[500], a) }); avg != 0 {
		t.Fatalf("Put of a present path allocated %.1f objects/op, want 0", avg)
	}
	// Eight paths fill the first page exactly, so a new path that did
	// not take the freed slot would allocate the second. The index stays
	// within one map group, which a delete and an insert never grow.
	small := NewNameCache(time.Hour, time.Hour, clock)
	for _, p := range paths[:firstPage] {
		small.Put(p, a)
	}
	spare := paths[firstPage]
	if avg := testing.AllocsPerRun(100, func() {
		small.Invalidate(paths[0])
		small.Put(spare, a)
		small.Invalidate(spare)
		small.Put(paths[0], a)
	}); avg != 0 {
		t.Fatalf("Put of a new path into a freed slot allocated %.1f objects/op, want 0", avg)
	}
	if n := len(small.entries.pages); n != 1 {
		t.Fatalf("store holds %d pages for %d paths, want 1", n, firstPage)
	}
}
