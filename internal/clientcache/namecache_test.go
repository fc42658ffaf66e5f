package clientcache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dmetabench/internal/fs"
)

// dentryCache is the map-backed dentry cache NameCache's dentry half
// must answer like: name resolution results, positive or negative, each
// trusted for one TTL after it was fetched.
type dentryCache struct {
	ttl     time.Duration
	now     func() time.Duration
	entries map[string]dentry
}

type dentry struct {
	ino           fs.Ino
	negative, dir bool
	fetched       time.Duration
}

func newDentryCache(ttl time.Duration, now func() time.Duration) *dentryCache {
	return &dentryCache{ttl: ttl, now: now, entries: make(map[string]dentry)}
}

// lookup returns the fresh entry for path and whether there is one.
func (c *dentryCache) lookup(path string) (dentry, bool) {
	e, ok := c.entries[path]
	if !ok || c.now()-e.fetched > c.ttl {
		return dentry{}, false
	}
	return e, true
}

func (c *dentryCache) putPositive(path string, ino fs.Ino, dir bool) {
	c.entries[path] = dentry{ino: ino, dir: dir, fetched: c.now()}
}

func (c *dentryCache) putNegative(path string) {
	c.entries[path] = dentry{negative: true, fetched: c.now()}
}

func (c *dentryCache) invalidate(path string) { delete(c.entries, path) }

func (c *dentryCache) clear() { c.entries = make(map[string]dentry) }

// TestNameCacheMatchesPair drives a NameCache and an unbounded
// AttrCache+dentry-cache pair through the same random sequence of
// fills, dentry-only puts, invalidations, clears and clock steps that
// cross both TTLs, and requires every read of every path, the attribute
// Stats and the count of each half to agree after every step.
func TestNameCacheMatchesPair(t *testing.T) {
	const attrTTL, dentryTTL = 3 * time.Second, 30 * time.Second
	var now time.Duration
	clock := func() time.Duration { return now }
	names := NewNameCache(attrTTL, dentryTTL, clock)
	attrs := NewAttrCache(attrTTL, clock)
	dentries := newDentryCache(dentryTTL, clock)
	paths := []string{"/a", "/a/b", "/c", "/d"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		now += time.Duration(rng.Intn(1500)) * time.Millisecond
		p := paths[rng.Intn(len(paths))]
		a := fs.Attr{Ino: fs.Ino(1 + rng.Intn(5)), Type: fs.FileType(rng.Intn(3)), Size: int64(i)}
		dir := a.Type == fs.TypeDirectory
		switch rng.Intn(11) {
		case 0:
			names.Put(p, a)
			attrs.Put(p, a)
			dentries.putPositive(p, a.Ino, dir)
		case 1:
			names.PutAttr(p, a)
			attrs.Put(p, a)
		case 2:
			names.PutNegative(p)
			dentries.putNegative(p)
		case 3:
			names.Invalidate(p)
			attrs.Invalidate(p)
			dentries.invalidate(p)
		case 4:
			names.InvalidateDentry(p)
			dentries.invalidate(p)
		case 5:
			g := PositiveFill(names, p, a, true)
			g.Apply()
			attrs.Put(p, a)
			dentries.putPositive(p, a.Ino, dir)
		case 6:
			g := NegativeFill(names, p)
			g.Apply()
			dentries.putNegative(p)
		case 7:
			if rng.Intn(20) == 0 {
				names.Clear()
				attrs.Clear()
				dentries.clear()
			}
		case 8:
			now += dentryTTL
		case 9:
			names.PutDentry(p, a.Ino, dir)
			dentries.putPositive(p, a.Ino, dir)
		case 10:
			g := PositiveFill(names, p, a, false)
			g.Apply()
			dentries.putPositive(p, a.Ino, dir)
		}
		for _, q := range paths {
			ga, gok := names.Attr(q)
			wa, wok := attrs.Get(q)
			if ga != wa || gok != wok {
				t.Fatalf("step %d: Attr(%s) = %+v, %v; pair gives %+v, %v", i, q, ga, gok, wa, wok)
			}
			w, wok := dentries.lookup(q)
			gi, gneg, gok := names.Dentry(q)
			if gi != w.ino || gneg != w.negative || gok != wok {
				t.Fatalf("step %d: Dentry(%s) = %d, %v, %v; pair gives %d, %v, %v",
					i, q, gi, gneg, gok, w.ino, w.negative, wok)
			}
			gdir, gneg, gok := names.DentryDir(q)
			if gdir != w.dir || gneg != w.negative || gok != wok {
				t.Fatalf("step %d: DentryDir(%s) = %v, %v, %v; pair gives %v, %v, %v",
					i, q, gdir, gneg, gok, w.dir, w.negative, wok)
			}
		}
		gh, gm := names.Stats()
		wh, wm := attrs.Stats()
		if gh != wh || gm != wm {
			t.Fatalf("step %d: Stats = %d/%d; pair gives %d/%d", i, gh, gm, wh, wm)
		}
		if g, w := names.AttrLen(), attrs.Len(); g != w {
			t.Fatalf("step %d: AttrLen = %d; pair holds %d", i, g, w)
		}
		if g, w := names.DentryLen(), len(dentries.entries); g != w {
			t.Fatalf("step %d: DentryLen = %d; pair holds %d", i, g, w)
		}
	}
}

// TestNameCacheInvalidateDentryKeepsAttrs pins the half-drop that NFS
// Open's ESTALE path relies on.
func TestNameCacheInvalidateDentryKeepsAttrs(t *testing.T) {
	names := NewNameCache(time.Hour, time.Hour, func() time.Duration { return 0 })
	names.Put("/f", fs.Attr{Ino: 7, Size: 3})
	names.InvalidateDentry("/f")
	if _, _, ok := names.Dentry("/f"); ok {
		t.Fatal("dentry survived InvalidateDentry")
	}
	if a, ok := names.Attr("/f"); !ok || a.Size != 3 {
		t.Fatalf("attributes = %+v, %v after InvalidateDentry; want kept", a, ok)
	}
	names.Invalidate("/f")
	names.PutNegative("/g")
	names.InvalidateDentry("/g") // a dentry-only entry goes entirely
	if n := names.entries.len(); n != 0 {
		t.Fatalf("%d entries left after dropping everything, want 0", n)
	}
}

// TestNameCacheDentriesOnlyAllocateNoAttrPage pins the layout the
// sharded MDS's lease and uncached modes rely on: a cache that holds
// only dentries, across several dentry pages, never allocates an
// attribute page, and the first attribute allocates exactly the page of
// its own slot.
func TestNameCacheDentriesOnlyAllocateNoAttrPage(t *testing.T) {
	names := NewNameCache(time.Hour, time.Hour, func() time.Duration { return 0 })
	for i := 0; i < 3*pageLen; i++ {
		p := fmt.Sprintf("/d/%d", i)
		if i%3 == 0 {
			names.PutNegative(p)
		} else {
			f := PositiveFill(names, p, fs.Attr{Ino: fs.Ino(i)}, false)
			f.Apply()
		}
	}
	if n := len(names.entries.pages); n < pageShift+3 {
		t.Fatalf("%d dentry pages; the fill must span several full ones", n)
	}
	if len(names.attrPages) != 0 {
		t.Fatalf("a dentry-only cache holds %d attribute pages, want 0", len(names.attrPages))
	}
	if names.AttrLen() != 0 || names.DentryLen() != 3*pageLen {
		t.Fatalf("AttrLen, DentryLen = %d, %d; want 0, %d", names.AttrLen(), names.DentryLen(), 3*pageLen)
	}
	last := fmt.Sprintf("/d/%d", 3*pageLen-1)
	names.PutAttr(last, fs.Attr{Ino: 9})
	allocated := 0
	for _, pg := range names.attrPages {
		if pg != nil {
			allocated++
		}
	}
	if allocated != 1 || names.attrPages[len(names.attrPages)-1] == nil {
		t.Fatalf("one attribute allocated %d attribute pages over %d page numbers; want only its own",
			allocated, len(names.attrPages))
	}
}
