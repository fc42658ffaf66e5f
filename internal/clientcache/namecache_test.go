package clientcache

import (
	"math/rand"
	"testing"
	"time"

	"dmetabench/internal/fs"
)

// TestNameCacheMatchesPair drives a NameCache and an unbounded
// AttrCache+DentryCache pair through the same random sequence of fills,
// invalidations, clears and clock steps that cross both TTLs, and
// requires every read of every path to agree after every step.
func TestNameCacheMatchesPair(t *testing.T) {
	const attrTTL, dentryTTL = 3 * time.Second, 30 * time.Second
	var now time.Duration
	clock := func() time.Duration { return now }
	names := NewNameCache(attrTTL, dentryTTL, clock)
	attrs := NewAttrCache(attrTTL, clock)
	dentries := NewDentryCache(dentryTTL, clock)
	paths := []string{"/a", "/a/b", "/c", "/d"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		now += time.Duration(rng.Intn(1500)) * time.Millisecond
		p := paths[rng.Intn(len(paths))]
		a := fs.Attr{Ino: fs.Ino(1 + rng.Intn(5)), Size: int64(i)}
		switch rng.Intn(9) {
		case 0:
			names.Put(p, a)
			attrs.Put(p, a)
			dentries.PutPositive(p, a.Ino)
		case 1:
			names.PutAttr(p, a)
			attrs.Put(p, a)
		case 2:
			names.PutNegative(p)
			dentries.PutNegative(p)
		case 3:
			names.Invalidate(p)
			attrs.Invalidate(p)
			dentries.Invalidate(p)
		case 4:
			names.InvalidateDentry(p)
			dentries.Invalidate(p)
		case 5:
			names.Put(p, a)
			g := PositiveFill(attrs, dentries, p, a)
			g.Apply()
		case 6:
			names.PutNegative(p)
			g := NegativeFill(dentries, p)
			g.Apply()
		case 7:
			if rng.Intn(20) == 0 {
				names.Clear()
				attrs.Clear()
				dentries.Clear()
			}
		case 8:
			now += dentryTTL
		}
		for _, q := range paths {
			ga, gok := names.Attr(q)
			wa, wok := attrs.Get(q)
			if ga != wa || gok != wok {
				t.Fatalf("step %d: Attr(%s) = %+v, %v; pair gives %+v, %v", i, q, ga, gok, wa, wok)
			}
			gi, gneg, gok := names.Dentry(q)
			wi, wneg, wok := dentries.Lookup(q)
			if gi != wi || gneg != wneg || gok != wok {
				t.Fatalf("step %d: Dentry(%s) = %d, %v, %v; pair gives %d, %v, %v",
					i, q, gi, gneg, gok, wi, wneg, wok)
			}
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
