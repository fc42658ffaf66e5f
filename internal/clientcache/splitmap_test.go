package clientcache

import (
	"testing"
	"time"
)

func TestSplitMapExpiryAndRefresh(t *testing.T) {
	var now time.Duration
	m := NewSplitMap(NewNameCache(0, 0, func() time.Duration { return now }, nil))
	if _, ok := m.Get("/big"); ok {
		t.Fatal("empty map served a hit")
	}
	m.Put("/big", 2, 100*time.Millisecond, 0, 0)
	if lvl, ok := m.Get("/big"); !ok || lvl != 2 {
		t.Fatalf("Get = (%d, %v), want (2, true)", lvl, ok)
	}
	now = 100 * time.Millisecond // expiry is inclusive, like a lease
	if _, ok := m.Get("/big"); !ok {
		t.Fatal("entry dropped at exact expiry; the boundary is inclusive")
	}
	now = 100*time.Millisecond + 1
	if _, ok := m.Get("/big"); ok {
		t.Fatal("expired entry served")
	}
	// A refresh with a higher level replaces the entry.
	m.Put("/big", 3, now+time.Second, 0, 0)
	if lvl, ok := m.Get("/big"); !ok || lvl != 3 {
		t.Fatalf("refreshed Get = (%d, %v), want (3, true)", lvl, ok)
	}
	hits, misses, _ := m.Stats()
	if hits != 3 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 3/2", hits, misses)
	}
}

func TestSplitMapEpochDrop(t *testing.T) {
	var now time.Duration
	epochs := map[int]uint64{4: 7}
	m := NewSplitMap(NewNameCache(0, 0, func() time.Duration { return now },
		func(authority int) uint64 { return epochs[authority] }))
	m.Put("/big", 1, time.Hour, 4, 7)
	if _, ok := m.Get("/big"); !ok {
		t.Fatal("fresh entry missed")
	}
	epochs[4] = 8 // the authority failed over
	if _, ok := m.Get("/big"); ok {
		t.Fatal("entry survived its authority's epoch move")
	}
	_, _, drops := m.Stats()
	if drops != 1 {
		t.Errorf("epochDrops = %d, want 1", drops)
	}
	if m.Len() != 0 {
		t.Errorf("dropped entry still tracked: Len = %d", m.Len())
	}
}

func TestSplitMapInvalidateAndClear(t *testing.T) {
	var now time.Duration
	m := NewSplitMap(NewNameCache(0, 0, func() time.Duration { return now }, nil))
	m.Put("/a", 1, time.Hour, 0, 0)
	m.Put("/b", 2, time.Hour, 0, 0)
	m.Invalidate("/a")
	if _, ok := m.Get("/a"); ok {
		t.Fatal("invalidated entry served")
	}
	if _, ok := m.Get("/b"); !ok {
		t.Fatal("unrelated entry lost")
	}
	m.Clear()
	if m.Len() != 0 {
		t.Errorf("Len after Clear = %d", m.Len())
	}
	if h, mi, e := m.Stats(); h != 0 || mi != 0 || e != 0 {
		t.Errorf("stats not reset by Clear: %d/%d/%d", h, mi, e)
	}
}
