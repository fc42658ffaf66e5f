package sim

import (
	"slices"
	"testing"
)

// TestLocksOnePerID checks that one id always gives the same mutex, two
// ids give two, and a deadlock report names the mutex prefix:id.
func TestLocksOnePerID(t *testing.T) {
	k := New(1)
	l := NewLocks(k, "mdsdir:3")
	if l.Get(7) != l.Get(7) {
		t.Fatal("id 7 gave two mutexes")
	}
	if l.Get(7) == l.Get(8) {
		t.Fatal("ids 7 and 8 share a mutex")
	}
	k.Spawn("holder", func(p *Proc) {
		l.Get(7).Lock(p)
		l.Get(7).Lock(p)
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok || !slices.Contains(de.Blocked, "holder (sem:mdsdir:3:7)") {
		t.Fatalf("err = %v, want a deadlock on sem:mdsdir:3:7", err)
	}
}
