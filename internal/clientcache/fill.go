package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// Fill is one client-cache update a server ships back with an RPC
// reply, held as a plain value so that queueing it for the reply leg
// (internal/simnet Defer) allocates nothing: a positive dentry with
// its attributes, a negative dentry, a lease grant or a lease drop.
type Fill struct {
	kind      fillKind
	path      string
	attr      fs.Attr
	attrs     *AttrCache
	dentries  *DentryCache
	leases    *LeaseCache
	expiry    time.Duration
	authority int
	epoch     uint64
}

type fillKind uint8

const (
	fillPositive fillKind = iota
	fillNegative
	fillLease
	fillLeaseDrop
)

// PositiveFill records that path resolves to a.Ino in dentries and,
// unless attrs is nil, caches a in attrs.
func PositiveFill(attrs *AttrCache, dentries *DentryCache, path string, a fs.Attr) Fill {
	return Fill{kind: fillPositive, path: path, attr: a, attrs: attrs, dentries: dentries}
}

// NegativeFill records in dentries that path does not exist.
func NegativeFill(dentries *DentryCache, path string) Fill {
	return Fill{kind: fillNegative, path: path, dentries: dentries}
}

// LeaseFill is LeaseCache.Put as a fill.
func LeaseFill(leases *LeaseCache, path string, a fs.Attr, expiry time.Duration, authority int, epoch uint64) Fill {
	return Fill{kind: fillLease, path: path, attr: a, leases: leases,
		expiry: expiry, authority: authority, epoch: epoch}
}

// LeaseDropFill is LeaseCache.Invalidate as a fill.
func LeaseDropFill(leases *LeaseCache, path string) Fill {
	return Fill{kind: fillLeaseDrop, path: path, leases: leases}
}

// Apply performs the update.
func (f *Fill) Apply() {
	switch f.kind {
	case fillPositive:
		f.dentries.PutPositive(f.path, f.attr.Ino)
		if f.attrs != nil {
			f.attrs.Put(f.path, f.attr)
		}
	case fillNegative:
		f.dentries.PutNegative(f.path)
	case fillLease:
		f.leases.Put(f.path, f.attr, f.expiry, f.authority, f.epoch)
	case fillLeaseDrop:
		f.leases.Invalidate(f.path)
	}
}
