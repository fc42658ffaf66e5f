package clientcache

import "dmetabench/internal/fs"

// Fill is one client-cache update a server ships back with an RPC
// reply, held as a plain value so that queueing it for the reply leg
// (internal/simnet Defer) allocates nothing: a positive dentry with
// its attributes, or a negative dentry.
type Fill struct {
	negative bool
	path     string
	attr     fs.Attr
	attrs    *AttrCache
	dentries *DentryCache
}

// PositiveFill records that path resolves to a.Ino in dentries and,
// unless attrs is nil, caches a in attrs.
func PositiveFill(attrs *AttrCache, dentries *DentryCache, path string, a fs.Attr) Fill {
	return Fill{path: path, attr: a, attrs: attrs, dentries: dentries}
}

// NegativeFill records in dentries that path does not exist.
func NegativeFill(dentries *DentryCache, path string) Fill {
	return Fill{negative: true, path: path, dentries: dentries}
}

// Apply performs the update.
func (f *Fill) Apply() {
	if f.negative {
		f.dentries.PutNegative(f.path)
		return
	}
	f.dentries.PutPositive(f.path, f.attr.Ino)
	if f.attrs != nil {
		f.attrs.Put(f.path, f.attr)
	}
}
