package clientcache

import "dmetabench/internal/fs"

// Fill is one client-cache update a server ships back with an RPC
// reply, held as a plain value so that queueing it for the reply leg
// (internal/simnet Defer) allocates nothing: a positive dentry, with or
// without its attributes, or a negative dentry.
type Fill struct {
	names    *NameCache
	path     string
	attr     fs.Attr
	negative bool
	withAttr bool
}

// PositiveFill records in names that path resolves to a.Ino and, if
// withAttr, caches a as its attributes.
func PositiveFill(names *NameCache, path string, a fs.Attr, withAttr bool) Fill {
	return Fill{names: names, path: path, attr: a, withAttr: withAttr}
}

// NegativeFill records in names that path does not exist.
func NegativeFill(names *NameCache, path string) Fill {
	return Fill{names: names, path: path, negative: true}
}

// Apply performs the update.
func (f *Fill) Apply() {
	switch {
	case f.negative:
		f.names.PutNegative(f.path)
	case f.withAttr:
		f.names.Put(f.path, f.attr)
	default:
		f.names.PutDentry(f.path, f.attr.Ino, f.attr.Type == fs.TypeDirectory)
	}
}
