// Package fs defines the metadata-level file system API that DMetabench
// plugins call and every file system model implements.
//
// The interface is the subset of the POSIX system calls catalogued in
// Chapter 2 of the thesis (Tables 2.2–2.4) that the benchmark plugins
// make: it is deliberately the lowest common denominator of local and
// distributed file systems, because the whole point of the benchmark is
// to compare implementations behind an unchanged API.
package fs

import (
	"fmt"
	"time"
)

// Errno is a POSIX-style error code.
type Errno int

// Error codes used across the file system models.
const (
	OK Errno = iota
	EEXIST
	ENOENT
	ENOTDIR
	EISDIR
	ENOTEMPTY
	EXDEV
	EINVAL
	ENOSPC
	ESTALE
	EBADF
	EMLINK
	EACCES
	// ETIMEDOUT reports an RPC that received no reply (server crashed or
	// unreachable); clients of fault-tolerant models retry on it.
	ETIMEDOUT
)

var errnoNames = map[Errno]string{
	OK: "OK", EEXIST: "EEXIST", ENOENT: "ENOENT", ENOTDIR: "ENOTDIR",
	EISDIR: "EISDIR", ENOTEMPTY: "ENOTEMPTY", EXDEV: "EXDEV",
	EINVAL: "EINVAL", ENOSPC: "ENOSPC", ESTALE: "ESTALE", EBADF: "EBADF",
	EMLINK: "EMLINK", EACCES: "EACCES", ETIMEDOUT: "ETIMEDOUT",
}

func (e Errno) String() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("Errno(%d)", int(e))
}

// Error is a file system error carrying the operation, path and code.
type Error struct {
	Op   string
	Path string
	Code Errno
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s %s: %s", e.Op, e.Path, e.Code)
}

// NewError returns an *Error.
func NewError(op, path string, code Errno) *Error {
	return &Error{Op: op, Path: path, Code: code}
}

// CodeOf extracts the Errno from an error, or OK for nil and EINVAL for
// foreign errors.
func CodeOf(err error) Errno {
	if err == nil {
		return OK
	}
	if fe, ok := err.(*Error); ok {
		return fe.Code
	}
	return EINVAL
}

// IsNotExist reports whether err is an ENOENT error.
func IsNotExist(err error) bool { return CodeOf(err) == ENOENT }

// IsExist reports whether err is an EEXIST error.
func IsExist(err error) bool { return CodeOf(err) == EEXIST }

// IsTimeout reports whether err is an RPC timeout (ETIMEDOUT).
func IsTimeout(err error) bool { return CodeOf(err) == ETIMEDOUT }

// ParentDir returns the parent directory of an already-clean path:
// everything before the final slash, "/" for top-level entries and "."
// for relative names without one. It matches path.Dir for the clean
// absolute paths the benchmark builds, without path.Dir's re-cleaning
// scan — this sits on the per-operation client hot path (parent locks,
// parent lookups), where the extra scan was measurable.
func ParentDir(p string) string {
	i := len(p) - 1
	for i >= 0 && p[i] != '/' {
		i--
	}
	switch {
	case i < 0:
		return "."
	case i == 0:
		return "/"
	default:
		return p[:i]
	}
}

// TopComponent returns the first path component of a clean absolute
// path: "a" for "/a/b/c", "a" for "/a", "" for "/" or paths without a
// leading slash. Namespace-partitioned file systems route requests by
// the top-level subtree, so like ParentDir this sits on the
// per-operation routing hot path and avoids a full Split.
func TopComponent(p string) string {
	if len(p) == 0 || p[0] != '/' {
		return ""
	}
	i := 1
	for i < len(p) && p[i] != '/' {
		i++
	}
	return p[1:i]
}

// FileType distinguishes the inode kinds the benchmark handles.
type FileType uint8

// Inode kinds. No model makes a symlink; TypeSymlink is what the
// real-mode client reports for one it finds on the host.
const (
	TypeRegular FileType = iota
	TypeDirectory
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDirectory:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return "unknown"
	}
}

// Ino is an inode number, unique within one file system instance.
type Ino uint64

// Attr carries the standard POSIX attributes of Table 2.1.
type Attr struct {
	Ino    Ino
	Type   FileType
	Mode   uint32
	Nlink  uint32
	UID    uint32
	GID    uint32
	Size   int64
	Blocks int64
	Atime  time.Duration // virtual time since simulation start
	Mtime  time.Duration
	Ctime  time.Duration
}

// DirEntry is one directory entry as returned by ReadDir.
type DirEntry struct {
	Name string
	Ino  Ino
	Type FileType
}

// Handle identifies an open file within one client.
type Handle int64

// Client is the metadata API that benchmark plugins call. Implementations
// are bound to one calling context (one simulated process on one node, or
// one OS thread in real mode), so methods take no explicit caller.
//
// Create is the open(O_CREAT|O_EXCL)+close pair used by MakeFiles; Open
// and Close manage handles for OpenCloseFiles and for Write.
type Client interface {
	Create(path string) error
	Open(path string) (Handle, error)
	Close(h Handle) error
	Write(h Handle, n int64) error
	Fsync(h Handle) error
	Mkdir(path string) error
	Rmdir(path string) error
	Unlink(path string) error
	Rename(oldPath, newPath string) error
	Stat(path string) (Attr, error)
	ReadDir(path string) ([]DirEntry, error)
	// DropCaches discards client-side caches (Linux drop_caches analogue,
	// §3.4.3). File systems with persistent caches (AFS) may retain data.
	DropCaches()
}

// ReadDirPlusser is an optional Client capability: ReadDirPlus lists a
// directory and returns each entry's attributes from the same request —
// the NFSv3 READDIRPLUS / batched-lookup idiom that turns the "ls -l"
// scan of §2.8.3 from one RPC per entry into one RPC per directory,
// filling the client caches as a side effect. attrs[i] describes
// entries[i].
type ReadDirPlusser interface {
	ReadDirPlus(path string) (entries []DirEntry, attrs []Attr, err error)
}

// ReadDirPlus lists path with attributes through c's batched protocol
// when it has one, and otherwise via StatEntries — same result,
// per-entry cost.
func ReadDirPlus(c Client, path string) ([]DirEntry, []Attr, error) {
	if rp, ok := c.(ReadDirPlusser); ok {
		return rp.ReadDirPlus(path)
	}
	return StatEntries(c, path)
}

// StatEntries is the unbatched readdirplus: ReadDir followed by one
// Stat per entry. Clients that do implement the batched protocol use it
// for directories the protocol cannot serve in one request (a root
// spanning every shard of a partitioned namespace).
func StatEntries(c Client, path string) ([]DirEntry, []Attr, error) {
	ents, err := c.ReadDir(path)
	if err != nil {
		return nil, nil, err
	}
	attrs := make([]Attr, len(ents))
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	for i, e := range ents {
		a, serr := c.Stat(prefix + e.Name)
		if serr != nil {
			return nil, nil, serr
		}
		attrs[i] = a
	}
	return ents, attrs, nil
}

// OpKind enumerates client operations for tracing and accounting.
type OpKind int

// Operation kinds, one per Client method.
const (
	OpCreate OpKind = iota
	OpOpen
	OpClose
	OpWrite
	OpFsync
	OpMkdir
	OpRmdir
	OpUnlink
	OpRename
	OpStat
	OpReadDir
	OpDropCaches
	opKindCount
)

var opNames = [...]string{
	"create", "open", "close", "write", "fsync", "mkdir", "rmdir",
	"unlink", "rename", "stat", "readdir", "dropcaches",
}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// NumOpKinds is the number of distinct operation kinds.
const NumOpKinds = int(opKindCount)

// File is a convenience high-level file object in the style of scripting
// language runtimes. CreateHighLevel mimics Python's file object
// construction: it stats the path first (to reject directories) before
// opening, issuing one extra metadata operation per create — exactly the
// behaviour §4.2.1 uncovered with dtrace. CreateDirect is the thin
// wrapper that maps 1:1 onto the API, like Python's os module.
func CreateHighLevel(c Client, path string) error {
	if a, err := c.Stat(path); err == nil && a.Type == TypeDirectory {
		return NewError("open", path, EISDIR)
	}
	h, err := c.Open(path)
	if err != nil {
		if !IsNotExist(err) {
			return err
		}
		if err := c.Create(path); err != nil {
			return err
		}
		return nil
	}
	return c.Close(h)
}

// CreateDirect creates path with the minimal operation sequence.
func CreateDirect(c Client, path string) error {
	return c.Create(path)
}
