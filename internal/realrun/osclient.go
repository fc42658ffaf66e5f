// Package realrun executes DMetabench plugins against real file systems
// in real time: in-process worker goroutines for intra-node parallelism
// and a net/rpc master/worker protocol for multi-node runs. It reuses the
// plugin, parameter and result machinery of internal/core, so simulated
// and real measurements produce identical result sets.
package realrun

import (
	"io"
	iofs "io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dmetabench/internal/fs"
)

// OSClient adapts a directory of the host file system to the benchmark's
// metadata API. All virtual paths are resolved under Root; attempts to
// escape the root are clamped to it.
type OSClient struct {
	Root string

	mu    sync.Mutex // guards files
	files fs.Files[*os.File]
}

// NewOSClient returns a client rooted at root.
func NewOSClient(root string) *OSClient {
	return &OSClient{Root: root}
}

// realPath maps a virtual absolute path into the root directory.
func (c *OSClient) realPath(p string) string {
	clean := path.Clean("/" + strings.TrimPrefix(p, "/"))
	return filepath.Join(c.Root, filepath.FromSlash(clean))
}

// mapErr converts an os error into the benchmark error model.
func mapErr(op, p string, err error) error {
	if err == nil {
		return nil
	}
	// Inspect the specific errno text first: os.IsExist also matches
	// ENOTEMPTY, which must stay distinguishable for rmdir semantics.
	var pe *iofs.PathError
	if ok := asPathError(err, &pe); ok {
		msg := pe.Err.Error()
		switch {
		case strings.Contains(msg, "not a directory"):
			return fs.NewError(op, p, fs.ENOTDIR)
		case strings.Contains(msg, "is a directory"):
			return fs.NewError(op, p, fs.EISDIR)
		case strings.Contains(msg, "not empty"):
			return fs.NewError(op, p, fs.ENOTEMPTY)
		case strings.Contains(msg, "cross-device"):
			return fs.NewError(op, p, fs.EXDEV)
		}
	}
	switch {
	case os.IsExist(err):
		return fs.NewError(op, p, fs.EEXIST)
	case os.IsNotExist(err):
		return fs.NewError(op, p, fs.ENOENT)
	case os.IsPermission(err):
		return fs.NewError(op, p, fs.EACCES)
	}
	return fs.NewError(op, p, fs.EINVAL)
}

func asPathError(err error, target **iofs.PathError) bool {
	for err != nil {
		if pe, ok := err.(*iofs.PathError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Create makes an empty file (open O_CREAT|O_EXCL + close).
func (c *OSClient) Create(p string) error {
	f, err := os.OpenFile(c.realPath(p), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return mapErr("create", p, err)
	}
	return f.Close()
}

// Open opens an existing file for read/write.
func (c *OSClient) Open(p string) (fs.Handle, error) {
	f, err := os.OpenFile(c.realPath(p), os.O_RDWR, 0)
	if err != nil {
		return 0, mapErr("open", p, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.files.Open(f), nil
}

func (c *OSClient) file(op string, h fs.Handle) (*os.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.files.Get(op, h)
}

// Close closes the handle.
func (c *OSClient) Close(h fs.Handle) error {
	c.mu.Lock()
	f, err := c.files.Close(h)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return f.Close()
}

// Write appends n zero bytes.
func (c *OSClient) Write(h fs.Handle, n int64) error {
	f, err := c.file("write", h)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return mapErr("write", f.Name(), err)
	}
	buf := make([]byte, 32<<10)
	for n > 0 {
		chunk := int64(len(buf))
		if n < chunk {
			chunk = n
		}
		if _, err := f.Write(buf[:chunk]); err != nil {
			return mapErr("write", f.Name(), err)
		}
		n -= chunk
	}
	return nil
}

// Fsync flushes the file to stable storage.
func (c *OSClient) Fsync(h fs.Handle) error {
	f, err := c.file("fsync", h)
	if err != nil {
		return err
	}
	return mapErr("fsync", f.Name(), f.Sync())
}

// Mkdir creates a directory.
func (c *OSClient) Mkdir(p string) error {
	return mapErr("mkdir", p, os.Mkdir(c.realPath(p), 0o755))
}

// Rmdir removes an empty directory.
func (c *OSClient) Rmdir(p string) error {
	info, err := os.Lstat(c.realPath(p))
	if err != nil {
		return mapErr("rmdir", p, err)
	}
	if !info.IsDir() {
		return fs.NewError("rmdir", p, fs.ENOTDIR)
	}
	return mapErr("rmdir", p, os.Remove(c.realPath(p)))
}

// Unlink removes a file.
func (c *OSClient) Unlink(p string) error {
	info, err := os.Lstat(c.realPath(p))
	if err != nil {
		return mapErr("unlink", p, err)
	}
	if info.IsDir() {
		return fs.NewError("unlink", p, fs.EISDIR)
	}
	return mapErr("unlink", p, os.Remove(c.realPath(p)))
}

// Rename moves a file or directory.
func (c *OSClient) Rename(oldPath, newPath string) error {
	return mapErr("rename", oldPath, os.Rename(c.realPath(oldPath), c.realPath(newPath)))
}

// Stat reads attributes.
func (c *OSClient) Stat(p string) (fs.Attr, error) {
	info, err := os.Lstat(c.realPath(p))
	if err != nil {
		return fs.Attr{}, mapErr("stat", p, err)
	}
	a := fs.Attr{
		Size:  info.Size(),
		Mode:  uint32(info.Mode().Perm()),
		Mtime: time.Duration(info.ModTime().UnixNano()),
		Nlink: 1,
	}
	switch {
	case info.IsDir():
		a.Type = fs.TypeDirectory
	case info.Mode()&os.ModeSymlink != 0:
		a.Type = fs.TypeSymlink
	default:
		a.Type = fs.TypeRegular
	}
	return a, nil
}

// ReadDir lists a directory.
func (c *OSClient) ReadDir(p string) ([]fs.DirEntry, error) {
	ents, err := os.ReadDir(c.realPath(p))
	if err != nil {
		return nil, mapErr("readdir", p, err)
	}
	out := make([]fs.DirEntry, 0, len(ents))
	for _, e := range ents {
		t := fs.TypeRegular
		if e.IsDir() {
			t = fs.TypeDirectory
		} else if e.Type()&os.ModeSymlink != 0 {
			t = fs.TypeSymlink
		}
		out = append(out, fs.DirEntry{Name: e.Name(), Type: t})
	}
	return out, nil
}

// DropCaches attempts the Linux drop_caches mechanism; without the needed
// privileges it is a no-op, exactly like running the original benchmark
// without its suid wrapper (§3.4.3).
func (c *OSClient) DropCaches() {
	if f, err := os.OpenFile("/proc/sys/vm/drop_caches", os.O_WRONLY, 0); err == nil {
		f.Write([]byte("3\n"))
		f.Close()
	}
}
