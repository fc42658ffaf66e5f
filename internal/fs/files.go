package fs

// Files is one client's open-file table: it numbers handles 1, 2, 3… in
// the order the client opens them and binds each to the model's
// per-file state F. The zero value is an empty table.
type Files[F any] struct {
	next Handle
	open map[Handle]F
}

// Open binds f to a new handle.
func (t *Files[F]) Open(f F) Handle {
	if t.open == nil {
		t.open = make(map[Handle]F)
	}
	t.next++
	t.open[t.next] = f
	return t.next
}

// Get returns the file open under h, or EBADF naming op when h is not
// open.
func (t *Files[F]) Get(op string, h Handle) (F, error) {
	f, ok := t.open[h]
	if !ok {
		return f, NewError(op, "", EBADF)
	}
	return f, nil
}

// Close removes h from the table and returns its file, or EBADF when h
// is not open.
func (t *Files[F]) Close(h Handle) (F, error) {
	f, err := t.Get("close", h)
	if err == nil {
		delete(t.open, h)
	}
	return f, err
}

// Buffer is a client's write-behind buffer for one open file: the bytes
// written since the last flush. Dirty is set by any Write, even of zero
// bytes, so a model flushes on Close or Fsync exactly when a Write came
// after its last flush.
type Buffer struct {
	Written int64
	Dirty   bool
}

// Add buffers n more bytes.
func (b *Buffer) Add(n int64) {
	b.Written += n
	b.Dirty = true
}

// Reset empties the buffer after a flush.
func (b *Buffer) Reset() { b.Written, b.Dirty = 0, false }

// buffered is a model's per-file state that embeds a Buffer.
type buffered interface{ buffer() *Buffer }

func (b *Buffer) buffer() *Buffer { return b }

// WriteBuffered buffers n bytes for the file open under h, or answers
// EBADF: the Write of a model that sends written bytes on Close or
// Fsync.
func WriteBuffered[F buffered](t *Files[F], h Handle, n int64) error {
	f, err := t.Get("write", h)
	if err == nil {
		f.buffer().Add(n)
	}
	return err
}

// CloseBuffered closes h and, when a Write came after the file's last
// flush, runs the model's flush on it.
func CloseBuffered[F buffered](t *Files[F], h Handle, flush func(F) error) error {
	f, err := t.Close(h)
	if err != nil || !f.buffer().Dirty {
		return err
	}
	return flush(f)
}

// FsyncBuffered runs the model's flush on the file open under h when a
// Write came after its last flush.
func FsyncBuffered[F buffered](t *Files[F], h Handle, flush func(F) error) error {
	f, err := t.Get("fsync", h)
	if err != nil || !f.buffer().Dirty {
		return err
	}
	return flush(f)
}
