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
