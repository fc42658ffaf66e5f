package fs

// Counts records how many operations of each kind a client issued. It is
// the analogue of the dtrace system call counting in §4.2.1 of the thesis,
// which revealed that Python's high-level file objects issue an extra
// fstat per open.
type Counts [NumOpKinds]int64

// Total returns the sum over all operation kinds.
func (c *Counts) Total() int64 {
	var t int64
	for _, n := range c {
		t += n
	}
	return t
}

// Get returns the count for one kind.
func (c *Counts) Get(k OpKind) int64 { return c[k] }

// CountingClient wraps a Client and counts every issued operation.
type CountingClient struct {
	Inner Client
	N     Counts
}

// NewCountingClient returns a counting wrapper around inner.
func NewCountingClient(inner Client) *CountingClient {
	return &CountingClient{Inner: inner}
}

func (c *CountingClient) Create(path string) error {
	c.N[OpCreate]++
	return c.Inner.Create(path)
}

func (c *CountingClient) Open(path string) (Handle, error) {
	c.N[OpOpen]++
	return c.Inner.Open(path)
}

func (c *CountingClient) Close(h Handle) error {
	c.N[OpClose]++
	return c.Inner.Close(h)
}

func (c *CountingClient) Write(h Handle, n int64) error {
	c.N[OpWrite]++
	return c.Inner.Write(h, n)
}

func (c *CountingClient) Fsync(h Handle) error {
	c.N[OpFsync]++
	return c.Inner.Fsync(h)
}

func (c *CountingClient) Mkdir(path string) error {
	c.N[OpMkdir]++
	return c.Inner.Mkdir(path)
}

func (c *CountingClient) Rmdir(path string) error {
	c.N[OpRmdir]++
	return c.Inner.Rmdir(path)
}

func (c *CountingClient) Unlink(path string) error {
	c.N[OpUnlink]++
	return c.Inner.Unlink(path)
}

func (c *CountingClient) Rename(oldPath, newPath string) error {
	c.N[OpRename]++
	return c.Inner.Rename(oldPath, newPath)
}

func (c *CountingClient) Stat(path string) (Attr, error) {
	c.N[OpStat]++
	return c.Inner.Stat(path)
}

func (c *CountingClient) ReadDir(path string) ([]DirEntry, error) {
	c.N[OpReadDir]++
	return c.Inner.ReadDir(path)
}

func (c *CountingClient) DropCaches() {
	c.N[OpDropCaches]++
	c.Inner.DropCaches()
}

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
