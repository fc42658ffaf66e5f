package core

import (
	"testing"

	"dmetabench/internal/fs"
)

// recordClient is an fs.Client that records the Create paths it sees —
// enough to replay a plugin's draw sequence without a simulator.
type recordClient struct {
	creates []string
}

func (r *recordClient) Create(path string) error {
	r.creates = append(r.creates, path)
	return nil
}
func (r *recordClient) Open(path string) (fs.Handle, error)        { return 1, nil }
func (r *recordClient) Close(h fs.Handle) error                    { return nil }
func (r *recordClient) Write(h fs.Handle, n int64) error           { return nil }
func (r *recordClient) Fsync(h fs.Handle) error                    { return nil }
func (r *recordClient) Mkdir(path string) error                    { return nil }
func (r *recordClient) Rmdir(path string) error                    { return nil }
func (r *recordClient) Unlink(path string) error                   { return nil }
func (r *recordClient) Rename(oldPath, newPath string) error       { return nil }
func (r *recordClient) Stat(path string) (fs.Attr, error)          { return fs.Attr{}, nil }
func (r *recordClient) ReadDir(path string) ([]fs.DirEntry, error) { return nil, nil }
func (r *recordClient) DropCaches()                                {}

// zipfDraws replays ZipfDirFiles.DoBench at the given skew and returns
// the sequence of created paths.
func zipfDraws(t *testing.T, skew float64, n int) []string {
	t.Helper()
	rc := &recordClient{}
	ctx := &Ctx{
		FS:      rc,
		Workers: 1,
		Params:  Params{ProblemSize: n, WorkDir: "/"},
	}
	z := ZipfDirFiles{Projects: 8, SubdirsPerProject: 4, Skew: skew}
	if err := z.DoBench(ctx); err != nil {
		t.Fatal(err)
	}
	return rc.creates
}

// TestZipfDirFilesSkewBoundary pins the Zipf cutoff at strictly
// Skew > 1: math/rand's Zipf generator is defined only for s > 1, so
// Skew == 1.0 must degrade to the uniform draw — byte-identical to
// Skew 0 under the same per-rank seed — while any skew above 1 must
// produce a genuinely different (and skewed) sequence.
func TestZipfDirFilesSkewBoundary(t *testing.T) {
	const n = 400
	uniform := zipfDraws(t, 0, n)
	boundary := zipfDraws(t, 1.0, n)
	skewed := zipfDraws(t, 1.8, n)
	if len(uniform) != n || len(boundary) != n || len(skewed) != n {
		t.Fatalf("draw counts: %d/%d/%d, want %d", len(uniform), len(boundary), len(skewed), n)
	}
	for i := range uniform {
		if uniform[i] != boundary[i] {
			t.Fatalf("Skew 1.0 diverged from uniform at draw %d: %q vs %q — the cutoff is Skew > 1, not >= 1",
				i, boundary[i], uniform[i])
		}
	}
	same := true
	for i := range uniform {
		if uniform[i] != skewed[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Skew 1.8 produced the uniform sequence; the Zipf path never engaged")
	}
	// And the skewed draw really concentrates: project zp0 must take a
	// clearly larger share than the uniform 1/8.
	count := func(paths []string, prefix string) int {
		c := 0
		for _, p := range paths {
			if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
				c++
			}
		}
		return c
	}
	if u, s := count(uniform, "/zp0/"), count(skewed, "/zp0/"); s <= u {
		t.Errorf("Zipf 1.8 gave zp0 %d draws vs uniform %d; expected concentration on the hot project", s, u)
	}
}
