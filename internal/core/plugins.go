package core

import (
	"fmt"
	"math/rand"
	"strconv"

	"dmetabench/internal/fs"
)

// The pre-defined benchmark plugins of Table 3.5. Each operation's
// doBench loop calls Ctx.Tick once per completed operation; the
// supervisor samples the counter on the interval grid.

// MakeFiles creates as many empty files as possible for the configured
// time limit (default 60 s), starting a fresh subdirectory every
// ProblemSize files so directory-size side effects stay bounded (§3.3.7).
type MakeFiles struct{}

// Name implements Plugin.
func (MakeFiles) Name() string { return "MakeFiles" }

// Prepare creates the working directory.
func (MakeFiles) Prepare(c *Ctx) error { return MkdirAll(c.FS, c.Dir) }

// DoBench creates files until the deadline (or ProblemSize files when no
// time limit is configured).
func (MakeFiles) DoBench(c *Ctx) error { return makeLoop(c, c.FS.Create) }

// Cleanup removes the working directory tree.
func (MakeFiles) Cleanup(c *Ctx) error { return RemoveAll(c.FS, c.Dir) }

// makeLoop is the timed loop of MakeFiles, MakeFilesSized and MakeDirs:
// it runs step on one new name after another, in subdirectory s0 and
// then in a fresh s<n> every ProblemSize names (5000 when unset), until
// the deadline or, without one, for ProblemSize names. s0 is made before
// the first deadline check.
func makeLoop(c *Ctx, step func(name string) error) error {
	limit := c.Params.ProblemSize
	if limit <= 0 {
		limit = 5000
	}
	mkdir := func(sub int) (string, error) {
		dir := subDirName(c.Dir, sub)
		if err := c.FS.Mkdir(dir); err != nil && !fs.IsExist(err) {
			return "", err
		}
		return dir, nil
	}
	dir, err := mkdir(0)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		if c.Deadline > 0 {
			if c.Expired() {
				return nil
			}
		} else if i >= limit {
			return nil
		}
		if i > 0 && i%limit == 0 {
			if dir, err = mkdir(i / limit); err != nil {
				return err
			}
		}
		if err := step(fileName(dir, i%limit)); err != nil {
			return err
		}
		c.Tick()
	}
}

// MakeFilesSized is MakeFiles with a payload written into every file; the
// 64- and 65-byte variants probe the WAFL inline-inode allocation
// boundary (§3.3.8).
type MakeFilesSized struct {
	Bytes int64
}

// Name implements Plugin.
func (m MakeFilesSized) Name() string { return fmt.Sprintf("MakeFiles%dbyte", m.Bytes) }

// Prepare creates the working directory.
func (m MakeFilesSized) Prepare(c *Ctx) error { return MkdirAll(c.FS, c.Dir) }

// DoBench creates files and writes the payload.
func (m MakeFilesSized) DoBench(c *Ctx) error {
	return makeLoop(c, func(name string) error {
		if err := c.FS.Create(name); err != nil {
			return err
		}
		h, err := c.FS.Open(name)
		if err != nil {
			return err
		}
		if err := c.FS.Write(h, m.Bytes); err != nil {
			return err
		}
		return c.FS.Close(h)
	})
}

// Cleanup removes the working directory tree.
func (m MakeFilesSized) Cleanup(c *Ctx) error { return RemoveAll(c.FS, c.Dir) }

// MakeOnedirFiles has all processes create files in one shared directory;
// the total number created is ProblemSize, split evenly (§3.3.8). It
// exposes both client- and server-side same-directory serialization.
type MakeOnedirFiles struct{}

// Name implements Plugin.
func (MakeOnedirFiles) Name() string { return "MakeOnedirFiles" }

func onedir(c *Ctx) string { return c.Params.WorkDir + "/onedir" }

// Prepare creates the shared directory (every process tries; EEXIST is
// fine).
func (MakeOnedirFiles) Prepare(c *Ctx) error { return MkdirAll(c.FS, onedir(c)) }

// DoBench creates this process's share of the files, names partitioned
// by rank so uniqueness conflicts cannot occur.
func (MakeOnedirFiles) DoBench(c *Ctx) error {
	n := c.Params.ProblemSize / c.Workers
	dir := onedir(c)
	for i := 0; i < n; i++ {
		if err := c.FS.Create(rankFileName(dir, c.Rank, i)); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes this process's files; rank 0 removes the directory.
func (MakeOnedirFiles) Cleanup(c *Ctx) error {
	n := c.Params.ProblemSize / c.Workers
	dir := onedir(c)
	for i := 0; i < n; i++ {
		if err := c.FS.Unlink(rankFileName(dir, c.Rank, i)); err != nil && !fs.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// MakeDirs is MakeFiles with mkdir (§3.3.8).
type MakeDirs struct{}

// Name implements Plugin.
func (MakeDirs) Name() string { return "MakeDirs" }

// Prepare creates the working directory.
func (MakeDirs) Prepare(c *Ctx) error { return MkdirAll(c.FS, c.Dir) }

// DoBench creates directories until the deadline or problem size.
func (MakeDirs) DoBench(c *Ctx) error { return makeLoop(c, c.FS.Mkdir) }

// Cleanup removes the working directory tree.
func (MakeDirs) Cleanup(c *Ctx) error { return RemoveAll(c.FS, c.Dir) }

// prepareFiles creates ProblemSize test files in the process directory.
func prepareFiles(c *Ctx) error {
	if err := MkdirAll(c.FS, c.Dir); err != nil {
		return err
	}
	for i := 0; i < c.Params.ProblemSize; i++ {
		if err := c.FS.Create(fileName(c.Dir, i)); err != nil && !fs.IsExist(err) {
			return err
		}
	}
	return nil
}

// cleanupFiles removes the test files and the directory.
func cleanupFiles(c *Ctx) error { return RemoveAll(c.FS, c.Dir) }

// DeleteFiles measures unlink on pre-created files (§3.3.8).
type DeleteFiles struct{}

// Name implements Plugin.
func (DeleteFiles) Name() string { return "DeleteFiles" }

// Prepare creates the test files.
func (DeleteFiles) Prepare(c *Ctx) error { return prepareFiles(c) }

// DoBench unlinks every file.
func (DeleteFiles) DoBench(c *Ctx) error {
	for i := 0; i < c.Params.ProblemSize; i++ {
		if err := c.FS.Unlink(fileName(c.Dir, i)); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes the directory.
func (DeleteFiles) Cleanup(c *Ctx) error { return cleanupFiles(c) }

// StatFiles measures attribute retrieval with warm client caches.
type StatFiles struct{}

// Name implements Plugin.
func (StatFiles) Name() string { return "StatFiles" }

// Prepare creates the test files.
func (StatFiles) Prepare(c *Ctx) error { return prepareFiles(c) }

// DoBench stats every file.
func (StatFiles) DoBench(c *Ctx) error {
	for i := 0; i < c.Params.ProblemSize; i++ {
		if _, err := c.FS.Stat(fileName(c.Dir, i)); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes the files.
func (StatFiles) Cleanup(c *Ctx) error { return cleanupFiles(c) }

// StatNocacheFiles drops the OS caches after preparing the files, so the
// stats must be served by the file system (§3.4.3). On AFS the persistent
// cache survives, which is precisely a finding of the thesis.
type StatNocacheFiles struct{}

// Name implements Plugin.
func (StatNocacheFiles) Name() string { return "StatNocacheFiles" }

// Prepare creates the files and drops the caches.
func (StatNocacheFiles) Prepare(c *Ctx) error {
	if err := prepareFiles(c); err != nil {
		return err
	}
	c.FS.DropCaches()
	return nil
}

// DoBench stats every file.
func (StatNocacheFiles) DoBench(c *Ctx) error { return StatFiles{}.DoBench(c) }

// Cleanup removes the files.
func (StatNocacheFiles) Cleanup(c *Ctx) error { return cleanupFiles(c) }

// StatMultinodeFiles has every process stat the files created by a peer
// process on another node, bypassing the local cache without privileged
// cache-drop operations (§3.4.3).
type StatMultinodeFiles struct{}

// Name implements Plugin.
func (StatMultinodeFiles) Name() string { return "StatMultinodeFiles" }

// Prepare creates this process's files; the peer will stat them.
func (StatMultinodeFiles) Prepare(c *Ctx) error { return prepareFiles(c) }

// DoBench stats the peer's files.
func (StatMultinodeFiles) DoBench(c *Ctx) error {
	for i := 0; i < c.Params.ProblemSize; i++ {
		if _, err := c.FS.Stat(fileName(c.PeerDir, i)); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes this process's own files.
func (StatMultinodeFiles) Cleanup(c *Ctx) error { return cleanupFiles(c) }

// OpenCloseFiles measures an open/close pair per pre-created file.
type OpenCloseFiles struct{}

// Name implements Plugin.
func (OpenCloseFiles) Name() string { return "OpenCloseFiles" }

// Prepare creates the test files.
func (OpenCloseFiles) Prepare(c *Ctx) error { return prepareFiles(c) }

// DoBench opens and closes every file.
func (OpenCloseFiles) DoBench(c *Ctx) error {
	for i := 0; i < c.Params.ProblemSize; i++ {
		h, err := c.FS.Open(fileName(c.Dir, i))
		if err != nil {
			return err
		}
		if err := c.FS.Close(h); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes the files.
func (OpenCloseFiles) Cleanup(c *Ctx) error { return cleanupFiles(c) }

// PluginByName resolves the built-in plugins by their result-file names.
func PluginByName(name string) (Plugin, error) {
	switch name {
	case "MakeFiles":
		return MakeFiles{}, nil
	case "MakeFiles64byte":
		return MakeFilesSized{Bytes: 64}, nil
	case "MakeFiles65byte":
		return MakeFilesSized{Bytes: 65}, nil
	case "MakeOnedirFiles":
		return MakeOnedirFiles{}, nil
	case "MakeDirs":
		return MakeDirs{}, nil
	case "DeleteFiles":
		return DeleteFiles{}, nil
	case "StatFiles":
		return StatFiles{}, nil
	case "StatNocacheFiles":
		return StatNocacheFiles{}, nil
	case "StatMultinodeFiles":
		return StatMultinodeFiles{}, nil
	case "OpenCloseFiles":
		return OpenCloseFiles{}, nil
	case "ReadDirStatFiles":
		return ReadDirStatFiles{}, nil
	case "ReadDirPlusFiles":
		return ReadDirPlusFiles{}, nil
	case "RenameFiles":
		return RenameFiles{}, nil
	case "StatMutateFiles":
		return StatMutateFiles{}, nil
	case "WideDirFiles":
		return WideDirFiles{}, nil
	case "ZipfDirFiles":
		return ZipfDirFiles{}, nil
	default:
		return nil, fmt.Errorf("unknown benchmark operation %q", name)
	}
}

// ZipfDirFiles models hot-directory skew: Projects top-level project
// subtrees each hold SubdirsPerProject directories; every operation
// draws a project — Zipf(Skew) when Skew > 1, uniform otherwise — picks
// a subdirectory uniformly, and creates a file there. The cutoff is
// strictly Skew > 1, not >= 1: math/rand's Zipf generator is defined
// only for s > 1 (NewZipf returns nil at s == 1), so a configured skew
// of exactly 1.0 deliberately degrades to the uniform draw — pinned by
// TestZipfDirFilesSkewBoundary. When MkdirEvery
// is positive the process additionally creates a fresh directory in the
// chosen project every MkdirEvery files, so namespace mutations stay
// part of the steady-state load. The draw sequence is seeded per rank,
// so identically-configured runs replay identical workloads.
//
// The project tree lives under Params.WorkDir ("/zp<j>" directly at
// the root when WorkDir is "/"). The plugin probes placement policies
// of partitioned metadata services: subtree placement keeps whole
// projects on one server (popular project = hot server), hash
// placement spreads a project's directories but pays for replicated
// directory mutations.
type ZipfDirFiles struct {
	Projects          int
	SubdirsPerProject int
	Skew              float64
	MkdirEvery        int
}

// Name implements Plugin.
func (ZipfDirFiles) Name() string { return "ZipfDirFiles" }

// zipfRoot returns the prefix the project tree lives under: the run's
// working directory, with "/" collapsing to the empty prefix so project
// subtrees sit at the namespace root (the placement-policy experiments
// rely on projects being top-level subtrees).
func zipfRoot(c *Ctx) string {
	if c.Params.WorkDir == "/" {
		return ""
	}
	return c.Params.WorkDir
}

// zipfProjDir returns "<root>/zp<j>".
func zipfProjDir(root string, j int) string {
	b := make([]byte, 0, len(root)+16)
	b = append(b, root...)
	b = append(b, "/zp"...)
	b = strconv.AppendInt(b, int64(j), 10)
	return string(b)
}

// zipfSubDir returns "<root>/zp<j>/sd<s>".
func zipfSubDir(root string, j, s int) string {
	b := make([]byte, 0, len(root)+24)
	b = append(b, root...)
	b = append(b, "/zp"...)
	b = strconv.AppendInt(b, int64(j), 10)
	b = append(b, "/sd"...)
	b = strconv.AppendInt(b, int64(s), 10)
	return string(b)
}

// zipfFileName returns "<root>/zp<j>/sd<s>/r<rank>-<i>".
func zipfFileName(root string, j, s, rank, i int) string {
	b := make([]byte, 0, len(root)+40)
	b = append(b, root...)
	b = append(b, "/zp"...)
	b = strconv.AppendInt(b, int64(j), 10)
	b = append(b, "/sd"...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, "/r"...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(i), 10)
	return string(b)
}

// zipfExtraDir returns "<root>/zp<j>/x<rank>-<n>" for steady-state
// mkdirs.
func zipfExtraDir(root string, j, rank, n int) string {
	b := make([]byte, 0, len(root)+32)
	b = append(b, root...)
	b = append(b, "/zp"...)
	b = strconv.AppendInt(b, int64(j), 10)
	b = append(b, "/x"...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(n), 10)
	return string(b)
}

func (z ZipfDirFiles) projects() int {
	if z.Projects > 0 {
		return z.Projects
	}
	return 8
}

func (z ZipfDirFiles) subdirs() int {
	if z.SubdirsPerProject > 0 {
		return z.SubdirsPerProject
	}
	return 8
}

// Prepare creates the project tree; projects are partitioned across
// ranks so every directory is created exactly once.
func (z ZipfDirFiles) Prepare(c *Ctx) error {
	root := zipfRoot(c)
	if root != "" {
		if err := MkdirAll(c.FS, root); err != nil {
			return err
		}
	}
	for j := 0; j < z.projects(); j++ {
		if j%c.Workers != c.Rank {
			continue
		}
		if err := c.FS.Mkdir(zipfProjDir(root, j)); err != nil && !fs.IsExist(err) {
			return err
		}
		for s := 0; s < z.subdirs(); s++ {
			if err := c.FS.Mkdir(zipfSubDir(root, j, s)); err != nil && !fs.IsExist(err) {
				return err
			}
		}
	}
	return nil
}

// DoBench creates ProblemSize files into Zipf- or uniformly-chosen
// directories, mixing in mkdirs when configured.
func (z ZipfDirFiles) DoBench(c *Ctx) error {
	rng := rand.New(rand.NewSource(int64(40000 + c.Rank)))
	var zipf *rand.Zipf
	if z.Skew > 1 {
		zipf = rand.NewZipf(rng, z.Skew, 1, uint64(z.projects()-1))
	}
	root := zipfRoot(c)
	made := 0
	for i := 0; i < c.Params.ProblemSize; i++ {
		if c.Deadline > 0 && c.Expired() {
			return nil
		}
		var j int
		if zipf != nil {
			j = int(zipf.Uint64())
		} else {
			j = rng.Intn(z.projects())
		}
		s := rng.Intn(z.subdirs())
		if err := c.FS.Create(zipfFileName(root, j, s, c.Rank, i)); err != nil {
			return err
		}
		c.Tick()
		if z.MkdirEvery > 0 && (i+1)%z.MkdirEvery == 0 {
			if err := c.FS.Mkdir(zipfExtraDir(root, j, c.Rank, made)); err != nil && !fs.IsExist(err) {
				return err
			}
			made++
		}
	}
	return nil
}

// Cleanup removes the project subtrees, partitioned across ranks like
// Prepare.
func (z ZipfDirFiles) Cleanup(c *Ctx) error {
	root := zipfRoot(c)
	for j := 0; j < z.projects(); j++ {
		if j%c.Workers != c.Rank {
			continue
		}
		if err := RemoveAll(c.FS, zipfProjDir(root, j)); err != nil {
			return err
		}
	}
	return nil
}

// WideDirFiles is the mdtest shared-directory pattern at scale: every
// process hammers ONE directory shared by all ranks, creating its own
// rank-partitioned files and optionally re-stating earlier ones. It is
// the workload that defeats per-directory partitioning — all load lands
// on whichever server owns the directory — and therefore the probe for
// dynamic directory splitting (E25–E27): with splitting enabled the
// same load spreads across shards as the directory grows. Unlike
// MakeOnedirFiles it is deadline-aware (steady-state timelines, E26)
// and creates ProblemSize files per process rather than in total, so
// adding workers adds load.
type WideDirFiles struct {
	// StatEvery mixes one stat of an earlier own file per this many
	// creates when positive (the routing probe of E27); zero or
	// negative means pure creates.
	StatEvery int
}

// Name implements Plugin.
func (WideDirFiles) Name() string { return "WideDirFiles" }

// wideDir returns the shared directory.
func wideDir(c *Ctx) string {
	if c.Params.WorkDir == "/" {
		return "/wide"
	}
	return c.Params.WorkDir + "/wide"
}

// Prepare creates the shared directory (every process tries; EEXIST is
// fine).
func (WideDirFiles) Prepare(c *Ctx) error { return MkdirAll(c.FS, wideDir(c)) }

// DoBench creates this process's files in the shared directory, names
// partitioned by rank so uniqueness conflicts cannot occur, until the
// count or the deadline runs out.
func (w WideDirFiles) DoBench(c *Ctx) error {
	dir := wideDir(c)
	for i := 0; i < c.Params.ProblemSize; i++ {
		if c.Deadline > 0 && c.Expired() {
			return nil
		}
		if err := c.FS.Create(rankFileName(dir, c.Rank, i)); err != nil {
			return err
		}
		c.Tick()
		if w.StatEvery > 0 && (i+1)%w.StatEvery == 0 {
			if _, err := c.FS.Stat(rankFileName(dir, c.Rank, i/2)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Cleanup removes this process's files (the shared directory itself
// stays, like MakeOnedirFiles; a timed run may have created fewer files
// than ProblemSize, so missing ones are tolerated).
func (w WideDirFiles) Cleanup(c *Ctx) error {
	dir := wideDir(c)
	for i := 0; i < c.Params.ProblemSize; i++ {
		if err := c.FS.Unlink(rankFileName(dir, c.Rank, i)); err != nil {
			if fs.IsNotExist(err) {
				break // a timed run stopped here; nothing beyond exists
			}
			return err
		}
	}
	return nil
}

// ReadDirStatFiles models the data-management scan pattern of §2.8.3
// ("ls -l", incremental backup, virus scan): each operation is a readdir
// of the working directory followed by a stat of every entry; one tick
// per scanned entry.
type ReadDirStatFiles struct{}

// Name implements Plugin.
func (ReadDirStatFiles) Name() string { return "ReadDirStatFiles" }

// Prepare creates the test files.
func (ReadDirStatFiles) Prepare(c *Ctx) error { return prepareFiles(c) }

// DoBench scans the directory and stats every entry.
func (ReadDirStatFiles) DoBench(c *Ctx) error {
	ents, err := c.FS.ReadDir(c.Dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if _, err := c.FS.Stat(c.Dir + "/" + e.Name); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes the files.
func (ReadDirStatFiles) Cleanup(c *Ctx) error { return cleanupFiles(c) }

// StatMutateFiles is the cache-coherence stress load of E22–E24: every
// process stats a pool of files shared by all ranks, and every
// MutateEvery-th operation rewrites one pool file instead. On a
// coherent client cache each rewrite revokes the other nodes' leases on
// that file; on an NFS-style timeout cache it silently stales them —
// exactly the contrast the coherence experiments measure. Draw
// sequences are seeded per rank, so identically-configured runs replay
// identical workloads.
type StatMutateFiles struct {
	// Files is the shared pool size (default 200).
	Files int
	// MutateEvery issues one rewrite per this many operations when
	// positive; zero or negative disables mutations (a pure stat load),
	// like ZipfDirFiles.MkdirEvery.
	MutateEvery int
	// Skew draws pool files Zipf(Skew)-distributed when > 1 (hot files
	// are both the most cached and the most mutated), uniformly
	// otherwise.
	Skew float64
}

// Name implements Plugin.
func (StatMutateFiles) Name() string { return "StatMutateFiles" }

func (s StatMutateFiles) files() int {
	if s.Files > 0 {
		return s.Files
	}
	return 200
}

// hotDir returns the shared pool directory.
func hotDir(c *Ctx) string {
	if c.Params.WorkDir == "/" {
		return "/hot"
	}
	return c.Params.WorkDir + "/hot"
}

// hotFileName returns "<dir>/f<id>".
func hotFileName(dir string, id int) string {
	b := make([]byte, 0, len(dir)+16)
	b = append(b, dir...)
	b = append(b, "/f"...)
	b = strconv.AppendInt(b, int64(id), 10)
	return string(b)
}

// Prepare creates this rank's partition of the shared pool.
func (s StatMutateFiles) Prepare(c *Ctx) error {
	dir := hotDir(c)
	if err := MkdirAll(c.FS, dir); err != nil {
		return err
	}
	for i := c.Rank; i < s.files(); i += c.Workers {
		if err := c.FS.Create(hotFileName(dir, i)); err != nil && !fs.IsExist(err) {
			return err
		}
	}
	return nil
}

// DoBench stats (and periodically rewrites) randomly drawn pool files.
func (s StatMutateFiles) DoBench(c *Ctx) error {
	rng := rand.New(rand.NewSource(int64(8800 + c.Rank)))
	files, me := s.files(), s.MutateEvery
	var zipf *rand.Zipf
	if s.Skew > 1 {
		zipf = rand.NewZipf(rng, s.Skew, 1, uint64(files-1))
	}
	dir := hotDir(c)
	for i := 0; i < c.Params.ProblemSize; i++ {
		if c.Deadline > 0 && c.Expired() {
			return nil
		}
		id := 0
		if zipf != nil {
			id = int(zipf.Uint64())
		} else {
			id = rng.Intn(files)
		}
		name := hotFileName(dir, id)
		if me > 0 && (i+1)%me == 0 {
			h, err := c.FS.Open(name)
			if err != nil {
				return err
			}
			if err := c.FS.Write(h, 128); err != nil {
				return err
			}
			if err := c.FS.Close(h); err != nil {
				return err
			}
		} else if _, err := c.FS.Stat(name); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes this rank's partition of the pool (the shared
// directory itself stays, like MakeOnedirFiles).
func (s StatMutateFiles) Cleanup(c *Ctx) error {
	dir := hotDir(c)
	for i := c.Rank; i < s.files(); i += c.Workers {
		if err := c.FS.Unlink(hotFileName(dir, i)); err != nil && !fs.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// ReadDirPlusFiles is ReadDirStatFiles on the batched lookup path: one
// readdirplus request returns the listing with every entry's attributes
// (fs.ReadDirPlusser, with a readdir+stat fallback for file systems
// without the protocol); one tick per scanned entry.
type ReadDirPlusFiles struct{}

// Name implements Plugin.
func (ReadDirPlusFiles) Name() string { return "ReadDirPlusFiles" }

// Prepare creates the test files.
func (ReadDirPlusFiles) Prepare(c *Ctx) error { return prepareFiles(c) }

// DoBench scans the directory with attributes in one batch.
func (ReadDirPlusFiles) DoBench(c *Ctx) error {
	ents, attrs, err := fs.ReadDirPlus(c.FS, c.Dir)
	if err != nil {
		return err
	}
	for i := range ents {
		if attrs[i].Ino != ents[i].Ino {
			return fs.NewError("readdirplus", c.Dir, fs.EINVAL)
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes the files.
func (ReadDirPlusFiles) Cleanup(c *Ctx) error { return cleanupFiles(c) }

// RenameFiles measures the atomic-rename path applications depend on for
// transactional updates (§2.6.3).
type RenameFiles struct{}

// Name implements Plugin.
func (RenameFiles) Name() string { return "RenameFiles" }

// Prepare creates the test files.
func (RenameFiles) Prepare(c *Ctx) error { return prepareFiles(c) }

// DoBench renames every file within its directory.
func (RenameFiles) DoBench(c *Ctx) error {
	for i := 0; i < c.Params.ProblemSize; i++ {
		if err := c.FS.Rename(fileName(c.Dir, i), fileName(c.Dir, i)+".moved"); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes the renamed files and the directory.
func (RenameFiles) Cleanup(c *Ctx) error {
	for i := 0; i < c.Params.ProblemSize; i++ {
		if err := c.FS.Unlink(fileName(c.Dir, i) + ".moved"); err != nil && !fs.IsNotExist(err) {
			return err
		}
	}
	return RemoveAll(c.FS, c.Dir)
}
