// Package workload provides metadata-relevant workload generators and
// a baseline benchmark Chapter 3 positions DMetabench against: a
// Postmark-style mail-server macro-benchmark (§3.1.4) and a metadata
// tree scan, both running on any fs.Client (simulated or real). File
// sizes follow the log-normal shape observed by Agrawal et al. (§2.8.2).
package workload

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"dmetabench/internal/fs"
)

// SizeDist is a log-normal file size distribution.
type SizeDist struct {
	// MedianBytes is the distribution median (the log-normal location).
	MedianBytes float64
	// Sigma is the log-space standard deviation.
	Sigma float64
	// MaxBytes clips the tail (0 = unclipped).
	MaxBytes int64
}

// Sample draws one file size.
func (d SizeDist) Sample(rng *rand.Rand) int64 {
	v := math.Exp(math.Log(d.MedianBytes) + d.Sigma*rng.NormFloat64())
	n := int64(v)
	if n < 0 {
		n = 0
	}
	if d.MaxBytes > 0 && n > d.MaxBytes {
		n = d.MaxBytes
	}
	return n
}

// PostmarkConfig parameterizes the mail-server macro-benchmark.
type PostmarkConfig struct {
	Files        int
	Subdirs      int
	Transactions int
	// ReadBias is the probability that a transaction reads instead of
	// appends; CreateBias the probability that it creates instead of
	// deletes.
	ReadBias   float64
	CreateBias float64
	Sizes      SizeDist
	Seed       int64
}

// DefaultPostmarkConfig mirrors the published Postmark defaults scaled to
// benchmark duration.
func DefaultPostmarkConfig() PostmarkConfig {
	return PostmarkConfig{
		Files:        500,
		Subdirs:      10,
		Transactions: 2000,
		ReadBias:     0.5,
		CreateBias:   0.5,
		Sizes:        SizeDist{MedianBytes: 2048, Sigma: 1.0, MaxBytes: 64 << 10},
		Seed:         42,
	}
}

// PostmarkStats reports a Postmark run.
type PostmarkStats struct {
	Created, Deleted, Read, Appended int
	Transactions                     int
	Elapsed                          time.Duration
	TPS                              float64
}

// Postmark runs the three Postmark phases (create, transactions, delete)
// on the client; now supplies the clock (virtual or real). The benchmark
// is single-threaded by design — the thesis criticizes exactly this
// limitation (§3.1.4).
func Postmark(c fs.Client, cfg PostmarkConfig, now func() time.Duration) (PostmarkStats, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var st PostmarkStats
	if err := c.Mkdir("/postmark"); err != nil && !fs.IsExist(err) {
		return st, err
	}
	for i := 0; i < cfg.Subdirs; i++ {
		if err := c.Mkdir(dirName(i)); err != nil && !fs.IsExist(err) {
			return st, err
		}
	}
	live := make(map[int]bool, cfg.Files)
	nextID := 0
	createOne := func() error {
		id := nextID
		nextID++
		name := fileName(id, cfg.Subdirs)
		if err := c.Create(name); err != nil {
			return err
		}
		h, err := c.Open(name)
		if err != nil {
			return err
		}
		if err := c.Write(h, cfg.Sizes.Sample(rng)); err != nil {
			return err
		}
		if err := c.Close(h); err != nil {
			return err
		}
		live[id] = true
		st.Created++
		return nil
	}
	pick := func() (int, bool) {
		if len(live) == 0 {
			return 0, false
		}
		n := rng.Intn(len(live))
		for id := range live {
			if n == 0 {
				return id, true
			}
			n--
		}
		return 0, false
	}

	// Phase 1: populate.
	for i := 0; i < cfg.Files; i++ {
		if err := createOne(); err != nil {
			return st, err
		}
	}
	// Phase 2: transactions.
	start := now()
	for i := 0; i < cfg.Transactions; i++ {
		if rng.Float64() < cfg.ReadBias {
			if id, ok := pick(); ok {
				if _, err := c.Stat(fileName(id, cfg.Subdirs)); err != nil {
					return st, err
				}
				st.Read++
			}
		} else {
			if id, ok := pick(); ok {
				h, err := c.Open(fileName(id, cfg.Subdirs))
				if err != nil {
					return st, err
				}
				c.Write(h, cfg.Sizes.Sample(rng)/4)
				if err := c.Close(h); err != nil {
					return st, err
				}
				st.Appended++
			}
		}
		if rng.Float64() < cfg.CreateBias {
			if err := createOne(); err != nil {
				return st, err
			}
		} else if id, ok := pick(); ok {
			if err := c.Unlink(fileName(id, cfg.Subdirs)); err != nil {
				return st, err
			}
			delete(live, id)
			st.Deleted++
		}
		st.Transactions++
	}
	st.Elapsed = now() - start
	if s := st.Elapsed.Seconds(); s > 0 {
		st.TPS = float64(st.Transactions) / s
	}
	// Phase 3: delete everything.
	for id := range live {
		if err := c.Unlink(fileName(id, cfg.Subdirs)); err != nil {
			return st, err
		}
		st.Deleted++
	}
	for i := 0; i < cfg.Subdirs; i++ {
		if err := c.Rmdir(dirName(i)); err != nil {
			return st, err
		}
	}
	if err := c.Rmdir("/postmark"); err != nil {
		return st, err
	}
	return st, nil
}

// dirName returns "/postmark/s<i>" with a single sized allocation; it
// and fileName sit inside every transaction of the Postmark loop, where
// the fmt.Sprintf pair they replace showed up in profiles.
func dirName(i int) string {
	b := make([]byte, 0, 24)
	b = append(b, "/postmark/s"...)
	b = strconv.AppendInt(b, int64(i), 10)
	return string(b)
}

// fileName returns "/postmark/s<id%subdirs>/f<id>".
func fileName(id, subdirs int) string {
	b := make([]byte, 0, 32)
	b = append(b, "/postmark/s"...)
	b = strconv.AppendInt(b, int64(id%subdirs), 10)
	b = append(b, "/f"...)
	b = strconv.AppendInt(b, int64(id), 10)
	return string(b)
}

// ScanStats reports one recursive attribute scan.
type ScanStats struct {
	// Dirs and Entries count the directories listed and the entries
	// whose attributes were retrieved.
	Dirs, Entries int
	// Batched reports whether the client served the scan through the
	// readdirplus protocol (one request per directory) rather than the
	// readdir+stat fallback (one request per entry).
	Batched bool
	Elapsed time.Duration
}

// Scan walks the tree rooted at root depth-first in name order,
// retrieving every entry's attributes — the "ls -lR"/incremental-backup
// data-management pattern of §2.8.3, and the stat-heavy load that makes
// client metadata caching pay. It uses the batched readdirplus path
// when c provides one (fs.ReadDirPlusser), falling back to one Stat per
// entry otherwise; now supplies the clock (virtual or real).
func Scan(c fs.Client, root string, now func() time.Duration) (ScanStats, error) {
	_, batched := c.(fs.ReadDirPlusser)
	st := ScanStats{Batched: batched}
	start := now()
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, attrs, err := fs.ReadDirPlus(c, dir)
		if err != nil {
			return err
		}
		st.Dirs++
		st.Entries += len(ents)
		prefix := dir
		if prefix != "/" {
			prefix += "/"
		}
		for i, e := range ents {
			if attrs[i].Type == fs.TypeDirectory {
				if err := walk(prefix + e.Name); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return st, err
	}
	st.Elapsed = now() - start
	return st, nil
}
