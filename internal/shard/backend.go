// Metadata backend cost models (experiments E28–E30). The shard service
// body decides *what* happens to the namespace; the backend decides what
// that costs. Real metadata services diverge exactly here — HopsFS keeps
// its metadata in a NewSQL store, Ceph and many KV-backed designs sit on
// an LSM tree, the thesis systems journal from memory — so the backend is
// a pluggable pricing layer under every shard:
//
//   - BackendMemJournal (default): the in-memory namespace with a
//     WAFL-style metadata journal — exactly the cost model every
//     experiment before E28 ran on. It is the extracted form of the old
//     implicit behavior and is byte-identical to it.
//   - BackendLSM: an LSM-tree KV store. Writes are cheap appends but pay
//     write amplification into the journal stream; the accumulated
//     compaction debt periodically drains as a deterministic per-shard
//     stall window (every operation on the shard slows down while the
//     compactor runs); negative lookups are cheap because bloom filters
//     short-circuit them before any level is probed.
//   - BackendBTree: a B-tree/SQL store. Point operations descend a page
//     tree whose depth grows with directory size, writes on a recently
//     written directory pay a row-lock wait, range scans are cheap
//     (entries are clustered in key order), and recovery replay is
//     expensive (random page updates, not sequential log append).
//
// A backend never touches the namespace and never changes operation
// ordering under the default: every cost factor it returns multiplies the
// service charge *after* the existing WAFL consistency-point factor and
// directory-index surcharge, and BackendMemJournal returns exactly 1 from
// every pricing hook, so the default configuration reproduces the pre-E28
// results bit for bit.
package shard

import (
	"time"

	"dmetabench/internal/sim"
	"dmetabench/internal/storage"
)

// BackendKind selects the metadata storage backend cost model.
type BackendKind int

// Backend cost models.
const (
	// BackendMemJournal is the in-memory namespace with a metadata
	// journal — the implicit backend of every experiment before E28.
	BackendMemJournal BackendKind = iota
	// BackendLSM prices an LSM-tree KV store: write amplification,
	// periodic compaction stalls, bloom-filtered negative lookups.
	BackendLSM
	// BackendBTree prices a B-tree/SQL store: page reads scaling with
	// directory size, lock waits on hot directories, expensive replay.
	BackendBTree
)

func (b BackendKind) String() string {
	switch b {
	case BackendLSM:
		return "lsm"
	case BackendBTree:
		return "btree"
	default:
		return "memjournal"
	}
}

// ParseBackend maps a command-line name to a BackendKind; unknown names
// fall back to the default backend.
func ParseBackend(s string) BackendKind {
	switch s {
	case "lsm":
		return BackendLSM
	case "btree", "sql":
		return BackendBTree
	default:
		return BackendMemJournal
	}
}

// opClass classifies one service charge for backend pricing.
type opClass uint8

const (
	// opNone is unclassified internal work: only compaction stalls
	// apply, no per-class factor.
	opNone opClass = iota
	// opRead is a point lookup (GETATTR, LOOKUP, OPEN resolution).
	opRead
	// opWrite is a namespace mutation (create, unlink, rename, mirror
	// apply, broadcast apply, data flush).
	opWrite
	// opScan is a range scan (READDIR, split probes and candidate scans).
	opScan
)

// opInfo carries the pricing hints of one classified charge. The zero
// value (opNone, no hints) prices as unclassified internal work.
type opInfo struct {
	cls opClass
	// dir is the parent directory a mutation touches — the B-tree
	// backend keys its row-lock tracking on it. Empty when unknown or
	// not a directory-entry mutation.
	dir string
	// dirSize is the entry count of the directory the operation
	// descends into (B-tree page depth); -1 when unknown.
	dirSize int
	// negative marks a lookup expected to miss — the LSM bloom filter
	// answers it without probing any level.
	negative bool
}

// backend prices the storage work of one shard. Implementations may keep
// deterministic mutable state (compaction debt, lock tracking); they run
// only inside the single-threaded simulation, in event order.
type backend interface {
	// factor returns the multiplier applied to one service charge, on
	// top of the WAFL consistency-point factor and the directory-index
	// surcharge. It includes any active stall window. Implementations
	// must return exactly 1 when they have nothing to add, so the
	// caller can skip the multiply and keep the default backend's
	// float math bit-identical to the pre-backend code.
	factor(now time.Duration, info opInfo) float64
	// log persists n logical journal bytes for one committed mutation
	// (the write-amplified physical traffic is the backend's business).
	log(p *sim.Proc, n int64)
	// replayPerEntry is the recovery cost per journal entry on
	// takeover and restart.
	replayPerEntry() time.Duration
	// moveFactor scales the destination-side ingest cost of split
	// migration batches (bulk load into the backend).
	moveFactor() float64
}

// The LSM-KV backend's fixed cost factors; all factors multiply the
// base service charge. Config.CompactEvery sets its compaction period.
const (
	// lsmWriteAmp is the journal write amplification: every logical
	// journal byte becomes lsmWriteAmp physical bytes (WAL + memtable
	// flush + compaction rewrites), and the amplified traffic accrues
	// compaction debt.
	lsmWriteAmp = 4
	// lsmCompactDrain is the compactor's drain rate in bytes per
	// second; one pause lasts debt/lsmCompactDrain.
	lsmCompactDrain = 256 << 20
	// lsmCompactSlowdown multiplies every service charge on the shard
	// while its compaction runs — the foreground stall E29 measures.
	lsmCompactSlowdown = 3
	// lsmBloomNegative prices a negative lookup (bloom filters
	// short-circuit the level probes, so ENOENT is the cheap case).
	lsmBloomNegative = 0.25
	// lsmReadFactor prices a positive point read (probing levels).
	lsmReadFactor = 1.3
	// lsmScanFactor prices a range scan (merging iterators across levels).
	lsmScanFactor = 1.5
	// lsmWriteFactor prices a foreground write (memtable append: cheap).
	lsmWriteFactor = 0.85
	// lsmReplayFactor scales ReplayPerEntry (sequential WAL replay: fast).
	lsmReplayFactor = 0.5
	// lsmMoveFactor scales split-migration ingest (bulk append: fast).
	lsmMoveFactor = 0.8
)

// The B-tree/SQL backend's fixed cost factors.
const (
	// btreePageFanout is the entries per index page; a directory's page
	// depth is ceil(log_btreePageFanout(entries)).
	btreePageFanout = 256
	// btreePagePenalty is the extra cost per page-tree level beyond the
	// first, on point reads and writes into a large directory.
	btreePagePenalty = 0.35
	// btreeLockWindow is the row-lock shadow of one directory write: a
	// second write into the same directory within the window pays
	// btreeLockPenalty (lock wait on the hot directory row).
	btreeLockWindow = 500 * time.Microsecond
	// btreeLockPenalty multiplies a write that hits a directory written
	// within the last btreeLockWindow.
	btreeLockPenalty = 1.6
	// btreeReadFactor prices a point read (root-to-leaf descent).
	btreeReadFactor = 1.15
	// btreeScanFactor prices a range scan (entries clustered in key order).
	btreeScanFactor = 0.9
	// btreeWriteFactor prices a write (page dirtying + WAL, before the
	// page-depth and lock penalties).
	btreeWriteFactor = 1.25
	// btreeReplayFactor scales ReplayPerEntry (random page updates: slow).
	btreeReplayFactor = 1.6
	// btreeMoveFactor scales split-migration ingest (random inserts: slow).
	btreeMoveFactor = 1.5
)

// CompactionEvent records one LSM compaction pause on one shard — the
// timeline E29 plots against the throughput intervals.
type CompactionEvent struct {
	// Shard is the stalled server.
	Shard int
	// At is the virtual time the compaction started; Dur is how long
	// the shard's service charges carried the compaction slowdown.
	At, Dur time.Duration
}

// newBackend builds shard sh's backend from the configuration.
func newBackend(f *FS, sh *shardSrv) backend {
	switch f.cfg.Backend {
	case BackendLSM:
		return &lsmBackend{f: f, shard: sh.index, wafl: sh.wafl, compactEvery: f.cfg.CompactEvery, replay: f.cfg.ReplayPerEntry}
	case BackendBTree:
		return &btreeBackend{wafl: sh.wafl, replay: f.cfg.ReplayPerEntry, lastWrite: make(map[string]time.Duration)}
	default:
		return &memJournal{wafl: sh.wafl, replay: f.cfg.ReplayPerEntry}
	}
}

// memJournal is the default backend: the pre-E28 cost model, extracted.
// Every pricing hook is the identity, so configurations that never set
// Config.Backend reproduce the old results byte for byte.
type memJournal struct {
	wafl   *storage.WAFL
	replay time.Duration
}

func (b *memJournal) factor(time.Duration, opInfo) float64 { return 1 }
func (b *memJournal) log(p *sim.Proc, n int64)             { b.wafl.LogMetadata(p, n) }
func (b *memJournal) replayPerEntry() time.Duration        { return b.replay }
func (b *memJournal) moveFactor() float64                  { return 1 }

// lsmBackend prices an LSM-tree KV store on one shard.
type lsmBackend struct {
	f            *FS
	shard        int
	wafl         *storage.WAFL
	compactEvery int64
	replay       time.Duration

	// debt is the amplified journal traffic accrued since the last
	// compaction; compactEnd marks the end of the current stall window.
	debt       int64
	compactEnd time.Duration
}

func (b *lsmBackend) factor(now time.Duration, info opInfo) float64 {
	s := 1.0
	if now < b.compactEnd {
		s = lsmCompactSlowdown
	}
	switch info.cls {
	case opWrite:
		s *= lsmWriteFactor
	case opScan:
		s *= lsmScanFactor
	case opRead:
		if info.negative {
			s *= lsmBloomNegative
		} else {
			s *= lsmReadFactor
		}
	}
	return s
}

func (b *lsmBackend) log(p *sim.Proc, n int64) {
	amp := int64(float64(n) * lsmWriteAmp)
	b.wafl.LogMetadata(p, amp)
	b.debt += amp
	if b.debt >= b.compactEvery && p.Now() >= b.compactEnd {
		dur := time.Duration(float64(b.debt) / lsmCompactDrain * float64(time.Second))
		b.compactEnd = p.Now() + dur
		b.f.recordCompaction(CompactionEvent{Shard: b.shard, At: p.Now(), Dur: dur})
		b.debt = 0
	}
}

func (b *lsmBackend) replayPerEntry() time.Duration {
	return time.Duration(float64(b.replay) * lsmReplayFactor)
}

func (b *lsmBackend) moveFactor() float64 { return lsmMoveFactor }

// btreeBackend prices a B-tree/SQL store on one shard.
type btreeBackend struct {
	wafl   *storage.WAFL
	replay time.Duration
	// lastWrite tracks the most recent write time per directory — the
	// row-lock shadow behind the hot-directory lock penalty. Mutated
	// only in simulation event order, so it is deterministic.
	lastWrite map[string]time.Duration
}

// pageFactor is the page-depth surcharge of descending into a directory
// of n entries: 1 below one page, plus btreePagePenalty per extra level.
func (b *btreeBackend) pageFactor(n int) float64 {
	if n < btreePageFanout {
		return 1
	}
	depth := 0
	for ; n >= btreePageFanout; n /= btreePageFanout {
		depth++
	}
	return 1 + btreePagePenalty*float64(depth)
}

func (b *btreeBackend) factor(now time.Duration, info opInfo) float64 {
	switch info.cls {
	case opWrite:
		s := btreeWriteFactor
		if info.dirSize > 0 {
			s *= b.pageFactor(info.dirSize)
		}
		if info.dir != "" {
			if last, ok := b.lastWrite[info.dir]; ok && now-last < btreeLockWindow {
				s *= btreeLockPenalty
			}
			b.lastWrite[info.dir] = now
		}
		return s
	case opScan:
		return btreeScanFactor
	case opRead:
		s := btreeReadFactor
		if info.dirSize > 0 {
			s *= b.pageFactor(info.dirSize)
		}
		return s
	}
	return 1
}

func (b *btreeBackend) log(p *sim.Proc, n int64) { b.wafl.LogMetadata(p, n) }

func (b *btreeBackend) replayPerEntry() time.Duration {
	return time.Duration(float64(b.replay) * btreeReplayFactor)
}

func (b *btreeBackend) moveFactor() float64 { return btreeMoveFactor }

// gcMirror is the mirror work one group-commit batch owes one replica
// partner: count mutations' journal records, applied in one round trip.
type gcMirror struct {
	partner int
	count   int64
}

// gcBatch is one open group-commit batch on a shard: the mutations that
// arrived within one GroupCommitWindow and share a single journal flush
// and replication round trip. The batch leader (the mutation that opened
// it) sleeps out the window, pays the batched flush and mirror traffic,
// and wakes the followers; followers hold their worker slot while they
// wait, the way a per-op mirror wait does.
type gcBatch struct {
	bytes   int64
	mirrors []gcMirror
	flushed bool
	done    *sim.Cond
}

// add folds one mutation's durability work into the batch.
func (b *gcBatch) add(bytes int64, partner int) {
	b.bytes += bytes
	if partner < 0 {
		return
	}
	for i := range b.mirrors {
		if b.mirrors[i].partner == partner {
			b.mirrors[i].count++
			return
		}
	}
	b.mirrors = append(b.mirrors, gcMirror{partner: partner, count: 1})
}
