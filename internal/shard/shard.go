// Package shard models a sharded metadata service: the namespace of one
// file system is partitioned across N simulated metadata servers (MDS),
// the scaling step beyond the single-MDS systems the thesis measures
// (Lustre's lone MDS in §4.3, the NFS filer of §4.1.2). Related work
// motivates both placement policies it supports:
//
//   - PlaceSubtree partitions by top-level directory subtree, the
//     Ontap-GX/volume style of §4.7: every operation under one subtree
//     is served entirely by the owning shard, so path resolution stays
//     local, but a popular subtree concentrates on one server.
//   - PlaceHashDir partitions file entries by a hash of their parent
//     directory (HopsFS-style partition pruning): directories are
//     replicated on every shard so any shard can resolve paths, files
//     of one directory live on exactly one shard, and directory
//     mutations pay a synchronous broadcast to the other shards.
//
// Cross-shard operations are modeled as extra RPC hops over the MDS
// interconnect: a rename whose source and destination directories live
// on different shards runs as a migrate (insert at the destination,
// remove at the source), and namespace-wide operations (root readdir
// under subtree placement, directory broadcasts under hash placement)
// visit peer shards one interconnect round trip at a time. Peer work is
// served by a dedicated per-shard peer thread pool so forwarded requests
// cannot form circular waits with the client-facing pools.
//
// The model is fault-tolerant in the HopsFS/StoreTorrent direction
// (experiments E19–E21, driven by internal/fault): with
// Config.Replicate, every shard's mutations are journaled and
// synchronously mirrored to a backup peer — shard (i+1) mod N — and when
// a primary crashes, the backup replays the journal after a detection
// delay and takes over serving the slice. Clients observe a crash as RPC
// timeouts and retry with deterministic exponential backoff, so an
// outage appears in the §3.2.5 time-interval methodology as exactly what
// it is: a throughput dip, a COV spike, and a recovery ramp.
//
// Client caching is coherence-aware (coherence.go, experiments
// E22–E24): Config.CacheMode selects an NFS-style TTL attribute cache,
// no attribute caching, or lease-based coherence — server-granted read
// leases per path, revocation callbacks delivered over server→client
// simnet connections before a conflicting mutation's RPC returns,
// write-back directory delegations for a directory's sole writer, and a
// batched readdirplus path (fs.ReadDirPlusser) that fills a client's
// caches in one RPC. Every namespace slice carries a lease epoch; a
// crash takeover or a failback bumps it and discards the slice's lease
// tables, so with Config.CrashInvalidate the failover path cannot leak
// stale reads beyond the takeover itself.
//
// Every shard's storage work is priced by a pluggable backend cost
// model (backend.go, experiments E28–E30): Config.Backend selects the
// default in-memory+journal model, an LSM-tree KV store (write
// amplification, deterministic compaction stalls, bloom-filtered
// negative lookups) or a B-tree/SQL store (page depth scaling with
// directory size, hot-directory lock waits, expensive replay), and
// Config.GroupCommitWindow batches the journal flush and replication
// round trip of mutations committing within one window. The default
// backend with a zero window reproduces the pre-backend cost model byte
// for byte.
//
// Giant directories split dynamically (split.go, experiments E25–E27):
// with Config.SplitThreshold set, a directory whose entry count crosses
// the threshold re-partitions its entries across shards by hash-of-name
// over a doubling split level — the GIGA+ cure for the one-directory/
// one-shard wall — with the migration itself paid as interconnect
// traffic, journaled for takeover replay, and coherent with the lease
// protocol. Clients route through a cached per-directory split bitmap
// and pay a bounce when it is stale; ReadDir/ReadDirPlus fan out over
// the partition slices and merge.
package shard

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
	"dmetabench/internal/storage"
)

// Policy selects how the namespace is partitioned across shards.
type Policy int

// Placement policies.
const (
	// PlaceHashDir places a file on hash(parent directory) and
	// replicates directories everywhere (HopsFS style).
	PlaceHashDir Policy = iota
	// PlaceSubtree places whole top-level subtrees on one shard
	// (Ontap-GX volume style).
	PlaceSubtree
)

func (p Policy) String() string {
	if p == PlaceSubtree {
		return "subtree"
	}
	return "hashdir"
}

// Config holds the tunables of the sharded MDS model. Per-shard service
// times are fixed at the FAS3050-class figures of the NFS model so shard
// counts are comparable against the single-server baselines.
type Config struct {
	// NumShards is the metadata server count.
	NumShards int
	// Placement selects the partitioning policy.
	Placement Policy
	// ShardThreads is each shard's client-facing worker pool size.
	ShardThreads int
	// OneWayLatency is the client<->shard network delay.
	OneWayLatency time.Duration
	// Domains partitions the simulation itself into conservative-
	// lookahead kernel domains (domain.go, internal/sim): domain 0 runs
	// the clients and domains 1..Domains-1 share the shards, exchanging
	// timestamped messages with lookahead min(crossShardLatency,
	// OneWayLatency). The partition is static, so lease coherence,
	// directory splitting and crashes need <= 1 (Validate). Results are
	// deterministic for a given Domains value regardless of worker
	// threads; <= 1 (the default) is the single-kernel path, byte for
	// byte.
	Domains int

	// AttrTTL is the client attribute-cache lifetime under CacheTTL.
	AttrTTL time.Duration
	// SubtreeAssign pins top-level subtrees to shard indexes under
	// PlaceSubtree — the administrative volume placement of §4.7.2.
	// Subtrees not listed fall back to hashing their name.
	SubtreeAssign map[string]int

	// Replicate enables primary/backup replication: every mutation on a
	// shard is journaled and synchronously mirrored to the shard's
	// backup — shard (i+1) mod N — which takes over serving the slice
	// when the primary crashes (HopsFS-style metadata availability).
	// Requires NumShards >= 2 to have a distinct backup.
	Replicate bool
	// JournalCap bounds the in-memory mutation journal per shard: the
	// dirty entries accumulated since the last checkpoint. Reaching the
	// cap models a checkpoint, which truncates the journal — so
	// JournalCap also caps the replay work a takeover or restart pays.
	JournalCap int
	// ReplayPerEntry is the recovery cost per journal entry, paid by a
	// backup promoting itself and by a restarted primary. Non-default
	// backends scale it by their replay factor (sequential WAL replay is
	// cheap on an LSM store, random page updates are expensive on a
	// B-tree — backend.go).
	ReplayPerEntry time.Duration

	// CacheMode selects the client attribute-cache consistency model:
	// NFS-style TTL (default), uncached, or lease-based coherence with
	// revocation callbacks (coherence.go, E22–E24).
	CacheMode CacheMode
	// LeaseTTL is the validity of one server-granted read lease
	// (CacheLease only).
	LeaseTTL time.Duration
	// CrashInvalidate makes clients verify each lease's slice epoch on
	// every cache hit, so a crash takeover (which bumps the epoch)
	// bulk-invalidates the slice's leases instantly. Off, clients trust
	// leases across failovers and serve stale reads until expiry — the
	// window E24 measures.
	CrashInvalidate bool
	// TrackStaleness compares every cache hit against the authoritative
	// slice state (bookkeeping only) and counts mismatches in
	// FS.StaleReads — the staleness instrument of E22–E24.
	TrackStaleness bool

	// SplitThreshold enables dynamic giant-directory splitting
	// (split.go, E25–E27): when a directory's entry count on one slice
	// crosses the threshold, its entries re-partition across shards by
	// hash-of-name over a doubling split level, GIGA+ style. Zero
	// disables splitting; it requires hash placement and >= 2 shards.
	SplitThreshold int
	// SplitBitmapTTL is the validity of a client's cached per-directory
	// split bitmap under the TTL and uncached modes; an expired or stale
	// bitmap costs a routing bounce, never correctness. CacheLease ties
	// the bitmap to the directory's lease (LeaseTTL, revocation, epoch)
	// instead.
	SplitBitmapTTL time.Duration

	// Backend selects the metadata storage backend cost model
	// (backend.go, E28–E30). The zero value, BackendMemJournal, is the
	// pre-E28 behavior, byte for byte.
	Backend BackendKind
	// CompactEvery is the LSM backend's amplified byte volume between
	// compactions: when a shard's debt reaches it, a compaction starts.
	CompactEvery int64
	// GroupCommitWindow batches the durability work of mutations: all
	// mutations committing on one shard within the window share a
	// single journal flush and replication round trip (E30). The
	// namespace change still applies and journals at each mutation's
	// own commit instant — only the flush and the mirror traffic are
	// deferred to the batch, and the mutating RPC does not return until
	// its batch is flushed. Zero (the default) commits per-op, the
	// pre-E30 behavior, byte for byte.
	GroupCommitWindow time.Duration
}

// DefaultConfig returns an n-shard configuration. Replication is off;
// the failover tunables carry defaults so experiments can just flip
// Replicate on.
func DefaultConfig(n int) Config {
	return Config{
		NumShards:     n,
		Placement:     PlaceHashDir,
		ShardThreads:  4,
		OneWayLatency: 250 * time.Microsecond,
		AttrTTL:       3 * time.Second,

		JournalCap:     16384,
		ReplayPerEntry: 20 * time.Microsecond,

		LeaseTTL:        10 * time.Second,
		CrashInvalidate: true,

		SplitBitmapTTL: 30 * time.Second,
		CompactEvery:   8 << 20,
	}
}

// Validate reports a configuration the model cannot run. Kernel domains
// keep a static partition: no slice state changes domain during a run,
// so Domains > 1 rejects the features that would move it there — lease
// coherence (a mutation reaches lease tables on other slices) and
// giant-directory splitting (a split re-homes entries). Domains <= 1
// accepts every configuration.
func (c Config) Validate() error {
	if c.Domains <= 1 {
		return nil
	}
	if c.CacheMode == CacheLease {
		return fmt.Errorf("shard: lease coherence (CacheMode %v) needs Domains <= 1, got Domains %d: kernel domains keep a static partition", c.CacheMode, c.Domains)
	}
	if c.SplitThreshold > 0 {
		return fmt.Errorf("shard: directory splitting (SplitThreshold %d) needs Domains <= 1, got Domains %d: kernel domains keep a static partition", c.SplitThreshold, c.Domains)
	}
	return nil
}

// The fixed calibration of every shard: the interconnect, the service
// times (the NFS model's FAS3050-class figures), the journal record and
// the client's retry policy.
const (
	// peerThreads is each shard's pool for inter-MDS requests
	// (broadcast replication, migrate inserts, peer readdir, mirrors).
	peerThreads = 2
	// crossShardLatency is the one-way delay of the MDS interconnect.
	crossShardLatency = 80 * time.Microsecond
	// crossShardOverhead is the extra CPU charged on each side of a
	// forwarded operation (marshalling, transaction bookkeeping).
	crossShardOverhead = 45 * time.Microsecond

	createService     = 150 * time.Microsecond
	getattrService    = 40 * time.Microsecond
	lookupService     = 40 * time.Microsecond
	removeService     = 140 * time.Microsecond
	mkdirService      = 180 * time.Microsecond
	renameService     = 180 * time.Microsecond
	readdirService    = 120 * time.Microsecond
	readdirPerEntry   = 800 * time.Nanosecond
	writeServicePerKB = 30 * time.Microsecond

	dentryTTL = 30 * time.Second
	dirIndex  = namespace.IndexHash
	// metaLogBytes is the journal record size per namespace change.
	metaLogBytes = 320

	// mirrorService is the backup-side CPU charged per mirrored
	// mutation (applying the journal record to the standby copy).
	mirrorService = 60 * time.Microsecond
	// takeoverDetect is the failure-detection delay (lease/heartbeat
	// expiry) before a backup begins taking over a crashed primary.
	takeoverDetect = 200 * time.Millisecond
	// retryTimeout is the client-observed RPC timeout against a dead
	// server (one failed attempt costs this much virtual time).
	retryTimeout = 500 * time.Millisecond
	// retryBackoff is the base of the client's deterministic
	// exponential retry backoff; retryBackoffMax caps it.
	retryBackoff    = 50 * time.Millisecond
	retryBackoffMax = time.Second
	// retryMax is the attempt limit per operation before the client
	// gives up with ETIMEDOUT. It bounds the simulation when a slice
	// stays dark (crashed primary, no backup, no restart scheduled).
	retryMax = 64

	// callbackService is the client-side handler cost of one revocation
	// or recall callback.
	callbackService = 25 * time.Microsecond
	// readdirPlusPerEntry is the server-side cost of piggybacking one
	// entry's attributes on a readdirplus reply — far below a full
	// GETATTR round trip, which is the point of batching.
	readdirPlusPerEntry = 2 * time.Microsecond

	// splitMovePerEntry is the per-entry migration cost of a split step,
	// charged on both sides of each source→destination transfer.
	splitMovePerEntry = 4 * time.Microsecond
)

// shardSrv is one metadata server: its authoritative namespace slice,
// client-facing and peer thread pools, journal and directory locks.
type shardSrv struct {
	index int
	srv   *simnet.Server
	// conn is every node's path to srv, timing out after retryTimeout:
	// without a bandwidth limit a call changes nothing in a Conn. A limit
	// would need one per node.
	conn  *simnet.Conn
	peer  *simnet.Server
	wafl  *storage.WAFL
	ns    *namespace.Namespace
	locks *sim.Locks

	// be prices this shard's storage work (backend.go); gc is the open
	// group-commit batch, nil when none (Config.GroupCommitWindow).
	be backend
	gc *gcBatch

	// up mirrors the simnet server state; false between Crash and the
	// end of Restart recovery.
	up bool
	// journal counts the slice's dirty mutations since the last
	// checkpoint; it prices takeover and restart replay.
	journal     int
	checkpoints int64
}

// journalAppend counts one mutation, truncating at the checkpoint cap.
func (sh *shardSrv) journalAppend(cap int) {
	if cap > 0 && sh.journal >= cap {
		sh.journal = 0
		sh.checkpoints++
	}
	sh.journal++
}

// Takeover records one backup promotion after a primary crash.
type Takeover struct {
	// Shard is the crashed primary, Backup the promoted server.
	Shard, Backup int
	// CrashAt is the virtual time of the crash.
	CrashAt time.Duration
	// Detect is the failure-detection delay and Replay the journal
	// replay time; Entries is the journal length replayed.
	Detect, Replay time.Duration
	Entries        int
}

// Total is the takeover latency: detection plus journal replay.
func (t Takeover) Total() time.Duration { return t.Detect + t.Replay }

// FS is one sharded metadata file system.
type FS struct {
	k   *sim.Kernel
	cfg Config

	// g is the kernel-domain group (domain.go), nil with Domains <= 1;
	// kernels[i] is the kernel shard i's state lives on (nil when
	// undomained). evMu guards the Compactions slice, the one result
	// collection bodies append to from several domains.
	g       *sim.DomainGroup
	kernels []*sim.Kernel
	evMu    sync.Mutex

	shards []*shardSrv
	// serving maps each namespace slice to the index of the server
	// currently serving it: the slice's home shard, or its backup after
	// a failover.
	serving []int
	nodes   map[*cluster.Node]*nodeState

	// CrossCount counts operations that crossed the MDS interconnect
	// (migrating renames, peer readdirs, one per broadcast replica).
	CrossCount int64
	// BroadcastCount counts directory mutations that were replicated to
	// the other shards (hash placement only).
	BroadcastCount int64
	// MirrorCount counts mutations synchronously mirrored to a backup.
	MirrorCount int64
	// RetryCount counts client RPC attempts that failed against a down
	// server and were retried after backoff.
	RetryCount int64
	// Takeovers records every backup promotion, in order.
	Takeovers []Takeover

	// Coherence state and counters (coherence.go, CacheLease mode):
	// per-slice lease tables and epochs, plus the protocol traffic the
	// E22–E24 experiments report.
	leases []*sliceLeases
	epochs []uint64
	// LeaseGrants counts read leases granted (including refreshes and
	// readdirplus bulk grants).
	LeaseGrants int64
	// Revocations counts lease-revocation callbacks delivered.
	Revocations int64
	// DelegationGrants and DelegationRecalls count directory write
	// delegations handed out and recalled.
	DelegationGrants, DelegationRecalls int64
	// StaleReads counts cache hits that disagreed with the
	// authoritative state (Config.TrackStaleness); LastStaleAt is the
	// virtual time of the most recent one.
	StaleReads  int64
	LastStaleAt time.Duration

	// Giant-directory splitting state and counters (split.go, E25–E27).
	splitDirs map[string]*dirSplit
	// moved maps a migrated entry's old identity to its new one (slices
	// number their inodes independently, so identity is slice+ino): a
	// handle opened before a split chases its file across migrations,
	// while a same-name replacement stays a stale handle. Bounded by
	// the total entries ever migrated.
	moved map[entryID]entryID
	// Splits records every completed split step, in order.
	Splits []SplitEvent
	// SplitMoved counts entries migrated by split steps.
	SplitMoved int64
	// Bounces counts client RPCs misrouted by a stale or missing split
	// bitmap (each cost one extra redirect round trip).
	Bounces int64
	// PartialListings counts ReadDir/ReadDirPlus merges that skipped a
	// down peer slice and returned a degraded (partial) listing — the
	// aggregated-namespace failure mode a client otherwise cannot see.
	PartialListings int64

	// Backend and group-commit counters (backend.go, E28–E30).
	// Compactions records every LSM compaction pause, in order.
	Compactions []CompactionEvent
	// GroupCommits counts group-commit batches flushed; GroupCommitOps
	// counts mutations that joined an already-open batch (so batched
	// mutations total GroupCommits + GroupCommitOps). With batching,
	// MirrorCount counts batched replication round trips, not mirrored
	// mutations — the collapse E30 measures.
	GroupCommits, GroupCommitOps int64

	// agg counts the aggregate arrivals injected through
	// AttachAggregate (inject.go, E31–E33).
	agg service.Counts
}

type nodeState struct {
	// names caches the node's dentries in every mode, under CacheTTL
	// their attributes too and under CacheLease their leases.
	names *clientcache.NameCache
	// cb and cbConn are the node's callback endpoint under CacheLease
	// and the server→client path to it.
	cb     *simnet.Server
	cbConn *simnet.Conn
	// splits is the node's per-directory split-bitmap cache, created
	// lazily the first time a server reports a split level (split.go).
	splits *clientcache.SplitMap
}

// New creates a sharded metadata service on kernel k. It panics with
// Validate's error on a configuration the model cannot run, as
// sim.AddDomains panics on a bad lookahead.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.NumShards < 1 {
		cfg.NumShards = 1
	}
	f := &FS{
		k:         k,
		cfg:       cfg,
		nodes:     make(map[*cluster.Node]*nodeState),
		splitDirs: make(map[string]*dirSplit),
		moved:     make(map[entryID]entryID),
	}
	la := min(crossShardLatency, cfg.OneWayLatency)
	f.g, f.kernels = placeShards(k, cfg.NumShards, cfg.Domains, la)
	for i := 0; i < cfg.NumShards; i++ {
		id := name + "-" + strconv.Itoa(i)
		sk := f.kFor(i)
		sh := &shardSrv{
			index: i,
			srv:   simnet.NewServer(sk, "mds:"+id, cfg.ShardThreads),
			peer:  simnet.NewServer(sk, "mdspeer:"+id, peerThreads),
			wafl:  storage.NewWAFL(sk, "mds:"+id),
			ns:    namespace.New(),
			locks: sim.NewLocks(sk, "mdsdir:"+strconv.Itoa(i)),
			up:    true,
		}
		sh.conn = simnet.NewConn(sk, sh.srv, cfg.OneWayLatency, 0)
		sh.conn.FailTimeout = retryTimeout
		sh.be = newBackend(f, sh)
		f.shards = append(f.shards, sh)
		f.serving = append(f.serving, i)
		f.leases = append(f.leases, newSliceLeases())
		f.epochs = append(f.epochs, 0)
	}
	return f
}

// Name identifies the model in results and charts.
func (f *FS) Name() string {
	n := "shard" + strconv.Itoa(len(f.shards)) + "-" + f.cfg.Placement.String()
	if f.replicated() {
		n += "-repl"
	}
	if f.splitActive() {
		n += "-split"
	}
	if f.cfg.Backend != BackendMemJournal {
		n += "-" + f.cfg.Backend.String()
	}
	return n
}

// NumShards returns the shard count.
func (f *FS) NumShards() int { return len(f.shards) }

// RPCCount returns the number of client RPCs served.
func (f *FS) RPCCount() int64 {
	var n int64
	for _, sh := range f.shards {
		n += sh.srv.Served()
	}
	return n
}

// ShardOps returns the per-shard count of client operations served,
// the load-balance view the skew experiments report.
func (f *FS) ShardOps() []int64 {
	out := make([]int64, len(f.shards))
	for i, sh := range f.shards {
		out[i] = sh.srv.Served()
	}
	return out
}

// Namespace exposes shard i's authoritative namespace (tests, fsck).
func (f *FS) Namespace(i int) *namespace.Namespace { return f.shards[i].ns }

// Up reports whether shard i's server is in service.
func (f *FS) Up(i int) bool { return f.shards[i].up }

// ServingShard returns the index of the server currently serving slice
// i: i itself, or its backup after a failover.
func (f *FS) ServingShard(i int) int { return f.serving[i] }

// JournalLen returns the number of dirty journal entries on shard i.
func (f *FS) JournalLen(i int) int { return f.shards[i].journal }

// replicated reports whether primary/backup replication is in effect.
func (f *FS) replicated() bool { return f.cfg.Replicate && len(f.shards) > 1 }

// backupOf returns the backup server index of slice i.
func (f *FS) backupOf(i int) int { return (i + 1) % len(f.shards) }

// Crash takes shard i's server down at the current virtual time: its
// client and peer endpoints start timing out. With replication, the
// slice's backup detects the failure after takeoverDetect, replays the
// journal and takes over serving the slice (recorded in Takeovers).
// Crash implements fault.Target. It panics on a domained FS: a takeover
// would move the slice to another domain, and kernel domains keep a
// static partition.
func (f *FS) Crash(p *sim.Proc, i int) {
	if f.domained() {
		panic(errFaultDomained("Crash"))
	}
	sh := f.shards[i]
	if !sh.up {
		return
	}
	sh.up = false
	sh.srv.SetDown()
	sh.peer.SetDown()
	if !f.replicated() {
		return
	}
	b := f.backupOf(i)
	if !f.shards[b].up {
		return // no live backup: the slice stays dark until restart
	}
	crashAt := p.Now()
	f.k.AfterFunc("takeover:"+strconv.Itoa(i), takeoverDetect, func(q *sim.Proc) {
		if sh.up || !f.shards[b].up {
			// The primary returned before the lease expired, or the
			// backup died during the detection window — either way
			// there is nothing to promote.
			return
		}
		entries := sh.journal
		replay := time.Duration(entries) * f.shards[b].be.replayPerEntry()
		q.Sleep(replay)
		if sh.up || !f.shards[b].up {
			return // the primary recovered first, or the backup crashed mid-replay
		}
		f.serving[i] = b
		// The promoted backup knows nothing about the leases the dead
		// primary granted: the slice's lease state dies with it and the
		// epoch moves on (crash-time bulk invalidation, E24).
		f.invalidateSliceLeases(i)
		f.Takeovers = append(f.Takeovers, Takeover{
			Shard: i, Backup: b, CrashAt: crashAt,
			Detect: takeoverDetect, Replay: replay, Entries: entries,
		})
	})
}

// Restart begins shard i's recovery at the current virtual time: the
// server replays its journal, then returns to service and reclaims its
// slice from the backup (failback). Restart implements fault.Target.
// Like Crash, it panics on a domained FS.
func (f *FS) Restart(p *sim.Proc, i int) {
	if f.domained() {
		panic(errFaultDomained("Restart"))
	}
	sh := f.shards[i]
	if sh.up {
		return
	}
	replay := time.Duration(sh.journal) * sh.be.replayPerEntry()
	f.k.AfterFunc("recover:"+strconv.Itoa(i), replay, func(q *sim.Proc) {
		sh.up = true
		sh.srv.SetUp()
		sh.peer.SetUp()
		f.serving[i] = i
		sh.journal = 0 // recovery checkpoints the journal
		sh.checkpoints++
		// Failback is another serving change the restarted primary has
		// no lease state for; leases granted meanwhile (by the backup,
		// or pre-crash by the primary itself) die with the epoch.
		f.invalidateSliceLeases(i)
	})
}

// errFaultDomained is the panic of a fault injected into a domained FS.
func errFaultDomained(op string) error {
	return fmt.Errorf("shard: %s needs Domains <= 1: kernel domains keep a static partition, and a crash or restart moves a slice between servers", op)
}

// backoff returns the deterministic client backoff after attempt failed
// tries: retryBackoff doubled per attempt, capped at retryBackoffMax.
func (f *FS) backoff(attempt int) time.Duration {
	d := retryBackoff
	for i := 0; i < attempt && d < retryBackoffMax; i++ {
		d *= 2
	}
	if d > retryBackoffMax {
		d = retryBackoffMax
	}
	return d
}

// hashString is FNV-1a; the routing hash must be stable across runs so
// identically-seeded simulations shard identically.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ShardOfEntry returns the index of the slice owning the entry at p
// (its home shard, independent of any failover in progress).
func (f *FS) ShardOfEntry(p string) int { return f.ownerSlice(p) }

// ShardOfDir returns the index of the slice holding the file contents
// of directory dir (-1 when the directory spans shards: the root under
// subtree placement).
func (f *FS) ShardOfDir(dir string) int { return f.contentSlice(dir) }

// ownerSlice returns the slice owning the directory entry at path p:
// the slice of p's top-level subtree, or the slice hashing p's parent
// directory — offset by the name-hash partition when the parent is a
// split giant directory (split.go).
func (f *FS) ownerSlice(p string) int {
	if f.cfg.Placement == PlaceSubtree {
		top := fs.TopComponent(p)
		if top == "" {
			return 0
		}
		return f.subtreeShard(top)
	}
	dir := fs.ParentDir(p)
	h := hashString(dir)
	if lvl := f.splitLevel(dir); lvl > 0 {
		return f.sliceAt(h, partitionOf(baseName(p), lvl))
	}
	return int(h % uint32(len(f.shards)))
}

// subtreeShard resolves a top-level subtree to its slice: pinned
// placement when configured, hash of the name otherwise.
func (f *FS) subtreeShard(top string) int {
	if i, ok := f.cfg.SubtreeAssign[top]; ok {
		return i % len(f.shards)
	}
	return int(hashString(top) % uint32(len(f.shards)))
}

// contentSlice returns the slice holding the file entries of directory
// dir, or -1 when the directory spans every shard (the root under
// subtree placement, whose top-level entries are partitioned). For a
// split directory it returns the home slice — partition 0 — and the
// fan-out paths consult splitSlices for the rest.
func (f *FS) contentSlice(dir string) int {
	if f.cfg.Placement == PlaceSubtree {
		top := fs.TopComponent(dir)
		if top == "" {
			return -1
		}
		return f.subtreeShard(top)
	}
	return int(hashString(dir) % uint32(len(f.shards)))
}

// srvFor returns the server currently serving slice i.
func (f *FS) srvFor(i int) *shardSrv { return f.shards[f.serving[i]] }

func (f *FS) nodeState(n *cluster.Node) *nodeState {
	s, ok := f.nodes[n]
	if !ok {
		var epochOf func(int) uint64
		if f.cfg.CrashInvalidate {
			epochOf = func(slice int) uint64 { return f.epochs[slice] }
		}
		s = &nodeState{names: clientcache.NewNameCache(f.cfg.AttrTTL, dentryTTL, f.k.Now, epochOf)}
		if f.cfg.CacheMode == CacheLease {
			f.cbServer(s, n)
		}
		f.nodes[n] = s
	}
	return s
}

// chargeOp sleeps the service cost of one operation at sh: the base time
// scaled by the shard's consistency-point factor, when dirEntries is
// non-negative by the directory-index entry cost, and then by the
// backend's cost factor for the operation info classifies (unclassified
// work, opInfo{dirSize: -1}, pays only an active compaction stall). The
// default backend returns exactly 1, and the guard skips the multiply,
// so the float math of the pre-backend cost model is preserved bit for
// bit. A client RPC's charge is counted where it is served, by its
// simnet server.
func (f *FS) chargeOp(p *sim.Proc, sh *shardSrv, base time.Duration, dirEntries int, info opInfo) {
	cost := float64(base) * sh.wafl.ServiceFactor()
	if dirEntries >= 0 {
		cost *= dirIndex.EntryCost(dirEntries)
	}
	if bf := sh.be.factor(p.Now(), info); bf != 1 {
		cost *= bf
	}
	p.Sleep(time.Duration(cost))
}

// readInfo prices one point lookup at p for the configured backend: a
// lookup expected to miss is marked negative (the LSM bloom filter makes
// ENOENT the cheap case), and the parent directory's size feeds the
// B-tree page-depth surcharge. Both hints peek at the state the service
// body is about to read — a pricing hint, not a semantic check — and
// under the default backend neither is computed, so the hot path pays
// nothing.
func (f *FS) readInfo(state *shardSrv, p string) opInfo {
	info := opInfo{cls: opRead, dirSize: -1}
	switch f.cfg.Backend {
	case BackendLSM:
		if _, err := state.ns.Stat(p); err != nil {
			info.negative = true
		}
	case BackendBTree:
		if dir, err := state.ns.Lookup(fs.ParentDir(p)); err == nil {
			info.dirSize = state.ns.NumChildren(dir)
		}
	}
	return info
}

// writeInfo prices one mutation of the entry at p: the parent directory
// keys the B-tree row-lock tracking, and its size (as charged by the
// caller via dirEntries) feeds the page-depth surcharge.
func writeInfo(p string, dirEntries int) opInfo {
	return opInfo{cls: opWrite, dir: fs.ParentDir(p), dirSize: dirEntries}
}

// scanInfo prices one range scan (readdir, split probes).
func scanInfo() opInfo { return opInfo{cls: opScan, dirSize: -1} }

// hop performs one synchronous MDS-to-MDS call while serving a request:
// coordination CPU on the caller, the interconnect round trip, and body
// running on the destination's peer pool (never its client pool, so
// forwarded work cannot deadlock against incoming requests). When the
// destination lives in another kernel domain, peerLeg moves the caller
// there for the body, at identical virtual-time cost.
func (f *FS) hop(sp *sim.Proc, dst *shardSrv, body func(q *sim.Proc)) {
	addI64(&f.CrossCount, 1)
	f.peerLeg(sp, dst, "hop:"+strconv.Itoa(dst.index), body)
}

// visit runs one slice's share of a cross-shard step that srv
// coordinates: the listing fan-out, the split-rmdir probes and a split's
// migration batches. When the slice's server is down it does nothing
// and reports false. When a failover co-located the slice on srv, body
// runs there, on sp, with no interconnect hop. Otherwise body runs on
// the slice's server across one hop.
func (f *FS) visit(sp *sim.Proc, srv *shardSrv, slice int, body func(q *sim.Proc, peer *shardSrv)) bool {
	peer := f.srvFor(slice)
	switch {
	case !peer.up:
		return false
	case peer == srv:
		body(sp, peer)
	default:
		f.hop(sp, peer, func(q *sim.Proc) { body(q, peer) })
	}
	return true
}

// commit journals one successful mutation on slice state and, with
// replication, synchronously mirrors it to the slice's replica partner:
// the backup in normal operation, or nothing while the partner is down
// (the state object is shared between the replicas, so a recovering
// partner catches up by journal replay, not by data transfer). Directory
// mutations under hash placement skip the mirror — the broadcast already
// delivered them to every shard, the backup included.
func (f *FS) commit(sp *sim.Proc, state, srv *shardSrv, kind fs.OpKind) {
	state.journalAppend(f.cfg.JournalCap)
	partner := f.mirrorPartner(state, srv, kind)
	if partner < 0 {
		return
	}
	ps := f.shards[partner]
	addI64(&f.MirrorCount, 1)
	f.peerLeg(sp, ps, "mirror:"+strconv.Itoa(ps.index), func(q *sim.Proc) {
		f.chargeOp(q, ps, mirrorService, -1, opInfo{cls: opWrite, dirSize: -1})
		ps.be.log(q, metaLogBytes)
	})
}

// mirrorPartner returns the replica partner a committed mutation on
// slice state must mirror to, or -1 when no mirror is due: replication
// off, a broadcast-replicated directory mutation under hash placement
// (the broadcast already delivered it to every shard, the backup
// included), or a partner that is down or is the serving server itself.
func (f *FS) mirrorPartner(state, srv *shardSrv, kind fs.OpKind) int {
	if !f.replicated() {
		return -1
	}
	if f.cfg.Placement == PlaceHashDir && (kind == fs.OpMkdir || kind == fs.OpRmdir) {
		return -1
	}
	partner := f.backupOf(state.index)
	if f.serving[state.index] != state.index {
		partner = state.index
	}
	ps := f.shards[partner]
	if !ps.up || ps == srv {
		return -1
	}
	return partner
}

// persist pays the durability work of one applied mutation: the local
// journal write (priced by the shard's backend) and the replication
// mirror. With GroupCommitWindow zero it is exactly the pre-E30
// per-op path — log, then commit. With a window, the mutation journals
// at this same instant (the atomic-apply discipline: state and journal
// move together), but the flush and mirror traffic fold into the shard's
// open group-commit batch: the first mutation of a window becomes the
// batch leader — it sleeps out the window, pays one batched flush and
// one mirror round trip per replica partner, and wakes the others — and
// every follower holds its worker slot until the leader's flush acks,
// so no mutating RPC returns before its journal record is durable on
// the backup. Servers' peer-pool work (mirror applies, migrate inserts)
// never joins a batch, so a batch leader can always reach the partner's
// peer pool and the wait graph stays acyclic.
func (f *FS) persist(sp *sim.Proc, state, srv *shardSrv, kind fs.OpKind, logBytes int64) {
	w := f.cfg.GroupCommitWindow
	if w <= 0 {
		srv.be.log(sp, logBytes)
		f.commit(sp, state, srv, kind)
		return
	}
	state.journalAppend(f.cfg.JournalCap)
	partner := f.mirrorPartner(state, srv, kind)
	if b := srv.gc; b != nil {
		// Follower: join the open batch and wait out its flush.
		b.add(logBytes, partner)
		addI64(&f.GroupCommitOps, 1)
		for !b.flushed {
			b.done.Wait(sp)
		}
		return
	}
	// Leader: open a batch, absorb arrivals for one window, close it,
	// then pay the batched flush and the per-partner mirror round trips.
	// The batch condition lives on the executing kernel: under domains
	// a server's batches belong to its own domain (only its service
	// bodies ever join them).
	b := &gcBatch{done: sim.NewCond(sp.Kernel(), "groupcommit:"+strconv.Itoa(srv.index))}
	srv.gc = b
	b.add(logBytes, partner)
	addI64(&f.GroupCommits, 1)
	sp.Sleep(w)
	srv.gc = nil // later arrivals open the next batch
	srv.be.log(sp, b.bytes)
	for _, m := range b.mirrors {
		ps := f.shards[m.partner]
		if !ps.up || ps == srv {
			continue // the partner died inside the window: replay catches it up
		}
		addI64(&f.MirrorCount, 1)
		count := m.count
		f.peerLeg(sp, ps, "gcmirror:"+strconv.Itoa(ps.index), func(q *sim.Proc) {
			f.chargeOp(q, ps, time.Duration(count)*mirrorService, -1, opInfo{cls: opWrite, dirSize: -1})
			ps.be.log(q, count*metaLogBytes)
		})
	}
	b.flushed = true
	b.done.Broadcast()
}

// replicate propagates a successful directory mutation to every other
// shard (hash placement keeps the directory tree replicated). The state
// change commits on all replicas at the primary's apply time — the
// mutation is atomic across shards, like a transactional metadata
// store, so a concurrent request routed to a replica can never observe
// the directory tree mid-broadcast — while the caller still pays the
// full interconnect and replica service cost before its RPC returns.
// Down shards receive the state change without a hop: their replica
// catches up logically, the way recovery replay would deliver it.
//
// Under kernel domains a replica's namespace may only be touched by its
// own domain, so each apply rides the broadcast: every replica applies
// inside its hop body at the hop's arrival time (no shard goes down
// under domains). The mutating client observes its own change
// immediately — its reply travels the slower client path
// (OneWayLatency > crossShardLatency + crossShardOverhead), so every
// replica has applied before the client can look.
func (f *FS) replicate(sp *sim.Proc, primary *shardSrv, svc time.Duration, apply func(ns *namespace.Namespace, now time.Duration)) {
	if f.cfg.Placement != PlaceHashDir || len(f.shards) == 1 {
		return
	}
	addI64(&f.BroadcastCount, 1)
	if f.domained() {
		for _, sh := range f.shards {
			if sh == primary {
				continue
			}
			sh := sh
			f.hop(sp, sh, func(q *sim.Proc) {
				apply(sh.ns, q.Now())
				f.chargeOp(q, sh, svc, -1, opInfo{cls: opWrite, dirSize: -1})
				sh.be.log(q, metaLogBytes)
			})
		}
		return
	}
	now := sp.Now()
	for _, sh := range f.shards {
		if sh != primary {
			apply(sh.ns, now)
		}
	}
	for _, sh := range f.shards {
		if sh == primary || !sh.up {
			continue
		}
		sh := sh
		f.hop(sp, sh, func(q *sim.Proc) {
			f.chargeOp(q, sh, svc, -1, opInfo{cls: opWrite, dirSize: -1})
			sh.be.log(q, metaLogBytes)
		})
	}
}

// NewClient binds a client for one process on one node. The node's
// cache state is resolved here — in the client's own domain — and
// cached on the client, so service bodies running in shard domains
// never touch the shared nodes map.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, state: f.nodeState(node)}
}

type openFile struct {
	path  string
	slice int
	ino   fs.Ino
	size  int64
	fs.Buffer
}

type client struct {
	fsys  *FS
	node  *cluster.Node
	p     *sim.Proc
	state *nodeState
	files fs.Files[*openFile]
}

// cfg returns the FS config by pointer: the config is immutable after
// New, and service closures capture the pointer instead of the struct.
func (c *client) cfg() *Config   { return &c.fsys.cfg }
func (c *client) st() *nodeState { return c.state }

// callRetry is the client's retry engine: it repeats attempt() with
// deterministic exponential backoff while it reports a retryable
// failure, and gives up with ETIMEDOUT once retryMax attempts all
// failed. Every operation gets exactly one budget, including the
// cross-shard rename whose destination can fail independently of its
// source.
func (c *client) callRetry(op, path string, attempt func() (retryable bool)) error {
	f := c.fsys
	for n := 0; ; n++ {
		if !attempt() {
			return nil
		}
		if n+1 >= retryMax {
			return fs.NewError(op, path, fs.ETIMEDOUT)
		}
		f.RetryCount++
		c.p.Sleep(f.backoff(n))
	}
}

// call issues one RPC for slice, retrying with deterministic exponential
// backoff while the serving server is down; a failover between attempts
// redirects the retry to the promoted backup. The service body runs on
// the serving server's thread pool (srv) against the slice's
// authoritative state. It returns ETIMEDOUT when retryMax attempts all
// failed.
func (c *client) call(op string, path string, slice int, reqBytes, respBytes int64,
	service func(sp *sim.Proc, state, srv *shardSrv)) error {
	f := c.fsys
	state := f.shards[slice]
	return c.callRetry(op, path, func() bool {
		srv := f.srvFor(slice)
		return srv.conn.TryCall(c.p, reqBytes, respBytes, func(sp *sim.Proc) {
			service(sp, state, srv)
		}) != nil
	})
}

// callEntry is call for operations addressed at the directory entry p,
// with split-bitmap routing: the client first routes by its cached
// bitmap (paying a bounce when the guess is wrong, split.go), then the
// RPC targets the authoritative slice — re-resolved on every retry, so
// a failover or a split between attempts redirects the retry. The
// service body receives the slice state re-checked at service start; a
// body that then sleeps (queueing for a directory lock, the service
// charge itself) must re-resolve with entryState immediately before
// touching the namespace, because a concurrent split can move
// ownership during any wait. A request acted on by the contacted
// server against a re-homed slice models proxying: the cost stays at
// the contacted server, the state change lands where routing looks.
// Under kernel domains no split runs (Config.Validate), so the slice
// never leaves the contacted server's domain.
func (c *client) callEntry(op, p string, reqBytes, respBytes int64,
	service func(sp *sim.Proc, state, srv *shardSrv)) error {
	f := c.fsys
	c.routeEntry(p)
	return c.callRetry(op, p, func() bool {
		srv := f.srvFor(f.ownerSlice(p))
		return srv.conn.TryCall(c.p, reqBytes, respBytes, func(sp *sim.Proc) {
			service(sp, f.shards[f.ownerSlice(p)], srv)
		}) != nil
	})
}

// entryState returns the slice state authoritative for entry p at this
// instant. Mutating (and reading) service bodies call it immediately
// before the namespace access, with no virtual time in between — the
// commit-instant re-resolution that makes concurrent splits unable to
// strand an entry on a slice routing no longer consults, no matter how
// long the request waited in queues or on locks.
func (f *FS) entryState(p string) *shardSrv { return f.shards[f.ownerSlice(p)] }

// resolveParents walks the strict ancestors of p through the dentry
// cache, issuing one LOOKUP RPC to the owning shard per missing
// component. Under subtree placement every ancestor of a path shares
// its top-level component, so a cold walk stays on one shard; under
// hash placement the lookups scatter across the cluster. An ancestor
// that is not a directory fails the walk with ENOTDIR, from the LOOKUP
// reply or from its cached dentry alike: a file lives only on its
// owner slice, so the operation's own shard could not tell.
func (c *client) resolveParents(p string) error {
	f := c.fsys
	st := c.st()
	for i := 1; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		prefix := p[:i]
		if dir, neg, ok := st.names.DentryDir(prefix); ok {
			switch {
			case neg:
				return fs.NewError("lookup", prefix, fs.ENOENT)
			case !dir:
				return fs.NewError("lookup", prefix, fs.ENOTDIR)
			}
			continue
		}
		var err error
		cerr := c.call("lookup", prefix, f.ownerSlice(prefix), 120, 140, func(sp *sim.Proc, state, srv *shardSrv) {
			f.chargeOp(sp, srv, lookupService, -1, f.readInfo(state, prefix))
			var a fs.Attr
			a, err = state.ns.Stat(prefix)
			if err == nil {
				c.fillEntry(sp, prefix, a)
				if a.Type != fs.TypeDirectory {
					err = fs.NewError("lookup", prefix, fs.ENOTDIR)
				}
			} else {
				// The negative dentry is client-side state: it rides the
				// reply home (immediate when client and shard share a
				// kernel).
				simnet.Defer(sp, clientcache.NegativeFill(st.names, prefix))
			}
		})
		if cerr != nil {
			return cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// refill refreshes the node caches for p from its owning slice's
// namespace on q: the attributes a mutation reply piggybacks. With
// withParent, under CacheLease, the reply also carries the parent
// directory's post-op attributes: the mutator writes its cached dir
// attributes back in place (the delegation discipline) instead of
// refetching them. On one kernel the client peeks at the slice once the
// reply is home (cacheEntry); under kernel domains that peek would cross
// domains, so the service body reads the slice in its owning domain and
// fillEntry defers the cache writes until the reply is home
// (captureEntry).
func (c *client) refill(q *sim.Proc, p string, withParent bool) {
	state := c.fsys.entryState(p)
	a, err := state.ns.Stat(p)
	if err != nil {
		return
	}
	c.fillEntry(q, p, a)
	if !withParent || c.cfg().CacheMode != CacheLease {
		return
	}
	if dir := fs.ParentDir(p); dir != "." && dir != p {
		if da, derr := state.ns.Stat(dir); derr == nil {
			c.fillEntry(q, dir, da)
		}
	}
}

// cacheEntry is a mutation's reply refill on one kernel, run by the
// client once the reply is home.
func (c *client) cacheEntry(p string) {
	if !c.fsys.domained() {
		c.refill(c.p, p, true)
	}
}

// captureEntry is a mutation's reply refill under kernel domains, run
// by the service body at the commit instant.
func (c *client) captureEntry(q *sim.Proc, p string) {
	if c.fsys.domained() {
		c.refill(q, p, true)
	}
}

// lockParent is a mutation's parent-directory step on slice state
// (service.LockParent in the slice's lock table) followed by the charge
// of svc on srv by the parent's entry count. It returns the held lock,
// or nil after an unscaled charge when the parent does not resolve on
// the slice. A body that holds the lock to its end writes
// defer f.lockParent(...).Unlock(): the step runs at once, the release
// when the body returns.
func (f *FS) lockParent(sp *sim.Proc, state, srv *shardSrv, p string, svc time.Duration) *sim.Mutex {
	h := state.ns.Parent(p)
	lock, n := service.LockParent(sp, state.locks, &h)
	f.chargeOp(sp, srv, svc, n, writeInfo(p, n))
	return lock
}

// Create issues one CREATE RPC to the shard serving the parent
// directory's files.
func (c *client) Create(p string) error {
	f := c.fsys
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	var err error
	cerr := c.callEntry("create", p, 160, 160, func(sp *sim.Proc, state, srv *shardSrv) {
		defer f.lockParent(sp, state, srv, p, createService).Unlock()
		// Commit-instant re-resolution: the lock and charge waits above
		// may have overlapped a split of the parent.
		state2 := f.entryState(p)
		_, err = state2.ns.Create(p, 0o644, sp.Now())
		if err == nil {
			f.revokeOnMutate(sp, c.st(), p, true)
			f.persist(sp, state2, srv, fs.OpCreate, metaLogBytes)
			if dir, lerr := state2.ns.Lookup(fs.ParentDir(p)); lerr == nil {
				f.maybeSplit(sp, fs.ParentDir(p), state2.ns.NumChildren(dir), c.st())
			}
		}
		if err == nil || fs.IsExist(err) {
			c.captureEntry(sp, p)
		}
	})
	if cerr != nil {
		return cerr
	}
	if err != nil {
		if fs.IsExist(err) {
			c.cacheEntry(p)
		}
		return err
	}
	c.cacheEntry(p)
	return nil
}

// Mkdir creates a directory at its owning shard; under hash placement
// the mutation then replicates synchronously to every other shard.
func (c *client) Mkdir(p string) error {
	f := c.fsys
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	var err error
	cerr := c.call("mkdir", p, f.ownerSlice(p), 150, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		f.lockParent(sp, state, srv, p, mkdirService).Unlock()
		_, err = state.ns.Mkdir(p, 0o755, sp.Now())
		if err == nil {
			// The broadcast applies the replicas at this same instant;
			// revocations must not sleep between the primary and the
			// replica applies, so they come after it.
			f.replicate(sp, state, mkdirService, func(ns *namespace.Namespace, now time.Duration) {
				ns.Mkdir(p, 0o755, now)
			})
			f.revokeOnMutate(sp, c.st(), p, true)
			f.persist(sp, state, srv, fs.OpMkdir, metaLogBytes)
		}
		if err == nil || fs.IsExist(err) {
			c.captureEntry(sp, p)
		}
	})
	if cerr != nil {
		return cerr
	}
	if err != nil {
		if fs.IsExist(err) {
			c.cacheEntry(p)
		}
		return err
	}
	c.cacheEntry(p)
	return nil
}

// Rmdir removes a directory. The emptiness check runs on the shard
// holding the directory's files; under hash placement the removal then
// replicates to the other shards. A regular file at p lives only on its
// owner slice, so when the content slice finds nothing the body peeks
// there, free, and answers ENOTDIR for a file. Under kernel domains the
// owner slice may live in another domain, and the answer stays ENOENT.
func (c *client) Rmdir(p string) error {
	f := c.fsys
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	slice := f.contentSlice(p)
	if slice < 0 {
		return fs.NewError("rmdir", p, fs.EINVAL)
	}
	var err error
	cerr := c.call("rmdir", p, slice, 150, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		f.chargeOp(sp, srv, removeService, -1, writeInfo(p, -1))
		// A split directory is empty only when every partition slice
		// agrees: the peer replicas are checked logically before the
		// removal commits (no time may pass between check and apply),
		// and the probe traffic — one readdir charge per peer slice
		// examined, by the visit rule — is paid after the outcome is
		// decided, on success and on ENOTEMPTY alike. A down peer's
		// state still counts, the way replicate applies to down shards.
		payProbes := func(slices []int) {
			for _, s := range slices {
				f.visit(sp, srv, s, func(q *sim.Proc, peer *shardSrv) {
					f.chargeOp(q, peer, readdirService, -1, scanInfo())
				})
			}
		}
		var probes []int
		if f.splitLevel(p) > 0 {
			probes = f.splitSlices(p)[1:]
			for i, s := range probes {
				if hasFileEntries(f.shards[s].ns, p, sp.Now()) {
					err = fs.NewError("rmdir", p, fs.ENOTEMPTY)
					payProbes(probes[:i+1]) // the failed probe ran its readdirs too
					return
				}
			}
		}
		err = state.ns.Rmdir(p, sp.Now())
		if fs.IsNotExist(err) && !f.domained() {
			if a, serr := f.entryState(p).ns.Stat(p); serr == nil && a.Type != fs.TypeDirectory {
				err = fs.NewError("rmdir", p, fs.ENOTDIR)
			}
		}
		if err == nil {
			f.dropSplit(p)
			f.replicate(sp, state, removeService, func(ns *namespace.Namespace, now time.Duration) {
				ns.Rmdir(p, now)
			})
			f.revokeOnMutate(sp, c.st(), p, true)
			f.dropDelegation(p)
			f.persist(sp, state, srv, fs.OpRmdir, metaLogBytes)
			payProbes(probes)
		}
	})
	if cerr != nil {
		return cerr
	}
	if err == nil {
		c.dropEntry(p)
	}
	return err
}

// Unlink removes a file at the shard serving its parent directory.
func (c *client) Unlink(p string) error {
	f := c.fsys
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	var err error
	cerr := c.callEntry("unlink", p, 150, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		defer f.lockParent(sp, state, srv, p, removeService).Unlock()
		state2 := f.entryState(p) // the waits above may have overlapped a split
		err = state2.ns.Unlink(p, sp.Now())
		if err == nil {
			f.revokeOnMutate(sp, c.st(), p, true)
			f.persist(sp, state2, srv, fs.OpUnlink, metaLogBytes)
		}
	})
	if cerr != nil {
		return cerr
	}
	if err == nil {
		c.dropEntry(p)
	}
	return err
}

// Rename is atomic on one shard when both parents are served there.
// When they are not, the file migrates: validate at the source shard,
// one interconnect hop to insert at the destination, then the removal
// at the source — the cross-shard cost E18 measures. A migrate whose
// destination server is down fails the whole operation with a timeout
// and the client retries it from the source.
//
// Directory renames do not migrate, and this is the model's deviation
// from POSIX: under hash placement every descendant's partition key
// embeds the directory path, so renaming a directory would re-home its
// files and invalidate its replicas, and any rename of a directory
// across a shard boundary would have to move its subtree. Once the
// source shard has found the source directory, the rename answers what
// the two paths decide (dirRenameErr): a rename onto its own name is a
// no-op, a move into its own subtree and a rename of or onto the root
// fail with EINVAL, and everything else fails with EXDEV like any
// multi-device rename (§2.6.3) — also where POSIX would let the
// target's state decide (ENOTDIR, ENOTEMPTY), since the target may live
// on another slice. Under subtree placement a directory rename inside
// one subtree stays local and answers as POSIX does.
func (c *client) Rename(oldPath, newPath string) error {
	f := c.fsys
	c.node.Syscall(c.p)
	if err := c.resolveParents(oldPath); err != nil {
		return err
	}
	if err := c.resolveParents(newPath); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(oldPath))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	srcSlice := f.ownerSlice(oldPath)
	dstSlice := f.ownerSlice(newPath)
	var err error
	if srcSlice == dstSlice {
		cerr := c.call("rename", oldPath, srcSlice, 150, 140, func(sp *sim.Proc, _, srv *shardSrv) {
			// Re-resolve ownership at service time (the callEntry rule),
			// and again under the lock below: a split landing while this
			// request queued or waited can re-home either name; renaming
			// on a pinned slice would strand the new entry where the
			// split-aware routing never looks.
			defer f.lockParent(sp, f.entryState(oldPath), srv, oldPath, renameService).Unlock()
			// Commit-instant re-resolution; no virtual time passes from
			// here to ns.Rename. When a mid-flight split separated the
			// two names' partitions, the rename surfaces a transient
			// EXDEV — an online repartition briefly refusing a rename it
			// can no longer do atomically, like any
			// migration-in-progress busy error — rather than corrupting
			// placement.
			state2 := f.entryState(oldPath)
			if f.ownerSlice(newPath) != f.ownerSlice(oldPath) {
				err = fs.NewError("rename", newPath, fs.EXDEV)
				return
			}
			if f.cfg.Placement == PlaceHashDir && len(f.shards) > 1 {
				// Renaming a directory would strand its hashed files
				// and stale the replicated tree on the other shards
				// (see Rename); onto its own name it is a no-op.
				var a fs.Attr
				a, err = state2.ns.Stat(oldPath)
				if err != nil {
					return
				}
				if a.Type == fs.TypeDirectory && oldPath != newPath {
					err = dirRenameErr(oldPath, newPath)
					return
				}
			}
			err = state2.ns.Rename(oldPath, newPath, sp.Now())
			if err == nil {
				f.revokeOnMutate(sp, c.st(), oldPath, true)
				f.revokeOnMutate(sp, c.st(), newPath, true)
				f.dropDelegation(oldPath)
				// A directory rename moved every descendant with it:
				// leases keyed by the old paths are dead. Every directory
				// rename that moves anything (subtree placement, single
				// shard) keeps a subtree's entries on one slice.
				if f.cfg.CacheMode == CacheLease {
					if a, serr := state2.ns.Stat(newPath); serr == nil && a.Type == fs.TypeDirectory {
						f.revokeSubtree(sp, c.st(), oldPath, f.ownerSlice(oldPath))
					}
				}
				f.persist(sp, state2, srv, fs.OpRename, metaLogBytes)
				// The rename inserted an entry at the destination parent:
				// it can push that directory over the split threshold
				// just like a create.
				if ndir, nlerr := state2.ns.Lookup(fs.ParentDir(newPath)); nlerr == nil {
					f.maybeSplit(sp, fs.ParentDir(newPath), state2.ns.NumChildren(ndir), c.st())
				}
				c.captureEntry(sp, newPath)
			}
		})
		if cerr != nil {
			return cerr
		}
	} else {
		// The migrate pairs two servers, and either can be down: a dead
		// source fails the TryCall, a dead destination aborts the
		// service body after the client's RPC timeout. Both are
		// retryable failures drawing on the one callRetry budget, and
		// every retry restarts the migrate from the source phase.
		// dirEntries returns the directory-index surcharge argument for
		// the parent of p in ns — the same dir.NumChildren() the local
		// rename branch charges, so a large directory prices its rename
		// identically whether or not the operation crosses a shard.
		dirEntries := func(ns *namespace.Namespace, p string) int {
			if dir, lerr := ns.Lookup(fs.ParentDir(p)); lerr == nil {
				return ns.NumChildren(dir)
			}
			return -1
		}
		cerr := c.callRetry("rename", newPath, func() bool {
			err = nil
			dstDown := false
			srv := f.srvFor(srcSlice)
			terr := srv.conn.TryCall(c.p, 150, 140, func(sp *sim.Proc) {
				// Re-resolve both ends at service time, like callEntry: a
				// split landing while this request queued may have
				// re-homed either entry.
				srcState := f.entryState(oldPath)
				srcN := dirEntries(srcState.ns, oldPath)
				f.chargeOp(sp, srv, renameService, srcN, writeInfo(oldPath, srcN))
				srcState = f.entryState(oldPath) // the charge may have overlapped a split
				var a fs.Attr
				a, err = srcState.ns.Stat(oldPath)
				if err != nil {
					return
				}
				if a.Type != fs.TypeRegular {
					err = dirRenameErr(oldPath, newPath)
					return
				}
				dstState := f.shards[f.ownerSlice(newPath)]
				dstSrv := f.srvFor(f.ownerSlice(newPath))
				if !dstSrv.up {
					dstDown = true
					sp.Sleep(retryTimeout)
					return
				}
				// Phase 1: insert at the destination shard.
				f.hop(sp, dstSrv, func(q *sim.Proc) {
					dstN := dirEntries(dstState.ns, newPath)
					f.chargeOp(q, dstSrv, renameService, dstN, writeInfo(newPath, dstN))
					// Commit-instant re-resolution after the hop+charge
					// waits.
					dstState = f.entryState(newPath)
					if derr := dstState.ns.Unlink(newPath, q.Now()); derr != nil && !fs.IsNotExist(derr) {
						err = derr
						return
					}
					var ni *namespace.Inode
					ni, err = dstState.ns.Create(newPath, a.Mode, q.Now())
					if err == nil {
						if a.Size > 0 {
							dstState.ns.SetSize(ni.Ino, a.Size, q.Now())
						}
						f.revokeOnMutate(q, c.st(), newPath, true)
						// The destination insert commits per-op even under
						// group commit: it runs on the peer pool, and peer
						// work must never wait on a batch whose leader may
						// need this very pool for its mirror round trip.
						dstSrv.be.log(q, metaLogBytes)
						f.commit(q, dstState, dstSrv, fs.OpRename)
						c.captureEntry(q, newPath)
					}
				})
				if err != nil {
					return
				}
				// Phase 2: remove at the source shard.
				rmN := dirEntries(srcState.ns, oldPath)
				f.chargeOp(sp, srcState, removeService, rmN, writeInfo(oldPath, rmN))
				srcState = f.entryState(oldPath) // commit-instant re-resolution
				err = srcState.ns.Unlink(oldPath, sp.Now())
				if err == nil {
					f.revokeOnMutate(sp, c.st(), oldPath, true)
					f.persist(sp, srcState, srv, fs.OpUnlink, metaLogBytes)
					// The migrate grew the destination parent; trigger
					// from the coordinator, never from inside the hop —
					// a split hops to peer pools itself, and peer-pool
					// threads must not wait on other peer pools. No split
					// runs under kernel domains (Config.Validate), so this
					// read of the destination slice never crosses one.
					if f.splitActive() {
						if ndir, nlerr := dstState.ns.Lookup(fs.ParentDir(newPath)); nlerr == nil {
							f.maybeSplit(sp, fs.ParentDir(newPath), dstState.ns.NumChildren(ndir), c.st())
						}
					}
				}
			})
			return terr != nil || dstDown
		})
		if cerr != nil {
			return cerr
		}
	}
	if err == nil {
		c.dropEntry(oldPath)
		c.cacheEntry(newPath)
	}
	return err
}

// dirRenameErr answers a rename of the directory at oldPath to a
// different name newPath that the model will not carry out (see
// Rename): EINVAL for a move into its own subtree and for a rename of or
// onto the root, EXDEV otherwise.
func dirRenameErr(oldPath, newPath string) error {
	if oldPath == "/" || newPath == "/" || strings.HasPrefix(newPath, oldPath+"/") {
		return fs.NewError("rename", newPath, fs.EINVAL)
	}
	return fs.NewError("rename", newPath, fs.EXDEV)
}

// Stat serves from the attribute cache while its entry holds — a TTL
// that has not lapsed, or a lease that was neither revoked nor
// epoch-invalidated — else issues GETATTR to the serving shard, which
// grants a fresh lease under CacheLease.
func (c *client) Stat(p string) (fs.Attr, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	if a, ok := c.cachedAttr(p); ok {
		return a, nil
	}
	if err := c.resolveParents(p); err != nil {
		return fs.Attr{}, err
	}
	var a fs.Attr
	var err error
	cerr := c.callEntry("stat", p, 120, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		f.chargeOp(sp, srv, getattrService, -1, f.readInfo(state, p))
		state = f.entryState(p) // the charge may have overlapped a split
		a, err = state.ns.Stat(p)
		if err == nil {
			c.fillEntry(sp, p, a)
		}
	})
	if cerr != nil {
		return fs.Attr{}, cerr
	}
	if err != nil {
		return fs.Attr{}, err
	}
	return a, nil
}

// Open resolves the path (dentry cache, else one LOOKUP at the owner)
// and returns a handle bound to the owning slice. On one kernel a cached
// dentry is revalidated with a free peek at the owning slice's
// namespace. Under kernel domains that state is unreadable from the
// client, so a dentry whose attributes are still cached opens locally —
// incarnation staleness surfaces at flush as ESTALE through the
// handle-chasing guards — and any other dentry pays the LOOKUP too,
// which resolves ino and size in the owner's domain.
func (c *client) Open(p string) (fs.Handle, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return 0, err
	}
	st := c.st()
	ino, neg, ok := st.names.Dentry(p)
	if ok && neg {
		return 0, fs.NewError("open", p, fs.ENOENT)
	}
	if ok && f.domained() {
		if a, aok := c.cachedAttr(p); aok && a.Ino == ino {
			return c.newHandle(p, f.ownerSlice(p), ino, a.Size), nil
		}
		ok = false
	}
	if !ok {
		var a fs.Attr
		var err error
		cerr := c.callEntry("open", p, 120, 140, func(sp *sim.Proc, state, srv *shardSrv) {
			f.chargeOp(sp, srv, lookupService, -1, f.readInfo(state, p))
			state = f.entryState(p) // the charge may have overlapped a split
			a, err = state.ns.Stat(p)
			if err == nil {
				c.fillEntry(sp, p, a)
			} else {
				simnet.Defer(sp, clientcache.NegativeFill(st.names, p))
			}
		})
		if cerr != nil {
			return 0, cerr
		}
		if err != nil {
			return 0, err
		}
		ino = a.Ino
		if f.domained() {
			st.names.PutDentry(p, ino, a.Type == fs.TypeDirectory)
			return c.newHandle(p, f.ownerSlice(p), ino, a.Size), nil
		}
	}
	slice := f.ownerSlice(p)
	state := f.shards[slice]
	// Revalidate by path, not by the cached ino alone: every slice
	// numbers its inodes independently, so after a split migrates the
	// entry a stale dentry's ino could collide with an unrelated file
	// on the new owner slice.
	node, lerr := state.ns.Lookup(p)
	if lerr != nil {
		c.dropEntry(p)
		return 0, fs.NewError("open", p, fs.ESTALE)
	}
	if node.Ino != ino {
		// The dentry predates a migration (or a same-name replacement):
		// open resolves the name, so refresh the dentry and open the
		// current incarnation — only flush guards handle incarnations.
		ino = node.Ino
		st.names.PutDentry(p, ino, node.Type == fs.TypeDirectory)
	}
	return c.newHandle(p, slice, ino, node.Size), nil
}

// newHandle allocates a file handle bound to the entry's owning slice.
func (c *client) newHandle(p string, slice int, ino fs.Ino, size int64) fs.Handle {
	return c.files.Open(&openFile{path: p, slice: slice, ino: ino, size: size})
}

// Close flushes dirty data (close-to-open consistency).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	return fs.CloseBuffered(&c.files, h, c.flush)
}

// Write buffers n bytes client-side until Close or Fsync.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	return fs.WriteBuffered(&c.files, h, n)
}

// Fsync forces dirty data to the serving shard.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	return fs.FsyncBuffered(&c.files, h, c.flush)
}

// flush writes the buffered bytes to the entry's serving shard. It
// empties the buffer only on success: a failed flush stays dirty for
// the next Fsync or Close.
func (c *client) flush(of *openFile) error {
	f := c.fsys
	newSize := of.size + of.Written
	written := of.Written
	var err error
	id := entryID{of.slice, of.ino}
	cerr := c.callEntry("write", of.path, 120+written, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		t := time.Duration(float64(writeServicePerKB) * float64(written) / 1024)
		f.chargeOp(sp, srv, t, -1, opInfo{cls: opWrite, dirSize: -1})
		// Chase the handle's incarnation across split migrations, then
		// write through the inode, wherever its name has gone: a rename
		// keeps the inode alive (the write must land, POSIX fd
		// semantics), a split migration is followed via FS.moved, and
		// only a dead inode — unlinked, or re-homed by a cross-shard
		// migrate that re-created it — is a stale handle that must fail
		// loudly rather than touch an unrelated same-name replacement.
		id = f.chaseMoves(id)
		state = f.shards[id.slice]
		if state.ns.Get(id.ino) == nil {
			err = fs.NewError("write", of.path, fs.ESTALE)
			return
		}
		if serr := state.ns.SetSize(id.ino, newSize, sp.Now()); fs.CodeOf(serr) == fs.EISDIR {
			err = serr // a write to a directory changes nothing
			return
		}
		// Size and mtime changed: other holders' attribute leases die;
		// the parent directory is untouched by a content write.
		f.revokeOnMutate(sp, c.st(), of.path, false)
		f.persist(sp, state, srv, fs.OpWrite, metaLogBytes+written)
		if f.domained() {
			// The client-side refill below cannot peek across domains:
			// refill here, at the commit instant. Nothing re-homes an
			// entry under domains, so the written name resolves on this
			// server's own slice.
			c.refill(sp, of.path, false)
		}
	})
	if cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	of.slice, of.ino = id.slice, id.ino
	of.size = newSize
	of.Reset()
	if !f.domained() {
		c.refill(c.p, of.path, false)
	}
	return nil
}

// readdirCost returns the service time of listing n entries: one
// readdirService per 512-entry page plus the per-entry cost, the same
// paging model as the NFS READDIR path.
func readdirCost(n int) time.Duration {
	pages := (n + 511) / 512
	if pages < 1 {
		pages = 1
	}
	return time.Duration(pages)*readdirService +
		time.Duration(n)*readdirPerEntry
}

// ReadDir lists a directory through the listing fan-out (list).
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	ents, _, err := c.list(p, false)
	return ents, err
}

// list serves ReadDir, and with plus the batched ReadDirPlus, through
// one fan-out. The home slice serves first: the directory's content
// slice, or the client node's shard for the root under subtree
// placement, whose top-level entries every shard partitions — the
// namespace-aggregation view of §4.7 at MDS granularity. The peers are
// read at service time, so a split landing while the request queues
// cannot hide the entries it just moved: a split directory's other
// partition slices, or every other shard for the subtree root. Under
// hash placement a peer adds files only, since directories are
// replicated and the home already listed them. Each peer is visited by
// the visit rule; a down peer is skipped, and the listing degrades the
// way an aggregated namespace does when one volume server times out,
// surfaced in FS.PartialListings. With plus, every slice also pays
// readdirPlusPerEntry per entry and returns the entries' attributes,
// which fill the client's caches — under CacheLease as a bulk lease
// grant keyed per entry to its owning slice.
func (c *client) list(p string, plus bool) ([]fs.DirEntry, []fs.Attr, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	op, reqBytes, respBytes, perEntry := "readdir", int64(130), int64(260), time.Duration(0)
	if plus {
		op, reqBytes, respBytes, perEntry = "readdirplus", 140, 320, readdirPlusPerEntry
	}
	cost := func(n int) time.Duration { return readdirCost(n) + time.Duration(n)*perEntry }
	home := f.contentSlice(p)
	root := home < 0
	if root {
		home = c.node.Index % len(f.shards)
	}
	filesOnly := f.cfg.Placement == PlaceHashDir
	var ents []fs.DirEntry
	var attrs []fs.Attr
	var err error
	cerr := c.call(op, p, home, reqBytes, respBytes, func(sp *sim.Proc, state, srv *shardSrv) {
		var peers []int
		switch {
		case root:
			peers = make([]int, 0, len(f.shards)-1)
			for i := range f.shards {
				if i != home {
					peers = append(peers, i)
				}
			}
		case f.splitLevel(p) > 0:
			peers = f.splitSlices(p)[1:]
		}
		ents, err = state.ns.ReadDir(p, sp.Now())
		if err != nil {
			f.chargeOp(sp, srv, readdirService, -1, scanInfo())
			return
		}
		f.chargeOp(sp, srv, cost(len(ents)), -1, scanInfo())
		if plus {
			attrs = c.plusAttrs(sp, state, p, ents, make([]fs.Attr, 0, len(ents)))
		}
		for _, s := range peers {
			if !f.visit(sp, srv, s, func(q *sim.Proc, peer *shardSrv) {
				more, merr := f.shards[s].ns.ReadDir(p, q.Now())
				if merr != nil {
					return
				}
				f.chargeOp(q, peer, cost(len(more)), -1, scanInfo())
				if filesOnly {
					more = filesOf(more)
				}
				ents = append(ents, more...)
				if plus {
					attrs = c.plusAttrs(q, f.shards[s], p, more, attrs)
				}
			}) {
				addI64(&f.PartialListings, 1)
			}
		}
	})
	if cerr != nil {
		return nil, nil, cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return ents, attrs, nil
}

// DropCaches clears the node's name and split-bitmap caches.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	st := c.st()
	st.names.Clear()
	if st.splits != nil {
		st.splits.Clear()
	}
}
