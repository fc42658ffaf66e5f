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
	"strconv"
	"sync"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
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
// times default to the FAS3050-class figures of the NFS model so shard
// counts are comparable against the single-server baselines.
type Config struct {
	// NumShards is the metadata server count.
	NumShards int
	// Placement selects the partitioning policy.
	Placement Policy
	// ShardThreads is each shard's client-facing worker pool size.
	ShardThreads int
	// PeerThreads is each shard's pool for inter-MDS requests
	// (broadcast replication, migrate inserts, peer readdir, mirrors).
	PeerThreads int
	// OneWayLatency is the client<->shard network delay.
	OneWayLatency time.Duration
	// CrossShardLatency is the one-way delay of the MDS interconnect.
	CrossShardLatency time.Duration
	// CrossShardOverhead is the extra CPU charged on each side of a
	// forwarded operation (marshalling, transaction bookkeeping).
	CrossShardOverhead time.Duration
	// Domains partitions the simulation itself into conservative-
	// lookahead kernel domains (domain.go, internal/sim): domain 0 runs
	// the clients and domains 1..Domains-1 share the shards, exchanging
	// timestamped messages with lookahead min(CrossShardLatency,
	// OneWayLatency). Results are deterministic for a given Domains
	// value regardless of worker threads; <= 1 (the default) is the
	// single-kernel path, byte for byte.
	Domains int

	CreateService     time.Duration
	GetattrService    time.Duration
	LookupService     time.Duration
	RemoveService     time.Duration
	MkdirService      time.Duration
	RenameService     time.Duration
	ReaddirService    time.Duration
	ReaddirPerEntry   time.Duration
	WriteServicePerKB time.Duration

	AttrTTL   time.Duration
	DentryTTL time.Duration
	DirIndex  namespace.DirIndex
	WAFL      storage.WAFLConfig
	// MetaLogBytes is the journal record size per namespace change.
	MetaLogBytes int64
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
	// MirrorService is the backup-side CPU charged per mirrored
	// mutation (applying the journal record to the standby copy).
	MirrorService time.Duration
	// TakeoverDetect is the failure-detection delay (lease/heartbeat
	// expiry) before a backup begins taking over a crashed primary.
	TakeoverDetect time.Duration
	// ReplayPerEntry is the recovery cost per journal entry, paid by a
	// backup promoting itself and by a restarted primary. Non-default
	// backends scale it by their ReplayFactor (sequential WAL replay is
	// cheap on an LSM store, random page updates are expensive on a
	// B-tree — backend.go).
	ReplayPerEntry time.Duration
	// RetryTimeout is the client-observed RPC timeout against a dead
	// server (one failed attempt costs this much virtual time).
	RetryTimeout time.Duration
	// RetryBackoff is the base of the client's deterministic
	// exponential retry backoff; RetryBackoffMax caps it.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// RetryMax is the attempt limit per operation before the client
	// gives up with ETIMEDOUT. It bounds the simulation when a slice
	// stays dark (crashed primary, no backup, no restart scheduled).
	RetryMax int

	// CacheMode selects the client attribute-cache consistency model:
	// NFS-style TTL (default), uncached, or lease-based coherence with
	// revocation callbacks (coherence.go, E22–E24).
	CacheMode CacheMode
	// LeaseTTL is the validity of one server-granted read lease
	// (CacheLease only).
	LeaseTTL time.Duration
	// CallbackService is the client-side handler cost of one revocation
	// or recall callback.
	CallbackService time.Duration
	// ReaddirPlusPerEntry is the server-side cost of piggybacking one
	// entry's attributes on a readdirplus reply — far below a full
	// GETATTR round trip, which is the point of batching.
	ReaddirPlusPerEntry time.Duration
	// Delegations enables write-back directory delegations: the sole
	// writer of a directory keeps its cached directory attributes
	// current itself instead of paying revocations per mutation.
	Delegations bool
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
	// SplitMovePerEntry is the per-entry migration cost of a split step,
	// charged on both sides of each source→destination transfer.
	SplitMovePerEntry time.Duration
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
	// LSM and BTree tune the non-default backends; zero fields take
	// DefaultLSMParams / DefaultBTreeParams.
	LSM   LSMParams
	BTree BTreeParams
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

// DefaultConfig returns an n-shard configuration with per-shard service
// times matching the single-server NFS defaults. Replication is off;
// the failover tunables carry defaults so experiments can just flip
// Replicate on.
func DefaultConfig(n int) Config {
	return Config{
		NumShards:          n,
		Placement:          PlaceHashDir,
		ShardThreads:       4,
		PeerThreads:        2,
		OneWayLatency:      250 * time.Microsecond,
		CrossShardLatency:  80 * time.Microsecond,
		CrossShardOverhead: 45 * time.Microsecond,
		CreateService:      150 * time.Microsecond,
		GetattrService:     40 * time.Microsecond,
		LookupService:      40 * time.Microsecond,
		RemoveService:      140 * time.Microsecond,
		MkdirService:       180 * time.Microsecond,
		RenameService:      180 * time.Microsecond,
		ReaddirService:     120 * time.Microsecond,
		ReaddirPerEntry:    800 * time.Nanosecond,
		WriteServicePerKB:  30 * time.Microsecond,
		AttrTTL:            3 * time.Second,
		DentryTTL:          30 * time.Second,
		DirIndex:           namespace.IndexHash,
		WAFL:               storage.DefaultWAFLConfig(),
		MetaLogBytes:       320,

		JournalCap:      16384,
		MirrorService:   60 * time.Microsecond,
		TakeoverDetect:  200 * time.Millisecond,
		ReplayPerEntry:  20 * time.Microsecond,
		RetryTimeout:    500 * time.Millisecond,
		RetryBackoff:    50 * time.Millisecond,
		RetryBackoffMax: time.Second,
		RetryMax:        64,

		LeaseTTL:            10 * time.Second,
		CallbackService:     25 * time.Microsecond,
		ReaddirPlusPerEntry: 2 * time.Microsecond,
		Delegations:         true,
		CrashInvalidate:     true,

		SplitMovePerEntry: 4 * time.Microsecond,
		SplitBitmapTTL:    30 * time.Second,
	}
}

// journalRec is one entry of a shard's bounded mutation journal.
type journalRec struct {
	kind fs.OpKind
	path string
}

// shardSrv is one metadata server: its authoritative namespace slice,
// client-facing and peer thread pools, journal and directory locks.
type shardSrv struct {
	index int
	srv   *simnet.Server
	peer  *simnet.Server
	wafl  *storage.WAFL
	ns    *namespace.Namespace
	locks map[fs.Ino]*sim.Mutex
	ops   int64

	// be prices this shard's storage work (backend.go); gc is the open
	// group-commit batch, nil when none (Config.GroupCommitWindow).
	be backend
	gc *gcBatch

	// up mirrors the simnet server state; false between Crash and the
	// end of Restart recovery.
	up bool
	// journal holds the slice's dirty mutations since the last
	// checkpoint; its length prices takeover and restart replay.
	journal     []journalRec
	checkpoints int64
}

// journalAppend records one mutation, truncating at the checkpoint cap.
func (sh *shardSrv) journalAppend(cap int, kind fs.OpKind, path string) {
	if cap > 0 && len(sh.journal) >= cap {
		sh.journal = sh.journal[:0]
		sh.checkpoints++
	}
	sh.journal = append(sh.journal, journalRec{kind: kind, path: path})
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
	conns   map[connKey]*simnet.Conn
	nodes   map[*cluster.Node]*nodeState

	rpcs int64
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

	// Aggregate-arrival counters (inject.go, E31–E33). AggOps counts
	// background operations injected and served, AggShedOps those shed
	// because the thread pool could not absorb their tick before the
	// next one (open-loop overload admission control), and AggBusy the
	// cumulative service time the injected load occupied (ns).
	AggOps, AggShedOps, AggBusy int64
}

type connKey struct {
	node  *cluster.Node
	shard int
}

type nodeState struct {
	attrs    *clientcache.AttrCache
	dentries *clientcache.DentryCache
	// leases replaces attrs under CacheLease; cb and cbConn are the
	// node's callback endpoint and the server→client path to it.
	leases *clientcache.LeaseCache
	cb     *simnet.Server
	cbConn *simnet.Conn
	// splits is the node's per-directory split-bitmap cache, created
	// lazily the first time a server reports a split level (split.go).
	splits *clientcache.SplitMap
}

// New creates a sharded metadata service on kernel k.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	if cfg.NumShards < 1 {
		cfg.NumShards = 1
	}
	if cfg.RetryMax < 1 {
		cfg.RetryMax = 64
	}
	cfg.LSM = cfg.LSM.withDefaults()
	cfg.BTree = cfg.BTree.withDefaults()
	f := &FS{
		k:         k,
		cfg:       cfg,
		conns:     make(map[connKey]*simnet.Conn),
		nodes:     make(map[*cluster.Node]*nodeState),
		splitDirs: make(map[string]*dirSplit),
		moved:     make(map[entryID]entryID),
	}
	la := cfg.CrossShardLatency
	if cfg.OneWayLatency < la {
		la = cfg.OneWayLatency
	}
	f.g, f.kernels = placeShards(k, cfg.NumShards, cfg.Domains, la)
	for i := 0; i < cfg.NumShards; i++ {
		id := name + "-" + strconv.Itoa(i)
		sk := f.kFor(i)
		sh := &shardSrv{
			index: i,
			srv:   simnet.NewServer(sk, "mds:"+id, cfg.ShardThreads),
			peer:  simnet.NewServer(sk, "mdspeer:"+id, cfg.PeerThreads),
			wafl:  storage.NewWAFL(sk, "mds:"+id, cfg.WAFL),
			ns:    namespace.New(),
			locks: make(map[fs.Ino]*sim.Mutex),
			up:    true,
		}
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
func (f *FS) RPCCount() int64 { return loadI64(&f.rpcs) }

// ShardOps returns the per-shard count of client operations served,
// the load-balance view the skew experiments report.
func (f *FS) ShardOps() []int64 {
	out := make([]int64, len(f.shards))
	for i, sh := range f.shards {
		out[i] = loadI64(&sh.ops)
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
func (f *FS) JournalLen(i int) int { return len(f.shards[i].journal) }

// replicated reports whether primary/backup replication is in effect.
func (f *FS) replicated() bool { return f.cfg.Replicate && len(f.shards) > 1 }

// backupOf returns the backup server index of slice i.
func (f *FS) backupOf(i int) int { return (i + 1) % len(f.shards) }

// Crash takes shard i's server down at the current virtual time: its
// client and peer endpoints start timing out. With replication, the
// slice's backup detects the failure after TakeoverDetect, replays the
// journal and takes over serving the slice (recorded in Takeovers).
// Crash implements fault.Target.
//
// Under kernel domains every step of the crash/takeover sequence is a
// sync point (domain.go): serving[], the down flags, epochs and lease
// tables are read lock-free from every domain, so they may only change
// with all domains parked at one instant. The legacy path applies the
// crash immediately and schedules the takeover with a timer.
func (f *FS) Crash(p *sim.Proc, i int) {
	if f.domained() {
		f.crashDomained(p, i)
		return
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
	f.k.AfterFunc("takeover:"+strconv.Itoa(i), f.cfg.TakeoverDetect, func(q *sim.Proc) {
		if sh.up || !f.shards[b].up {
			// The primary returned before the lease expired, or the
			// backup died during the detection window — either way
			// there is nothing to promote.
			return
		}
		entries := len(sh.journal)
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
			Detect: f.cfg.TakeoverDetect, Replay: replay, Entries: entries,
		})
	})
}

// crashDomained runs the crash and the ensuing takeover as a chain of
// sync points: the crash lands one lookahead after the injector's call
// (the earliest instant every domain can rendezvous), detection fires
// TakeoverDetect later, and the promotion lands after the replay time —
// with the journal length read while its shard's domain is parked.
func (f *FS) crashDomained(p *sim.Proc, i int) {
	g := f.g
	g.AtSync(p, p.Now(), func() {
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
		crashAt := f.k.Now()
		g.AtSyncAbs(crashAt+f.cfg.TakeoverDetect, func() {
			if sh.up || !f.shards[b].up {
				return // primary returned, or the backup died meanwhile
			}
			entries := len(sh.journal)
			replay := time.Duration(entries) * f.shards[b].be.replayPerEntry()
			g.AtSyncAbs(f.k.Now()+replay, func() {
				if sh.up || !f.shards[b].up {
					return // primary recovered first, or backup crashed mid-replay
				}
				f.serving[i] = b
				f.invalidateSliceLeases(i)
				f.Takeovers = append(f.Takeovers, Takeover{
					Shard: i, Backup: b, CrashAt: crashAt,
					Detect: f.cfg.TakeoverDetect, Replay: replay, Entries: entries,
				})
			})
		})
	})
}

// Restart begins shard i's recovery at the current virtual time: the
// server replays its journal, then returns to service and reclaims its
// slice from the backup (failback). Restart implements fault.Target.
func (f *FS) Restart(p *sim.Proc, i int) {
	if f.domained() {
		// Same sync-point discipline as crashDomained: the journal is
		// read and the failback committed with every domain parked.
		g := f.g
		g.AtSync(p, p.Now(), func() {
			sh := f.shards[i]
			if sh.up {
				return
			}
			replay := time.Duration(len(sh.journal)) * sh.be.replayPerEntry()
			g.AtSyncAbs(f.k.Now()+replay, func() {
				if sh.up {
					return
				}
				sh.up = true
				sh.srv.SetUp()
				sh.peer.SetUp()
				f.serving[i] = i
				sh.journal = sh.journal[:0]
				sh.checkpoints++
				f.invalidateSliceLeases(i)
			})
		})
		return
	}
	sh := f.shards[i]
	if sh.up {
		return
	}
	replay := time.Duration(len(sh.journal)) * sh.be.replayPerEntry()
	f.k.AfterFunc("recover:"+strconv.Itoa(i), replay, func(q *sim.Proc) {
		sh.up = true
		sh.srv.SetUp()
		sh.peer.SetUp()
		f.serving[i] = i
		sh.journal = sh.journal[:0] // recovery checkpoints the journal
		sh.checkpoints++
		// Failback is another serving change the restarted primary has
		// no lease state for; leases granted meanwhile (by the backup,
		// or pre-crash by the primary itself) die with the epoch.
		f.invalidateSliceLeases(i)
	})
}

// backoff returns the deterministic client backoff after attempt failed
// tries: RetryBackoff doubled per attempt, capped at RetryBackoffMax.
func (f *FS) backoff(attempt int) time.Duration {
	d := f.cfg.RetryBackoff
	for i := 0; i < attempt && d < f.cfg.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > f.cfg.RetryBackoffMax {
		d = f.cfg.RetryBackoffMax
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

func (f *FS) conn(n *cluster.Node, sh *shardSrv) *simnet.Conn {
	key := connKey{n, sh.index}
	c, ok := f.conns[key]
	if !ok {
		c = simnet.NewConn(f.k, sh.srv, f.cfg.OneWayLatency, 0)
		c.FailTimeout = f.cfg.RetryTimeout
		f.conns[key] = c
	}
	return c
}

func (f *FS) nodeState(n *cluster.Node) *nodeState {
	s, ok := f.nodes[n]
	if !ok {
		s = &nodeState{
			dentries: clientcache.NewDentryCache(f.cfg.DentryTTL, f.k.Now),
		}
		if f.cfg.CacheMode == CacheLease {
			var epochOf func(int) uint64
			if f.cfg.CrashInvalidate {
				epochOf = func(slice int) uint64 { return f.epochs[slice] }
			}
			s.leases = clientcache.NewLeaseCache(f.k.Now, epochOf)
			f.cbServer(s, n)
		} else {
			s.attrs = clientcache.NewAttrCache(f.cfg.AttrTTL, f.k.Now)
		}
		f.nodes[n] = s
	}
	return s
}

func (sh *shardSrv) dirLock(k *sim.Kernel, ino fs.Ino) *sim.Mutex {
	m, ok := sh.locks[ino]
	if !ok {
		m = sim.NewMutex(k, "mdsdir:"+strconv.Itoa(sh.index)+":"+strconv.FormatUint(uint64(ino), 10))
		sh.locks[ino] = m
	}
	return m
}

// charge sleeps the service cost of one operation at sh: the base time
// scaled by the shard's consistency-point factor and, when dirEntries is
// non-negative, by the directory-index entry cost. Unclassified work —
// the backend's factor only contributes an active compaction stall.
func (f *FS) charge(p *sim.Proc, sh *shardSrv, base time.Duration, dirEntries int) {
	f.chargeOp(p, sh, base, dirEntries, opInfo{dirSize: -1})
}

// chargeOp is charge with a backend op classification: the backend's
// cost factor for the classified operation multiplies the charge after
// the consistency-point and directory-index factors. The default
// backend returns exactly 1, and the guard skips the multiply, so the
// float math of the pre-backend cost model is preserved bit for bit.
func (f *FS) chargeOp(p *sim.Proc, sh *shardSrv, base time.Duration, dirEntries int, info opInfo) {
	cost := float64(base) * sh.wafl.ServiceFactor()
	if dirEntries >= 0 {
		cost *= f.cfg.DirIndex.EntryCost(dirEntries)
	}
	if bf := sh.be.factor(p.Now(), info); bf != 1 {
		cost *= bf
	}
	p.Sleep(time.Duration(cost))
}

// serviceOp is chargeOp plus client-RPC accounting. The counters are
// atomic: under kernel domains service bodies run concurrently, and
// order-independent sums stay deterministic (domain.go).
func (f *FS) serviceOp(p *sim.Proc, sh *shardSrv, base time.Duration, dirEntries int, info opInfo) {
	f.chargeOp(p, sh, base, dirEntries, info)
	addI64(&f.rpcs, 1)
	addI64(&sh.ops, 1)
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
			info.dirSize = dir.NumChildren()
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

// commit journals one successful mutation on slice state and, with
// replication, synchronously mirrors it to the slice's replica partner:
// the backup in normal operation, or nothing while the partner is down
// (the state object is shared between the replicas, so a recovering
// partner catches up by journal replay, not by data transfer). Directory
// mutations under hash placement skip the mirror — the broadcast already
// delivered them to every shard, the backup included.
func (f *FS) commit(sp *sim.Proc, state, srv *shardSrv, kind fs.OpKind, path string) {
	state.journalAppend(f.cfg.JournalCap, kind, path)
	partner := f.mirrorPartner(state, srv, kind)
	if partner < 0 {
		return
	}
	ps := f.shards[partner]
	addI64(&f.MirrorCount, 1)
	f.peerLeg(sp, ps, "mirror:"+strconv.Itoa(ps.index), func(q *sim.Proc) {
		f.chargeOp(q, ps, f.cfg.MirrorService, -1, opInfo{cls: opWrite, dirSize: -1})
		ps.be.log(q, f.cfg.MetaLogBytes)
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
func (f *FS) persist(sp *sim.Proc, state, srv *shardSrv, kind fs.OpKind, path string, logBytes int64) {
	w := f.cfg.GroupCommitWindow
	if w <= 0 {
		srv.be.log(sp, logBytes)
		f.commit(sp, state, srv, kind, path)
		return
	}
	state.journalAppend(f.cfg.JournalCap, kind, path)
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
			f.chargeOp(q, ps, time.Duration(count)*f.cfg.MirrorService, -1, opInfo{cls: opWrite, dirSize: -1})
			ps.be.log(q, count*f.cfg.MetaLogBytes)
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
// owning domain, so each apply rides the broadcast: live shards apply
// inside the hop body at its arrival time, down shards via a posted
// message to whichever domain owns their namespace (their own, or a
// promoted backup's after failover). The mutating client observes its
// own change immediately — its reply travels the slower client path
// (OneWayLatency > CrossShardLatency + CrossShardOverhead), so every
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
			if sh.up {
				f.hop(sp, sh, func(q *sim.Proc) {
					apply(sh.ns, q.Now())
					f.chargeOp(q, sh, svc, -1, opInfo{cls: opWrite, dirSize: -1})
					sh.be.log(q, f.cfg.MetaLogBytes)
				})
				continue
			}
			if dk := f.sliceKernel(sh.index); dk != sp.Kernel() {
				sim.Post(sp, dk, f.cfg.CrossShardLatency, "bapply:"+strconv.Itoa(sh.index), func(q *sim.Proc) {
					apply(sh.ns, q.Now())
				})
			} else {
				apply(sh.ns, sp.Now())
			}
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
			sh.be.log(q, f.cfg.MetaLogBytes)
		})
	}
}

// NewClient binds a client for one process on one node. The node's
// cache state is resolved here — in the client's own domain — and
// cached on the client, so service bodies running in shard domains
// never touch the shared nodes map.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, state: f.nodeState(node), handles: make(map[fs.Handle]*openFile)}
}

type openFile struct {
	path    string
	slice   int
	ino     fs.Ino
	size    int64
	written int64
	dirty   bool
}

type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	state   *nodeState
	nextFH  fs.Handle
	handles map[fs.Handle]*openFile
}

// cfg returns the FS config by pointer: the config is immutable after
// New, and service closures capture the pointer instead of the
// 500-byte struct.
func (c *client) cfg() *Config   { return &c.fsys.cfg }
func (c *client) st() *nodeState { return c.state }

// callRetry is the client's retry engine: it repeats attempt() with
// deterministic exponential backoff while it reports a retryable
// failure, and gives up with ETIMEDOUT once RetryMax attempts all
// failed. Every operation gets exactly one budget, including the
// cross-shard rename whose destination can fail independently of its
// source.
func (c *client) callRetry(op, path string, attempt func() (retryable bool)) error {
	f := c.fsys
	for n := 0; ; n++ {
		if !attempt() {
			return nil
		}
		if n+1 >= f.cfg.RetryMax {
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
// authoritative state. It returns ETIMEDOUT when RetryMax attempts all
// failed.
func (c *client) call(op string, path string, slice int, reqBytes, respBytes int64,
	service func(sp *sim.Proc, state, srv *shardSrv)) error {
	f := c.fsys
	state := f.shards[slice]
	return c.callRetry(op, path, func() bool {
		srv := f.srvFor(slice)
		return f.conn(c.node, srv).TryCall(c.p, reqBytes, respBytes, func(sp *sim.Proc) {
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
func (c *client) callEntry(op, p string, reqBytes, respBytes int64,
	service func(sp *sim.Proc, state, srv *shardSrv)) error {
	f := c.fsys
	c.routeEntry(p)
	return c.callRetry(op, p, func() bool {
		s := f.ownerSlice(p)
		srv := f.srvFor(s)
		return f.conn(c.node, srv).TryCall(c.p, reqBytes, respBytes, func(sp *sim.Proc) {
			state := f.shards[f.ownerSlice(p)]
			if f.domained() {
				// Pin the route chosen at attempt time: the body starts
				// against the slice the contacted server was addressed
				// for (its own domain); any re-homing that lands while
				// the request queues is caught by the commit-instant
				// re-resolution below, which forwards across domains
				// (applyState) instead of touching foreign state.
				state = f.shards[s]
			}
			service(sp, state, srv)
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
// hash placement the lookups scatter across the cluster.
func (c *client) resolveParents(p string) error {
	f := c.fsys
	cfg := c.cfg()
	st := c.st()
	for i := 1; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		prefix := p[:i]
		if _, neg, ok := st.dentries.Lookup(prefix); ok {
			if neg {
				return fs.NewError("lookup", prefix, fs.ENOENT)
			}
			continue
		}
		var err error
		cerr := c.call("lookup", prefix, f.ownerSlice(prefix), 120, 140, func(sp *sim.Proc, state, srv *shardSrv) {
			f.serviceOp(sp, srv, cfg.LookupService, -1, f.readInfo(state, prefix))
			var a fs.Attr
			a, err = state.ns.Stat(prefix)
			if err == nil {
				c.fillEntry(sp, prefix, a)
			} else {
				// The negative dentry is client-side state: it rides the
				// reply home (immediate when client and shard share a
				// kernel).
				simnet.Defer(sp, clientcache.NegativeFill(st.dentries, prefix))
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

// cacheEntry refreshes the node caches for p from its owning slice's
// namespace — the attributes every mutation reply piggybacks. Under
// CacheLease the reply also carries the parent directory's post-op
// attributes: the mutator writes its cached dir attributes back in
// place (the delegation discipline) instead of refetching them.
func (c *client) cacheEntry(p string) {
	if c.fsys.domained() {
		// The free client-side peek at authoritative state crosses
		// domains; the service body already captured the reply
		// attributes in the owning domain (captureEntry).
		return
	}
	state := c.fsys.shards[c.fsys.ownerSlice(p)]
	a, err := state.ns.Stat(p)
	if err != nil {
		return
	}
	c.fillEntry(c.p, p, a)
	if c.cfg().CacheMode != CacheLease {
		return
	}
	if dir := fs.ParentDir(p); dir != "." && dir != p {
		if da, derr := state.ns.Stat(dir); derr == nil {
			c.fillEntry(c.p, dir, da)
		}
	}
}

// captureEntry is cacheEntry's in-body counterpart for kernel domains:
// the service body reads the post-op attributes in the slice's owning
// domain — the attributes the reply piggybacks — and the client-side
// cache writes ride the reply home (fillEntry defers them).
func (c *client) captureEntry(q *sim.Proc, p string) {
	if !c.fsys.domained() {
		return
	}
	state := c.fsys.shards[c.fsys.ownerSlice(p)]
	a, err := state.ns.Stat(p)
	if err != nil {
		return
	}
	c.fillEntry(q, p, a)
	if c.cfg().CacheMode != CacheLease {
		return
	}
	if dir := fs.ParentDir(p); dir != "." && dir != p {
		if da, derr := state.ns.Stat(dir); derr == nil {
			c.fillEntry(q, dir, da)
		}
	}
}

// Create issues one CREATE RPC to the shard serving the parent
// directory's files.
func (c *client) Create(p string) error {
	f := c.fsys
	cfg := c.cfg()
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	var err error
	cerr := c.callEntry("create", p, 160, 160, func(sp *sim.Proc, state, srv *shardSrv) {
		f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, fwd bool) {
			if dir, lerr := state.ns.Lookup(fs.ParentDir(p)); lerr == nil {
				lock := state.dirLock(sp.Kernel(), dir.Ino)
				lock.Lock(sp)
				defer lock.Unlock()
				f.serviceOp(sp, at, cfg.CreateService, dir.NumChildren(), writeInfo(p, dir.NumChildren()))
			} else {
				f.serviceOp(sp, at, cfg.CreateService, -1, writeInfo(p, -1))
			}
			// Commit-instant re-resolution: the lock and charge waits above
			// may have overlapped a split of the parent.
			state2 := f.entryState(p)
			f.applyState(sp, state2, at, func(q *sim.Proc, at2 *shardSrv, _ bool) {
				_, err = state2.ns.Create(p, 0o644, q.Now())
				if err == nil {
					f.revokeOnMutate(q, c.st(), p, true)
					f.persistAt(q, state2, at2, srv, fs.OpCreate, p, cfg.MetaLogBytes)
					// Splits trigger from the contacted server only:
					// forwarded work runs on a peer pool, and a split hops
					// to peer pools itself.
					if at2 == srv {
						if dir, lerr := state2.ns.Lookup(fs.ParentDir(p)); lerr == nil {
							f.maybeSplit(q, fs.ParentDir(p), dir.NumChildren(), c.st())
						}
					}
				}
				if err == nil || fs.IsExist(err) {
					c.captureEntry(q, p)
				}
			})
		})
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
	cfg := c.cfg()
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	var err error
	cerr := c.call("mkdir", p, f.ownerSlice(p), 150, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
			if dir, lerr := state.ns.Lookup(fs.ParentDir(p)); lerr == nil {
				lock := state.dirLock(sp.Kernel(), dir.Ino)
				lock.Lock(sp)
				f.serviceOp(sp, at, cfg.MkdirService, dir.NumChildren(), writeInfo(p, dir.NumChildren()))
				lock.Unlock()
			} else {
				f.serviceOp(sp, at, cfg.MkdirService, -1, writeInfo(p, -1))
			}
			_, err = state.ns.Mkdir(p, 0o755, sp.Now())
			if err == nil {
				// The broadcast applies the replicas at this same instant;
				// revocations must not sleep between the primary and the
				// replica applies, so they come after it.
				f.replicate(sp, state, cfg.MkdirService, func(ns *namespace.Namespace, now time.Duration) {
					ns.Mkdir(p, 0o755, now)
				})
				f.revokeOnMutate(sp, c.st(), p, true)
				f.persistAt(sp, state, at, srv, fs.OpMkdir, p, cfg.MetaLogBytes)
			}
			if err == nil || fs.IsExist(err) {
				c.captureEntry(sp, p)
			}
		})
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
// replicates to the other shards.
func (c *client) Rmdir(p string) error {
	f := c.fsys
	cfg := c.cfg()
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
		f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
			f.serviceOp(sp, at, cfg.RemoveService, -1, writeInfo(p, -1))
			// A split directory is empty only when every partition slice
			// agrees: the peer replicas are checked logically before the
			// removal commits (no time may pass between check and apply),
			// and the probe traffic — one interconnect hop per live peer
			// slice examined, local when a failover co-located the slice
			// here (the splitFanout rule) — is paid after the outcome is
			// decided, on success and on ENOTEMPTY alike. A down peer's
			// state still counts, the way replicate applies to down shards.
			var probes []int
			payProbes := func() {
				for _, s := range probes {
					peer := f.srvFor(s)
					switch {
					case !peer.up:
					case peer == at:
						f.chargeOp(sp, peer, cfg.ReaddirService, -1, scanInfo())
					default:
						f.hop(sp, peer, func(q *sim.Proc) {
							f.chargeOp(q, peer, cfg.ReaddirService, -1, scanInfo())
						})
					}
				}
			}
			if f.splitLevel(p) > 0 {
				if f.domained() {
					// A peer partition cannot be read from this domain:
					// each probe pays its hop up front and checks
					// emptiness at its own arrival instant — the
					// check-to-commit window a real distributed rmdir
					// has — stopping at the first non-empty partition.
					for _, s := range f.splitSlices(p)[1:] {
						s := s
						peer := f.srvFor(s)
						notEmpty := false
						check := func(q *sim.Proc) {
							notEmpty = hasFileEntries(f.shards[s].ns, p, q.Now())
						}
						switch {
						case !peer.up:
							// A down peer's state still counts; reading it
							// is a rendezvous with its domain, no thread
							// occupancy.
							if dk := f.sliceKernel(s); dk != sp.Kernel() {
								sim.Call(sp, dk, f.cfg.CrossShardLatency, "rmdirprobe", check)
							} else {
								check(sp)
							}
						case peer == at:
							f.chargeOp(sp, peer, cfg.ReaddirService, -1, scanInfo())
							check(sp)
						default:
							f.hop(sp, peer, func(q *sim.Proc) {
								f.chargeOp(q, peer, cfg.ReaddirService, -1, scanInfo())
								check(q)
							})
						}
						if notEmpty {
							err = fs.NewError("rmdir", p, fs.ENOTEMPTY)
							return
						}
					}
				} else {
					for _, s := range f.splitSlices(p)[1:] {
						probes = append(probes, s)
						if hasFileEntries(f.shards[s].ns, p, sp.Now()) {
							err = fs.NewError("rmdir", p, fs.ENOTEMPTY)
							payProbes() // the failed probe ran its readdirs too
							return
						}
					}
				}
			}
			err = state.ns.Rmdir(p, sp.Now())
			if err == nil {
				// The split-level map is global routing state: under
				// domains it changes only at sync points.
				f.atSync(sp, func() { f.dropSplit(p) })
				f.replicate(sp, state, cfg.RemoveService, func(ns *namespace.Namespace, now time.Duration) {
					ns.Rmdir(p, now)
				})
				f.revokeOnMutate(sp, c.st(), p, true)
				f.dropDelegation(sp, p)
				f.persistAt(sp, state, at, srv, fs.OpRmdir, p, cfg.MetaLogBytes)
				payProbes()
			}
		})
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
	cfg := c.cfg()
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	var err error
	cerr := c.callEntry("unlink", p, 150, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
			if dir, lerr := state.ns.Lookup(fs.ParentDir(p)); lerr == nil {
				lock := state.dirLock(sp.Kernel(), dir.Ino)
				lock.Lock(sp)
				defer lock.Unlock()
				f.serviceOp(sp, at, cfg.RemoveService, dir.NumChildren(), writeInfo(p, dir.NumChildren()))
			} else {
				f.serviceOp(sp, at, cfg.RemoveService, -1, writeInfo(p, -1))
			}
			state2 := f.entryState(p) // the waits above may have overlapped a split
			f.applyState(sp, state2, at, func(q *sim.Proc, at2 *shardSrv, _ bool) {
				err = state2.ns.Unlink(p, q.Now())
				if err == nil {
					f.revokeOnMutate(q, c.st(), p, true)
					f.persistAt(q, state2, at2, srv, fs.OpUnlink, p, cfg.MetaLogBytes)
				}
			})
		})
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
// at the source — the cross-shard cost E18 measures. Directory renames
// do not migrate: under hash placement every descendant's partition key
// embeds the directory path, so renaming a directory would re-home its
// files and invalidate its replicas — it returns EXDEV like any
// multi-device rename (§2.6.3), as does any rename whose source is not
// a regular file crossing a shard boundary. Under subtree placement a
// directory rename inside one subtree stays local and is allowed. A
// migrate whose destination server is down fails the whole operation
// with a timeout and the client retries it from the source.
func (c *client) Rename(oldPath, newPath string) error {
	f := c.fsys
	cfg := c.cfg()
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
		cerr := c.call("rename", oldPath, srcSlice, 150, 140, func(sp *sim.Proc, state, srv *shardSrv) {
			// Re-resolve ownership at service time (the callEntry rule),
			// and again under the lock below: a split landing while this
			// request queued or waited can re-home either name; renaming
			// on a pinned slice would strand the new entry where the
			// split-aware routing never looks.
			state = f.entryState(oldPath)
			f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
				if dir, lerr := state.ns.Lookup(fs.ParentDir(oldPath)); lerr == nil {
					lock := state.dirLock(sp.Kernel(), dir.Ino)
					lock.Lock(sp)
					defer lock.Unlock()
					f.serviceOp(sp, at, cfg.RenameService, dir.NumChildren(), writeInfo(oldPath, dir.NumChildren()))
				} else {
					f.serviceOp(sp, at, cfg.RenameService, -1, writeInfo(oldPath, -1))
				}
				// Commit-instant re-resolution; no virtual time passes from
				// here to ns.Rename. When a mid-flight split separated the
				// two names' partitions, the rename surfaces a transient
				// EXDEV — an online repartition briefly refusing a rename it
				// can no longer do atomically, like any
				// migration-in-progress busy error — rather than corrupting
				// placement.
				state2 := f.entryState(oldPath)
				f.applyState(sp, state2, at, func(q *sim.Proc, at2 *shardSrv, _ bool) {
					if f.ownerSlice(newPath) != f.ownerSlice(oldPath) {
						err = fs.NewError("rename", newPath, fs.EXDEV)
						return
					}
					if f.cfg.Placement == PlaceHashDir && len(f.shards) > 1 {
						// Renaming a directory would strand its hashed files
						// and stale the replicated tree on the other shards.
						var a fs.Attr
						a, err = state2.ns.Stat(oldPath)
						if err != nil {
							return
						}
						if a.Type == fs.TypeDirectory {
							err = fs.NewError("rename", newPath, fs.EXDEV)
							return
						}
					}
					err = state2.ns.Rename(oldPath, newPath, q.Now())
					if err == nil {
						f.revokeOnMutate(q, c.st(), oldPath, true)
						f.revokeOnMutate(q, c.st(), newPath, true)
						f.dropDelegation(q, oldPath)
						// A directory rename moved every descendant with it:
						// leases keyed by the old paths are dead. All reachable
						// cases (subtree placement, single shard) keep a
						// subtree's entries on one slice.
						if f.cfg.CacheMode == CacheLease {
							if a, serr := state2.ns.Stat(newPath); serr == nil && a.Type == fs.TypeDirectory {
								f.revokeSubtree(q, c.st(), oldPath, f.ownerSlice(oldPath))
							}
						}
						f.persistAt(q, state2, at2, srv, fs.OpRename, newPath, cfg.MetaLogBytes)
						// The rename inserted an entry at the destination parent:
						// it can push that directory over the split threshold
						// just like a create — but splits trigger from the
						// contacted server only, never from forwarded work
						// on a peer pool.
						if at2 == srv {
							if ndir, nlerr := state2.ns.Lookup(fs.ParentDir(newPath)); nlerr == nil {
								f.maybeSplit(q, fs.ParentDir(newPath), ndir.NumChildren(), c.st())
							}
						}
						c.captureEntry(q, newPath)
					}
				})
			})
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
				return dir.NumChildren()
			}
			return -1
		}
		cerr := c.callRetry("rename", newPath, func() bool {
			err = nil
			dstDown := false
			moved := false
			srv := f.srvFor(srcSlice)
			// Under kernel domains a re-resolution that discovers the
			// entry re-homed into another domain cannot proxy for free:
			// the attempt fails like a timeout and the client retries
			// against the new owner — an ESTALE redirect, priced as a
			// retry. rehomed reports (and records) that condition.
			rehomed := func(q *sim.Proc, st *shardSrv) bool {
				if f.domained() && f.sliceKernel(st.index) != q.Kernel() {
					moved = true
					return true
				}
				return false
			}
			terr := f.conn(c.node, srv).TryCall(c.p, 150, 140, func(sp *sim.Proc) {
				// Re-resolve both ends at service time, like callEntry: a
				// split landing while this request queued may have
				// re-homed either entry.
				srcState := f.entryState(oldPath)
				if rehomed(sp, srcState) {
					sp.Sleep(f.cfg.RetryTimeout)
					return
				}
				srcN := dirEntries(srcState.ns, oldPath)
				f.serviceOp(sp, srv, cfg.RenameService, srcN, writeInfo(oldPath, srcN))
				srcState = f.entryState(oldPath) // the charge may have overlapped a split
				if rehomed(sp, srcState) {
					sp.Sleep(f.cfg.RetryTimeout)
					return
				}
				var a fs.Attr
				a, err = srcState.ns.Stat(oldPath)
				if err != nil {
					return
				}
				if a.Type != fs.TypeRegular {
					err = fs.NewError("rename", newPath, fs.EXDEV)
					return
				}
				dstState := f.shards[f.ownerSlice(newPath)]
				dstSrv := f.srvFor(f.ownerSlice(newPath))
				if !dstSrv.up {
					dstDown = true
					sp.Sleep(f.cfg.RetryTimeout)
					return
				}
				dstParentN := -1
				// Phase 1: insert at the destination shard.
				f.hop(sp, dstSrv, func(q *sim.Proc) {
					dstN := dirEntries(dstState.ns, newPath)
					f.chargeOp(q, dstSrv, cfg.RenameService, dstN, writeInfo(newPath, dstN))
					// Commit-instant re-resolution after the hop+charge
					// waits.
					dstState = f.entryState(newPath)
					if rehomed(q, dstState) {
						return
					}
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
						dstSrv.be.log(q, cfg.MetaLogBytes)
						f.commit(q, dstState, dstSrv, fs.OpRename, newPath)
						if f.domained() {
							// The coordinator cannot read the destination
							// parent from its domain: capture the split
							// trigger's entry count (and the new entry's
							// attributes) here, at the insert instant.
							if ndir, nlerr := dstState.ns.Lookup(fs.ParentDir(newPath)); nlerr == nil {
								dstParentN = ndir.NumChildren()
							}
							c.captureEntry(q, newPath)
						}
					}
				})
				if err != nil || moved {
					if moved {
						sp.Sleep(f.cfg.RetryTimeout)
					}
					return
				}
				// Phase 2: remove at the source shard.
				rmN := dirEntries(srcState.ns, oldPath)
				f.chargeOp(sp, srcState, cfg.RemoveService, rmN, writeInfo(oldPath, rmN))
				srcState = f.entryState(oldPath) // commit-instant re-resolution
				if rehomed(sp, srcState) {
					// The destination insert stands; the retry's source
					// removal is idempotent (phase 1 tolerates an existing
					// destination entry).
					sp.Sleep(f.cfg.RetryTimeout)
					return
				}
				err = srcState.ns.Unlink(oldPath, sp.Now())
				if err == nil {
					f.revokeOnMutate(sp, c.st(), oldPath, true)
					f.persist(sp, srcState, srv, fs.OpUnlink, oldPath, cfg.MetaLogBytes)
					// The migrate grew the destination parent; trigger
					// from the coordinator, never from inside the hop —
					// a split hops to peer pools itself, and peer-pool
					// threads must not wait on other peer pools.
					if f.domained() {
						if dstParentN >= 0 {
							f.maybeSplit(sp, fs.ParentDir(newPath), dstParentN, c.st())
						}
					} else if ndir, nlerr := dstState.ns.Lookup(fs.ParentDir(newPath)); nlerr == nil {
						f.maybeSplit(sp, fs.ParentDir(newPath), ndir.NumChildren(), c.st())
					}
				}
			})
			return terr != nil || dstDown || moved
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

// Link creates a hard link when both names are served by one shard;
// cross-shard hard links are not supported (EXDEV), matching systems
// whose inodes are keyed by partition.
func (c *client) Link(oldPath, newPath string) error {
	f := c.fsys
	cfg := c.cfg()
	c.node.Syscall(c.p)
	if err := c.resolveParents(newPath); err != nil {
		return err
	}
	srcSlice := f.ownerSlice(oldPath)
	dstSlice := f.ownerSlice(newPath)
	if srcSlice != dstSlice {
		return fs.NewError("link", newPath, fs.EXDEV)
	}
	imutex := c.node.DirLock(fs.ParentDir(newPath))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	var err error
	cerr := c.callEntry("link", newPath, 150, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
			f.serviceOp(sp, at, cfg.CreateService, -1, writeInfo(newPath, -1))
			// Commit-instant re-check: a split landing while this request
			// queued or charged can separate the two names' partitions.
			state2 := f.entryState(newPath)
			f.applyState(sp, state2, at, func(q *sim.Proc, at2 *shardSrv, _ bool) {
				if f.ownerSlice(oldPath) != f.ownerSlice(newPath) {
					err = fs.NewError("link", newPath, fs.EXDEV)
					return
				}
				err = state2.ns.Link(oldPath, newPath, q.Now())
				if err == nil {
					// The link bumps the target's nlink: both names go stale.
					f.revokeOnMutate(q, c.st(), oldPath, false)
					f.revokeOnMutate(q, c.st(), newPath, true)
					f.persistAt(q, state2, at2, srv, fs.OpLink, newPath, cfg.MetaLogBytes)
					if at2 == srv {
						if dir, lerr := state2.ns.Lookup(fs.ParentDir(newPath)); lerr == nil {
							f.maybeSplit(q, fs.ParentDir(newPath), dir.NumChildren(), c.st())
						}
					}
					c.captureEntry(q, newPath)
				}
			})
		})
	})
	if cerr != nil {
		return cerr
	}
	if err == nil {
		c.cacheEntry(newPath)
	}
	return err
}

// Symlink stores the target string at the shard serving linkPath.
func (c *client) Symlink(target, linkPath string) error {
	f := c.fsys
	cfg := c.cfg()
	c.node.Syscall(c.p)
	if err := c.resolveParents(linkPath); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(linkPath))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	var err error
	cerr := c.callEntry("symlink", linkPath, 150, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
			f.serviceOp(sp, at, cfg.CreateService, -1, writeInfo(linkPath, -1))
			state2 := f.entryState(linkPath) // the charge may have overlapped a split
			f.applyState(sp, state2, at, func(q *sim.Proc, at2 *shardSrv, _ bool) {
				_, err = state2.ns.Symlink(target, linkPath, q.Now())
				if err == nil {
					f.revokeOnMutate(q, c.st(), linkPath, true)
					f.persistAt(q, state2, at2, srv, fs.OpSymlink, linkPath, cfg.MetaLogBytes)
					if at2 == srv {
						if dir, lerr := state2.ns.Lookup(fs.ParentDir(linkPath)); lerr == nil {
							f.maybeSplit(q, fs.ParentDir(linkPath), dir.NumChildren(), c.st())
						}
					}
					c.captureEntry(q, linkPath)
				}
			})
		})
	})
	if cerr != nil {
		return cerr
	}
	if err == nil {
		c.cacheEntry(linkPath)
	}
	return err
}

// Stat serves from the attribute cache while its entry holds — a TTL
// that has not lapsed, or a lease that was neither revoked nor
// epoch-invalidated — else issues GETATTR to the serving shard, which
// grants a fresh lease under CacheLease.
func (c *client) Stat(p string) (fs.Attr, error) {
	f := c.fsys
	cfg := c.cfg()
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
		f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
			f.serviceOp(sp, at, cfg.GetattrService, -1, f.readInfo(state, p))
			state2 := f.entryState(p) // the charge may have overlapped a split
			f.applyState(sp, state2, at, func(q *sim.Proc, _ *shardSrv, _ bool) {
				a, err = state2.ns.Stat(p)
				if err == nil {
					c.fillEntry(q, p, a)
				}
			})
		})
	})
	if cerr != nil {
		return fs.Attr{}, cerr
	}
	if err != nil {
		return fs.Attr{}, err
	}
	return a, nil
}

// Open resolves the path (dentry cache, else LOOKUP at the owner) and
// returns a handle bound to the owning slice.
func (c *client) Open(p string) (fs.Handle, error) {
	f := c.fsys
	cfg := c.cfg()
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return 0, err
	}
	st := c.st()
	ino, neg, ok := st.dentries.Lookup(p)
	if ok && neg {
		return 0, fs.NewError("open", p, fs.ENOENT)
	}
	if f.domained() {
		return c.openDomained(p, ino, ok)
	}
	if !ok {
		var err error
		cerr := c.callEntry("open", p, 120, 140, func(sp *sim.Proc, state, srv *shardSrv) {
			f.serviceOp(sp, srv, cfg.LookupService, -1, f.readInfo(state, p))
			state = f.entryState(p) // the charge may have overlapped a split
			var a fs.Attr
			a, err = state.ns.Stat(p)
			if err == nil {
				ino = a.Ino
				c.fillEntry(sp, p, a)
			} else {
				st.dentries.PutNegative(p)
			}
		})
		if cerr != nil {
			return 0, cerr
		}
		if err != nil {
			return 0, err
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
		st.dentries.PutPositive(p, ino)
	}
	return c.newHandle(p, slice, ino, node.Size), nil
}

// openDomained is Open under kernel domains. The single-kernel model
// revalidates a cached dentry with a free peek at the owning slice's
// namespace; across domains that state is unreadable from the client,
// so a dentry whose attributes are still cached opens locally —
// incarnation staleness surfaces at flush as ESTALE through the
// handle-chasing guards — and anything else pays one LOOKUP RPC that
// resolves ino and size in the owner's domain.
func (c *client) openDomained(p string, ino fs.Ino, ok bool) (fs.Handle, error) {
	f := c.fsys
	cfg := c.cfg()
	st := c.st()
	var size int64
	haveSize := false
	if ok {
		if a, aok := c.cachedAttr(p); aok && a.Ino == ino {
			size, haveSize = a.Size, true
		}
	}
	if !haveSize {
		var err error
		cerr := c.callEntry("open", p, 120, 140, func(sp *sim.Proc, state, srv *shardSrv) {
			f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
				f.serviceOp(sp, at, cfg.LookupService, -1, f.readInfo(state, p))
				state2 := f.entryState(p) // the charge may have overlapped a split
				f.applyState(sp, state2, at, func(q *sim.Proc, _ *shardSrv, _ bool) {
					var a fs.Attr
					a, err = state2.ns.Stat(p)
					if err == nil {
						ino, size = a.Ino, a.Size
						c.fillEntry(q, p, a)
					} else {
						simnet.Defer(q, clientcache.NegativeFill(st.dentries, p))
					}
				})
			})
		})
		if cerr != nil {
			return 0, cerr
		}
		if err != nil {
			return 0, err
		}
		st.dentries.PutPositive(p, ino)
	}
	return c.newHandle(p, f.ownerSlice(p), ino, size), nil
}

// newHandle allocates a file handle bound to the entry's owning slice.
func (c *client) newHandle(p string, slice int, ino fs.Ino, size int64) fs.Handle {
	c.nextFH++
	h := c.nextFH
	c.handles[h] = &openFile{path: p, slice: slice, ino: ino, size: size}
	return h
}

// Close flushes dirty data (close-to-open consistency).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	if of.dirty {
		return c.flush(of)
	}
	return nil
}

// Write buffers n bytes client-side until Close or Fsync.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("write", "", fs.EBADF)
	}
	of.written += n
	of.dirty = true
	return nil
}

// Fsync forces dirty data to the serving shard.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	if of.dirty {
		return c.flush(of)
	}
	return nil
}

func (c *client) flush(of *openFile) error {
	f := c.fsys
	cfg := c.cfg()
	newSize := of.size + of.written
	written := of.written
	var err error
	id := entryID{of.slice, of.ino}
	cerr := c.callEntry("write", of.path, 120+written, 140, func(sp *sim.Proc, state, srv *shardSrv) {
		t := time.Duration(float64(cfg.WriteServicePerKB) * float64(written) / 1024)
		f.serviceOp(sp, srv, t, -1, opInfo{cls: opWrite, dirSize: -1})
		// Chase the handle's incarnation across split migrations, then
		// write through the inode, wherever its name has gone: a rename
		// keeps the inode alive (the write must land, POSIX fd
		// semantics), a split migration is followed via FS.moved, and
		// only a dead inode — unlinked, or re-homed by a cross-shard
		// migrate that re-created it — is a stale handle that must fail
		// loudly rather than touch an unrelated same-name replacement.
		id = f.chaseMoves(id)
		state = f.shards[id.slice]
		f.applyState(sp, state, srv, func(q *sim.Proc, at *shardSrv, _ bool) {
			if state.ns.Get(id.ino) == nil {
				err = fs.NewError("write", of.path, fs.ESTALE)
				return
			}
			state.ns.SetSize(id.ino, newSize, q.Now())
			// Size and mtime changed: other holders' attribute leases die;
			// the parent directory is untouched by a content write.
			f.revokeOnMutate(q, c.st(), of.path, false)
			f.persistAt(q, state, at, srv, fs.OpWrite, of.path, cfg.MetaLogBytes+written)
			if f.domained() {
				// The client-side refresh below cannot peek across
				// domains: refill here, at the commit instant, when the
				// written name still resolves in this domain.
				if est := f.entryState(of.path); f.sliceKernel(est.index) == q.Kernel() {
					if a, serr := est.ns.Stat(of.path); serr == nil {
						c.fillEntry(q, of.path, a)
					}
				}
			}
		})
	})
	if cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	of.slice, of.ino = id.slice, id.ino
	of.size = newSize
	of.written = 0
	of.dirty = false
	if !f.domained() {
		if a, serr := f.shards[f.ownerSlice(of.path)].ns.Stat(of.path); serr == nil {
			c.fillEntry(c.p, of.path, a)
		}
	}
	return nil
}

// readdirCost returns the service time of listing n entries: one
// ReaddirService per 512-entry page plus the per-entry cost, the same
// paging model as the NFS READDIR path.
func readdirCost(cfg *Config, n int) time.Duration {
	pages := (n + 511) / 512
	if pages < 1 {
		pages = 1
	}
	return time.Duration(pages)*cfg.ReaddirService +
		time.Duration(n)*cfg.ReaddirPerEntry
}

// ReadDir lists a directory from the shard serving its files. Under
// subtree placement the root spans every shard, so a root listing
// visits the peers over the interconnect and merges their top-level
// entries — the namespace-aggregation view of §4.7 at MDS granularity.
// A split giant directory fans out across its partition slices the
// same way (splitReadDir). Peers that are down are skipped: the listing
// degrades the way an aggregated namespace does when one volume server
// times out, and every degraded merge is surfaced in
// FS.PartialListings.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	f := c.fsys
	cfg := c.cfg()
	if f.splitActive() {
		// Whenever splitting is possible, list through the fan-out: it
		// reads the split level at service time, so a split landing
		// while the request queues cannot hide the just-moved entries
		// (an unsplit directory is a one-slice fan-out at the same
		// cost).
		return c.splitReadDir(p)
	}
	c.node.Syscall(c.p)
	slice := f.contentSlice(p)
	if slice < 0 {
		homeSlice := c.node.Index % len(f.shards)
		var ents []fs.DirEntry
		var err error
		cerr := c.call("readdir", p, homeSlice, 130, 260, func(sp *sim.Proc, home, srv *shardSrv) {
			f.applyState(sp, home, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
				ents, err = home.ns.ReadDir(p, sp.Now())
				if err != nil {
					f.serviceOp(sp, at, cfg.ReaddirService, -1, scanInfo())
					return
				}
				f.serviceOp(sp, at, readdirCost(cfg, len(ents)), -1, scanInfo())
				for i := range f.shards {
					if i == homeSlice {
						continue
					}
					peer := f.srvFor(i)
					state := f.shards[i]
					if peer == at {
						// A failover made this server serve the peer slice
						// too: merge locally, no interconnect hop.
						more, merr := state.ns.ReadDir(p, sp.Now())
						if merr == nil {
							f.chargeOp(sp, at, readdirCost(cfg, len(more)), -1, scanInfo())
							ents = append(ents, more...)
						}
						continue
					}
					if !peer.up {
						// The peer's subtrees are unreachable: the merge
						// degrades to a partial listing, surfaced on the FS
						// so callers and experiments can see the loss.
						addI64(&f.PartialListings, 1)
						continue
					}
					f.hop(sp, peer, func(q *sim.Proc) {
						more, merr := state.ns.ReadDir(p, q.Now())
						if merr != nil {
							return
						}
						f.chargeOp(q, peer, readdirCost(cfg, len(more)), -1, scanInfo())
						ents = append(ents, more...)
					})
				}
			})
		})
		if cerr != nil {
			return nil, cerr
		}
		return ents, err
	}
	var ents []fs.DirEntry
	var err error
	cerr := c.call("readdir", p, slice, 130, 260, func(sp *sim.Proc, state, srv *shardSrv) {
		f.applyState(sp, state, srv, func(sp *sim.Proc, at *shardSrv, _ bool) {
			ents, err = state.ns.ReadDir(p, sp.Now())
			if err != nil {
				f.serviceOp(sp, at, cfg.ReaddirService, -1, scanInfo())
				return
			}
			f.serviceOp(sp, at, readdirCost(cfg, len(ents)), -1, scanInfo())
		})
	})
	if cerr != nil {
		return nil, cerr
	}
	return ents, err
}

// DropCaches clears the node's attribute, lease, dentry and
// split-bitmap caches.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	st := c.st()
	if st.attrs != nil {
		st.attrs.Clear()
	}
	if st.leases != nil {
		st.leases.Clear()
	}
	if st.splits != nil {
		st.splits.Clear()
	}
	st.dentries.Clear()
}
