// Package probprune is a Go implementation of the probabilistic pruning
// framework of Bernecker, Emrich, Kriegel, Mamoulis, Renz and Züfle,
// "A Novel Probabilistic Pruning Approach to Speed Up Similarity
// Queries in Uncertain Databases" (ICDE 2011).
//
// The library answers probabilistic similarity queries — threshold
// k-nearest-neighbor, threshold reverse kNN, probabilistic inverse
// ranking and expected-rank ranking — over databases of uncertain
// objects, i.e. objects whose position is a bounded random variable.
// Instead of integrating probability densities, it computes
// conservative and progressive bounds on the probabilistic domination
// count of an object (how many database objects are closer to an
// uncertain reference than it is) and refines those bounds iteratively
// until the query predicate is decided. The bounds are correct under
// possible-world semantics at every step.
//
// The three ingredients, each usable on its own:
//
//   - a tight geometric domination criterion on rectangular uncertainty
//     regions (Dominates), stronger than min/max distance pruning;
//   - uncertain generating functions that turn per-candidate
//     probability intervals into domination count bounds;
//   - the IDCA refinement loop (Run/RunIndexed) combining both with
//     kd-tree object decomposition.
//
// # Quick start
//
//	db, _ := probprune.Synthetic(probprune.SyntheticConfig{N: 1000, Samples: 100, Seed: 1})
//	store, _ := probprune.NewStore(db, probprune.Options{MaxIterations: 6})
//	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
//	matches, _ := store.Snapshot().KNN(context.Background(), q, 5, 0.5)
//	for _, m := range matches {
//	    if m.IsResult {
//	        fmt.Println(m.Object.ID, m.Prob)
//	    }
//	}
//
// # Snapshots, parallel execution and cancellation
//
// A StoreSnapshot is the database at one version, and every query is a
// method of it: KNN, RKNN, TopKNN, InverseRank, RankByExpectedRank,
// UKRanks and BatchKNN. Each takes a context for cancellation and
// deadlines and returns an error — a query object of another dimension
// than the database is refused, not answered with an empty result:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	matches, err := store.Snapshot().KNN(ctx, q, 5, 0.5)
//
// Queries evaluate their candidates concurrently on
// Options.Parallelism worker goroutines (the zero value selects
// GOMAXPROCS; set 1 to force sequential evaluation). All candidate
// runs share one decomposition cache (DecompCache), built once per
// query, so the query object and every influence object are kd-split
// at most once per query instead of once per candidate run — and
// results stay identical, bit for bit, to the sequential path
// regardless of worker count. Callers driving core.Run directly
// can share decomposition work themselves: NewDecompCache with
// Options.SharedDecomps shares every decomposition (operands and
// influence objects) across the runs handed the cache.
//
// # Live stores
//
// Store is a concurrent, mutable store with Insert/Delete/Update live
// ingest, copy-on-write snapshot isolation (a query never observes a
// half-applied update) and a persistent decomposition cache that
// survives across queries and is invalidated per object on update.
// Queries on one snapshot all see the same state; BatchKNN pours many
// queries into one worker pool over it:
//
//	store, _ := probprune.NewStore(db, probprune.Options{})
//	store.Insert(obj)                                  // live ingest
//	snap := store.Snapshot()                           // one version
//	matches, _ := snap.KNN(ctx, q, 5, 0.5)             // snapshot-isolated
//	results, _ := snap.BatchKNN(ctx, reqs)             // amortized batch
//
// A store is N >= 1 shards behind one router (NewStore is N = 1). The
// paper's filter bounds merge exactly across partitions (dominator
// counts sum, influence sets concatenate in canonical order), so
// results are bit-identical to a one-shard store over the same state at
// any shard count and any Parallelism, while each mutation pays only
// its home shard's copy-on-write detach and Move/Rebalance migrate
// objects online without disturbing queries or change streams. A
// one-shard store does no router work at all:
//
//	sharded, _ := probprune.NewShardedStore(db,
//	    probprune.ShardedOptions{Shards: 8}, probprune.Options{})
//	sharded.Insert(obj)                   // routed to its home shard
//	moved := sharded.Rebalance()          // online, result-invariant
//
// Stores created with BootstrapStore/BootstrapShardedStore journal
// every commit to a segmented, CRC-framed write-ahead log before it
// applies, and compact the log into checkpoints persisting the
// database's objects. A one-shard store journals in its
// directory; a multi-shard one keeps a journal per shard (shard-0, ...)
// plus a MANIFEST. Opening reads the layout from the directory,
// recovers bit-identically and stops cleanly at the last intact record.
// Every mutation reports its journaling error; Delete reports whether
// the ID was stored as well:
//
//	popts := probprune.PersistOptions{Dir: "data/db", CheckpointEvery: 4096}
//	store, _ := probprune.BootstrapStore(db, popts, probprune.Options{})
//	err := store.Insert(obj)              // journaled, then applied
//	found, err := store.Delete(17)        // ditto; found: 17 was stored
//	store.Close()
//	store, _ = probprune.OpenStore(popts, probprune.Options{})
//
// # Continuous queries
//
// A Monitor turns one-shot queries into standing subscriptions: clients
// register KNN/RkNN predicates and receive an ordered event stream
// (ObjectEntered, ObjectLeft, BoundsChanged, each tagged with the store
// version it is valid at) as mutations commit. Maintenance is
// incremental and pruning-aware — subscriptions wake only for mutations
// inside their influence region, and only candidates whose influence
// set could contain the mutated object re-run IDCA — yet the cumulative
// stream stays bit-identical to re-running the query at every version:
//
//	monitor := probprune.NewMonitor(store, probprune.MonitorOptions{})
//	sub, _ := monitor.SubscribeKNN(q, 5, 0.5)
//	go func() {
//	    for ev := range sub.Events() {
//	        fmt.Println(ev.Kind, ev.Object.ID, ev.Match.Prob)
//	    }
//	}()
//	store.Update(obj) // affected subscriptions stream events
//
// The package Examples are runnable scenarios with checked output, one
// per query kind, and cmd/experiments regenerates the paper's
// evaluation figures.
package probprune

import (
	"math/rand"

	"probprune/internal/core"
	"probprune/internal/cq"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/mc"
	"probprune/internal/query"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
	"probprune/internal/workload"
)

// Geometry primitives.
type (
	// Point is a location in d-dimensional space.
	Point = geom.Point
	// Rect is an axis-aligned uncertainty region.
	Rect = geom.Rect
	// Norm is an Lp norm; the zero value is invalid, use L1/L2/LInf.
	Norm = geom.Norm
	// Criterion selects the complete-domination decision procedure.
	Criterion = geom.Criterion
)

// The standard norms and criteria.
var (
	L1   = geom.L1
	L2   = geom.L2
	LInf = geom.LInf
)

// Domination criteria: Optimal is the paper's tight criterion, MinMax
// the classical baseline.
const (
	Optimal = geom.Optimal
	MinMax  = geom.MinMax
)

// Uncertain data model.
type (
	// Object is an uncertain database object (discrete sample model).
	Object = uncertain.Object
	// Database is an ordered collection of uncertain objects.
	Database = uncertain.Database
	// PDF is a bounded continuous density usable with Realize.
	PDF = uncertain.PDF
	// UniformBox is the uniform density over a rectangle.
	UniformBox = uncertain.UniformBox
	// TruncatedGaussian is a Gaussian truncated to a region.
	TruncatedGaussian = uncertain.TruncatedGaussian
	// Mixture is a finite mixture of densities.
	Mixture = uncertain.Mixture
	// PointMass is the degenerate density of a certain object.
	PointMass = uncertain.PointMass
)

// NewObject builds an uncertain object from equally likely alternative
// positions.
func NewObject(id int, samples []Point) (*Object, error) {
	return uncertain.NewObject(id, samples)
}

// NewWeightedObject builds an uncertain object from weighted
// alternative positions.
func NewWeightedObject(id int, samples []Point, weights []float64) (*Object, error) {
	return uncertain.NewWeightedObject(id, samples, weights)
}

// PointObject builds a certain (degenerate) object at p.
func PointObject(id int, p Point) *Object {
	return uncertain.PointObject(id, p)
}

// Realize materializes a continuous density into an n-sample object.
func Realize(id int, pdf PDF, n int, rng *rand.Rand) (*Object, error) {
	return uncertain.Realize(id, pdf, n, rng)
}

// Domination and bounds.
type (
	// Interval is a [lower, upper] probability bound pair.
	Interval = gf.Interval
	// Options configures IDCA runs; see the field documentation in
	// internal/core for the paper sections each knob maps to.
	Options = core.Options
	// Result is the state of an IDCA computation: domination-count
	// bounds, filter statistics and per-iteration progress.
	Result = core.Result
	// Session is an incremental IDCA computation stepped by the caller.
	Session = core.Session
	// Index is an R-tree over object MBRs accelerating the filter step.
	Index = rtree.Tree[*uncertain.Object]
	// RefDecomp is a concurrency-safe object decomposition shared across
	// many IDCA runs, one per object in a DecompCache.
	RefDecomp = core.RefDecomp
	// DecompCache shares every object decomposition — operands and
	// influence objects — across the runs of one query (see
	// Options.SharedDecomps).
	DecompCache = core.DecompCache
)

// NewDecompCache builds an empty decomposition cache for
// Options.SharedDecomps; maxHeight <= 0 selects the default height.
func NewDecompCache(maxHeight int) *DecompCache {
	return core.NewDecompCache(maxHeight)
}

// Dominates reports whether uncertainty region a completely dominates b
// w.r.t. reference region r under norm n — the tight criterion of the
// paper (Corollary 1, after Emrich et al. SIGMOD'10).
func Dominates(n Norm, a, b, r Rect) bool {
	return geom.Dominates(n, a, b, r)
}

// DominatesMinMax is the classical min/max-distance criterion, provided
// as the comparison baseline.
func DominatesMinMax(n Norm, a, b, r Rect) bool {
	return geom.DominatesMinMax(n, a, b, r)
}

// Run executes the iterative domination count approximation for target
// w.r.t. reference over db. See Options for stop criteria.
func Run(db Database, target, reference *Object, opts Options) *Result {
	return core.Run(db, target, reference, opts)
}

// RunIndexed is Run with the complete-domination filter pushed into an
// R-tree index.
func RunIndexed(index *Index, target, reference *Object, opts Options) *Result {
	return core.RunIndexed(index, target, reference, opts)
}

// NewIndex builds an R-tree over the database objects' MBRs with an
// STR bulk load (O(n log n), better-clustered nodes than repeated
// inserts).
func NewIndex(db Database) *Index {
	items := make([]rtree.BulkItem[*uncertain.Object], len(db))
	for i, o := range db {
		items[i] = rtree.BulkItem[*uncertain.Object]{Rect: o.MBR, Value: o}
	}
	return rtree.Bulk(items)
}

// NewSession prepares an incremental IDCA computation: the filter runs
// immediately, refinement happens on explicit Step calls.
func NewSession(db Database, target, reference *Object, opts Options) *Session {
	return core.NewSession(db, target, reference, opts)
}

// NewSessionIndexed is NewSession with the filter pushed into an
// R-tree index.
func NewSessionIndexed(index *Index, target, reference *Object, opts Options) *Session {
	return core.NewSessionIndexed(index, target, reference, opts)
}

// Queries.
type (
	// Match is one candidate's outcome in a threshold query.
	Match = query.Match
	// RankDistribution is a probabilistic inverse ranking result.
	RankDistribution = query.RankDistribution
	// Ranked is one object in an expected-rank ranking.
	Ranked = query.Ranked
)

// Live store: a concurrent, mutable database of N >= 1 shards serving
// snapshot-isolated queries (see internal/query.Store).
type (
	// Store is a concurrent uncertain-object store with live ingest
	// (Insert/Delete/Update), snapshot-isolated queries and cross-query
	// decomposition reuse, partitioned across N >= 1 shards. Its
	// snapshot queries are bit-identical to a one-shard store's over
	// the same state, at any shard count and Parallelism.
	Store = query.Store
	// StoreSnapshot is one immutable database state published by a
	// Store — with several shards, a consistent cut with a per-shard
	// version vector — and the type every query is a method of; all
	// queries on it observe exactly the same objects.
	StoreSnapshot = query.Snapshot
	// KNNRequest is one query of a StoreSnapshot.BatchKNN batch.
	KNNRequest = query.KNNRequest
	// ShardedOptions configures shard count and the partitioner of a
	// Store.
	ShardedOptions = query.ShardedOptions
	// ShardFunc deterministically routes an object to one of n shards.
	ShardFunc = query.ShardFunc
)

// NewStore builds a one-shard live store over db (unique object IDs
// of one dimension required; the index is STR bulk-loaded). Opts
// configures every query the store serves; Opts.SharedDecomps must be
// left unset. It refuses a nil object, a duplicate ID and mixed
// dimensions.
func NewStore(db Database, opts Options) (*Store, error) {
	return query.NewStore(db, opts)
}

// NewShardedStore builds a live store of sopts.Shards shards over db
// (shards are STR bulk-loaded concurrently). The zero ShardedOptions
// selects one shard and hash partitioning.
func NewShardedStore(db Database, sopts ShardedOptions, opts Options) (*Store, error) {
	return query.NewShardedStore(db, sopts, opts)
}

// HashShards is the default shard router: FNV-1a over the object ID.
func HashShards(o *Object, n int) int {
	return query.HashShards(o, n)
}

// StripeShards returns a spatial shard router binning the MBR center
// along dimension dim into n equal stripes of [lo, hi].
func StripeShards(dim int, lo, hi float64) ShardFunc {
	return query.StripeShards(dim, lo, hi)
}

// Durability: see the package documentation and the README's "Live
// stores" section.
type (
	// PersistOptions configures the journal directory, fsync policy and
	// checkpoint cadence of a durable store.
	PersistOptions = query.PersistOptions
	// SyncPolicy selects when journaled commits are fsynced.
	SyncPolicy = wal.SyncPolicy
)

// Fsync policies for PersistOptions.Sync.
const (
	// SyncOS (default): no explicit fsync; the OS flushes on its own.
	SyncOS = wal.SyncOS
	// SyncAlways: fsync after every commit.
	SyncAlways = wal.SyncAlways
	// SyncBackground: fsync every PersistOptions.SyncEvery (default 1s).
	SyncBackground = wal.SyncBackground
)

// OpenStore opens (or initializes) a durable store rooted at
// popts.Dir, recovering whatever layout the directory holds (one shard
// for a fresh directory).
func OpenStore(popts PersistOptions, opts Options) (*Store, error) {
	return query.OpenStore(popts, opts)
}

// BootstrapStore creates a new durable one-shard store over db at
// popts.Dir, writing the initial database as the first checkpoint. It
// refuses a directory that already holds a store (use OpenStore).
func BootstrapStore(db Database, popts PersistOptions, opts Options) (*Store, error) {
	return query.BootstrapStore(db, popts, opts)
}

// OpenShardedStore is OpenStore with the shard layout spelled out:
// sopts.Shards, when non-zero, must match the directory, and
// sopts.Partition must be the partitioner the store was created with.
func OpenShardedStore(popts PersistOptions, sopts ShardedOptions, opts Options) (*Store, error) {
	return query.OpenShardedStore(popts, sopts, opts)
}

// BootstrapShardedStore is BootstrapStore with sopts' shard layout.
func BootstrapShardedStore(db Database, popts PersistOptions, sopts ShardedOptions, opts Options) (*Store, error) {
	return query.BootstrapShardedStore(db, popts, sopts, opts)
}

// Continuous queries: standing KNN/RkNN subscriptions over a Store,
// maintained incrementally as mutations commit (see internal/cq).
type (
	// Monitor maintains standing subscriptions over one Store: it
	// consumes the store's committed change stream and keeps every
	// subscription's result set current with incremental, pruning-aware
	// maintenance — only subscriptions whose influence region a mutation
	// intersects wake, and within one only affected candidates re-run.
	Monitor = cq.Monitor
	// MonitorOptions configures event buffering and the slow-consumer
	// policy of a Monitor.
	MonitorOptions = cq.Options
	// Subscription is one standing KNN/RkNN query; consume its ordered
	// event stream via Events().
	Subscription = cq.Subscription
	// Event is one result-set transition of a subscription, valid at a
	// specific store version.
	Event = cq.Event
	// EventKind distinguishes ObjectEntered, ObjectLeft, BoundsChanged.
	EventKind = cq.EventKind
	// SubscriptionKind distinguishes standing KNN from RkNN queries.
	SubscriptionKind = cq.Kind
	// SlowConsumerPolicy selects what happens when a subscriber stops
	// draining its bounded event buffer.
	SlowConsumerPolicy = cq.Policy
	// Change is one committed Store mutation, delivered to Store.Watch
	// callbacks together with the snapshot of its version.
	Change = query.Change
	// ChangeKind distinguishes insert, update and delete changes.
	ChangeKind = query.ChangeKind
)

// Event kinds, subscription kinds, change kinds and slow-consumer
// policies.
const (
	ObjectEntered = cq.ObjectEntered
	ObjectLeft    = cq.ObjectLeft
	BoundsChanged = cq.BoundsChanged

	KNNSubscription  = cq.KNN
	RKNNSubscription = cq.RKNN

	DisconnectSlow = cq.DisconnectSlow
	DropOldest     = cq.DropOldest

	ChangeInsert = query.ChangeInsert
	ChangeUpdate = query.ChangeUpdate
	ChangeDelete = query.ChangeDelete
)

// Terminal subscription errors (see Subscription.Err), plus the
// durable-cursor mismatch error (see Monitor.SubscribeKNNDurable).
var (
	ErrSlowConsumer   = cq.ErrSlowConsumer
	ErrUnsubscribed   = cq.ErrUnsubscribed
	ErrMonitorClosed  = cq.ErrMonitorClosed
	ErrCursorMismatch = cq.ErrCursorMismatch
)

// NewMonitor attaches a continuous-query monitor to a store at any
// shard count (with several shards: its merged change stream, tracked
// by a version-vector cursor). Register standing queries with
// SubscribeKNN/SubscribeRKNN, release with Close.
func NewMonitor(store *Store, opts MonitorOptions) *Monitor {
	return cq.NewMonitor(store, opts)
}

// ThresholdStop builds the IDCA stop criterion for the tail predicate
// P(DomCount < k) versus threshold tau.
func ThresholdStop(k int, tau float64) func(*Result) bool {
	return query.ThresholdStop(k, tau)
}

// ExpectedRankBounds derives bounds on the expected rank from an IDCA
// result (Corollary 6).
func ExpectedRankBounds(res *Result) (lo, hi float64) {
	return query.ExpectedRankBounds(res)
}

// Ground truth (exact computation on the discrete sample model).

// ExactDomCountPDF computes the exact domination count PDF of b w.r.t.
// r over the candidate objects — the Monte-Carlo comparison partner of
// the paper, exact on the sample model. It is exponentially cheaper
// than possible-world enumeration but still far slower than Run; use it
// for validation, not for queries.
func ExactDomCountPDF(n Norm, cands []*Object, b, r *Object, kMax int) []float64 {
	return mc.DomCountPDF(n, cands, b, r, kMax)
}

// ExactPDom computes the exact probability that a is closer to r than b
// on the discrete sample model.
func ExactPDom(n Norm, a, b, r *Object) float64 {
	return mc.PDom(n, a, b, r)
}

// Workloads and persistence.
type (
	// SyntheticConfig parameterizes the synthetic rectangle dataset of
	// the paper's evaluation.
	SyntheticConfig = workload.SyntheticConfig
	// IcebergConfig parameterizes the iceberg-sightings simulation.
	IcebergConfig = workload.IcebergConfig
	// Query is an evaluation query (reference + target).
	Query = workload.Query
)

// Synthetic generates the synthetic dataset of Section VII.
func Synthetic(c SyntheticConfig) (Database, error) {
	return workload.Synthetic(c)
}

// IcebergSim generates the simulated iceberg sightings dataset.
func IcebergSim(c IcebergConfig) (Database, error) {
	return workload.IcebergSim(c)
}

// SaveFile persists a database to path in the .udb format: the
// write-ahead log's object records, gzip-compressed.
func SaveFile(path string, db Database) error {
	return workload.SaveFile(path, db)
}

// LoadFile reads a database written by SaveFile.
func LoadFile(path string) (Database, error) {
	return workload.LoadFile(path)
}

// Queries derives evaluation queries following the paper's convention
// (reference drawn from db, target = rank-th nearest by MinDist).
func Queries(db Database, q, rank int, n Norm, seed int64) []Query {
	return workload.Queries(db, q, rank, n, seed)
}
