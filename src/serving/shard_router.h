// ShardRouter: hash-partitions one continuously-refreshed computation
// across N shards. Each shard is a full vertical slice — its own
// LocalCluster (under <root>/<shard-dir>/) and its own Pipeline (own
// DeltaLog, epoch dirs, engine state) — and the fleet computes exactly
// what one unsharded pipeline over the whole input would.
//
// Routing is by key through the router's versioned PartitionMap (see
// serving/partition_map.h) — one stable key-hash partition function,
// durable as the `<name>.PARTMAP` record, shared with the exchange's
// owner map, bootstrap splitting and the engines' owns_key filter, so a
// key's deltas, its committed state and its lookups always meet on the
// same shard and no layer can ever compute the split from a different
// shard count. An elastic reshard (serving/reshard.h) replaces the whole
// topology — map, shard slices, exchange — with a new generation in one
// atomic cutover; retired donor slices stay alive until the router dies
// so pre-cutover pins keep serving the old map.
//
// Consistency model (the only one): every engine's map emissions to
// non-owned keys are captured at the boundary, routed to the owning shard
// by a CrossShardExchange, and folded into that shard's refresh;
// RefreshCoordinated() iterates rounds under a barrier to the joint
// fixpoint, so the sharded result equals the unsharded computation. All
// shards then commit the same epoch N with a two-phase protocol — stage
// every epoch dir, write the coordinator BARRIER record, flip every
// CURRENT, clean up — and recovery rolls an incomplete barrier back to
// N-1 everywhere, so readers never observe a mixed epoch vector. Apps
// whose reduce state cannot partition by key (all-to-one, e.g. k-means'
// single centroid record) are refused at Open: run them on one Pipeline.
//
// Failover: the router owns every shard's primary. MarkShardDown(s) takes
// shard s out of the fleet — coordinated epochs and appends routed to it
// fail until a replacement is promoted — and PromoteShard(s, root) opens a
// replacement slice over a follower root at the fleet's committed epoch
// and swaps it in under the barrier-flip seqlock (replication/replica_set.h
// drives both). A promoted slice lives under the follower's root, so
// reopening the router (reset=false) after a promotion is unsupported: it
// would re-attach the original shard dir. Once a barrier epoch commits
// past the promotion that dir is behind the fleet, and Open refuses the
// mixed epoch vector with FailedPrecondition.
//
// Epoch-consistent cross-shard reads and per-tenant admission live one
// layer up, in ShardGroup / AdmissionController.
#ifndef I2MR_SERVING_SHARD_ROUTER_H_
#define I2MR_SERVING_SHARD_ROUTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "mr/cluster.h"
#include "pipeline/pipeline.h"
#include "serving/admission.h"
#include "serving/exchange.h"
#include "serving/partition_map.h"

namespace i2mr {

class HealthRegistry;
class ReshardCoordinator;

struct ShardRouterOptions {
  int num_shards = 4;
  int workers_per_shard = 2;

  /// Must be true (Open refuses false): sharded epochs always exchange
  /// cross-shard contributions and commit under the barrier (see the
  /// header comment). Kept only so existing option literals compile.
  bool cross_shard_exchange = true;

  /// Safety cap on exchange rounds per coordinated epoch. Like the
  /// engine's max_iterations, hitting it logs a warning and commits the
  /// best state reached instead of failing the epoch.
  int max_exchange_rounds = 256;

  /// Per-shard cluster cost model.
  CostModel cost;

  /// true: wipe the shard roots (fresh deployment). false: re-attach and
  /// recover every shard's committed epoch + delta log from disk — and
  /// trust the durable PARTMAP record over num_shards above, because the
  /// record names the partitioning the on-disk shards were actually built
  /// with (it differs after an elastic reshard).
  bool reset = true;

  /// Template for every shard's pipeline (spec, engine knobs, triggers,
  /// durability). The spec's partition count applies per shard.
  PipelineOptions pipeline;

  /// How often the coordinator thread (Start) polls the shards' epoch
  /// triggers.
  double poll_interval_ms = 10;

  /// Owning tenant + admission control: when both are set, the coordinator
  /// thread consults admission->AdmitEpoch(tenant) once per coordinated
  /// epoch, so this computation's delta backlog competes for refresh slots
  /// under the tenant's epoch quota.
  std::string tenant;
  AdmissionController* admission = nullptr;

  /// Counter registry (Default() when null).
  MetricsRegistry* metrics = nullptr;

  /// Health registry (Default() when null). The router reports
  /// "serving.<name>" — kDegraded while coordinated epochs are failing or
  /// an interrupted barrier awaits roll-forward, kHealthy once epochs
  /// commit again — and forwards the registry into every shard pipeline
  /// (which reports "pipeline.<name>" for its degraded read-only mode).
  HealthRegistry* health = nullptr;

  /// Internal (ReshardCoordinator): open this fleet under an explicit
  /// partition map instead of {generation 0, num_shards}. Ignored when
  /// its num_shards is 0.
  PartitionMap partition_map{0, 0};

  /// Internal (ReshardCoordinator): a staging fleet must not write the
  /// live PARTMAP record — publishing the new map is the cutover.
  bool persist_partition_map = true;
};

class ShardRouter {
 public:
  /// Open (or with options.reset=false, recover) the sharded computation
  /// `name` under `root`.
  static StatusOr<std::unique_ptr<ShardRouter>> Open(const std::string& root,
                                                     const std::string& name,
                                                     ShardRouterOptions options);

  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Stable shard assignment for a key under the current partition map.
  int ShardOf(std::string_view key) const;

  /// The current partition map (by value: a reshard publishes a whole new
  /// map, it never mutates one in place).
  PartitionMap partition_map() const;
  uint64_t generation() const { return partition_map().generation; }

  /// An atomically-grabbed view of the current topology: the map and the
  /// per-shard pipelines that belong to it. Readers that touch more than
  /// one shard (snapshot pinning, the replication layer) hold a view so a
  /// concurrent reshard cutover can never hand them a torn mix of
  /// generations — retired slices stay alive, so a pre-cutover view keeps
  /// working on the old map.
  struct TopologyView {
    std::shared_ptr<const PartitionMap> map;
    std::vector<Pipeline*> pipelines;
  };
  TopologyView topology() const;

  /// Split the initial structure/state by key, run every shard's full
  /// computation concurrently, exchange rounds to the joint fixpoint, then
  /// commit epoch 0 under the barrier.
  Status Bootstrap(const std::vector<KV>& structure,
                   const std::vector<KV>& initial_state);
  bool bootstrapped() const;

  /// Durably append one update to its key's shard. Refused (like Lookup)
  /// while the router is poisoned: a durable barrier/reshard decision
  /// already supersedes the live topology, and recovery could discard an
  /// ack made against it. Refused with Unavailable while the key's shard
  /// is down.
  StatusOr<uint64_t> Append(const DeltaKV& delta);
  /// Partition a batch by key and append per shard (one group per shard).
  /// A batch touching a down shard is refused whole, before any append.
  Status AppendBatch(const std::vector<DeltaKV>& deltas);

  /// Point lookup from the key's shard's latest committed epoch.
  StatusOr<std::string> Lookup(const std::string& key) const;

  /// Background epoch scheduling: one coordinator thread driving
  /// RefreshCoordinated whenever a shard's trigger fires. Ticks while a
  /// shard is down are skipped without charging the tenant's epoch quota.
  void Start();
  void Stop();
  /// Run coordinated epochs until no shard has pending deltas; blocks.
  Status DrainAll();

  /// One coordinated epoch across all shards: every shard drains +
  /// refreshes, boundary contributions are exchanged and re-reduced under
  /// a barrier until the joint fixpoint, then every shard's epoch N
  /// commits atomically (two-phase; see RecoverBarrier in the
  /// implementation for the crash story). Returns committed=false without
  /// committing when nothing is pending anywhere, and Unavailable while a
  /// shard is down. Serialized against itself and the coordinator thread.
  struct CoordinatedEpochStats {
    bool committed = false;
    uint64_t epoch = 0;
    int rounds = 0;              // exchange rounds beyond the initial refresh
    uint64_t deltas_applied = 0;
    uint64_t edges_exchanged = 0;
    double wall_ms = 0;
  };
  StatusOr<CoordinatedEpochStats> RefreshCoordinated();

  /// Deltas logged but not yet consumed, summed over shards.
  uint64_t TotalPending() const;

  /// Committed epoch id per shard (the version vector readers pin).
  std::vector<uint64_t> CommittedEpochs() const;

  int num_shards() const;

  /// Failover, step 1: take shard s's primary out of the fleet. Waits out
  /// an epoch or append in flight; from then on RefreshCoordinated and
  /// appends routed to s fail until PromoteShard. The slice stays open,
  /// so pins already taken on it keep serving.
  Status MarkShardDown(int s);
  /// Failover, step 2: open a replacement slice for down shard s over
  /// `cluster_root` (a follower root laid out like a shard root), exactly
  /// as Open builds slices, and swap it in under the barrier-flip seqlock.
  /// Refused unless the recovered pipeline sits at the fleet's committed
  /// epoch. The old slice is retired like a reshard donor. Returns the
  /// new primary.
  StatusOr<Pipeline*> PromoteShard(int s, const std::string& cluster_root);

  /// Barrier-flip seqlock for uniform reads: even = stable, odd = a
  /// barrier commit, a reshard cutover or a promotion is mid-flip.
  /// ShardGroup::PinSnapshot brackets its per-shard pins with this (wait
  /// while odd, retry if it moved), so a pin is always a uniform epoch
  /// vector of one generation even while flips land one CURRENT at a
  /// time.
  uint64_t commit_seq() const {
    return commit_seq_.load(std::memory_order_acquire);
  }
  /// True after a barrier commit died between the decision record and the
  /// last CURRENT flip: the on-disk state needs the reopen recovery, and
  /// cross-shard reads are refused rather than served mixed.
  bool poisoned() const { return poisoned_.load(); }
  /// Nonzero when a *real* I/O failure (not a simulated coordinator
  /// crash) interrupted the barrier after its decision record was
  /// durable: the epoch is decided, the staged slots are intact, and the
  /// next coordinated tick rolls the commit *forward* in-process instead
  /// of requiring a reopen. Zero otherwise.
  uint64_t pending_flip_epoch() const { return pending_flip_epoch_.load(); }

  const std::string& name() const { return name_; }
  const std::string& tenant() const { return options_.tenant; }
  Pipeline* shard(int i) const;
  LocalCluster* cluster(int i) const;
  MetricsRegistry* metrics() const { return options_.metrics; }
  /// Effective options (metrics defaulted, templates as applied; after a
  /// reshard, num_shards and pipeline.generation track the live map).
  const ShardRouterOptions& options() const { return options_; }

 private:
  friend class ReshardCoordinator;

  struct Shard {
    std::unique_ptr<LocalCluster> cluster;
    std::unique_ptr<Pipeline> pipeline;
    /// MarkShardDown was called. Written with coord_mu_ and topo_mu_
    /// (exclusive) held, so either lock suffices to read it.
    bool down = false;
  };

  ShardRouter(std::string name, std::string root, ShardRouterOptions options);

  /// Build shard s's slice of `map` over `cluster_root`: cluster and
  /// pipeline with the owns_key filter. Shared by Open and PromoteShard.
  StatusOr<std::unique_ptr<Shard>> OpenShard(const PartitionMap& map, int s,
                                             const std::string& cluster_root,
                                             bool reset) const;

  /// Unavailable naming the first down shard; caller holds coord_mu_ or
  /// topo_mu_.
  Status CheckNoShardDownLocked() const;

  /// RefreshCoordinated body; caller holds coord_mu_ (the reshard
  /// coordinator drains donors while holding the lock for the whole move).
  StatusOr<CoordinatedEpochStats> RefreshCoordinatedLocked();

  /// Exchange rounds (after per-shard refreshes produced `offers`) until
  /// the joint fixpoint; returns the number of rounds run.
  StatusOr<int> RunExchangeRounds(CrossShardExchange* exchange,
                                  std::vector<std::vector<DeltaEdge>> offers,
                                  uint64_t* edges_exchanged);

  /// Two-phase barrier commit of epoch `epoch` on every shard. On error
  /// (or a kind=crash fault rule firing at "barrier/<stage>": "staged",
  /// "barrier", "mid_flip", "flipped") every shard is marked dirty —
  /// except a real I/O failure after the decision record, which leaves
  /// the staged slots intact and arms pending_flip_epoch_ for
  /// ResumeBarrierLocked.
  Status CommitBarrier(uint64_t epoch);

  /// Roll an interrupted-but-decided barrier commit forward: finish
  /// flipping every shard still on N-1 (their staged slots survived),
  /// retire the BARRIER record, and unpoison the router. Caller holds
  /// coord_mu_. On failure the router stays poisoned and the next
  /// coordinated tick retries.
  Status ResumeBarrierLocked();

  /// Path of the coordinator's durable barrier decision record
  /// (generation-qualified past generation 0, so a staging fleet's
  /// barrier never collides with the live one's).
  static std::string BarrierPathFor(const std::string& root,
                                    const std::string& name,
                                    const PartitionMap& map);
  std::string BarrierPath() const;
  /// Path of the durable reshard decision record (`<name>.RESHARD`).
  static std::string ReshardMarkerPath(const std::string& root,
                                       const std::string& name);

  /// Roll an incomplete barrier commit back to epoch N-1 on every shard
  /// (reset=false reopen): shards whose CURRENT already names the barrier
  /// epoch are rewound to their previous epoch dir, staged dirs are
  /// removed, and the BARRIER record is cleared. Called before the shard
  /// pipelines open.
  static Status RecoverBarrier(const std::string& root,
                               const std::string& name,
                               const ShardRouterOptions& options,
                               const PartitionMap& map);

  /// Roll an interrupted reshard cutover forward on reopen: a durable
  /// RESHARD marker means the destination fleet was fully committed and
  /// the new map was decided — install it as the PARTMAP and retire the
  /// marker. No marker: the old map stands (a crash anywhere earlier in
  /// the move recovers to exactly the old partitioning).
  static Status RecoverReshard(const std::string& root,
                               const std::string& name, bool sync);

  /// The reshard cutover: replace the whole topology (map, shard slices,
  /// exchange, per-shard counters, options' shard count + generation)
  /// with the staging fleet's, bracketed by the barrier-flip seqlock.
  /// Retired slices are kept alive until the router dies so pre-cutover
  /// pins and views keep serving.
  void AdoptTopology(std::vector<std::unique_ptr<Shard>> shards,
                     std::unique_ptr<CrossShardExchange> exchange,
                     std::shared_ptr<const PartitionMap> map,
                     std::vector<Counter*> epochs_committed,
                     std::vector<Counter*> deltas_applied);

  void MarkAllDirty();

  const std::string name_;
  const std::string root_;
  ShardRouterOptions options_;

  /// Guards the live topology — map_, shards_, exchange_, the per-shard
  /// counter vectors — shared for every read/route (appends hold it
  /// across the pipeline append), exclusive only for the reshard
  /// cutover's and a promotion's pointer swaps and MarkShardDown. Lock
  /// order: coord_mu_, then append_gate_, then topo_mu_, then anything
  /// inside a pipeline.
  mutable std::shared_mutex topo_mu_;
  std::shared_ptr<const PartitionMap> map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Donor slices of previous generations (retired at cutover) and
  /// replaced down slices (retired at promotion): pipelines alive so pins
  /// taken on them stay valid.
  std::vector<std::unique_ptr<Shard>> retired_;

  /// Append gate: appends hold it shared; the reshard coordinator takes
  /// it exclusive for the brief watermark fence (enable dual-journaling
  /// against a drained fleet) and the final cutover. Reads never touch it.
  mutable std::shared_mutex append_gate_;
  /// Dual-journal sink (set only mid-reshard, under the exclusive gate):
  /// every successfully routed append is also offered to the destination
  /// fleet. Called with the append gate held shared, synchronously before
  /// the append acks — so appends the caller serializes mirror in that
  /// order. Appends racing on the SAME key carry no ordering promise: the
  /// donor log and the staging log may order such a pair differently, so
  /// callers whose deltas don't commute per key must serialize their own
  /// same-key appends.
  std::function<void(const DeltaKV& delta)> journal_;

  Counter* deltas_routed_ = nullptr;
  Counter* lookups_routed_ = nullptr;

  /// Serializes RefreshCoordinated / DrainAll / the coordinator thread /
  /// failover (and, for the length of a move, the reshard coordinator).
  /// The topology only changes with it held.
  std::mutex coord_mu_;
  std::unique_ptr<CrossShardExchange> exchange_;
  std::thread coordinator_;
  std::atomic<bool> coordinating_{false};
  /// See commit_seq().
  std::atomic<uint64_t> commit_seq_{0};
  /// Set when a barrier commit died after the decision record was written
  /// but before every CURRENT flipped: the on-disk state needs the reopen
  /// recovery (RecoverBarrier); further coordinated epochs are refused.
  std::atomic<bool> poisoned_{false};
  /// See pending_flip_epoch(). Epoch 0 (bootstrap) is never resumable —
  /// its rollback already lands on "nothing committed".
  std::atomic<uint64_t> pending_flip_epoch_{0};
  /// Resolved health registry (options_.health or Default()).
  HealthRegistry* health_ = nullptr;
  /// Per-shard commit counters, published by the router for every barrier
  /// commit. Guarded by topo_mu_.
  std::vector<Counter*> shard_epochs_committed_;
  std::vector<Counter*> shard_deltas_applied_;
};

}  // namespace i2mr

#endif  // I2MR_SERVING_SHARD_ROUTER_H_
