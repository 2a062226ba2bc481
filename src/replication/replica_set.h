// ReplicaSet: read-replica serving + failover over a ShardRouter.
//
// For every shard of a sharded computation, the set runs N FollowerReplica
// instances (roots under `<replicas_root>/shard-NNN/replica-<i>`), each fed
// by that shard's ReplicaShipper. Reads load-balance round-robin across the
// shard's primary and its caught-up followers; writes and epochs go
// through the router (followers are read-only). A follower that is
// disabled, closed, or lagging more than max_replica_lag_epochs behind the
// primary's committed epoch is skipped by routing until shipping catches
// it up.
//
// Snapshot reads reuse the serving layer unchanged: PinSnapshot() returns
// the same ShardSnapshot ShardGroup hands out, except each component pin
// may come from a follower instead of the primary — point gets, range
// scans and top-k all run against the selected backends' pinned epochs.
//
// Failover happens inside the router's coordinated fleet, which owns every
// shard's primary. KillPrimary(s) marks shard s down in the router
// (coordinated epochs and appends to s fail) and stops its shipper; reads
// continue from followers. Promote(s) then picks the freshest follower,
// which must sit at the fleet's committed epoch, and promotes it through
// the A/B flow — discard any uncommitted pre-staged slot, re-verify the
// applied epoch's manifest and record-file CRCs — and the router opens a
// replacement slice over the follower's root (its CURRENT names exactly
// the last epoch the fleet committed; recovery replays shipped log
// segments past the manifest watermark) and swaps it in. Writes and
// barrier epochs resume, a new shipper feeds the surviving followers, and
// pins taken before the promotion keep serving untouched. Reopening the
// router after a promotion is unsupported; Open refuses it once the fleet
// has committed past the promotion (see shard_router.h).
//
// Each backend slot publishes under
// "serving.<name>.shard<s>.replica<i>.*" (shipped_bytes, applied_epochs,
// lag_epochs, reads_served); promotion retires the promoted follower's
// series via the registry's scoped-unregister support.
#ifndef I2MR_REPLICATION_REPLICA_SET_H_
#define I2MR_REPLICATION_REPLICA_SET_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "replication/follower_replica.h"
#include "replication/replica_shipper.h"
#include "serving/shard_group.h"

namespace i2mr {

struct ReplicaSetOptions {
  /// Followers per shard.
  int replicas_per_shard = 1;

  /// Staleness threshold for routing (see ReplicaShipper).
  uint64_t max_replica_lag_epochs = 4;

  /// Shipper poll fallback interval.
  int ship_poll_ms = 20;

  /// Wipe the replica roots on Open (fresh deployment) vs re-attach.
  bool reset = true;

  /// Follower durability (the primary's own durability is the router's).
  DurabilityMode durability = DurabilityMode::kProcessCrash;

  /// Simulated per-backend service time per point read, charged under the
  /// backend's slot mutex (the CostModel idiom: capacity is modeled by
  /// sleeping, so replica read scaling is measurable on any host). 0 = off.
  double read_service_ms = 0;

  /// Include the primary in the read rotation (false = reads only ever
  /// touch followers, primary takes writes + refreshes).
  bool read_from_primary = true;

  /// Scatter-gather threads for snapshot Range/TopK (0 = auto).
  int scatter_threads = 0;

  /// Counter registry (the router's when null).
  MetricsRegistry* metrics = nullptr;
};

class ReplicaSet {
 public:
  /// Build + Open() the followers, start the per-shard shippers. The
  /// router must outlive the set; the router should already be
  /// bootstrapped (shipping begins from its current committed state).
  static StatusOr<std::unique_ptr<ReplicaSet>> Open(ShardRouter* router,
                                                    const std::string& replicas_root,
                                                    ReplicaSetOptions options = {});
  ~ReplicaSet();
  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  // -- Reads -----------------------------------------------------------------

  /// Pin an epoch-consistent snapshot, each shard's pin taken from a
  /// round-robin-selected caught-up backend (primary or follower).
  StatusOr<ShardSnapshot> PinSnapshot() const;

  /// Load-balanced point read: selects a backend for the key's shard,
  /// charges its slot's service time, reads its committed epoch.
  StatusOr<std::string> Get(const std::string& key) const;

  // -- Writes (through the router) -------------------------------------------

  /// The router's Append/AppendBatch/DrainAll, refused while the set is
  /// bound to a stale partition-map generation (call Rebind()).
  StatusOr<uint64_t> Append(const DeltaKV& delta);
  Status AppendBatch(const std::vector<DeltaKV>& deltas);
  Status DrainAll();

  /// One synchronous ship pass on every shard (tests: reach a known
  /// replicated state without sleeping on the poll loop).
  Status SyncAll();

  // -- Failure injection + failover ------------------------------------------

  /// Take follower (shard, i) out of service: shipping and routing skip it.
  Status KillReplica(int shard, int i);
  /// Reopen a killed follower; the shipper catches it back up.
  Status RestartReplica(int shard, int i);

  /// Kill shard `shard`'s primary: the router marks the shard down
  /// (coordinated epochs and writes to the shard fail), its shipper stops,
  /// reads continue from caught-up followers.
  Status KillPrimary(int shard);
  bool primary_dead(int shard) const;

  /// Promote the freshest follower of a dead-primary shard to primary (A/B
  /// verify, then ShardRouter::PromoteShard over its root). Refused unless
  /// that follower applied the fleet's committed epoch. Returns the
  /// promoted follower's index. Writes and epochs succeed again after
  /// this returns.
  StatusOr<int> Promote(int shard);

  // -- Introspection ---------------------------------------------------------

  /// Re-bind the set to the router's current partition map after an
  /// elastic reshard bumped the generation: stop the old shippers, retire
  /// the old per-shard state (outstanding snapshot pins keep serving), and
  /// rebuild followers + shippers against the new generation's shards
  /// (replica roots under `<replicas_root>/<gen-shard-dir>/replica-<i>`).
  /// No-op when the generations already match. Reads and writes between
  /// the cutover and Rebind() fail with FailedPrecondition rather than
  /// routing by a stale map.
  Status Rebind();

  /// The partition-map generation this set's shard states were built for.
  uint64_t bound_generation() const;

  /// Lag of follower (shard, i) behind the shard's primary, in epochs.
  uint64_t ReplicaLag(int shard, int i) const;
  /// Skipped by routing: killed, closed, not serving, or lag beyond max.
  bool IsReplicaStale(int shard, int i) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int replicas_per_shard() const { return options_.replicas_per_shard; }
  FollowerReplica* replica(int shard, int i) const {
    return shards_[shard]->followers[i].get();
  }
  ReplicaShipper* shipper(int shard) const {
    return shards_[shard]->shipper.get();
  }
  /// The shard's current primary (the promoted pipeline after failover).
  Pipeline* primary(int shard) const;
  ShardRouter* router() const { return router_; }

 private:
  /// One read-serving slot: a backend plus its simulated service capacity.
  struct Slot {
    std::mutex service_mu;
    Counter* reads = nullptr;
  };

  struct ShardState {
    Pipeline* primary = nullptr;  // the router's slice for this shard
    bool dead = false;
    /// A KillPrimary/Promote transition is in flight (set/cleared under
    /// route_mu_). Serializes failover steps that must run outside the
    /// lock: concurrent promotions of one shard would both open a pipeline
    /// over the chosen follower's root, and a promotion racing KillPrimary
    /// could swap st.shipper out from under the Stop() in progress.
    bool transitioning = false;
    int promoted_replica = -1;
    std::vector<std::unique_ptr<FollowerReplica>> followers;
    std::vector<bool> enabled;
    std::unique_ptr<ReplicaShipper> shipper;
    /// Maps follower index -> index in the live shipper's follower list
    /// (-1 after that follower was promoted out).
    std::vector<int> shipper_idx;
    /// slots[0] = primary, slots[1 + i] = follower i.
    std::vector<std::unique_ptr<Slot>> slots;
    std::atomic<uint64_t> rr{0};
  };

  ReplicaSet(ShardRouter* router, std::string replicas_root,
             ReplicaSetOptions options);

  /// Build shards_ (followers, slots, shippers) for bound_map_. Caller
  /// guarantees shards_ is empty and no reader is concurrent (Open/Rebind).
  Status BindShards();

  /// FailedPrecondition when the router's live generation moved past the
  /// one this set was built for (reshard cutover without Rebind()).
  Status CheckGenerationLocked() const;
  Status CheckGeneration() const;

  std::string MetricsPrefix(int shard) const;
  /// Committed epoch of the shard's primary (frozen while it is dead).
  uint64_t PrimaryEpoch(const ShardState& st) const;
  bool StaleLocked(const ShardState& st, int i) const;
  /// Round-robin pick of an eligible backend slot index (0 = primary,
  /// 1 + i = follower i); -1 when nothing can serve.
  int SelectSlotLocked(ShardState& st) const;
  void ChargeService(Slot* slot) const;
  void StartShipper(ShardState& st, int shard);

  ShardRouter* const router_;
  const std::string replicas_root_;
  ReplicaSetOptions options_;
  MetricsRegistry* metrics_ = nullptr;
  mutable ThreadPool scatter_pool_;
  Counter* snapshots_pinned_ = nullptr;
  Counter* failovers_ = nullptr;

  /// Guards shard state transitions (kill/restart/promote) against backend
  /// selection. Never held while sleeping in ChargeService or while a
  /// shipper pass runs.
  mutable std::mutex route_mu_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// The partition map shards_ was built against (guarded by route_mu_;
  /// replaced only by Rebind).
  PartitionMap bound_map_{0, 0};
  /// Previous generations' shard states, kept alive by Rebind: follower
  /// pins hand out unpin callbacks into their FollowerReplica, so a
  /// pre-cutover snapshot must outlive the rebind.
  std::vector<std::unique_ptr<ShardState>> retired_;
};

}  // namespace i2mr

#endif  // I2MR_REPLICATION_REPLICA_SET_H_
