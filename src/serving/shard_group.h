// ShardGroup: epoch-consistent, non-blocking reads over a ShardRouter's
// shards, with per-tenant admission at the edge.
//
// A reader calls PinSnapshot() and receives a ShardSnapshot: a pinned
// version vector of per-shard committed epoch ids plus, per shard, a
// refcounted EpochPin on that epoch's immutable result store (MVCC-style).
// Everything the snapshot answers — point gets, multi-gets, scatter-gather
// range scans and top-k — comes from exactly those epochs:
//
//   * Non-blocking: pinning takes one mutex acquisition per shard; reads
//     against the snapshot touch only frozen in-memory stores. Commits,
//     garbage collection and delta-log purges proceed underneath without
//     ever blocking or invalidating an in-flight reader.
//   * Consistent: each component pin is taken atomically against that
//     shard's commit publication, so no component can observe a
//     half-committed epoch; the vector freezes the cross-shard version the
//     reader saw, and repeated reads through one snapshot always agree.
//
// Admission: when an AdmissionController is wired, PinSnapshot()/Get()
// charge the calling tenant's read bucket and fail fast with
// RESOURCE_EXHAUSTED when it is drained — an over-quota tenant is bounced
// at the edge (reads against an already-pinned snapshot are local memory
// reads and stay free). Epoch-side quotas are wired at the router (its
// coordinator thread asks AdmitEpoch once per epoch), so the same
// controller also keeps one tenant's delta backlog from monopolizing
// refresh scheduling.
#ifndef I2MR_SERVING_SHARD_GROUP_H_
#define I2MR_SERVING_SHARD_GROUP_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "serving/admission.h"
#include "serving/shard_router.h"

namespace i2mr {

/// A pinned, epoch-consistent, cross-shard read view. Cheap to copy (pins
/// are shared); destroying the last copy releases every shard's epoch for
/// garbage collection. Must not outlive its ShardGroup.
class ShardSnapshot {
 public:
  ShardSnapshot() = default;

  bool valid() const { return router_ != nullptr; }

  /// The pinned version vector: committed epoch id per shard at pin time.
  const std::vector<uint64_t>& epochs() const { return epochs_; }

  /// Point get from the key's shard's pinned epoch.
  StatusOr<std::string> Get(const std::string& key) const;

  /// One result per key, all answered from the same pinned epochs.
  std::vector<StatusOr<std::string>> MultiGet(
      const std::vector<std::string>& keys) const;

  /// All results with begin <= key < end (empty end = unbounded), merged
  /// across shards in key order, truncated to `limit`. Scatter-gather:
  /// shards scan in parallel on the group's pool, the gather merges.
  std::vector<KV> Range(const std::string& begin, const std::string& end,
                        size_t limit = SIZE_MAX) const;

  /// The k highest-scoring results across shards (score desc, key asc for
  /// determinism on ties). Each shard reduces to a local top-k in
  /// parallel; the gather merges k-sized candidate sets, never full
  /// stores.
  std::vector<KV> TopK(size_t k,
                       const std::function<double(const KV&)>& score) const;

 private:
  friend class ShardGroup;
  friend class ReplicaSet;  // builds snapshots over primary+replica pins

  const ShardRouter* router_ = nullptr;
  ThreadPool* pool_ = nullptr;  // borrowed from the group
  /// The partition map the pins were taken under. Routing MUST go through
  /// this copy, not the router's live map: a reshard cutover can publish a
  /// new generation while this snapshot is alive, and the pinned stores
  /// are partitioned by the generation that produced them.
  std::shared_ptr<const PartitionMap> map_;
  std::vector<Counter*> shard_reads_ = {};  // per-shard snapshot_reads
  std::vector<EpochPin> pins_;
  std::vector<uint64_t> epochs_;
};

struct ShardGroupOptions {
  /// Per-tenant read admission; nullptr = no quotas, everyone admitted.
  AdmissionController* admission = nullptr;

  /// Scatter-gather parallelism for Range/TopK (0 = min(num_shards, 8)).
  int scatter_threads = 0;
};

class ShardGroup {
 public:
  explicit ShardGroup(ShardRouter* router, ShardGroupOptions options = {});

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Pin the current committed epoch on every shard (charges one read
  /// from `tenant`'s quota). The returned snapshot keeps answering from
  /// exactly those epochs while commits/purges land underneath.
  StatusOr<ShardSnapshot> PinSnapshot(const std::string& tenant = "") const;

  /// Convenience latest-committed point read (routed, admission-charged):
  /// equivalent to pinning one shard for one get.
  StatusOr<std::string> Get(const std::string& tenant,
                            const std::string& key) const;

  /// Coordinate epochs across shards: run refreshes everywhere until no
  /// shard has pending deltas (blocking). After it returns OK, a fresh
  /// snapshot observes every delta appended before the call.
  Status RefreshAll();

  /// The current (unpinned) committed version vector.
  std::vector<uint64_t> CommittedEpochs() const {
    return router_->CommittedEpochs();
  }

  ShardRouter* router() const { return router_; }

 private:
  /// Per-shard snapshot_reads counters for one generation's map, built
  /// lazily: a reshard changes both the shard count and the metric prefix,
  /// and snapshots pinned before the cutover keep charging the old
  /// generation's counters.
  const std::vector<Counter*>& ReadsFor(const PartitionMap& map) const;

  ShardRouter* router_;
  ShardGroupOptions options_;
  mutable ThreadPool scatter_pool_;
  mutable std::mutex reads_mu_;
  mutable std::unordered_map<uint64_t, std::vector<Counter*>> reads_by_gen_;
  Counter* snapshots_pinned_;
  Counter* reads_rejected_;
};

}  // namespace i2mr

#endif  // I2MR_SERVING_SHARD_GROUP_H_
