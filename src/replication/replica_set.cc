#include "replication/replica_set.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/logging.h"
#include "io/env.h"

namespace i2mr {

ReplicaSet::ReplicaSet(ShardRouter* router, std::string replicas_root,
                       ReplicaSetOptions options)
    : router_(router),
      replicas_root_(std::move(replicas_root)),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : router->metrics()),
      scatter_pool_(options.scatter_threads > 0
                        ? options.scatter_threads
                        : std::min(router->num_shards(), 8)) {}

ReplicaSet::~ReplicaSet() {
  for (auto& st : shards_) {
    if (st->shipper != nullptr) st->shipper->Stop();
  }
}

std::string ReplicaSet::MetricsPrefix(int shard) const {
  return bound_map_.ShardMetricsPrefix(router_->name(), shard);
}

StatusOr<std::unique_ptr<ReplicaSet>> ReplicaSet::Open(
    ShardRouter* router, const std::string& replicas_root,
    ReplicaSetOptions options) {
  if (options.replicas_per_shard < 0) {
    return Status::InvalidArgument("replicas_per_shard must be >= 0");
  }
  std::unique_ptr<ReplicaSet> set(
      new ReplicaSet(router, replicas_root, options));
  set->bound_map_ = router->partition_map();
  I2MR_RETURN_IF_ERROR(set->BindShards());
  set->snapshots_pinned_ = set->metrics_->Get(
      "serving." + router->name() + ".replicaset.snapshots_pinned");
  set->failovers_ = set->metrics_->Get("serving." + router->name() +
                                       ".replicaset.failovers");
  return set;
}

Status ReplicaSet::BindShards() {
  const PartitionMap& map = bound_map_;
  for (int s = 0; s < map.num_shards; ++s) {
    auto st = std::make_unique<ShardState>();
    st->primary = router_->shard(s);
    st->slots.push_back(std::make_unique<Slot>());
    st->slots[0]->reads =
        metrics_->Get(MetricsPrefix(s) + ".primary.reads_served");
    for (int i = 0; i < options_.replicas_per_shard; ++i) {
      std::string root =
          JoinPath(JoinPath(replicas_root_, map.ShardDirName(s)),
                   "replica-" + std::to_string(i));
      if (options_.reset) I2MR_RETURN_IF_ERROR(RemoveAll(root));
      FollowerReplicaOptions fo;
      fo.durability = options_.durability;
      fo.num_partitions = router_->options().pipeline.spec.num_partitions;
      fo.metrics = metrics_;
      fo.metrics_prefix = MetricsPrefix(s) + ".replica" + std::to_string(i);
      auto f = std::make_unique<FollowerReplica>(root, router_->name(),
                                                 std::move(fo));
      I2MR_RETURN_IF_ERROR(f->Open());
      auto slot = std::make_unique<Slot>();
      slot->reads = f->reads_served();
      st->slots.push_back(std::move(slot));
      st->followers.push_back(std::move(f));
      st->enabled.push_back(true);
      st->shipper_idx.push_back(i);
    }
    StartShipper(*st, s);
    shards_.push_back(std::move(st));
  }
  return Status::OK();
}

Status ReplicaSet::CheckGenerationLocked() const {
  uint64_t live = router_->generation();
  if (live == bound_map_.generation) return Status::OK();
  return Status::FailedPrecondition(
      "replica set is bound to partition-map generation " +
      std::to_string(bound_map_.generation) + " but the router is at " +
      std::to_string(live) + "; call Rebind()");
}

uint64_t ReplicaSet::bound_generation() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return bound_map_.generation;
}

Status ReplicaSet::Rebind() {
  PartitionMap map = router_->partition_map();
  std::vector<std::unique_ptr<ShardState>> old;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (map.generation == bound_map_.generation) return Status::OK();
    for (const auto& st : shards_) {
      if (st->transitioning) {
        return Status::FailedPrecondition(
            "a failover is in flight; retry Rebind() after it settles");
      }
    }
    old = std::move(shards_);
    shards_.clear();
  }
  // Stops join threads — outside route_mu_. The old states are retired,
  // not destroyed: snapshot pins taken before the cutover hold unpin
  // callbacks into their FollowerReplica instances.
  for (auto& st : old) {
    if (st->shipper != nullptr) st->shipper->Stop();
    for (auto& f : st->followers) f->RetireMetrics();
  }
  // One critical section for the map swap AND the rebuild: a reader must
  // never observe the new map with an empty/partial shard list. Follower
  // Open() is disk recovery — rebind is a rare admin step, blocking reads
  // for its duration is fine.
  std::lock_guard<std::mutex> lock(route_mu_);
  for (auto& st : old) retired_.push_back(std::move(st));
  bound_map_ = map;
  return BindShards();
}

void ReplicaSet::StartShipper(ShardState& st, int shard) {
  std::vector<FollowerReplica*> targets;
  std::vector<size_t> indices;  // follower index per shipper target
  for (size_t i = 0; i < st.followers.size(); ++i) {
    st.shipper_idx[i] = -1;
    if (static_cast<int>(i) == st.promoted_replica) continue;
    st.shipper_idx[i] = static_cast<int>(targets.size());
    targets.push_back(st.followers[i].get());
    indices.push_back(i);
  }
  ReplicaShipperOptions so;
  so.poll_ms = options_.ship_poll_ms;
  so.max_replica_lag_epochs = options_.max_replica_lag_epochs;
  // Per-shard health: "replication.<name>.shard<i>" goes kDegraded while
  // this shard's ship passes fail (backoff in effect), kHealthy again on
  // the first full success.
  so.health_component =
      "replication." + router_->name() + ".shard" + std::to_string(shard);
  st.shipper =
      std::make_unique<ReplicaShipper>(st.primary, std::move(targets), so);
  for (size_t t = 0; t < indices.size(); ++t) {
    st.shipper->SetFollowerEnabled(t, st.enabled[indices[t]]);
  }
  st.shipper->Start();
}

uint64_t ReplicaSet::PrimaryEpoch(const ShardState& st) const {
  return st.primary->committed_epoch();
}

bool ReplicaSet::StaleLocked(const ShardState& st, int i) const {
  if (!st.enabled[i]) return true;
  const FollowerReplica* f = st.followers[i].get();
  if (!f->open() || !f->serving()) return true;
  uint64_t committed = PrimaryEpoch(st);
  uint64_t applied = f->applied_epoch();
  uint64_t lag = committed > applied ? committed - applied : 0;
  return lag > options_.max_replica_lag_epochs;
}

int ReplicaSet::SelectSlotLocked(ShardState& st) const {
  std::vector<int> eligible;
  if (!st.dead && options_.read_from_primary) eligible.push_back(0);
  for (size_t i = 0; i < st.followers.size(); ++i) {
    if (!StaleLocked(st, static_cast<int>(i))) {
      eligible.push_back(1 + static_cast<int>(i));
    }
  }
  if (!eligible.empty()) {
    return eligible[st.rr.fetch_add(1) % eligible.size()];
  }
  // Degraded fallbacks: a live primary even when excluded from rotation,
  // else the freshest follower that can still serve at all.
  if (!st.dead) return 0;
  int best = -1;
  uint64_t best_epoch = 0;
  for (size_t i = 0; i < st.followers.size(); ++i) {
    const FollowerReplica* f = st.followers[i].get();
    if (!st.enabled[i] || !f->open() || !f->serving()) continue;
    if (best < 0 || f->applied_epoch() > best_epoch) {
      best = static_cast<int>(i);
      best_epoch = f->applied_epoch();
    }
  }
  return best < 0 ? -1 : 1 + best;
}

void ReplicaSet::ChargeService(Slot* slot) const {
  if (options_.read_service_ms <= 0) return;
  // One request at a time per backend: queueing delay emerges from the
  // mutex, so adding replicas adds real parallel service capacity.
  std::lock_guard<std::mutex> lock(slot->service_mu);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(options_.read_service_ms));
}

StatusOr<ShardSnapshot> ReplicaSet::PinSnapshot() const {
  ShardSnapshot snap;
  snap.router_ = router_;
  snap.pool_ = &scatter_pool_;
  std::lock_guard<std::mutex> lock(route_mu_);
  I2MR_RETURN_IF_ERROR(CheckGenerationLocked());
  snap.map_ = std::make_shared<const PartitionMap>(bound_map_);
  for (int s = 0; s < num_shards(); ++s) {
    ShardState& st = *shards_[s];
    int idx = SelectSlotLocked(st);
    EpochPin pin;
    if (idx == 0) {
      pin = st.primary->PinServing();
    } else if (idx > 0) {
      pin = st.followers[idx - 1]->PinServing();
    }
    if (!pin.valid()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) + " has no serving backend");
    }
    snap.shard_reads_.push_back(st.slots[idx]->reads);
    snap.epochs_.push_back(pin.epoch());
    snap.pins_.push_back(std::move(pin));
  }
  snapshots_pinned_->Increment();
  return snap;
}

StatusOr<std::string> ReplicaSet::Get(const std::string& key) const {
  EpochPin pin;
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    I2MR_RETURN_IF_ERROR(CheckGenerationLocked());
    int s = bound_map_.ShardOf(key);
    ShardState& st = *shards_[s];
    int idx = SelectSlotLocked(st);
    if (idx == 0) {
      pin = st.primary->PinServing();
    } else if (idx > 0) {
      pin = st.followers[idx - 1]->PinServing();
    }
    if (!pin.valid()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) + " has no serving backend");
    }
    slot = st.slots[idx].get();
  }
  ChargeService(slot);
  slot->reads->Increment();
  return pin.Lookup(key);
}

Status ReplicaSet::CheckGeneration() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return CheckGenerationLocked();
}

// Writes go through the router: its append gate, dual journal (mid
// reshard) and down-shard check apply exactly as for direct callers.
StatusOr<uint64_t> ReplicaSet::Append(const DeltaKV& delta) {
  I2MR_RETURN_IF_ERROR(CheckGeneration());
  return router_->Append(delta);
}

Status ReplicaSet::AppendBatch(const std::vector<DeltaKV>& deltas) {
  I2MR_RETURN_IF_ERROR(CheckGeneration());
  return router_->AppendBatch(deltas);
}

Status ReplicaSet::DrainAll() {
  I2MR_RETURN_IF_ERROR(CheckGeneration());
  return router_->DrainAll();
}

Status ReplicaSet::SyncAll() {
  Status first_error = Status::OK();
  for (int s = 0; s < num_shards(); ++s) {
    ReplicaShipper* shipper = nullptr;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      ShardState& st = *shards_[s];
      if (st.dead) continue;
      shipper = st.shipper.get();
    }
    Status st = shipper->SyncNow();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Status ReplicaSet::KillReplica(int shard, int i) {
  FollowerReplica* f = nullptr;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    ShardState& st = *shards_[shard];
    st.enabled[i] = false;
    // Toggle while still holding route_mu_: Promote's StartShipper swaps
    // st.shipper, so a pointer captured here can dangle once the lock
    // drops. SetFollowerEnabled only flips a flag — no joins under lock.
    if (st.shipper != nullptr && st.shipper_idx[i] >= 0) {
      st.shipper->SetFollowerEnabled(st.shipper_idx[i], false);
    }
    f = st.followers[i].get();
  }
  f->Close();
  return Status::OK();
}

Status ReplicaSet::RestartReplica(int shard, int i) {
  FollowerReplica* f = nullptr;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    ShardState& st = *shards_[shard];
    if (static_cast<int>(i) == st.promoted_replica) {
      return Status::FailedPrecondition("replica was promoted to primary");
    }
    f = st.followers[i].get();
  }
  I2MR_RETURN_IF_ERROR(f->Open());  // disk recovery: not under route_mu_
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    ShardState& st = *shards_[shard];
    st.enabled[i] = true;
    // Re-read st.shipper under the lock: a concurrent Promote may have
    // replaced it (and the follower's index within it) since f->Open().
    if (st.shipper != nullptr && st.shipper_idx[i] >= 0) {
      st.shipper->SetFollowerEnabled(st.shipper_idx[i], true);
    }
  }
  return Status::OK();
}

Status ReplicaSet::KillPrimary(int shard) {
  ReplicaShipper* shipper = nullptr;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    ShardState& st = *shards_[shard];
    if (st.dead) return Status::OK();
    if (st.transitioning) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) + " failover is in progress");
    }
    st.transitioning = true;
    st.dead = true;
    shipper = st.shipper.get();
  }
  // Outside route_mu_: both calls wait out in-flight work (an epoch or
  // append in the router, a ship pass in the shipper). The shipper
  // pointer stays valid: Promote (the only code that replaces it) refuses
  // to start while `transitioning` is held.
  Status down = router_->MarkShardDown(shard);
  shipper->Stop();
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    shards_[shard]->transitioning = false;
  }
  return down;
}

bool ReplicaSet::primary_dead(int shard) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return shards_[shard]->dead;
}

Pipeline* ReplicaSet::primary(int shard) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return shards_[shard]->primary;
}

StatusOr<int> ReplicaSet::Promote(int shard) {
  ShardState& st = *shards_[shard];
  int best = -1;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (!st.dead) {
      return Status::FailedPrecondition("shard primary is alive");
    }
    if (st.transitioning) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) +
          " promotion is already in progress");
    }
    uint64_t best_epoch = 0;
    for (size_t i = 0; i < st.followers.size(); ++i) {
      const FollowerReplica* f = st.followers[i].get();
      if (!st.enabled[i] || !f->open() || !f->serving()) continue;
      if (best < 0 || f->applied_epoch() > best_epoch) {
        best = static_cast<int>(i);
        best_epoch = f->applied_epoch();
      }
    }
    if (best < 0) {
      return Status::FailedPrecondition(
          "no serving replica available to promote");
    }
    // Every other shard serves the fleet's committed epoch; a follower
    // behind it would roll this shard back and break the uniform vector.
    if (best_epoch != PrimaryEpoch(st)) {
      return Status::FailedPrecondition(
          "freshest replica of shard " + std::to_string(shard) +
          " applied epoch " + std::to_string(best_epoch) +
          " but the fleet committed epoch " +
          std::to_string(PrimaryEpoch(st)));
    }
    st.transitioning = true;
  }
  // Everything below runs unlocked (verification + recovery take seconds);
  // `transitioning` keeps a second Promote — or a racing KillPrimary —
  // from touching the same follower root or shipper until we finish. The
  // guard clears the flag on every exit path, success included: after the
  // cutover st.dead is false again, so a late second Promote fails the
  // liveness check instead.
  struct TransitionGuard {
    ReplicaSet* set;
    ShardState* st;
    ~TransitionGuard() {
      std::lock_guard<std::mutex> lock(set->route_mu_);
      st->transitioning = false;
    }
  } guard{this, &st};
  FollowerReplica* f = st.followers[best].get();

  // A/B promotion: drop any epoch the dead primary staged but never
  // committed, then re-verify the applied epoch end to end (manifest CRC,
  // record-file scans, serving-store parse) before trusting the root.
  I2MR_RETURN_IF_ERROR(f->DiscardStaged());
  I2MR_RETURN_IF_ERROR(f->VerifyCurrent());

  // The router opens the replacement slice over the follower's root. Its
  // CURRENT names the last epoch the fleet committed; recovery restores
  // the engine from that snapshot and replays shipped log segments past
  // its watermark. The follower keeps serving reads until the cutover
  // below.
  auto pipeline = router_->PromoteShard(shard, f->root());
  if (!pipeline.ok()) return pipeline.status();

  // Cutover: the promoted pipeline becomes the shard's primary, the
  // follower leaves the read rotation (its pins keep their stores), and a
  // fresh shipper feeds the surviving followers from the new primary.
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    st.primary = *pipeline;
    st.promoted_replica = best;
    st.enabled[best] = false;
    st.dead = false;
  }
  f->Close();
  f->RetireMetrics();
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    StartShipper(st, shard);
  }
  failovers_->Increment();
  return best;
}

uint64_t ReplicaSet::ReplicaLag(int shard, int i) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  const ShardState& st = *shards_[shard];
  uint64_t committed = PrimaryEpoch(st);
  uint64_t applied = st.followers[i]->applied_epoch();
  return committed > applied ? committed - applied : 0;
}

bool ReplicaSet::IsReplicaStale(int shard, int i) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return StaleLocked(*shards_[shard], i);
}

}  // namespace i2mr
