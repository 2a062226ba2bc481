#include "serving/shard_group.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <thread>

namespace i2mr {

// ---------------------------------------------------------------------------
// ShardSnapshot
// ---------------------------------------------------------------------------

StatusOr<std::string> ShardSnapshot::Get(const std::string& key) const {
  if (!valid()) return Status::FailedPrecondition("empty shard snapshot");
  // Route by the snapshot's own map: the router may have cut over to a
  // new generation since the pins were taken, and these stores are
  // partitioned by the map that produced them.
  int s = map_->ShardOf(key);
  shard_reads_[s]->Increment();
  return pins_[s].Lookup(key);
}

std::vector<StatusOr<std::string>> ShardSnapshot::MultiGet(
    const std::vector<std::string>& keys) const {
  std::vector<StatusOr<std::string>> out;
  out.reserve(keys.size());
  for (const auto& key : keys) out.push_back(Get(key));
  return out;
}

std::vector<KV> ShardSnapshot::Range(const std::string& begin,
                                     const std::string& end,
                                     size_t limit) const {
  if (!valid()) return {};
  const int n = static_cast<int>(pins_.size());
  // Scatter: each shard scans its pinned store in key order, stopping at
  // `limit` (a shard can never contribute more than the whole answer).
  std::vector<std::vector<KV>> parts(n);
  ParallelFor(pool_, n, [&](int s) {
    shard_reads_[s]->Increment();
    const ResultStore* store = pins_[s].store();
    if (store == nullptr) return;
    std::vector<KV>& part = parts[s];
    store->VisitRange(begin, end, [&](const KV& kv) {
      part.push_back(kv);
      return part.size() < limit;
    });
  });
  // Gather: one k-way heap merge over the sorted parts, stopping at
  // `limit` — O(answer * log shards), instead of re-merging the
  // accumulated result with every shard's part (O(shards * total) copies).
  struct Cursor {
    const std::vector<KV>* part;
    size_t i;
  };
  auto after = [](const Cursor& a, const Cursor& b) {
    return (*b.part)[b.i] < (*a.part)[a.i];  // min-heap
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(after);
  size_t total = 0;
  for (const auto& part : parts) {
    total += part.size();
    if (!part.empty()) heap.push(Cursor{&part, 0});
  }
  std::vector<KV> merged;
  merged.reserve(std::min(limit, total));
  while (!heap.empty() && merged.size() < limit) {
    Cursor cur = heap.top();
    heap.pop();
    merged.push_back((*cur.part)[cur.i]);
    if (++cur.i < cur.part->size()) heap.push(cur);
  }
  return merged;
}

std::vector<KV> ShardSnapshot::TopK(
    size_t k, const std::function<double(const KV&)>& score) const {
  if (!valid() || k == 0) return {};
  const int n = static_cast<int>(pins_.size());
  struct Scored {
    double score;
    KV kv;
  };
  auto better = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.kv.key < b.kv.key;
  };
  // Scatter: each shard reduces its pinned store to a local top-k, so the
  // gather merges n*k candidates instead of every record.
  std::vector<std::vector<Scored>> parts(n);
  ParallelFor(pool_, n, [&](int s) {
    shard_reads_[s]->Increment();
    const ResultStore* store = pins_[s].store();
    if (store == nullptr) return;
    std::vector<Scored>& part = parts[s];
    store->VisitRange("", "", [&](const KV& kv) {
      Scored cand{score(kv), kv};
      if (part.size() < k) {
        part.push_back(std::move(cand));
        std::push_heap(part.begin(), part.end(), better);  // min at front
      } else if (better(cand, part.front())) {
        std::pop_heap(part.begin(), part.end(), better);
        part.back() = std::move(cand);
        std::push_heap(part.begin(), part.end(), better);
      }
      return true;
    });
  });
  std::vector<Scored> all;
  for (auto& part : parts) {
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(), better);
  std::vector<KV> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(std::move(all[i].kv));
  return out;
}

// ---------------------------------------------------------------------------
// ShardGroup
// ---------------------------------------------------------------------------

ShardGroup::ShardGroup(ShardRouter* router, ShardGroupOptions options)
    : router_(router),
      options_(options),
      scatter_pool_(options.scatter_threads > 0
                        ? options.scatter_threads
                        : std::min(router->num_shards(), 8)) {
  MetricsRegistry* metrics = router_->metrics();
  const std::string base = "serving." + router_->name();
  snapshots_pinned_ = metrics->Get(base + ".snapshots_pinned");
  reads_rejected_ = metrics->Get(base + ".reads_rejected");
}

const std::vector<Counter*>& ShardGroup::ReadsFor(
    const PartitionMap& map) const {
  std::lock_guard<std::mutex> lock(reads_mu_);
  auto it = reads_by_gen_.find(map.generation);
  if (it != reads_by_gen_.end()) return it->second;
  MetricsRegistry* metrics = router_->metrics();
  std::vector<Counter*> reads;
  reads.reserve(map.num_shards);
  for (int s = 0; s < map.num_shards; ++s) {
    reads.push_back(metrics->Get(map.ShardMetricsPrefix(router_->name(), s) +
                                 ".snapshot_reads"));
  }
  return reads_by_gen_.emplace(map.generation, std::move(reads)).first->second;
}

StatusOr<ShardSnapshot> ShardGroup::PinSnapshot(
    const std::string& tenant) const {
  if (options_.admission != nullptr && !tenant.empty() &&
      !options_.admission->AdmitRead(tenant)) {
    reads_rejected_->Increment();
    return Status::ResourceExhausted("tenant " + tenant +
                                     " over read quota");
  }
  ShardSnapshot snap;
  snap.router_ = router_;
  snap.pool_ = &scatter_pool_;
  // Bracket the per-shard pins with the router's barrier-flip seqlock so
  // the vector is always one uniform cut — a barrier commit landing
  // mid-pin (it flips CURRENTs one shard at a time) just makes us retry.
  // The flip window is a few renames in the default durability mode but
  // per-shard fsyncs under kPowerFailure, so the wait backs off from
  // yields to short sleeps instead of burning a core. Pins always come
  // from one atomically-grabbed TopologyView, so even a reshard cutover
  // or a promotion landing mid-pin can only yield a vector of ONE
  // topology (retired slices stay pinnable); the seqlock — which both
  // also bracket — then retries onto the new one.
  int spins = 0;
  for (;;) {
    if (router_->poisoned()) {
      return Status::FailedPrecondition(
          "a barrier commit was left incomplete; reopen the router "
          "(reset=false) to recover");
    }
    uint64_t seq = router_->commit_seq();
    if ((seq & 1) != 0) {
      // A flip is in progress.
      if (++spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      continue;
    }
    ShardRouter::TopologyView view = router_->topology();
    snap.pins_.clear();
    snap.epochs_.clear();
    snap.pins_.reserve(view.pipelines.size());
    snap.epochs_.reserve(view.pipelines.size());
    for (size_t s = 0; s < view.pipelines.size(); ++s) {
      EpochPin pin = view.pipelines[s]->PinServing();
      if (!pin.valid()) {
        return Status::FailedPrecondition("shard " + std::to_string(s) +
                                          " not bootstrapped");
      }
      snap.epochs_.push_back(pin.epoch());
      snap.pins_.push_back(std::move(pin));
    }
    if (router_->commit_seq() == seq) {
      snap.map_ = view.map;
      snap.shard_reads_ = ReadsFor(*view.map);
      break;
    }
    // A barrier flip interleaved with our pins: drop them and re-pin.
  }
  snapshots_pinned_->Increment();
  return snap;
}

StatusOr<std::string> ShardGroup::Get(const std::string& tenant,
                                      const std::string& key) const {
  if (options_.admission != nullptr && !tenant.empty() &&
      !options_.admission->AdmitRead(tenant)) {
    reads_rejected_->Increment();
    return Status::ResourceExhausted("tenant " + tenant +
                                     " over read quota");
  }
  return router_->Lookup(key);
}

Status ShardGroup::RefreshAll() { return router_->DrainAll(); }

}  // namespace i2mr
