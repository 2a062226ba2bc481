#include "serving/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <thread>

#include "common/codec.h"
#include "common/hash.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "io/env.h"
#include "io/fault_env.h"

namespace i2mr {
namespace {

std::string PipelineDirOf(const std::string& root, const std::string& name,
                          const PartitionMap& map, int s) {
  return JoinPath(JoinPath(root, map.ShardDirName(s)), "pipeline/" + name);
}

/// One thread per shard — the coordinated rounds and the barrier phases
/// all fan out this way, like Bootstrap/DrainAll always have.
void ForEachShard(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int s = 0; s < n; ++s) {
    threads.emplace_back([&fn, s] {
      trace::TraceCollector::SetThreadName("shard-" + std::to_string(s));
      fn(s);
    });
  }
  for (auto& t : threads) t.join();
}

Status FirstError(const std::vector<Status>& status) {
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status ShardDown(int s) {
  return Status::Unavailable("shard " + std::to_string(s) +
                             " primary is down; promote a follower first");
}

Status Poisoned() {
  return Status::FailedPrecondition(
      "a barrier commit or reshard cutover was left incomplete; appends "
      "are refused until recovery");
}

}  // namespace

ShardRouter::ShardRouter(std::string name, std::string root,
                         ShardRouterOptions options)
    : name_(std::move(name)),
      root_(std::move(root)),
      options_(std::move(options)) {}

ShardRouter::~ShardRouter() { Stop(); }

std::string ShardRouter::BarrierPathFor(const std::string& root,
                                        const std::string& name,
                                        const PartitionMap& map) {
  if (map.generation == 0) return JoinPath(root, name + ".BARRIER");
  return JoinPath(root, name + ".g" + std::to_string(map.generation) +
                            ".BARRIER");
}

std::string ShardRouter::BarrierPath() const {
  return BarrierPathFor(root_, name_, partition_map());
}

std::string ShardRouter::ReshardMarkerPath(const std::string& root,
                                           const std::string& name) {
  return JoinPath(root, name + ".RESHARD");
}

Status ShardRouter::RecoverReshard(const std::string& root,
                                   const std::string& name, bool sync) {
  const std::string marker = ReshardMarkerPath(root, name);
  if (!FileExists(marker)) return Status::OK();
  // The marker is written only after the destination fleet durably
  // committed its state, so its presence means the new map was decided:
  // roll forward by publishing it, exactly like the barrier record's
  // roll-forward (PR 9).
  auto decided = PartitionMap::Load(marker);
  if (!decided.ok()) return decided.status();
  I2MR_RETURN_IF_ERROR(
      PartitionMap::Save(PartitionMap::RecordPath(root, name), *decided, sync));
  I2MR_RETURN_IF_ERROR(RemoveAll(marker));
  if (sync) I2MR_RETURN_IF_ERROR(SyncDir(root));
  LOG_INFO << "serving " << name << ": rolled interrupted reshard forward to "
           << "generation " << decided->generation << " (" << decided->num_shards
           << " shards)";
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    const std::string& root, const std::string& name,
    ShardRouterOptions options) {
  if (options.num_shards <= 0 && options.partition_map.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be > 0");
  }
  if (!options.cross_shard_exchange) {
    // Shards refreshing alone confine cross-shard contributions to their
    // own subgraph and serve wrong answers; that mode no longer exists.
    return Status::InvalidArgument(
        "cross_shard_exchange=false is not supported: sharded epochs always "
        "exchange and commit under the barrier");
  }
  if (options.pipeline.spec.projector != nullptr &&
      options.pipeline.spec.projector->dep_type() == DepType::kAllToOne) {
    // Global reduce state cannot partition by key; run such apps on one
    // Pipeline instead.
    return Status::InvalidArgument(
        "sharding requires a partition-by-key app, not all-to-one");
  }
  if (options.metrics == nullptr) options.metrics = MetricsRegistry::Default();
  if (options.health == nullptr) options.health = HealthRegistry::Default();
  // Shard pipelines report their own degraded read-only mode through the
  // same registry unless the caller wired a different one explicitly.
  if (options.pipeline.health == nullptr) {
    options.pipeline.health = options.health;
  }
  I2MR_RETURN_IF_ERROR(CreateDirs(root));
  const bool sync =
      options.pipeline.durability == DurabilityMode::kPowerFailure;

  // Resolve the authoritative partition map. Precedence: an explicit
  // internal map (a reshard's staging fleet) > the durable PARTMAP record
  // (reset=false: the on-disk shards were partitioned by it, whatever
  // shard count the options carry) > {generation 0, options.num_shards}.
  PartitionMap map{0, options.num_shards};
  const std::string map_path = PartitionMap::RecordPath(root, name);
  if (options.partition_map.num_shards > 0) {
    map = options.partition_map;
  } else if (options.persist_partition_map && !options.reset) {
    // An interrupted cutover first: a durable RESHARD marker decides for
    // the new map before we read the record.
    I2MR_RETURN_IF_ERROR(RecoverReshard(root, name, sync));
    if (FileExists(map_path)) {
      auto loaded = PartitionMap::Load(map_path);
      if (!loaded.ok()) return loaded.status();
      if (*loaded != map) {
        LOG_INFO << "serving " << name << ": PARTMAP record (generation "
                 << loaded->generation << ", " << loaded->num_shards
                 << " shards) overrides options.num_shards="
                 << options.num_shards;
      }
      map = *loaded;
    }
  }
  options.num_shards = map.num_shards;
  options.pipeline.generation = map.generation;
  if (options.persist_partition_map) {
    if (options.reset) {
      // Fresh deployment: retire this computation's reshard leftovers
      // (records are name-qualified; shard dirs are wiped per cluster).
      I2MR_RETURN_IF_ERROR(RemoveAll(ReshardMarkerPath(root, name)));
      I2MR_RETURN_IF_ERROR(RemoveAll(JoinPath(root, name + ".reshard-chunks")));
      map = PartitionMap{0, options.num_shards};
    }
    if (options.reset || !FileExists(map_path)) {
      I2MR_RETURN_IF_ERROR(PartitionMap::Save(map_path, map, sync));
    }
  }

  std::unique_ptr<ShardRouter> router(
      new ShardRouter(name, root, std::move(options)));
  router->health_ = router->options_.health;
  router->map_ = std::make_shared<const PartitionMap>(map);
  const ShardRouterOptions& opts = router->options_;
  if (opts.reset) {
    // Fresh deployment: a leftover barrier record belongs to wiped state.
    I2MR_RETURN_IF_ERROR(RemoveAll(BarrierPathFor(root, name, map)));
  } else {
    // A crash inside a barrier commit left the decision record behind:
    // roll every shard back to the previous epoch before the pipelines
    // open, so no reader (and no replay) ever observes a mixed vector.
    I2MR_RETURN_IF_ERROR(RecoverBarrier(root, name, opts, map));
  }
  for (int s = 0; s < map.num_shards; ++s) {
    // Each shard's cluster root is disjoint by construction; reset=false
    // re-attaches all of them for crash recovery (collision-free now that
    // LocalCluster job dirs are instance-namespaced).
    auto shard = router->OpenShard(map, s, JoinPath(root, map.ShardDirName(s)),
                                   opts.reset);
    if (!shard.ok()) return shard.status();
    router->shards_.push_back(std::move(shard.value()));
  }
  // Barrier commits are the only commits, so a recovered fleet sits at one
  // epoch. A disagreement means a shard's primary was promoted to another
  // root and this reopen re-attached the stale dir: refuse instead of
  // serving a mixed epoch vector.
  const Pipeline* first = router->shards_[0]->pipeline.get();
  for (int s = 1; s < map.num_shards; ++s) {
    const Pipeline* pipeline = router->shards_[s]->pipeline.get();
    if (pipeline->bootstrapped() != first->bootstrapped() ||
        pipeline->committed_epoch() != first->committed_epoch()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) + " recovered epoch " +
          std::to_string(pipeline->committed_epoch()) + " but shard 0 " +
          std::to_string(first->committed_epoch()) +
          "; was a shard promoted to another root?");
    }
  }
  router->deltas_routed_ =
      opts.metrics->Get("serving." + name + ".router.deltas_routed");
  router->lookups_routed_ =
      opts.metrics->Get("serving." + name + ".router.lookups_routed");
  router->exchange_ = std::make_unique<CrossShardExchange>(
      map.num_shards, [map](std::string_view key) { return map.ShardOf(key); },
      opts.cost, opts.metrics, "serving." + name + ".exchange");
  for (int s = 0; s < map.num_shards; ++s) {
    router->shard_epochs_committed_.push_back(opts.metrics->Get(
        map.ShardMetricsPrefix(name, s) + ".epochs_committed"));
    router->shard_deltas_applied_.push_back(opts.metrics->Get(
        map.ShardMetricsPrefix(name, s) + ".deltas_applied"));
  }
  return router;
}

StatusOr<std::unique_ptr<ShardRouter::Shard>> ShardRouter::OpenShard(
    const PartitionMap& map, int s, const std::string& cluster_root,
    bool reset) const {
  auto shard = std::make_unique<Shard>();
  shard->cluster = std::make_unique<LocalCluster>(
      cluster_root, options_.workers_per_shard, options_.cost, reset);
  PipelineOptions popts = options_.pipeline;
  // The engine-boundary hook: this shard owns exactly the keys the
  // partition map assigns to it, so map emissions to any other key are
  // captured for the exchange instead of reducing here as phantoms. The
  // map is captured by value: a shard slice belongs to exactly one
  // generation, and keeps its own-map semantics even while a reshard
  // builds the next generation alongside.
  popts.spec.owns_key = [map, s](std::string_view key) {
    return map.ShardOf(key) == s;
  };
  auto pipeline = Pipeline::Open(shard->cluster.get(), name_, std::move(popts));
  if (!pipeline.ok()) return pipeline.status();
  shard->pipeline = std::move(pipeline.value());
  return shard;
}

int ShardRouter::ShardOf(std::string_view key) const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return map_->ShardOf(key);
}

PartitionMap ShardRouter::partition_map() const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return *map_;
}

ShardRouter::TopologyView ShardRouter::topology() const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  TopologyView view;
  view.map = map_;
  view.pipelines.reserve(shards_.size());
  for (const auto& shard : shards_) {
    view.pipelines.push_back(shard->pipeline.get());
  }
  return view;
}

int ShardRouter::num_shards() const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return map_->num_shards;
}

Pipeline* ShardRouter::shard(int i) const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return shards_[i]->pipeline.get();
}

LocalCluster* ShardRouter::cluster(int i) const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return shards_[i]->cluster.get();
}

// ---------------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------------

Status ShardRouter::Bootstrap(const std::vector<KV>& structure,
                              const std::vector<KV>& initial_state) {
  std::lock_guard<std::mutex> lock(coord_mu_);
  TopologyView view = topology();
  const int n = view.map->num_shards;
  std::vector<std::vector<KV>> structure_parts(n), state_parts(n);
  for (const auto& kv : structure) {
    structure_parts[view.map->ShardOf(kv.key)].push_back(kv);
  }
  for (const auto& kv : initial_state) {
    state_parts[view.map->ShardOf(kv.key)].push_back(kv);
  }
  // Phase 1: every shard's full computation over its own subgraph — no
  // commit yet. Emissions to non-owned keys are captured, not reduced.
  std::vector<Status> status(n);
  ForEachShard(n, [&](int s) {
    status[s] = view.pipelines[s]->BootstrapPrepare(structure_parts[s],
                                                    state_parts[s]);
  });
  I2MR_RETURN_IF_ERROR(FirstError(status));

  // Collect each shard's complete boundary set (captured by the MRBGraph
  // preservation pass) and iterate exchange rounds to the joint fixpoint.
  std::vector<std::vector<DeltaEdge>> offers(n);
  std::vector<Status> round_status(n);
  ForEachShard(n, [&](int s) {
    auto rr = view.pipelines[s]->RefreshRound(/*first=*/false, {});
    if (!rr.ok()) {
      round_status[s] = rr.status();
      return;
    }
    offers[s] = std::move(rr->exports);
  });
  Status st = FirstError(round_status);
  if (st.ok()) {
    auto rounds = RunExchangeRounds(exchange_.get(), std::move(offers),
                                    nullptr);
    st = rounds.ok() ? Status::OK() : rounds.status();
  }
  if (!st.ok()) {
    MarkAllDirty();
    return st;
  }
  // Epoch 0 lands on every shard atomically.
  return CommitBarrier(/*epoch=*/0);
}

bool ShardRouter::bootstrapped() const {
  TopologyView view = topology();
  for (Pipeline* pipeline : view.pipelines) {
    if (!pipeline->bootstrapped()) return false;
  }
  return !view.pipelines.empty();
}

// ---------------------------------------------------------------------------
// Routed ingestion + lookups
// ---------------------------------------------------------------------------

StatusOr<uint64_t> ShardRouter::Append(const DeltaKV& delta) {
  // A durable decision (a barrier record or a reshard marker) already
  // supersedes the live topology: an ack against this generation's log
  // could be discarded by the recovery that resolves the poison. Refuse
  // like Lookup does — an acked append must survive recovery.
  if (poisoned_.load()) return Poisoned();
  // The gate is shared for normal traffic; a reshard holds it exclusive
  // only for the watermark fence and the final cutover, so appends pause
  // for microseconds-to-one-epoch, never for the whole move.
  std::shared_lock<std::shared_mutex> gate(append_gate_);
  // Held across the log append, so MarkShardDown and PromoteShard wait it
  // out: no append lands on a slice after it went down or was replaced.
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  const int s = map_->ShardOf(delta.key);
  if (shards_[s]->down) return ShardDown(s);
  auto seq = shards_[s]->pipeline->Append(delta);
  // Successes only: a failed log append was not routed into any shard.
  if (seq.ok()) {
    deltas_routed_->Increment();
    // Mid-reshard: dual-journal the delta to the destination fleet (the
    // sink routes by the next generation's map). The mirror runs
    // synchronously before the ack, so appends the caller serializes
    // reach the staging logs in that order; only appends racing on the
    // SAME key can land in the donor log and the staging log in opposite
    // orders (no order was promised to the racing callers to begin with).
    if (journal_) journal_(delta);
  }
  return seq;
}

Status ShardRouter::AppendBatch(const std::vector<DeltaKV>& deltas) {
  if (poisoned_.load()) return Poisoned();
  std::shared_lock<std::shared_mutex> gate(append_gate_);
  std::shared_lock<std::shared_mutex> topo(topo_mu_);  // as in Append
  const int n = map_->num_shards;
  std::vector<std::vector<DeltaKV>> parts(n);
  for (const auto& d : deltas) parts[map_->ShardOf(d.key)].push_back(d);
  std::vector<int> targets;
  for (int s = 0; s < n; ++s) {
    if (parts[s].empty()) continue;
    if (shards_[s]->down) return ShardDown(s);  // refused whole
    targets.push_back(s);
  }
  auto journal_part = [this](const std::vector<DeltaKV>& part) {
    if (!journal_) return;
    for (const auto& d : part) journal_(d);
  };
  if (targets.size() == 1) {
    auto seq = shards_[targets[0]]->pipeline->AppendBatch(parts[targets[0]]);
    if (!seq.ok()) return seq.status();
    deltas_routed_->Add(static_cast<int64_t>(parts[targets[0]].size()));
    journal_part(parts[targets[0]]);
    return Status::OK();
  }
  // Shard logs are independent: overlap the per-shard appends so a synced
  // (kPowerFailure) batch pays max(shard fsync), not sum over shards.
  std::vector<Status> status(targets.size());
  std::vector<std::thread> threads;
  threads.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    Pipeline* pipeline = shards_[targets[i]]->pipeline.get();
    threads.emplace_back([pipeline, i, &targets, &parts, &status] {
      auto seq = pipeline->AppendBatch(parts[targets[i]]);
      status[i] = seq.ok() ? Status::OK() : seq.status();
    });
  }
  for (auto& t : threads) t.join();
  // Count only the sub-batches whose append succeeded (a failed shard's
  // records never reached its log).
  int64_t routed = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (status[i].ok()) {
      routed += static_cast<int64_t>(parts[targets[i]].size());
      journal_part(parts[targets[i]]);
    }
  }
  if (routed > 0) deltas_routed_->Add(routed);
  return FirstError(status);
}

StatusOr<std::string> ShardRouter::Lookup(const std::string& key) const {
  if (poisoned_.load()) {
    // A barrier commit died between the decision record and the last
    // CURRENT flip: some shards serve epoch N, others N-1, and recovery
    // will roll N back — answers from it would be retroactively
    // un-committed. Refuse, like PinSnapshot does.
    return Status::FailedPrecondition(
        "a barrier commit was left incomplete; reopen the router "
        "(reset=false) to recover");
  }
  TopologyView view = topology();
  auto result = view.pipelines[view.map->ShardOf(key)]->Lookup(key);
  // An answered lookup — including a definitive NotFound — was served; a
  // shard that failed to answer (e.g. not bootstrapped) was not.
  if (result.ok() || result.status().IsNotFound()) {
    lookups_routed_->Increment();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Epoch scheduling
// ---------------------------------------------------------------------------

void ShardRouter::Start() {
  bool expected = false;
  if (!coordinating_.compare_exchange_strong(expected, true)) return;
  // One coordinator instead of per-shard schedulers: epochs must advance
  // in lockstep or the exchange would fold contributions into the wrong
  // epoch. Polls like the managers do; consults the tenant's epoch quota
  // once per coordinated epoch.
  coordinator_ = std::thread([this] {
    const auto poll = std::chrono::microseconds(
        static_cast<int64_t>(options_.poll_interval_ms * 1000));
    // Failure backoff: consecutive failed coordinated epochs (a sick disk
    // fails every tick) back off exponentially instead of hammering the
    // same fault at poll rate. Sliced sleeps keep Stop() responsive.
    int failures = 0;
    auto backoff_sleep = [this](int64_t ms) {
      const int64_t deadline = NowNanos() + ms * 1000000;
      while (coordinating_.load() && NowNanos() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    };
    while (coordinating_.load()) {
      bool ready = false;
      for (Pipeline* pipeline : topology().pipelines) {
        if (pipeline->EpochReady()) {
          ready = true;
          break;
        }
      }
      // A pending roll-forward counts as ready even with the router
      // poisoned: RefreshCoordinated resumes the interrupted barrier
      // before (or instead of) taking new work.
      const bool resumable = pending_flip_epoch_.load() != 0;
      if ((ready && !poisoned_.load()) || resumable) {
        // A down shard refuses every epoch until a promotion: skip the
        // tick rather than charge the tenant's quota for it.
        bool down;
        {
          std::shared_lock<std::shared_mutex> topo(topo_mu_);
          down = !CheckNoShardDownLocked().ok();
        }
        if (down) {
          std::this_thread::sleep_for(poll);
          continue;
        }
        bool admitted = resumable || options_.admission == nullptr ||
                        options_.tenant.empty() ||
                        options_.admission->AdmitEpoch(options_.tenant);
        if (admitted) {
          auto st = RefreshCoordinated();
          if (!st.ok()) {
            ++failures;
            int64_t backoff_ms = std::min<int64_t>(
                5000, 100LL << std::min(failures - 1, 20));
            LOG_WARN << "serving " << name_ << ": coordinated epoch failed ("
                     << st.status().ToString() << "); backing off "
                     << backoff_ms << "ms";
            health_->Report("serving." + name_, HealthState::kDegraded,
                            st.status().ToString());
            backoff_sleep(backoff_ms);
          } else {
            if (failures > 0) {
              health_->Report("serving." + name_, HealthState::kHealthy);
            }
            failures = 0;
          }
        }
      }
      std::this_thread::sleep_for(poll);
    }
  });
}

void ShardRouter::Stop() {
  if (coordinating_.exchange(false)) {
    if (coordinator_.joinable()) coordinator_.join();
  }
}

Status ShardRouter::DrainAll() {
  while (true) {
    auto st = RefreshCoordinated();
    if (!st.ok()) return st.status();
    if (TotalPending() == 0) return Status::OK();
  }
}

uint64_t ShardRouter::TotalPending() const {
  uint64_t total = 0;
  for (Pipeline* pipeline : topology().pipelines) total += pipeline->pending();
  return total;
}

std::vector<uint64_t> ShardRouter::CommittedEpochs() const {
  TopologyView view = topology();
  std::vector<uint64_t> epochs;
  epochs.reserve(view.pipelines.size());
  for (Pipeline* pipeline : view.pipelines) {
    epochs.push_back(pipeline->committed_epoch());
  }
  return epochs;
}

// ---------------------------------------------------------------------------
// Coordinated epochs: exchange rounds + barrier commit
// ---------------------------------------------------------------------------

void ShardRouter::MarkAllDirty() {
  for (Pipeline* pipeline : topology().pipelines) pipeline->AbortCoordinated();
}

StatusOr<int> ShardRouter::RunExchangeRounds(
    CrossShardExchange* exchange, std::vector<std::vector<DeltaEdge>> offers,
    uint64_t* edges_exchanged) {
  TopologyView view = topology();
  const int n = view.map->num_shards;
  const double eps = options_.pipeline.spec.convergence_epsilon;
  int rounds = 0;
  bool absorb_and_stop = false;
  while (true) {
    bool any_offer = false;
    for (int s = 0; s < n; ++s) {
      if (offers[s].empty()) continue;
      any_offer = true;
      I2MR_RETURN_IF_ERROR(exchange->Offer(s, std::move(offers[s])));
      offers[s].clear();
    }
    // No shard exported anything new: exact joint fixpoint (SSSP/ConComp
    // land here; their converged exports stop changing bit for bit).
    if (!any_offer) break;
    TRACE_SPAN("exchange.round", "round=%d", rounds);
    auto inbound = exchange->Route();
    if (edges_exchanged != nullptr) {
      for (const auto& batch : inbound) *edges_exchanged += batch.size();
    }
    if (absorb_and_stop || rounds >= options_.max_exchange_rounds) {
      // The previous round's refreshes moved state by at most the
      // convergence epsilon (or we hit the safety cap — same contract as
      // the engine silently stopping at max_iterations), so these final
      // exports carry only sub-epsilon changes. Absorb them: fold AND
      // re-reduce on the owners, so the state that commits already
      // includes every routed contribution — no re-reduce obligation
      // survives the epoch (it would live only in memory and be lost to
      // a restart, or never absorbed on an idle fleet). The absorb
      // round's own re-exports are dropped; receivers pick those values
      // up when the emitting instances next re-execute, keeping the
      // deviation inside the same epsilon bound.
      if (rounds >= options_.max_exchange_rounds) {
        LOG_WARN << "serving " << name_ << ": exchange hit the "
                 << options_.max_exchange_rounds
                 << "-round cap before the joint fixpoint; committing the "
                 << "state reached (raise max_exchange_rounds or epsilon)";
      }
      std::vector<Status> status(n);
      ForEachShard(n, [&](int s) {
        if (inbound[s].empty()) return;
        auto rr = view.pipelines[s]->RefreshRound(/*first=*/false,
                                                  inbound[s]);
        status[s] = rr.ok() ? Status::OK() : rr.status();
      });
      I2MR_RETURN_IF_ERROR(FirstError(status));
      break;
    }
    ++rounds;
    // Barrier round: every shard with inbound contributions folds and
    // refreshes; a fold that changes nothing skips the refresh and
    // exports nothing, which is what drains the loop.
    std::vector<Status> status(n);
    std::vector<Pipeline::RoundResult> results(n);
    ForEachShard(n, [&](int s) {
      if (inbound[s].empty()) return;
      auto rr = view.pipelines[s]->RefreshRound(/*first=*/false,
                                                inbound[s]);
      if (!rr.ok()) {
        status[s] = rr.status();
        return;
      }
      results[s] = std::move(*rr);
    });
    I2MR_RETURN_IF_ERROR(FirstError(status));
    // The convergence gate rides on the RECEIVERS' state movement after
    // the fold (an exporter whose own state never changed says nothing
    // about the impact of its exports): once a whole round of re-reduces
    // stays within epsilon, the remaining exports are sub-epsilon.
    bool any_refreshed = false;
    double round_diff = 0;
    for (int s = 0; s < n; ++s) {
      any_refreshed = any_refreshed || results[s].refreshed;
      round_diff += results[s].total_diff;
      offers[s] = std::move(results[s].exports);
    }
    if (any_refreshed && round_diff <= eps) absorb_and_stop = true;
  }
  return rounds;
}

StatusOr<ShardRouter::CoordinatedEpochStats> ShardRouter::RefreshCoordinated() {
  std::lock_guard<std::mutex> lock(coord_mu_);
  return RefreshCoordinatedLocked();
}

StatusOr<ShardRouter::CoordinatedEpochStats>
ShardRouter::RefreshCoordinatedLocked() {
  CoordinatedEpochStats stats;
  WallTimer wall;
  TRACE_SPAN("serving.coordinated_epoch", "router=%s shards=%d", name_.c_str(),
             num_shards());
  // A down shard can neither refresh nor commit: no epoch until promotion.
  I2MR_RETURN_IF_ERROR(CheckNoShardDownLocked());
  if (poisoned_.load()) {
    if (pending_flip_epoch_.load() != 0) {
      // The interrupted barrier was *decided* (record durable, staged
      // slots intact): roll it forward before taking new work. Failure
      // keeps the router poisoned and the next tick retries.
      Status resumed = ResumeBarrierLocked();
      if (!resumed.ok()) {
        return Status::Unavailable(
            "interrupted barrier commit not yet rolled forward: " +
            resumed.ToString());
      }
    } else {
      return Status::FailedPrecondition(
          "a barrier commit was left incomplete; reopen the router "
          "(reset=false) to recover");
    }
  }
  if (!bootstrapped()) {
    return Status::FailedPrecondition("router not bootstrapped");
  }
  if (TotalPending() == 0) {
    stats.wall_ms = wall.ElapsedMillis();
    return stats;  // nothing to commit anywhere
  }

  // The topology is stable for the whole locked body: a reshard cutover
  // and a promotion swap it only while holding coord_mu_.
  TopologyView view = topology();
  const int n = view.map->num_shards;
  // Round 0: every shard drains its log and refreshes its own subgraph,
  // capturing boundary exports.
  std::vector<Status> status(n);
  std::vector<Pipeline::RoundResult> results(n);
  ForEachShard(n, [&](int s) {
    auto rr = view.pipelines[s]->RefreshRound(/*first=*/true, {});
    if (!rr.ok()) {
      status[s] = rr.status();
      return;
    }
    results[s] = std::move(*rr);
  });
  Status st = FirstError(status);
  if (!st.ok()) {
    MarkAllDirty();
    return st;
  }
  std::vector<std::vector<DeltaEdge>> offers(n);
  std::vector<uint64_t> drained(n, 0);
  for (int s = 0; s < n; ++s) {
    offers[s] = std::move(results[s].exports);
    drained[s] = results[s].deltas_drained;
    stats.deltas_applied += results[s].deltas_drained;
  }

  auto rounds = RunExchangeRounds(exchange_.get(), std::move(offers),
                                  &stats.edges_exchanged);
  if (!rounds.ok()) {
    MarkAllDirty();
    return rounds.status();
  }
  stats.rounds = *rounds;

  // Everyone commits the same epoch N (vectors stay uniform: the barrier
  // is the only committer).
  uint64_t epoch = 0;
  for (uint64_t e : CommittedEpochs()) epoch = std::max(epoch, e);
  ++epoch;
  I2MR_RETURN_IF_ERROR(CommitBarrier(epoch));
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    for (int s = 0; s < n; ++s) {
      shard_epochs_committed_[s]->Increment();
      if (drained[s] > 0) {
        shard_deltas_applied_[s]->Add(static_cast<int64_t>(drained[s]));
      }
    }
  }
  stats.committed = true;
  stats.epoch = epoch;
  stats.wall_ms = wall.ElapsedMillis();
  return stats;
}

Status ShardRouter::CommitBarrier(uint64_t epoch) {
  TopologyView view = topology();
  const int n = view.map->num_shards;
  // Simulated coordinator death: a kind=crash fault rule matching
  // "barrier/<stage>" abandons the commit with the on-disk state exactly
  // as a crash would leave it.
  auto crashed = [](const std::string& stage) {
    return fault::FaultInjector::Armed() &&
           fault::FaultInjector::Instance()->AtCrashPoint("barrier/" + stage);
  };
  auto fail = [this](Status st) {
    MarkAllDirty();
    return st;
  };

  // Phase 1 (prepare): stage every shard's epoch dir. Nothing is visible
  // yet — a crash in here leaves orphan dirs the pipelines GC on reopen,
  // and every CURRENT still names N-1.
  trace::ScopedSpan stage_span("barrier.stage", "epoch=%llu",
                               static_cast<unsigned long long>(epoch));
  std::vector<Status> status(n);
  ForEachShard(n, [&](int s) {
    status[s] = view.pipelines[s]->StageEpoch(epoch, nullptr);
  });
  stage_span.End();
  Status staged = FirstError(status);
  if (!staged.ok()) return fail(staged);
  if (crashed("staged")) {
    return fail(Status::Aborted("simulated coordinator crash after staging"));
  }

  // Decision record: once BARRIER is durable the epoch is decided; a crash
  // from here on is rolled back to N-1 everywhere by RecoverBarrier (the
  // log is not purged until after the barrier, so the deltas replay).
  const bool sync = options_.pipeline.durability == DurabilityMode::kPowerFailure;
  trace::ScopedSpan record_span("barrier.record", "epoch=%llu",
                                static_cast<unsigned long long>(epoch));
  std::string payload;
  PutFixed64(&payload, epoch);
  std::string record = payload;
  PutFixed32(&record, Crc32(payload));
  const std::string barrier_path = BarrierPathFor(root_, name_, *view.map);
  std::string tmp = barrier_path + ".tmp";
  Status wrote = WriteStringToFile(tmp, record, sync);
  if (wrote.ok()) wrote = RenameFile(tmp, barrier_path);
  if (wrote.ok() && sync) wrote = SyncDir(root_);
  record_span.End();
  if (!wrote.ok()) return fail(wrote);
  if (crashed("barrier")) {
    return fail(
        Status::Aborted("simulated coordinator crash after barrier record"));
  }

  // Phase 2 (flip): swing every shard's CURRENT. Sequential on purpose —
  // a failure mid-flip must stop immediately and leave the barrier record
  // in place for recovery; no GC or log purge happens until all flipped.
  // The seqlock goes odd around the flips so a concurrent PinSnapshot
  // retries instead of observing a mixed vector mid-publication; on a
  // mid-flip failure the router stays poisoned and pins are refused.
  trace::ScopedSpan flip_span("barrier.flip", "epoch=%llu",
                              static_cast<unsigned long long>(epoch));
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  auto fail_mid_flip = [&](Status st) {
    poisoned_.store(true);
    commit_seq_.fetch_add(1, std::memory_order_acq_rel);  // release readers
    return fail(st);
  };
  // A *real* I/O failure past the decision record is recoverable without
  // a reopen: the epoch is decided (BARRIER durable) and every unflipped
  // shard's staged slot is still valid, so the commit can roll *forward*
  // once the disk heals. Keep the slots (no MarkAllDirty), poison reads,
  // and arm the resume path. Bootstrap (epoch 0) stays non-resumable —
  // its rollback lands on "nothing committed", which reopen handles.
  auto fail_resumable = [&](Status st) {
    if (epoch == 0) return fail_mid_flip(std::move(st));
    poisoned_.store(true);
    pending_flip_epoch_.store(epoch);
    commit_seq_.fetch_add(1, std::memory_order_acq_rel);  // release readers
    LOG_WARN << "serving " << name_ << ": barrier commit of epoch " << epoch
             << " interrupted by I/O failure (" << st.ToString()
             << "); will roll forward on the next coordinated tick";
    health_->Report("serving." + name_, HealthState::kDegraded,
                    "barrier commit of epoch " + std::to_string(epoch) +
                        " awaiting roll-forward: " + st.ToString());
    return st;
  };
  for (int s = 0; s < n; ++s) {
    Status flipped = view.pipelines[s]->FinalizeStagedEpoch();
    if (!flipped.ok()) return fail_resumable(std::move(flipped));
    if (s == 0 && crashed("mid_flip")) {
      return fail_mid_flip(
          Status::Aborted("simulated coordinator crash mid-flip"));
    }
  }
  if (crashed("flipped")) {
    return fail_mid_flip(
        Status::Aborted("simulated coordinator crash before barrier removal"));
  }
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  flip_span.End();

  // Barrier complete: retire the decision record, then housekeeping (GC of
  // superseded epoch dirs + log purges) — deferred until now because a
  // rollback needs the N-1 dirs and the unpurged logs.
  TRACE_SPAN("barrier.cleanup", "epoch=%llu",
             static_cast<unsigned long long>(epoch));
  Status cleared = RemoveAll(barrier_path);
  if (cleared.ok() && sync) cleared = SyncDir(root_);
  if (!cleared.ok()) {
    // The commit stands (every CURRENT names N) but the stale barrier
    // record would trigger a needless rollback on reopen. Resumable like
    // a mid-flip failure: the next coordinated tick finds every shard
    // already on N and just retries the removal.
    if (epoch > 0) {
      poisoned_.store(true);
      pending_flip_epoch_.store(epoch);
      LOG_WARN << "serving " << name_ << ": barrier record of epoch " << epoch
               << " not retired (" << cleared.ToString()
               << "); will retry on the next coordinated tick";
      health_->Report("serving." + name_, HealthState::kDegraded,
                      "barrier record removal pending: " + cleared.ToString());
      return cleared;
    }
    poisoned_.store(true);
    return fail(cleared);
  }
  ForEachShard(n, [&](int s) {
    Status cleaned = view.pipelines[s]->CleanupCommitted();
    if (!cleaned.ok()) {
      LOG_WARN << "serving " << name_ << ": shard " << s
               << " post-barrier cleanup failed (" << cleaned.ToString()
               << ")";
    }
  });
  return Status::OK();
}

Status ShardRouter::ResumeBarrierLocked() {
  const uint64_t epoch = pending_flip_epoch_.load();
  TopologyView view = topology();
  const int n = view.map->num_shards;
  const bool sync =
      options_.pipeline.durability == DurabilityMode::kPowerFailure;
  TRACE_SPAN("barrier.resume", "epoch=%llu",
             static_cast<unsigned long long>(epoch));
  // Finish the flips sequentially, exactly like the interrupted phase 2.
  // FinalizeStagedEpoch is idempotent up to the CURRENT rename, and a
  // shard that already flipped reports committed_epoch() == epoch. The
  // seqlock goes odd around the flips for symmetry (pins are refused
  // while poisoned anyway).
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  Status st;
  for (int s = 0; s < n && st.ok(); ++s) {
    if (view.pipelines[s]->committed_epoch() >= epoch) continue;
    st = view.pipelines[s]->FinalizeStagedEpoch();
  }
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  if (!st.ok()) return st;  // still poisoned; retried next tick

  Status cleared = RemoveAll(BarrierPathFor(root_, name_, *view.map));
  if (cleared.ok() && sync) cleared = SyncDir(root_);
  if (!cleared.ok()) return cleared;  // commit stands; retried next tick

  pending_flip_epoch_.store(0);
  poisoned_.store(false);
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    for (int s = 0; s < n; ++s) shard_epochs_committed_[s]->Increment();
  }
  ForEachShard(n, [&](int s) {
    Status cleaned = view.pipelines[s]->CleanupCommitted();
    if (!cleaned.ok()) {
      LOG_WARN << "serving " << name_ << ": shard " << s
               << " post-barrier cleanup failed (" << cleaned.ToString()
               << ")";
    }
  });
  LOG_INFO << "serving " << name_ << ": rolled interrupted barrier commit of "
           << "epoch " << epoch << " forward";
  health_->Report("serving." + name_, HealthState::kHealthy);
  return Status::OK();
}

Status ShardRouter::RecoverBarrier(const std::string& root,
                                   const std::string& name,
                                   const ShardRouterOptions& options,
                                   const PartitionMap& map) {
  const std::string barrier = BarrierPathFor(root, name, map);
  if (!FileExists(barrier)) return Status::OK();
  auto data = ReadFileToString(barrier);
  if (!data.ok()) return data.status();
  if (data->size() != 12) return Status::Corruption("bad BARRIER record size");
  std::string_view payload(data->data(), 8);
  if (DecodeFixed32(data->data() + 8) != Crc32(payload)) {
    return Status::Corruption("BARRIER record crc mismatch");
  }
  const uint64_t epoch = DecodeFixed64(data->data());
  const std::string epoch_name = Pipeline::EpochDirName(epoch);
  const bool sync =
      options.pipeline.durability == DurabilityMode::kPowerFailure;

  for (int s = 0; s < map.num_shards; ++s) {
    std::string pdir = PipelineDirOf(root, name, map, s);
    std::string current_path = JoinPath(pdir, "CURRENT");
    if (FileExists(current_path)) {
      auto current = ReadFileToString(current_path);
      if (!current.ok()) return current.status();
      if (*current == epoch_name) {
        // This shard already flipped: rewind to its previous epoch (GC and
        // log purges are barred until after the barrier, so the previous
        // dir is still there and the drained deltas still replay).
        if (epoch == 0) {
          // A bootstrap barrier rolls back to "nothing committed".
          I2MR_RETURN_IF_ERROR(RemoveAll(current_path));
        } else {
          uint64_t prev = 0;
          bool found = false;
          std::error_code ec;
          std::filesystem::directory_iterator it(pdir, ec), end;
          if (ec) {
            return Status::IOError("list " + pdir + ": " + ec.message());
          }
          for (; it != end; it.increment(ec)) {
            if (ec) {
              return Status::IOError("list " + pdir + ": " + ec.message());
            }
            std::string base = it->path().filename().string();
            if (base.rfind("epoch-", 0) != 0 || base == epoch_name) continue;
            if (base.size() > 4 &&
                base.compare(base.size() - 4, 4, ".tmp") == 0) {
              continue;
            }
            uint64_t e = std::strtoull(base.c_str() + 6, nullptr, 10);
            if (e < epoch && (!found || e > prev)) {
              prev = e;
              found = true;
            }
          }
          if (!found) {
            return Status::Corruption(
                "shard " + std::to_string(s) + " flipped to " + epoch_name +
                " but has no previous epoch to roll back to");
          }
          std::string tmp = current_path + ".tmp";
          I2MR_RETURN_IF_ERROR(
              WriteStringToFile(tmp, Pipeline::EpochDirName(prev), sync));
          I2MR_RETURN_IF_ERROR(RenameFile(tmp, current_path));
          if (sync) I2MR_RETURN_IF_ERROR(SyncDir(pdir));
        }
      }
    }
    // Staged (or flipped-then-rewound) epoch dir: gone either way.
    std::string staged_dir = JoinPath(pdir, epoch_name);
    if (FileExists(staged_dir)) I2MR_RETURN_IF_ERROR(RemoveAll(staged_dir));
  }
  I2MR_RETURN_IF_ERROR(RemoveAll(barrier));
  if (sync) I2MR_RETURN_IF_ERROR(SyncDir(root));
  return Status::OK();
}

Status ShardRouter::CheckNoShardDownLocked() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->down) return ShardDown(static_cast<int>(s));
  }
  return Status::OK();
}

Status ShardRouter::MarkShardDown(int s) {
  {
    // coord_mu_ waits out an epoch in flight; the exclusive topology lock
    // waits out appends in flight (they hold it shared across the log
    // append), so nothing lands on the slice once this returns.
    std::lock_guard<std::mutex> coord(coord_mu_);
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    if (s < 0 || s >= static_cast<int>(shards_.size())) {
      return Status::InvalidArgument("no shard " + std::to_string(s));
    }
    shards_[s]->down = true;
  }
  health_->Report("serving." + name_, HealthState::kDegraded,
                  ShardDown(s).ToString());
  return Status::OK();
}

StatusOr<Pipeline*> ShardRouter::PromoteShard(int s,
                                              const std::string& cluster_root) {
  // The topology only changes under coord_mu_, so it is read here without
  // topo_mu_; the swap below still takes it exclusive for the readers.
  std::lock_guard<std::mutex> coord(coord_mu_);
  if (s < 0 || s >= static_cast<int>(shards_.size())) {
    return Status::InvalidArgument("no shard " + std::to_string(s));
  }
  if (!shards_[s]->down) {
    return Status::FailedPrecondition("shard " + std::to_string(s) +
                                      " primary is not down");
  }
  if (poisoned_.load()) {
    return Status::FailedPrecondition(
        "an interrupted barrier commit or reshard must be recovered before "
        "promotion");
  }
  // Barrier commits are the only commits, so the dead slice's epoch is
  // the fleet's.
  const uint64_t epoch = shards_[s]->pipeline->committed_epoch();
  auto shard = OpenShard(*map_, s, cluster_root, /*reset=*/false);
  if (!shard.ok()) return shard.status();
  Pipeline* pipeline = shard.value()->pipeline.get();
  if (pipeline->committed_epoch() != epoch) {
    return Status::FailedPrecondition(
        "promoted slice recovered epoch " +
        std::to_string(pipeline->committed_epoch()) +
        " but the fleet committed epoch " + std::to_string(epoch));
  }
  // Bracketed by the seqlock like a barrier flip, so a concurrent pin
  // retries instead of mixing the old and new slice. The old slice is
  // retired like a reshard donor: pins taken on it keep serving.
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    retired_.push_back(std::move(shards_[s]));
    shards_[s] = std::move(shard.value());
  }
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  if (CheckNoShardDownLocked().ok()) {
    health_->Report("serving." + name_, HealthState::kHealthy);
  }
  return pipeline;
}

void ShardRouter::AdoptTopology(std::vector<std::unique_ptr<Shard>> shards,
                                std::unique_ptr<CrossShardExchange> exchange,
                                std::shared_ptr<const PartitionMap> map,
                                std::vector<Counter*> epochs_committed,
                                std::vector<Counter*> deltas_applied) {
  // The swap itself: pointer moves under the exclusive topology lock,
  // bracketed by the barrier-flip seqlock so coordinated pins retry
  // instead of pinning across two generations. Old slices move to
  // retired_; their pipelines stay alive so pre-cutover pins and views
  // keep serving the old map until the router dies.
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    for (auto& shard : shards_) retired_.push_back(std::move(shard));
    shards_ = std::move(shards);
    exchange_ = std::move(exchange);
    map_ = std::move(map);
    shard_epochs_committed_ = std::move(epochs_committed);
    shard_deltas_applied_ = std::move(deltas_applied);
    options_.num_shards = map_->num_shards;
    options_.pipeline.generation = map_->generation;
  }
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace i2mr
