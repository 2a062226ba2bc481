// Seeded chaos harness: a sharded (coordinated barrier commits) and
// replicated pipeline runs a delta stream under a randomized fault
// schedule — injected EIO/ENOSPC, torn writes, latency — while a
// fault-free twin of the same topology processes the identical stream as
// ground truth. Invariants, per seed:
//
//   * no crash, and no reads that return Corruption/Internal (errors
//     during chaos are fine; wrong or torn data is not),
//   * the system degrades gracefully (appends bounce, epochs retry or
//     roll forward) and recovers on its own once faults lift,
//   * after the faults stop, the system converges to the exact result of
//     the no-fault twin — through the router, through the replica read
//     path, and again after a full reopen (reset=false) of the same
//     roots (nothing torn was left on disk).
//
// Seeds come from I2MR_CHAOS_SEEDS (comma-separated; default two smoke
// seeds so push/PR CI stays fast — the nightly chaos job raises it). A
// failing seed prints its canonical replay spec (I2MR_FAULTS=...), and
// I2MR_CHAOS_ARTIFACT_DIR collects per-seed fault schedules.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/sssp.h"
#include "common/codec.h"
#include "common/health.h"
#include "common/metrics.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "replication/replica_set.h"
#include "serving/reshard.h"
#include "serving/shard_router.h"

namespace i2mr {
namespace {

constexpr int kVertices = 24;
constexpr int kShards = 2;
constexpr int kReplicasPerShard = 2;
constexpr int kRounds = 6;
constexpr int kBatch = 6;

std::string VertexKey(int i) { return PaddedNum(i); }

/// Weighted directed ring i -> i+1: every distance is a chain of
/// cross-shard relaxations, and SSSP's min-plus fixpoint is monotone, so
/// the converged state is independent of how chaos regroups the deltas
/// into epochs (a non-convergent workload would make the twin comparison
/// depend on iteration history).
std::vector<KV> RingGraph(int n) {
  std::vector<KV> graph;
  for (int i = 0; i < n; ++i) {
    graph.push_back(KV{VertexKey(i), VertexKey((i + 1) % n) + ":1"});
  }
  return graph;
}

std::vector<KV> InitStateFor(const IterJobSpec& spec,
                             const std::vector<KV>& graph) {
  std::vector<KV> state;
  state.reserve(graph.size());
  for (const auto& kv : graph) {
    state.push_back(KV{kv.key, spec.init_state(kv.key)});
  }
  return state;
}

/// The delta stream adds a shortcut edge to a few vertices per round
/// (edge additions only decrease SSSP distances — exactly what the
/// incremental engine relaxes). The replacement adjacency is a function
/// of (seed, key) alone, never of the round, so a retried append whose
/// ack was lost to a fault — possibly reordered past later rounds — is
/// idempotent and converges to the same graph as the twin's stream.
std::vector<DeltaKV> RoundDeltas(uint64_t seed, int round) {
  std::vector<DeltaKV> deltas;
  for (int k = 0; k < kBatch; ++k) {
    int i = static_cast<int>((seed + 13 * round + 5 * k) % kVertices);
    int dest = static_cast<int>((i + 2 + (seed + 11 * i) % 9) % kVertices);
    deltas.push_back(DeltaKV{
        DeltaOp::kInsert, VertexKey(i),
        VertexKey((i + 1) % kVertices) + ":1 " + VertexKey(dest) + ":1"});
  }
  return deltas;
}

ShardRouterOptions RouterOptions(MetricsRegistry* metrics,
                                 HealthRegistry* health, bool reset) {
  ShardRouterOptions options;
  options.num_shards = kShards;
  options.workers_per_shard = 2;
  options.reset = reset;
  options.metrics = metrics;
  options.health = health;
  options.pipeline.spec = sssp::MakeIterSpec("sp", VertexKey(0), 2, 200);
  options.pipeline.engine.filter_threshold = 0.0;
  options.pipeline.engine.mrbg_auto_off_ratio = 2;
  // Fast degraded-mode probing so convergence after the faults lift
  // doesn't wait on long probe intervals.
  options.pipeline.append_retries = 1;
  options.pipeline.append_retry_backoff_ms = 0.5;
  options.pipeline.degraded_probe_interval_ms = 5;
  return options;
}

/// An error observed during chaos may be anything the degradation layer
/// hands out — injected I/O errors, Unavailable bounces, poisoned-router
/// refusals — but never data-integrity failures: those would mean a torn
/// or wrong state got served.
void AssertNotIntegrityError(const Status& st, uint64_t seed) {
  ASSERT_NE(st.code(), Status::Code::kCorruption)
      << "seed " << seed << ": " << st.ToString();
  ASSERT_NE(st.code(), Status::Code::kInternal)
      << "seed " << seed << ": " << st.ToString();
}

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("I2MR_CHAOS_SEEDS")) {
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
    }
  }
  if (seeds.empty()) seeds = {11, 12};  // push/PR smoke pair
  return seeds;
}

struct ChaosSystem {
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<HealthRegistry> health;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<ReplicaSet> replicas;

  void Close() {
    replicas.reset();
    router.reset();
  }
};

bool OpenSystem(const std::string& root, bool reset, ChaosSystem* sys) {
  if (sys->metrics == nullptr) {
    sys->metrics = std::make_unique<MetricsRegistry>();
    sys->health = std::make_unique<HealthRegistry>(sys->metrics.get());
  }
  auto router = ShardRouter::Open(
      root, "sys", RouterOptions(sys->metrics.get(), sys->health.get(), reset));
  if (!router.ok()) {
    ADD_FAILURE() << "router open failed: " << router.status().ToString();
    return false;
  }
  sys->router = std::move(router.value());
  ReplicaSetOptions ro;
  ro.replicas_per_shard = kReplicasPerShard;
  ro.reset = reset;
  auto set =
      ReplicaSet::Open(sys->router.get(), JoinPath(root, "replicas"), ro);
  if (!set.ok()) {
    ADD_FAILURE() << "replica set open failed: " << set.status().ToString();
    return false;
  }
  sys->replicas = std::move(set.value());
  return true;
}

class FaultChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Instance()->Reset(); }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }
};

TEST_F(FaultChaosTest, SeededChaosNeverTearsStateAndConvergesToTwin) {
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const std::string base =
        ::testing::TempDir() + "/i2mr_chaos_seed" + std::to_string(seed);
    const std::string sys_root = JoinPath(base, "sys");
    const std::string twin_root = JoinPath(base, "twin");
    ASSERT_TRUE(ResetDir(base).ok());

    // The system under chaos: 2 coordinated shards, 2 replicas each.
    ChaosSystem sys;
    ASSERT_TRUE(OpenSystem(sys_root, /*reset=*/true, &sys));
    // The fault-free twin: identical topology, identical stream.
    MetricsRegistry twin_metrics;
    HealthRegistry twin_health(&twin_metrics);
    auto twin = ShardRouter::Open(
        twin_root, "sys",
        RouterOptions(&twin_metrics, &twin_health, /*reset=*/true));
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();

    auto graph = RingGraph(kVertices);
    auto state = InitStateFor(RouterOptions(nullptr, nullptr, true)
                                  .pipeline.spec,
                              graph);
    ASSERT_TRUE(sys.router->Bootstrap(graph, state).ok());
    ASSERT_TRUE((*twin)->Bootstrap(graph, state).ok());

    // Unleash the seeded schedule, scoped to the system's root — the
    // twin and the test scaffolding stay fault-free.
    auto* inj = fault::FaultInjector::Instance();
    fault::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.p_fail = 0.05;
    chaos.p_torn = 0.25;
    chaos.p_latency = 0.02;
    chaos.max_latency_ms = 1.0;
    chaos.path_substr = sys_root;
    inj->StartChaos(chaos);
    const std::string replay = inj->ChaosSpec();
    SCOPED_TRACE("replay with I2MR_FAULTS='" + replay + "'");

    std::vector<DeltaKV> unacked;
    for (int round = 0; round < kRounds; ++round) {
      for (const DeltaKV& delta : RoundDeltas(seed, round)) {
        ASSERT_TRUE((*twin)->Append(delta).ok());
        // Bounded retries while faults are live; what doesn't ack now is
        // retried (idempotently) after the faults lift.
        bool acked = false;
        for (int attempt = 0; attempt < 20 && !acked; ++attempt) {
          auto seq = sys.replicas->Append(delta);
          if (seq.ok()) {
            acked = true;
          } else {
            AssertNotIntegrityError(seq.status(), seed);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        if (!acked) unacked.push_back(delta);
      }
      // Epochs and ship passes run right through the fault storm; their
      // errors must always be clean failures.
      auto epoch = sys.router->RefreshCoordinated();
      if (!epoch.ok()) AssertNotIntegrityError(epoch.status(), seed);
      Status shipped = sys.replicas->SyncAll();
      if (!shipped.ok()) AssertNotIntegrityError(shipped, seed);
      // Reads during chaos: any answer is either an honest error or a
      // value from some committed epoch — never torn.
      for (int i = 0; i < kVertices; i += 5) {
        auto read = sys.replicas->Get(VertexKey(i));
        if (!read.ok()) AssertNotIntegrityError(read.status(), seed);
      }
      ASSERT_TRUE((*twin)->DrainAll().ok());
    }

    // Faults lift. Capture the schedule for replay before clearing.
    const std::string events = inj->EventLogText();
    const uint64_t injected = inj->injections();
    inj->Reset();
    if (const char* dir = std::getenv("I2MR_CHAOS_ARTIFACT_DIR")) {
      (void)CreateDirs(dir);
      (void)WriteStringToFile(
          JoinPath(dir, "chaos_seed" + std::to_string(seed) + ".txt"),
          "I2MR_FAULTS='" + replay + "'\n\n" + events);
    }
    EXPECT_GT(injected, 0u) << "chaos schedule injected nothing; the run "
                               "proved nothing — lower the seed's luck";

    // Recovery: unacked deltas land (pipelines probe out of degraded
    // mode on their own), epochs drain, and if a delta log was closed by
    // a failed rollback the reopen below heals it — but appends must
    // stop failing with transient errors within the retry budget.
    bool reopened_for_recovery = false;
    for (const DeltaKV& delta : unacked) {
      bool acked = false;
      for (int attempt = 0; attempt < 400 && !acked; ++attempt) {
        auto seq = sys.replicas->Append(delta);
        if (seq.ok()) {
          acked = true;
        } else if (seq.status().code() ==
                       Status::Code::kFailedPrecondition &&
                   !reopened_for_recovery) {
          // A closed delta log (failed rollback) needs the reopen path.
          sys.Close();
          ASSERT_TRUE(OpenSystem(sys_root, /*reset=*/false, &sys));
          reopened_for_recovery = true;
        } else {
          AssertNotIntegrityError(seq.status(), seed);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      ASSERT_TRUE(acked) << "append never recovered after faults lifted";
    }
    Status drained;
    for (int attempt = 0; attempt < 100; ++attempt) {
      drained = sys.router->DrainAll();
      if (drained.ok() && sys.router->TotalPending() == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(drained.ok()) << drained.ToString();
    ASSERT_EQ(sys.router->TotalPending(), 0u);
    ASSERT_FALSE(sys.router->poisoned());
    ASSERT_TRUE(sys.replicas->SyncAll().ok());
    ASSERT_TRUE((*twin)->DrainAll().ok());

    // Exact convergence to the no-fault result: primary read path and
    // the replica read path both match the twin on every key.
    for (int i = 0; i < kVertices; ++i) {
      auto expect = (*twin)->Lookup(VertexKey(i));
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      auto direct = sys.router->Lookup(VertexKey(i));
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ(*direct, *expect) << "key " << VertexKey(i);
      auto replicated = sys.replicas->Get(VertexKey(i));
      ASSERT_TRUE(replicated.ok()) << replicated.status().ToString();
      EXPECT_EQ(*replicated, *expect) << "key " << VertexKey(i);
    }

    // Reopen everything from disk (reset=false): whatever the fault
    // storm left behind recovers to the same exact state — nothing torn.
    sys.Close();
    ASSERT_TRUE(OpenSystem(sys_root, /*reset=*/false, &sys));
    for (int i = 0; i < kVertices; ++i) {
      auto expect = (*twin)->Lookup(VertexKey(i));
      ASSERT_TRUE(expect.ok());
      auto reread = sys.router->Lookup(VertexKey(i));
      ASSERT_TRUE(reread.ok()) << reread.status().ToString();
      EXPECT_EQ(*reread, *expect) << "after reopen, key " << VertexKey(i);
    }
    sys.Close();
  }
}

// Deterministic counterpart to the randomized storm: a coordinated
// barrier interrupted mid-flip by a real I/O failure rolls *forward* on
// the next coordinated tick (the decision record was durable), with no
// reopen — and reads are refused, not served mixed, in between.
TEST_F(FaultChaosTest, InterruptedBarrierRollsForwardWithoutReopen) {
  const std::string root =
      ::testing::TempDir() + "/i2mr_chaos_rollforward";
  ASSERT_TRUE(ResetDir(root).ok());
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  auto router =
      ShardRouter::Open(root, "sys", RouterOptions(&metrics, &health, true));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto graph = RingGraph(kVertices);
  ASSERT_TRUE(
      (*router)
          ->Bootstrap(graph, InitStateFor(RouterOptions(nullptr, nullptr, true)
                                              .pipeline.spec,
                                          graph))
          .ok());

  ASSERT_TRUE((*router)
                  ->Append(DeltaKV{DeltaOp::kInsert, VertexKey(0),
                                   VertexKey(1) + ":1 " + VertexKey(5) + ":1"})
                  .ok());

  // Exactly one CURRENT flip fails with a real injected error. Shard 0
  // flips first; the failure strands the other shard staged.
  fault::FaultRule rule;
  rule.ops = fault::kWriteFile | fault::kRename;
  rule.path_substr = "CURRENT";
  rule.kind = fault::FaultKind::kEIO;
  rule.after = 1;  // let the first shard's flip through
  rule.times = 1;
  fault::FaultInjector::Instance()->AddRule(rule);

  auto failed = (*router)->RefreshCoordinated();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE((*router)->poisoned());
  const uint64_t pending = (*router)->pending_flip_epoch();
  EXPECT_GT(pending, 0u);
  EXPECT_EQ(health.state("serving.sys"), HealthState::kDegraded);
  // Mixed-vector window: reads are refused, never served mixed.
  auto refused = (*router)->Lookup(VertexKey(0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kFailedPrecondition);

  // The disk heals; the next coordinated tick rolls the epoch forward
  // in-process.
  fault::FaultInjector::Instance()->Reset();
  auto resumed = (*router)->RefreshCoordinated();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE((*router)->poisoned());
  EXPECT_EQ((*router)->pending_flip_epoch(), 0u);
  EXPECT_EQ(health.state("serving.sys"), HealthState::kHealthy);
  for (uint64_t e : (*router)->CommittedEpochs()) {
    EXPECT_GE(e, pending);  // every shard reached the decided epoch
  }
  ASSERT_TRUE((*router)->DrainAll().ok());
  EXPECT_TRUE((*router)->Lookup(VertexKey(0)).ok());
}

// Mid-reshard kill sweep: each chaos seed kills the reshard coordinator
// at a seed-derived stage via the same fault-spec grammar the storm uses
// ("reshard/<stage>" kill points), on a fleet that has already absorbed
// real delta history. The invariant is the reshard crash contract: the
// reopened fleet serves exactly the old map or exactly the new one —
// never a mix — with every committed value intact, the durable RESHARD
// marker retired, and a clean retry (or the roll-forward) finishing the
// move so the fleet keeps ingesting at the target shape.
TEST_F(FaultChaosTest, MidReshardKillRecoversToOldOrNewMapAndCompletes) {
  const std::vector<std::string> stages = {"plan", "dual_journal", "transfer",
                                           "flip", "flip_marker"};
  for (uint64_t seed : ChaosSeeds()) {
    const std::string stage = stages[seed % stages.size()];
    SCOPED_TRACE("seed " + std::to_string(seed) + " kills at reshard/" +
                 stage);
    const std::string root = ::testing::TempDir() + "/i2mr_chaos_reshard" +
                             std::to_string(seed);
    ASSERT_TRUE(ResetDir(root).ok());
    MetricsRegistry metrics;
    HealthRegistry health(&metrics);

    std::map<std::string, std::string> before;
    {
      auto router = ShardRouter::Open(
          root, "sys", RouterOptions(&metrics, &health, /*reset=*/true));
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      auto graph = RingGraph(kVertices);
      ASSERT_TRUE(
          (*router)
              ->Bootstrap(graph,
                          InitStateFor(RouterOptions(nullptr, nullptr, true)
                                           .pipeline.spec,
                                       graph))
              .ok());
      // Real history before the kill: the transfer then moves converged
      // incremental state, not a fresh bootstrap image.
      for (int round = 0; round < 2; ++round) {
        for (const DeltaKV& delta : RoundDeltas(seed, round)) {
          ASSERT_TRUE((*router)->Append(delta).ok());
        }
        ASSERT_TRUE((*router)->DrainAll().ok());
      }
      for (int i = 0; i < kVertices; ++i) {
        auto v = (*router)->Lookup(VertexKey(i));
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        before[VertexKey(i)] = *v;
      }

      ASSERT_TRUE(fault::FaultInjector::Instance()
                      ->LoadSpec("op=crash,path=reshard/" + stage +
                                 ",kind=crash")
                      .ok());
      ReshardOptions opts;
      opts.new_num_shards = 3;
      opts.chunk_max_bytes = 512;
      ReshardCoordinator coordinator(router->get(), opts);
      ASSERT_FALSE(coordinator.Run().ok()) << "injected kill must surface";
      fault::FaultInjector::Instance()->Reset();
      if (stage == "flip_marker") {
        // Decision durable, topology not swapped: reads are refused until
        // the roll-forward reopen, never served from the superseded map.
        EXPECT_TRUE((*router)->poisoned());
        ASSERT_FALSE((*router)->Lookup(VertexKey(0)).ok());
        ASSERT_FALSE((*router)
                         ->Append(DeltaKV{DeltaOp::kInsert, VertexKey(0),
                                          VertexKey(1) + ":1"})
                         .ok());
      }
      // The killed coordinator's process is gone; recovery is the reopen.
    }

    auto options = RouterOptions(&metrics, &health, /*reset=*/false);
    auto reopened = ShardRouter::Open(root, "sys", options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->bootstrapped());
    const bool rolled_forward = stage == "flip_marker";
    EXPECT_EQ((*reopened)->generation(), rolled_forward ? 1u : 0u);
    EXPECT_EQ((*reopened)->num_shards(), rolled_forward ? 3 : kShards);
    EXPECT_FALSE(FileExists(JoinPath(root, "sys.RESHARD")));
    for (const auto& [key, value] : before) {
      auto v = (*reopened)->Lookup(key);
      ASSERT_TRUE(v.ok()) << key << ": " << v.status().ToString();
      EXPECT_EQ(*v, value) << key;
    }

    // Finish what the kill interrupted: a clean retry reaches the target
    // shape (roll-forward already did), and ingestion continues on it.
    if (!rolled_forward) {
      ReshardOptions opts;
      opts.new_num_shards = 3;
      opts.chunk_max_bytes = 512;
      ReshardCoordinator retry(reopened->get(), opts);
      auto stats = retry.Run();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
    EXPECT_EQ((*reopened)->num_shards(), 3);
    EXPECT_EQ((*reopened)->generation(), 1u);
    for (const DeltaKV& delta : RoundDeltas(seed, /*round=*/7)) {
      ASSERT_TRUE((*reopened)->Append(delta).ok());
    }
    ASSERT_TRUE((*reopened)->DrainAll().ok());
    for (const auto& [key, value] : before) {
      ASSERT_TRUE((*reopened)->Lookup(key).ok()) << key;
    }
  }
}

}  // namespace
}  // namespace i2mr
