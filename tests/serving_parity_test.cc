// Cross-shard ground-truth parity suite: a sharded computation with the
// CrossShardExchange must equal the
// *unsharded* pipeline — not merely a per-shard recompute of each shard's
// own subgraph — on graphs with heavy cross-shard edges, through bootstrap
// and several streamed delta epochs, for PageRank, SSSP and ConComp.
// Also: uniform epoch vectors after coordinated commits, and crash
// recovery of the two-phase barrier commit (an incomplete barrier rolls
// back to epoch N-1 everywhere; readers never observe a mixed vector).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/concomp.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/codec.h"
#include "data/graph_gen.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"

namespace i2mr {
namespace {

std::vector<KV> InitStateFor(const IterJobSpec& spec,
                             const std::vector<KV>& graph) {
  std::vector<KV> state;
  state.reserve(graph.size());
  for (const auto& kv : graph) {
    state.push_back(KV{kv.key, spec.init_state(kv.key)});
  }
  return state;
}

/// Directed ring i -> i+1 (mod n): with hashed shard assignment, nearly
/// every edge crosses a shard boundary, and every vertex's reduce input
/// comes from another shard — the adversarial case for sharded refresh.
std::vector<KV> RingGraph(int n, bool weighted) {
  std::vector<KV> graph;
  graph.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::string dest = PaddedNum((i + 1) % n);
    graph.push_back(KV{PaddedNum(i), weighted ? dest + ":1" : dest});
  }
  return graph;
}

PipelineOptions MakePipelineOptions(IterJobSpec spec) {
  PipelineOptions options;
  options.spec = std::move(spec);
  options.engine.filter_threshold = 0.0;  // exact propagation
  options.engine.mrbg_auto_off_ratio = 2; // keep the incremental path
  return options;
}

ShardRouterOptions CoordinatedOptions(IterJobSpec spec, int shards) {
  ShardRouterOptions options;
  options.num_shards = shards;
  options.workers_per_shard = 2;
  options.pipeline = MakePipelineOptions(std::move(spec));
  return options;
}

/// The unsharded ground truth: one pipeline over the whole structure.
struct Unsharded {
  std::unique_ptr<LocalCluster> cluster;
  std::unique_ptr<Pipeline> pipeline;
};

Unsharded OpenUnsharded(const std::string& root, IterJobSpec spec) {
  Unsharded u;
  u.cluster = std::make_unique<LocalCluster>(root, 2);
  auto p = Pipeline::Open(u.cluster.get(), "ref",
                          MakePipelineOptions(std::move(spec)));
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  if (p.ok()) u.pipeline = std::move(p.value());
  return u;
}

void DrainUnsharded(Pipeline* pipeline) {
  while (pipeline->pending() > 0) {
    auto stats = pipeline->RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
}

std::vector<KV> ShardedSnapshot(const ShardRouter& router) {
  std::vector<KV> all;
  for (int s = 0; s < router.num_shards(); ++s) {
    auto part = router.shard(s)->ServingSnapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::map<std::string, std::string> ToMap(const std::vector<KV>& kvs) {
  std::map<std::string, std::string> m;
  for (const auto& kv : kvs) m[kv.key] = kv.value;
  return m;
}

/// Numeric parity: every key present in both, values equal within `tol`
/// (values >= 1e29 are treated as "infinity", SSSP's unreachable marker).
void ExpectNumericParity(const std::vector<KV>& sharded,
                         const std::vector<KV>& unsharded, double tol,
                         const std::string& what) {
  auto got = ToMap(sharded), want = ToMap(unsharded);
  ASSERT_EQ(got.size(), want.size()) << what << ": key sets differ";
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    ASSERT_TRUE(it != got.end()) << what << ": missing key " << key;
    auto a = ParseDouble(it->second);
    auto b = ParseDouble(value);
    ASSERT_TRUE(a.ok() && b.ok()) << what << ": unparsable value at " << key;
    if (*a >= 1e29 && *b >= 1e29) continue;
    EXPECT_NEAR(*a, *b, tol) << what << ": key " << key;
  }
}

void ExpectExactParity(const std::vector<KV>& sharded,
                       const std::vector<KV>& unsharded,
                       const std::string& what) {
  auto got = ToMap(sharded), want = ToMap(unsharded);
  ASSERT_EQ(got.size(), want.size()) << what << ": key sets differ";
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    ASSERT_TRUE(it != got.end()) << what << ": missing key " << key;
    EXPECT_EQ(it->second, value) << what << ": key " << key;
  }
}

void ExpectUniformEpochs(const ShardRouter& router, uint64_t epoch,
                         const std::string& what) {
  for (uint64_t e : router.CommittedEpochs()) {
    EXPECT_EQ(e, epoch) << what << ": mixed epoch vector";
  }
}

class ServingParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/i2mr_serving_parity";
    ASSERT_TRUE(ResetDir(root_).ok());
  }
  std::string root_;
};

// ---------------------------------------------------------------------------
// PageRank: expander + ring, N = 1, 2, 4, bootstrap + streamed epochs
// ---------------------------------------------------------------------------

TEST_F(ServingParityTest, PageRankMatchesUnshardedOnExpander) {
  GraphGenOptions gen;
  gen.num_vertices = 96;
  gen.avg_degree = 5;
  auto graph = GenGraph(gen);
  auto spec = pagerank::MakeIterSpec("pr", 2, 100, 1e-8);
  const auto init = InitStateFor(spec, graph);

  // Shared delta schedule: the same batches stream into every system.
  std::vector<std::vector<DeltaKV>> rounds;
  {
    auto moving = graph;
    for (int r = 0; r < 3; ++r) {
      GraphDeltaOptions dopt;
      dopt.update_fraction = 0.15;
      dopt.seed = 100 + r;
      rounds.push_back(GenGraphDelta(gen, dopt, &moving));
    }
  }

  // Ground truth: the unsharded pipeline, snapshotted after every epoch.
  auto ref = OpenUnsharded(JoinPath(root_, "ref"), spec);
  ASSERT_TRUE(ref.pipeline != nullptr);
  ASSERT_TRUE(ref.pipeline->Bootstrap(graph, init).ok());
  std::vector<std::vector<KV>> want = {ref.pipeline->ServingSnapshot()};
  for (const auto& batch : rounds) {
    ASSERT_TRUE(ref.pipeline->AppendBatch(batch).ok());
    DrainUnsharded(ref.pipeline.get());
    want.push_back(ref.pipeline->ServingSnapshot());
  }

  for (int shards : {1, 2, 4}) {
    std::string what = "pagerank/expander/N=" + std::to_string(shards);
    auto router =
        ShardRouter::Open(JoinPath(root_, "s" + std::to_string(shards)), "pr",
                          CoordinatedOptions(spec, shards));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
    ExpectUniformEpochs(**router, 0, what);
    ExpectNumericParity(ShardedSnapshot(**router), want[0], 1e-5,
                        what + "/bootstrap");
    for (size_t r = 0; r < rounds.size(); ++r) {
      ASSERT_TRUE((*router)->AppendBatch(rounds[r]).ok());
      ASSERT_TRUE((*router)->DrainAll().ok());
      ExpectUniformEpochs(**router, r + 1, what);
      ExpectNumericParity(ShardedSnapshot(**router), want[r + 1], 1e-5,
                          what + "/epoch" + std::to_string(r + 1));
    }
  }
}

TEST_F(ServingParityTest, PageRankMatchesUnshardedOnRing) {
  // Every reduce input crosses a shard boundary: without the exchange each
  // vertex would keep its bootstrap-local rank forever.
  const int n = 48;
  auto graph = RingGraph(n, /*weighted=*/false);
  GraphGenOptions gen;
  gen.num_vertices = n;
  gen.avg_degree = 2;
  auto spec = pagerank::MakeIterSpec("prring", 2, 100, 1e-8);
  const auto init = InitStateFor(spec, graph);

  auto ref = OpenUnsharded(JoinPath(root_, "ref"), spec);
  ASSERT_TRUE(ref.pipeline != nullptr);
  ASSERT_TRUE(ref.pipeline->Bootstrap(graph, init).ok());

  auto router = ShardRouter::Open(JoinPath(root_, "ring"), "prring",
                                  CoordinatedOptions(spec, 4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
  ExpectNumericParity(ShardedSnapshot(**router),
                      ref.pipeline->ServingSnapshot(), 1e-5,
                      "pagerank/ring/bootstrap");

  auto moving = graph;
  for (int r = 0; r < 2; ++r) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.2;
    dopt.seed = 400 + r;
    auto batch = GenGraphDelta(gen, dopt, &moving);
    ASSERT_TRUE(ref.pipeline->AppendBatch(batch).ok());
    DrainUnsharded(ref.pipeline.get());
    ASSERT_TRUE((*router)->AppendBatch(batch).ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
    ExpectUniformEpochs(**router, r + 1, "pagerank/ring");
    ExpectNumericParity(ShardedSnapshot(**router),
                        ref.pipeline->ServingSnapshot(), 1e-5,
                        "pagerank/ring/epoch" + std::to_string(r + 1));
  }
}

// ---------------------------------------------------------------------------
// SSSP: distances relax across shard boundaries (ring = worst case)
// ---------------------------------------------------------------------------

TEST_F(ServingParityTest, SsspMatchesUnshardedAcrossShardBoundaries) {
  const int n = 32;
  auto graph = RingGraph(n, /*weighted=*/true);
  const std::string source = PaddedNum(0);
  auto spec = sssp::MakeIterSpec("sp", source, 2, 200);
  const auto init = InitStateFor(spec, graph);

  auto ref = OpenUnsharded(JoinPath(root_, "ref"), spec);
  ASSERT_TRUE(ref.pipeline != nullptr);
  ASSERT_TRUE(ref.pipeline->Bootstrap(graph, init).ok());

  auto router = ShardRouter::Open(JoinPath(root_, "sharded"), "sp",
                                  CoordinatedOptions(spec, 4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
  // On the ring, every distance > 0 depends on a chain of cross-shard
  // relaxations; parity here is impossible without the exchange.
  ExpectNumericParity(ShardedSnapshot(**router),
                      ref.pipeline->ServingSnapshot(), 1e-9,
                      "sssp/ring/bootstrap");

  // Delta epochs: add shortcut edges (distance decreases relax exactly,
  // matching the incremental engine's contract).
  for (int r = 0; r < 2; ++r) {
    std::vector<DeltaKV> batch;
    int from = 3 + 11 * r, to = (from + n / 2) % n;
    const std::string key = PaddedNum(from);
    for (const auto& kv : graph) {
      if (kv.key != key) continue;
      std::string nv = kv.value + " " + PaddedNum(to) + ":0.5";
      batch.push_back(DeltaKV{DeltaOp::kDelete, kv.key, kv.value});
      batch.push_back(DeltaKV{DeltaOp::kInsert, kv.key, nv});
    }
    ASSERT_FALSE(batch.empty());
    for (auto& kv : graph) {
      if (kv.key == key) kv.value = batch.back().value;
    }
    ASSERT_TRUE(ref.pipeline->AppendBatch(batch).ok());
    DrainUnsharded(ref.pipeline.get());
    ASSERT_TRUE((*router)->AppendBatch(batch).ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
    ExpectUniformEpochs(**router, r + 1, "sssp/ring");
    ExpectNumericParity(ShardedSnapshot(**router),
                        ref.pipeline->ServingSnapshot(), 1e-9,
                        "sssp/ring/epoch" + std::to_string(r + 1));
  }
}

// ---------------------------------------------------------------------------
// ConComp: labels propagate through cross-shard components
// ---------------------------------------------------------------------------

TEST_F(ServingParityTest, ConCompMatchesUnshardedOnSparseComponents) {
  GraphGenOptions gen;
  gen.num_vertices = 96;
  gen.avg_degree = 2;  // sparse: several components spanning shards
  auto graph = concomp::Symmetrize(GenGraph(gen));
  auto spec = concomp::MakeIterSpec("cc", 2, 200);
  const auto init = InitStateFor(spec, graph);

  auto ref = OpenUnsharded(JoinPath(root_, "ref"), spec);
  ASSERT_TRUE(ref.pipeline != nullptr);
  ASSERT_TRUE(ref.pipeline->Bootstrap(graph, init).ok());

  auto router = ShardRouter::Open(JoinPath(root_, "sharded"), "cc",
                                  CoordinatedOptions(spec, 4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
  ExpectExactParity(ShardedSnapshot(**router),
                    ref.pipeline->ServingSnapshot(), "concomp/bootstrap");
  // And the sharded labels are actually right, not just consistently
  // wrong: they match the offline union-find ground truth.
  EXPECT_EQ(concomp::ErrorRate(ShardedSnapshot(**router),
                               concomp::Reference(graph)),
            0.0);

  auto moving = graph;
  for (int r = 0; r < 2; ++r) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.1;
    dopt.seed = 500 + r;
    auto batch = GenGraphDelta(gen, dopt, &moving);
    ASSERT_TRUE(ref.pipeline->AppendBatch(batch).ok());
    DrainUnsharded(ref.pipeline.get());
    ASSERT_TRUE((*router)->AppendBatch(batch).ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
    ExpectUniformEpochs(**router, r + 1, "concomp");
    ExpectExactParity(ShardedSnapshot(**router),
                      ref.pipeline->ServingSnapshot(),
                      "concomp/epoch" + std::to_string(r + 1));
  }
}

// ---------------------------------------------------------------------------
// The MRBG auto-off fallback (full re-computation) folds remote values too
// ---------------------------------------------------------------------------

TEST_F(ServingParityTest, ParityHoldsThroughMrbgAutoOffFallback) {
  GraphGenOptions gen;
  gen.num_vertices = 64;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  auto spec = pagerank::MakeIterSpec("proff", 2, 100, 1e-8);
  const auto init = InitStateFor(spec, graph);

  auto options = CoordinatedOptions(spec, 3);
  options.pipeline.engine.mrbg_auto_off_ratio = 0.0;  // always fall back
  auto ref_cluster = std::make_unique<LocalCluster>(JoinPath(root_, "ref"), 2);
  auto ref_opts = MakePipelineOptions(spec);
  ref_opts.engine.mrbg_auto_off_ratio = 0.0;
  auto ref_pipeline = Pipeline::Open(ref_cluster.get(), "ref", ref_opts);
  ASSERT_TRUE(ref_pipeline.ok()) << ref_pipeline.status().ToString();
  ASSERT_TRUE((*ref_pipeline)->Bootstrap(graph, init).ok());

  auto router = ShardRouter::Open(JoinPath(root_, "sharded"), "proff", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
  ExpectNumericParity(ShardedSnapshot(**router),
                      (*ref_pipeline)->ServingSnapshot(), 1e-5,
                      "autooff/bootstrap");

  auto moving = graph;
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.3;
  dopt.seed = 77;
  auto batch = GenGraphDelta(gen, dopt, &moving);
  ASSERT_TRUE((*ref_pipeline)->AppendBatch(batch).ok());
  DrainUnsharded(ref_pipeline->get());
  ASSERT_TRUE((*router)->AppendBatch(batch).ok());
  ASSERT_TRUE((*router)->DrainAll().ok());
  ExpectNumericParity(ShardedSnapshot(**router),
                      (*ref_pipeline)->ServingSnapshot(), 1e-5,
                      "autooff/epoch1");
}

// ---------------------------------------------------------------------------
// Uniform pinned snapshot vectors
// ---------------------------------------------------------------------------

TEST_F(ServingParityTest, PinnedSnapshotVectorIsUniformAfterCoordination) {
  GraphGenOptions gen;
  gen.num_vertices = 64;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  auto spec = pagerank::MakeIterSpec("pru", 2, 100, 1e-8);
  const auto init = InitStateFor(spec, graph);

  auto router = ShardRouter::Open(JoinPath(root_, "uniform"), "pru",
                                  CoordinatedOptions(spec, 4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
  ShardGroup group(router->get());

  auto snap = group.PinSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->epochs(), std::vector<uint64_t>(4, 0));

  auto moving = graph;
  for (int r = 0; r < 2; ++r) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.2;
    dopt.seed = 600 + r;
    auto batch = GenGraphDelta(gen, dopt, &moving);
    ASSERT_TRUE((*router)->AppendBatch(batch).ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
    auto fresh = group.PinSnapshot();
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh->epochs(),
              std::vector<uint64_t>(4, static_cast<uint64_t>(r + 1)))
        << "coordinated commit must advance every shard together";
  }
  // The old pin still serves its uniform cut.
  EXPECT_EQ(snap->epochs(), std::vector<uint64_t>(4, 0));
}

TEST_F(ServingParityTest, ConcurrentPinsStayUniformWhileBarriersFlip) {
  GraphGenOptions gen;
  gen.num_vertices = 60;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  auto spec = pagerank::MakeIterSpec("prc2", 1, 60, 1e-6);
  const auto init = InitStateFor(spec, graph);

  auto options = CoordinatedOptions(spec, 3);
  options.pipeline.min_batch = 1;
  options.poll_interval_ms = 2;
  auto router = ShardRouter::Open(JoinPath(root_, "concurrent"), "prc2",
                                  options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
  ShardGroup group(router->get());

  // Readers pin continuously while the coordinator commits barrier epochs
  // underneath: every pin must be one uniform, monotonically advancing
  // cut — the seqlock retry makes the per-shard CURRENT flips invisible.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load()) {
        auto snap = group.PinSnapshot();
        if (!snap.ok()) {
          ++failures;
          return;
        }
        for (uint64_t e : snap->epochs()) {
          if (e != snap->epochs()[0] || e < last) {
            ++failures;
            return;
          }
        }
        last = snap->epochs()[0];
      }
    });
  }
  (*router)->Start();
  auto moving = graph;
  for (int r = 0; r < 4 && failures.load() == 0; ++r) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.2;
    dopt.seed = 900 + r;
    auto batch = GenGraphDelta(gen, dopt, &moving);
    ASSERT_TRUE((*router)->AppendBatch(batch).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  for (int i = 0; i < 500 && (*router)->TotalPending() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (*router)->Stop();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*router)->TotalPending(), 0u);
  ExpectUniformEpochs(**router, (*router)->CommittedEpochs()[0],
                      "concurrent pins");
}

// ---------------------------------------------------------------------------
// Barrier crash recovery: an incomplete commit rolls back to N-1 everywhere
// ---------------------------------------------------------------------------

/// Crashes are injected through kind=crash fault rules on the
/// "barrier/<stage>" crash points (io/fault_env.h).
class BarrierRecoveryTest : public ServingParityTest {
 protected:
  void SetUp() override {
    ServingParityTest::SetUp();
    fault::FaultInjector::Instance()->Reset();
  }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }

  static void ArmCrashAt(const std::string& stage) {
    ASSERT_TRUE(fault::FaultInjector::Instance()
                    ->LoadSpec("op=crash,kind=crash,path=barrier/" + stage)
                    .ok());
  }
};

TEST_F(BarrierRecoveryTest, CrashMidBarrierNeverExposesAMixedEpoch) {
  GraphGenOptions gen;
  gen.num_vertices = 60;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  auto spec = pagerank::MakeIterSpec("prc", 2, 100, 1e-8);
  const auto init = InitStateFor(spec, graph);

  // The no-crash twin: what the recovered router must converge to.
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.25;
  dopt.seed = 800;
  auto moving = graph;
  auto batch = GenGraphDelta(gen, dopt, &moving);
  auto twin = ShardRouter::Open(JoinPath(root_, "twin"), "prc",
                                CoordinatedOptions(spec, 3));
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  ASSERT_TRUE((*twin)->Bootstrap(graph, init).ok());
  ASSERT_TRUE((*twin)->AppendBatch(batch).ok());
  ASSERT_TRUE((*twin)->DrainAll().ok());
  auto want = ShardedSnapshot(**twin);

  for (const std::string stage : {"staged", "barrier", "mid_flip", "flipped"}) {
    std::string root = JoinPath(root_, "crash_" + stage);
    {
      auto router = ShardRouter::Open(root, "prc", CoordinatedOptions(spec, 3));
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      ASSERT_TRUE((*router)->Bootstrap(graph, init).ok()) << stage;
      // Crash the next (delta) barrier, not bootstrap; the rule fires once.
      ArmCrashAt(stage);
      ASSERT_TRUE((*router)->AppendBatch(batch).ok());
      auto st = (*router)->DrainAll();
      fault::FaultInjector::Instance()->Reset();
      ASSERT_FALSE(st.ok()) << stage << ": simulated crash must surface";
      // Cross-shard reads on the wreck: before any flip the router still
      // serves the old uniform cut; a crash that left CURRENTs mixed
      // refuses pins instead of serving a mixed vector.
      ShardGroup wreck(router->get());
      auto pinned = wreck.PinSnapshot();
      if (stage == "staged" || stage == "barrier") {
        ASSERT_TRUE(pinned.ok()) << stage;
        EXPECT_EQ(pinned->epochs(), std::vector<uint64_t>(3, 0)) << stage;
      } else {
        EXPECT_EQ(pinned.status().code(), Status::Code::kFailedPrecondition)
            << stage;
        // Point reads refuse too — they would otherwise leak epoch-N
        // values that recovery is about to roll back.
        EXPECT_EQ((*router)->Lookup(graph.front().key).status().code(),
                  Status::Code::kFailedPrecondition)
            << stage;
      }
      // The simulated coordinator is dead; reopen "after the crash".
    }
    auto reopened_options = CoordinatedOptions(spec, 3);
    reopened_options.reset = false;
    auto reopened = ShardRouter::Open(root, "prc", reopened_options);
    ASSERT_TRUE(reopened.ok()) << stage << ": " << reopened.status().ToString();
    // Rolled back to epoch 0 on EVERY shard — no mixed vector, ever.
    ASSERT_TRUE((*reopened)->bootstrapped()) << stage;
    ExpectUniformEpochs(**reopened, 0, "recovery/" + stage);
    // The drained-but-uncommitted deltas are still in the logs…
    EXPECT_GT((*reopened)->TotalPending(), 0u) << stage;
    // …and replay to exactly the no-crash result.
    ASSERT_TRUE((*reopened)->DrainAll().ok()) << stage;
    ExpectUniformEpochs(**reopened, 1, "recovery/" + stage);
    ExpectNumericParity(ShardedSnapshot(**reopened), want, 1e-5,
                        "recovery/" + stage);
  }
}

TEST_F(BarrierRecoveryTest, CrashInsideBootstrapBarrierRollsBackToEmpty) {
  GraphGenOptions gen;
  gen.num_vertices = 48;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  auto spec = pagerank::MakeIterSpec("prb", 2, 100, 1e-8);
  const auto init = InitStateFor(spec, graph);

  std::string root = JoinPath(root_, "bootcrash");
  {
    auto router = ShardRouter::Open(root, "prb", CoordinatedOptions(spec, 3));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ArmCrashAt("mid_flip");
    auto st = (*router)->Bootstrap(graph, init);
    fault::FaultInjector::Instance()->Reset();
    ASSERT_FALSE(st.ok()) << "simulated bootstrap crash must surface";
  }
  // Recovery: epoch 0 never happened anywhere — all-or-nothing bootstrap.
  auto reopened_options = CoordinatedOptions(spec, 3);
  reopened_options.reset = false;
  auto reopened = ShardRouter::Open(root, "prb", reopened_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->bootstrapped());
  // A clean re-bootstrap converges to the unsharded result.
  ASSERT_TRUE((*reopened)->Bootstrap(graph, init).ok());
  ExpectUniformEpochs(**reopened, 0, "bootstrap recovery");
  auto ref = OpenUnsharded(JoinPath(root_, "bootref"), spec);
  ASSERT_TRUE(ref.pipeline != nullptr);
  ASSERT_TRUE(ref.pipeline->Bootstrap(graph, init).ok());
  ExpectNumericParity(ShardedSnapshot(**reopened),
                      ref.pipeline->ServingSnapshot(), 1e-5,
                      "bootstrap recovery");
}

}  // namespace
}  // namespace i2mr
