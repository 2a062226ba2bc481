// Tests for the incremental iterative engine (§5 + §6): refresh equivalence
// with full re-computation, change propagation control, P∆ auto turn-off,
// checkpointing and fault recovery, and parity of the resident structure
// index with the sort-based structure maintenance it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/gimv.h"
#include "apps/kmeans.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/codec.h"
#include "common/hash.h"
#include "core/incr_iter_engine.h"
#include "data/graph_gen.h"
#include "data/matrix_gen.h"
#include "data/points_gen.h"
#include "io/env.h"
#include "io/record_file.h"
#include "mr/cluster.h"

namespace i2mr {
namespace {

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

class CoreIncrIterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/i2mr_incr_iter";
  }
  std::string root_;
};

TEST_F(CoreIncrIterTest, PageRankRefreshMatchesRecompute) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 250;
  gen.avg_degree = 5;
  auto graph = GenGraph(gen);

  IncrIterOptions options;
  options.filter_threshold = 0.0;   // exact propagation
  options.mrbg_auto_off_ratio = 2;  // keep the incremental path under test
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_incr", 4, 80, 1e-8), options);
  auto init = engine.RunInitial(graph, UnitState(graph));
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  EXPECT_GT(init->preserve_ms, 0.0);

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.1;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  EXPECT_FALSE(refresh->mrbg_turned_off);
  EXPECT_GT(refresh->iterations.size(), 1u);

  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto reference = pagerank::Reference(graph, 80, 1e-8);
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, RefreshReportsMrbgWriteVolume) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 300;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  options.mrbg_auto_off_ratio = 2;
  // No compaction: the store only grows by the chunk and tombstone frames
  // it appends, so its footprint growth is its own bytes_appended counter.
  options.store_options.background_compaction = false;
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_wvol", 4, 60, 1e-6), options);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());
  auto before = engine.MrbgFileBytes();
  ASSERT_TRUE(before.ok());

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  auto refresh = engine.RunIncremental(GenGraphDelta(gen, dopt, &graph));
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  ASSERT_FALSE(refresh->mrbg_turned_off);
  auto after = engine.MrbgFileBytes();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(refresh->store_bytes_appended, 0u);
  EXPECT_EQ(refresh->store_bytes_appended, *after - *before);
  EXPECT_EQ(refresh->store_compaction_passes, 0u);
}

TEST_F(CoreIncrIterTest, RefreshTouchesFarFewerMapInstancesThanFullRun) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 400;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  options.filter_threshold = 1e-3;
  options.mrbg_auto_off_ratio = 2;
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_cheap", 4, 60, 1e-6), options);
  auto init = engine.RunInitial(graph, UnitState(graph));
  ASSERT_TRUE(init.ok());
  int64_t full_map_total = 0;
  for (const auto& it : init->iterations) full_map_total += it.map_instances;

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.02;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok());
  // First refresh iteration touches only the delta records.
  EXPECT_EQ(refresh->iterations[0].map_instances,
            static_cast<int64_t>(delta.size()));
  int64_t total_incr_map = 0;
  for (const auto& it : refresh->iterations) total_incr_map += it.map_instances;
  // The whole refresh maps far fewer instances than the full run did.
  EXPECT_LT(total_incr_map, full_map_total / 4);
}

TEST_F(CoreIncrIterTest, CpcDisabledPropagatesEverythingAndStillConverges) {
  LocalCluster cluster(root_, 3);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  auto graph = GenGraph(gen);

  IncrIterOptions no_cpc;
  no_cpc.filter_threshold = -1.0;  // w/o CPC
  no_cpc.mrbg_auto_off_ratio = 2.0;  // never auto-off (to observe propagation)
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_nocpc", 3, 60, 1e-6), no_cpc);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  dopt.seed = 7;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok());
  ASSERT_GT(refresh->iterations.size(), 2u);
  // Without CPC, propagation expands to (nearly) the whole graph.
  int64_t late = refresh->iterations[refresh->iterations.size() - 1].propagated_pairs;
  EXPECT_GT(late, static_cast<int64_t>(gen.num_vertices) / 2);

  auto reference = pagerank::Reference(graph, 60, 1e-6);
  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, CpcFiltersPropagationAndBoundsError) {
  GraphGenOptions gen;
  gen.num_vertices = 200;
  gen.avg_degree = 5;

  auto run_with_threshold = [&](double ft, const std::string& tag,
                                int64_t* total_propagated, double* error) {
    LocalCluster cluster(root_ + "_" + tag, 3);
    auto graph = GenGraph(gen);
    IncrIterOptions options;
    options.filter_threshold = ft;
    IncrementalIterativeEngine engine(
        &cluster, pagerank::MakeIterSpec("pr_ft", 3, 60, 1e-6), options);
    EXPECT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.1;
    dopt.seed = 11;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    auto refresh = engine.RunIncremental(delta);
    EXPECT_TRUE(refresh.ok());
    *total_propagated = 0;
    for (const auto& it : refresh->iterations) {
      *total_propagated += it.propagated_pairs;
    }
    auto reference = pagerank::Reference(graph, 60, 1e-6);
    auto state = engine.StateSnapshot();
    EXPECT_TRUE(state.ok());
    *error = pagerank::MeanError(*state, reference);
  };

  int64_t prop_small, prop_large;
  double err_small, err_large;
  run_with_threshold(1e-4, "small", &prop_small, &err_small);
  run_with_threshold(0.05, "large", &prop_large, &err_large);

  // Larger threshold filters more kv-pairs...
  EXPECT_LT(prop_large, prop_small);
  // ... at some accuracy cost, but bounded (paper: mean errors < 0.2%).
  EXPECT_LT(err_small, 1e-3);
  EXPECT_LT(err_large, 0.05);
  EXPECT_LE(err_small, err_large + 1e-12);
}

TEST_F(CoreIncrIterTest, SsspRefreshExactWithFilterZero) {
  LocalCluster cluster(root_, 3);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  gen.avg_degree = 4;
  gen.weighted = true;
  auto graph = GenGraph(gen);
  std::string source = PaddedNum(0);

  auto spec = sssp::MakeIterSpec("sssp_incr", source, 3);
  std::vector<KV> init_state;
  for (const auto& kv : graph) {
    init_state.push_back(KV{kv.key, spec.init_state(kv.key)});
  }
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  IncrementalIterativeEngine engine(&cluster, spec, options);
  ASSERT_TRUE(engine.RunInitial(graph, init_state).ok());

  // Delta: add shortcut edges from the source (distance decreases only, so
  // incremental relaxation from the converged state is exact).
  std::vector<DeltaKV> delta;
  auto old_src = graph[0];
  auto edges = ParseWeightedAdjacency(old_src.value);
  edges.emplace_back(PaddedNum(77), 0.05);
  edges.emplace_back(PaddedNum(123), 0.01);
  std::string new_sv = JoinWeightedAdjacency(edges);
  delta.push_back(DeltaKV{DeltaOp::kDelete, old_src.key, old_src.value});
  delta.push_back(DeltaKV{DeltaOp::kInsert, old_src.key, new_sv});
  graph[0].value = new_sv;

  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto reference = sssp::Reference(graph, source);
  EXPECT_EQ(sssp::ErrorRate(*state, reference, 1e-9), 0.0);
}

TEST_F(CoreIncrIterTest, GimvRefreshMatchesRecompute) {
  LocalCluster cluster(root_, 3);
  MatrixGenOptions gen;
  gen.num_blocks = 4;
  gen.block_size = 8;
  gen.density = 0.15;
  auto blocks = GenBlockMatrix(gen);
  auto vec = GenVectorBlocks(gen, 1.0);

  IncrIterOptions options;
  options.filter_threshold = 0.0;
  IncrementalIterativeEngine engine(
      &cluster, gimv::MakeIterSpec("gimv_incr", 3, gen.block_size, 0.15, 60, 1e-10),
      options);
  ASSERT_TRUE(engine.RunInitial(blocks, vec).ok());

  auto delta = GenMatrixDelta(gen, 0.15, 9, &blocks);
  ASSERT_FALSE(delta.empty());
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();

  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto reference = gimv::Reference(blocks, vec, gen.block_size, 0.15, 60, 1e-10);
  EXPECT_LT(gimv::MaxDelta(*state, reference), 1e-5);
}

TEST_F(CoreIncrIterTest, KmeansWithMrbgOffRecomputesFromConvergedState) {
  LocalCluster cluster(root_, 3);
  PointsGenOptions gen;
  gen.num_points = 200;
  gen.dims = 2;
  gen.num_clusters = 3;
  auto points = GenPoints(gen);
  auto init = kmeans::InitialState(points, 3);

  IncrIterOptions options;
  options.maintain_mrbg = false;  // §5.2: wasteful for Kmeans
  IncrementalIterativeEngine engine(
      &cluster, kmeans::MakeIterSpec("km_incr", 3, 30, 1e-7), options);
  auto initrun = engine.RunInitial(points, init);
  ASSERT_TRUE(initrun.ok());
  auto converged = engine.StateSnapshot();
  ASSERT_TRUE(converged.ok());
  auto prev_centroids = kmeans::DecodeCentroids((*converged)[0].value);

  auto delta = GenPointsDelta(gen, 0.1, 0.05, 10, &points);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok());
  EXPECT_TRUE(refresh->mrbg_turned_off);

  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto got = kmeans::DecodeCentroids((*state)[0].value);
  // Reference: Lloyd on the updated points FROM the previously converged
  // centroids (§5.1 "use the converged state data Di-1 from job Ai-1").
  auto want = kmeans::Reference(points, prev_centroids, 30, 1e-7);
  EXPECT_LT(kmeans::MaxCentroidDelta(got, want), 1e-5);
}

TEST_F(CoreIncrIterTest, PDeltaAutoTurnOffTriggersOnGlobalChange) {
  LocalCluster cluster(root_, 3);
  GraphGenOptions gen;
  gen.num_vertices = 100;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  options.filter_threshold = -1;      // no CPC -> everything propagates
  options.mrbg_auto_off_ratio = 0.5;  // paper default
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_autooff", 3, 60, 1e-6), options);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());

  // Change most of the graph: P∆ rises above 50% within a few iterations.
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.9;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok());
  EXPECT_TRUE(refresh->mrbg_turned_off);
  EXPECT_GT(refresh->max_p_delta, 0.5);

  // Falls back to full iterative re-computation: result still correct.
  auto reference = pagerank::Reference(graph, 60, 1e-6);
  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, FaultRecoveryProducesSameResults) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  auto run = [&](bool inject, const std::string& tag,
                 std::vector<RecoveryEvent>* recoveries) {
    LocalCluster cluster(root_ + "_" + tag, 3);
    auto graph = GenGraph(gen);
    IncrIterOptions options;
    options.filter_threshold = 0.0;
    options.mrbg_auto_off_ratio = 2;
    options.checkpoint_each_iteration = true;
    if (inject) {
      options.fail_hook = [](int iteration, TaskId::Kind kind, int partition) {
        // Fail map task 1 in iteration 2 and reduce task 0 in iteration 3.
        return (iteration == 2 && kind == TaskId::Kind::kMap && partition == 1) ||
               (iteration == 3 && kind == TaskId::Kind::kReduce && partition == 0);
      };
    }
    IncrementalIterativeEngine engine(
        &cluster, pagerank::MakeIterSpec("pr_ft", 3, 60, 1e-8), options);
    EXPECT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.1;
    dopt.seed = 5;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    auto refresh = engine.RunIncremental(delta);
    EXPECT_TRUE(refresh.ok()) << refresh.status().ToString();
    if (recoveries != nullptr) *recoveries = refresh->recoveries;
    auto state = engine.StateSnapshot();
    EXPECT_TRUE(state.ok());
    return *state;
  };

  std::vector<RecoveryEvent> recoveries;
  auto clean = run(false, "clean", nullptr);
  auto faulty = run(true, "faulty", &recoveries);
  EXPECT_EQ(clean, faulty);  // bit-identical recovery
  ASSERT_EQ(recoveries.size(), 2u);
  EXPECT_EQ(recoveries[0].iteration, 2);
  EXPECT_EQ(recoveries[1].iteration, 3);
  for (const auto& ev : recoveries) {
    EXPECT_GE(ev.recovery_ms, 0.0);
    EXPECT_LT(ev.recovery_ms, 5000.0);
  }
}

TEST_F(CoreIncrIterTest, EmptyDeltaRefreshConvergesImmediately) {
  LocalCluster cluster(root_, 2);
  GraphGenOptions gen;
  gen.num_vertices = 60;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_empty", 2, 40, 1e-8), options);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());
  auto before = engine.StateSnapshot();
  ASSERT_TRUE(before.ok());

  auto refresh = engine.RunIncremental({});
  ASSERT_TRUE(refresh.ok());
  EXPECT_EQ(refresh->iterations.size(), 1u);
  EXPECT_EQ(refresh->iterations[0].map_instances, 0);
  auto after = engine.StateSnapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(CoreIncrIterTest, RefreshAcrossEngineRestarts) {
  // The paper's deployment scenario: jobs A1, A2, A3 run as separate
  // processes (days apart), each picking up the preserved state and
  // MRBGraph of the previous one from disk.
  GraphGenOptions gen;
  gen.num_vertices = 120;
  auto graph = GenGraph(gen);
  std::string root = root_ + "_restart";
  // Separate cluster objects must not wipe each other's state: reuse one
  // root via distinct engine instances (a LocalCluster resets its root on
  // construction, so keep a single cluster alive as the "machine").
  LocalCluster cluster(root, 3);
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  options.mrbg_auto_off_ratio = 2;
  {
    IncrementalIterativeEngine a1(
        &cluster, pagerank::MakeIterSpec("pr_restart", 3, 80, 1e-8), options);
    ASSERT_TRUE(a1.RunInitial(graph, UnitState(graph)).ok());
  }  // engine object destroyed; state + MRBGraph live on disk
  for (int job = 2; job <= 3; ++job) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.08;
    dopt.seed = 40 + job;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    IncrementalIterativeEngine ai(
        &cluster, pagerank::MakeIterSpec("pr_restart", 3, 80, 1e-8), options);
    // A fresh engine has no in-memory state: it must load everything from
    // the partition directories (LoadExisting inside RunIncremental).
    auto refresh = ai.RunIncremental(delta);
    ASSERT_TRUE(refresh.ok()) << "job A" << job << ": "
                              << refresh.status().ToString();
    EXPECT_FALSE(refresh->mrbg_turned_off);
    auto state = ai.StateSnapshot();
    ASSERT_TRUE(state.ok());
    auto reference = pagerank::Reference(graph, 80, 1e-8);
    EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4) << "job A" << job;
  }
}

TEST_F(CoreIncrIterTest, DeletionsStayDeletedAcrossRestart) {
  // Structure deletions empty their MRBG chunks, which the log-structured
  // store records as tombstone frames. A fresh engine's LoadExisting
  // rebuilds each store's index by scanning the segment log — the
  // tombstoned chunks must come back deleted, not resurrect as the
  // pre-delete versions (which are still physically present in older
  // segments until compaction drops them).
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  std::string root = root_ + "_tombstone";
  LocalCluster cluster(root, 3);
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  options.mrbg_auto_off_ratio = 2;
  {
    IncrementalIterativeEngine a1(
        &cluster, pagerank::MakeIterSpec("pr_tomb", 3, 80, 1e-8), options);
    ASSERT_TRUE(a1.RunInitial(graph, UnitState(graph)).ok());
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.0;
    dopt.delete_fraction = 0.15;  // deletions only: every touched chunk
    dopt.seed = 77;               // shrinks or disappears
    auto delta = GenGraphDelta(gen, dopt, &graph);
    auto refresh = a1.RunIncremental(delta);
    ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
    EXPECT_FALSE(refresh->mrbg_turned_off);
  }  // engine destroyed; tombstones live only in the segment log
  IncrementalIterativeEngine a2(
      &cluster, pagerank::MakeIterSpec("pr_tomb", 3, 80, 1e-8), options);
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  dopt.seed = 78;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = a2.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  auto state = a2.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto reference = pagerank::Reference(graph, 80, 1e-8);
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, SecondRefreshContinuesFromFirst) {
  LocalCluster cluster(root_, 3);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  options.mrbg_auto_off_ratio = 2;
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_multi", 3, 80, 1e-8), options);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());

  for (int round = 0; round < 2; ++round) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.08;
    dopt.insert_fraction = 0.02;
    dopt.seed = 20 + round;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    auto refresh = engine.RunIncremental(delta);
    ASSERT_TRUE(refresh.ok()) << "round " << round;
  }
  auto reference = pagerank::Reference(graph, 80, 1e-8);
  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

// ---------------------------------------------------------------------------
// Resident structure index parity
// ---------------------------------------------------------------------------

// Counts structure records per DK. The difference is always 0, so every run
// stops after one iteration: a refresh exercises the structure path (apply,
// rewrite, one full map pass over the index) and accepts any SV.
class CountMapper : public IterMapper {
 public:
  void Map(const std::string&, const std::string&, const std::string& dk,
           const std::string&, MapContext* ctx) override {
    ctx->Emit(dk, "1");
  }
};

class CountReducer : public IterReducer {
 public:
  std::string Reduce(const std::string&,
                     const std::vector<std::string_view>& values,
                     const std::string*) override {
    return std::to_string(values.size());
  }
};

IterJobSpec CountSpec(const std::string& name, int partitions,
                      std::shared_ptr<Projector> projector) {
  IterJobSpec spec;
  spec.name = name;
  spec.num_partitions = partitions;
  spec.projector = std::move(projector);
  spec.mapper = [] { return std::make_unique<CountMapper>(); };
  spec.reducer = [] { return std::make_unique<CountReducer>(); };
  spec.difference = [](const std::string&, const std::string&) { return 0.0; };
  spec.init_state = [](const std::string&) { return std::string("0"); };
  return spec;
}

// The structure maintenance the resident index replaced, kept as the
// reference: per partition, push_back inserts and find-and-erase deletes in
// log order, then a full sort on (project(SK), SK, SV).
class SortedStructureReference {
 public:
  SortedStructureReference(int partitions, std::shared_ptr<Projector> projector)
      : projector_(std::move(projector)), parts_(partitions) {}

  void Insert(const KV& kv) { parts_[PartitionOf(kv.key)].push_back(kv); }

  void Apply(const std::vector<DeltaKV>& batch) {
    for (const auto& d : batch) {
      auto& part = parts_[PartitionOf(d.key)];
      KV kv{d.key, d.value};
      if (d.op == DeltaOp::kDelete) {
        auto it = std::find(part.begin(), part.end(), kv);
        if (it != part.end()) part.erase(it);
      } else {
        part.push_back(kv);
      }
    }
    Sort();
  }

  void Sort() {
    for (auto& part : parts_) {
      std::sort(part.begin(), part.end(), [&](const KV& a, const KV& b) {
        std::string pa = projector_->Project(a.key);
        std::string pb = projector_->Project(b.key);
        if (pa != pb) return pa < pb;
        return a < b;
      });
    }
  }

  const std::vector<KV>& part(int p) const { return parts_[p]; }

 private:
  uint32_t PartitionOf(const std::string& sk) const {
    const bool all_to_one = projector_->dep_type() == DepType::kAllToOne;
    return static_cast<uint32_t>(
        Hash64(all_to_one ? sk : projector_->Project(sk)) % parts_.size());
  }

  std::shared_ptr<Projector> projector_;
  std::vector<std::vector<KV>> parts_;
};

std::vector<KV> IndexOrder(const StructureIndex& index,
                           const Projector& projector) {
  std::vector<KV> out;
  for (const auto& [dk, group] : index.groups()) {
    for (const auto& kv : group) {
      EXPECT_EQ(projector.Project(kv.key), dk) << "record in the wrong group";
      out.push_back(kv);
    }
  }
  return out;
}

std::string FileBytes(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << path;
  return bytes.ok() ? *bytes : std::string();
}

void CheckIndexParity(const std::string& root, const std::string& name,
                      std::shared_ptr<Projector> projector) {
  constexpr int kPartitions = 3;
  LocalCluster cluster(root, 2);
  IncrIterOptions options;
  options.maintain_mrbg = false;
  const IterJobSpec spec = CountSpec(name, kPartitions, projector);
  IncrementalIterativeEngine engine(&cluster, spec, options);
  SortedStructureReference reference(kPartitions, projector);

  // A small key and value universe, so batches collide: duplicate records,
  // re-inserts and deletes of records with no copy left.
  std::mt19937 rng(7);
  auto random_record = [&]() {
    return KV{"k" + std::to_string(10 + rng() % 40),
              std::string(1, static_cast<char>('a' + rng() % 3))};
  };
  std::vector<KV> structure;
  for (int i = 0; i < 80; ++i) structure.push_back(random_record());
  for (const auto& kv : structure) reference.Insert(kv);
  reference.Sort();
  ASSERT_TRUE(engine.RunInitial(structure, {}).ok());

  const std::string ref_path = JoinPath(root, "reference.dat");
  auto check = [&](const std::string& when) {
    IncrementalIterativeEngine reloaded(&cluster, spec, options);
    ASSERT_TRUE(reloaded.LoadExisting().ok()) << when;
    for (int p = 0; p < kPartitions; ++p) {
      SCOPED_TRACE(when + ", partition " + std::to_string(p));
      const auto& want = reference.part(p);
      ASSERT_TRUE(WriteRecords(ref_path, want).ok());
      const std::string want_bytes = FileBytes(ref_path);
      EXPECT_EQ(IndexOrder(engine.structure(p), *projector), want);
      EXPECT_EQ(FileBytes(engine.StructurePath(p)), want_bytes);
      EXPECT_EQ(IndexOrder(reloaded.structure(p), *projector), want);
      ASSERT_TRUE(reloaded.structure(p).Write(ref_path).ok());
      EXPECT_EQ(FileBytes(ref_path), want_bytes);
    }
  };
  check("after prepare");

  for (int round = 0; round < 8; ++round) {
    std::vector<DeltaKV> batch;
    for (int i = 0; i < 30; ++i) {
      KV kv = random_record();
      DeltaOp op = rng() % 2 == 0 ? DeltaOp::kInsert : DeltaOp::kDelete;
      batch.push_back(DeltaKV{op, kv.key, kv.value});
    }
    // Duplicate insert of one record.
    KV dup = random_record();
    batch.push_back(DeltaKV{DeltaOp::kInsert, dup.key, dup.value});
    batch.push_back(DeltaKV{DeltaOp::kInsert, dup.key, dup.value});
    // Ops apply in log order: delete-then-insert of a present record keeps
    // one copy, insert-then-delete of an absent record leaves none, and
    // delete-then-insert of an absent record warns, then inserts it.
    const KV& present = reference.part(round % kPartitions).empty()
                            ? dup
                            : reference.part(round % kPartitions).front();
    batch.push_back(DeltaKV{DeltaOp::kDelete, present.key, present.value});
    batch.push_back(DeltaKV{DeltaOp::kInsert, present.key, present.value});
    const std::string fresh_value = "new" + std::to_string(round);
    batch.push_back(DeltaKV{DeltaOp::kInsert, "k20", fresh_value});
    batch.push_back(DeltaKV{DeltaOp::kDelete, "k20", fresh_value});
    batch.push_back(DeltaKV{DeltaOp::kDelete, "k21", fresh_value});
    batch.push_back(DeltaKV{DeltaOp::kInsert, "k21", fresh_value});
    // Delete of a record that never existed: warns, changes nothing.
    batch.push_back(DeltaKV{DeltaOp::kDelete, "k31", "never"});
    std::shuffle(batch.begin(), batch.end() - 9, rng);

    reference.Apply(batch);
    auto refresh = engine.RunIncremental(batch);
    ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
    check("after batch " + std::to_string(round));
  }
}

TEST_F(CoreIncrIterTest, StructureIndexParityIdentityProjector) {
  CheckIndexParity(root_ + "_parity_id", "parity_id",
                   std::make_shared<IdentityProjector>());
}

TEST_F(CoreIncrIterTest, StructureIndexParityConstProjector) {
  CheckIndexParity(root_ + "_parity_const", "parity_const",
                   std::make_shared<ConstProjector>("centroids"));
}

TEST_F(CoreIncrIterTest, StructureIndexParityManyToOneProjector) {
  CheckIndexParity(
      root_ + "_parity_fn", "parity_fn",
      std::make_shared<FnProjector>(
          [](const std::string& sk) { return sk.substr(0, 2); },
          DepType::kManyToOne));
}

}  // namespace
}  // namespace i2mr
