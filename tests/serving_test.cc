// Tests for the sharded serving subsystem: ShardRouter key routing,
// whole-graph exactness, refusal of configurations it cannot serve
// correctly, and recovery, ShardGroup epoch-consistent pinned snapshots
// (reads keep
// serving the pinned epochs while commits and log purges land underneath),
// scatter-gather range/top-k, per-tenant read-QPS and epoch-scheduling
// quotas, and concurrent readers vs. commit/purge (run under the TSan job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/kmeans.h"
#include "apps/pagerank.h"
#include "common/codec.h"
#include "data/graph_gen.h"
#include "io/env.h"
#include "serving/admission.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"

namespace i2mr {
namespace {

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

ShardRouterOptions PageRankShards(int num_shards, int partitions = 2) {
  ShardRouterOptions options;
  options.num_shards = num_shards;
  options.workers_per_shard = 2;
  options.pipeline.spec = pagerank::MakeIterSpec("pr", partitions, 100, 1e-9);
  options.pipeline.engine.filter_threshold = 0.0;
  options.pipeline.engine.mrbg_auto_off_ratio = 2;
  options.pipeline.log.segment_bytes = 8 << 10;  // small: exercise rotation
  return options;
}

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/i2mr_serving";
    ASSERT_TRUE(ResetDir(root_).ok());
  }
  std::string root_;
};

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

TEST_F(ServingTest, RoutingIsStableAndCoversAllShards) {
  auto router = ShardRouter::Open(root_, "pr", PageRankShards(4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 400; ++i) {
    std::string key = PaddedNum(i);
    int s = (*router)->ShardOf(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, (*router)->ShardOf(key));  // stable
    ++hits[s];
  }
  for (int s = 0; s < 4; ++s) EXPECT_GT(hits[s], 0) << "empty shard " << s;
}

TEST_F(ServingTest, ShardedBootstrapServesEveryKeyFromItsShard) {
  GraphGenOptions gen;
  gen.num_vertices = 200;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  ASSERT_TRUE((*router)->bootstrapped());

  // Every key is served, by its own shard, matching that shard's committed
  // snapshot exactly.
  for (const auto& kv : graph) {
    auto served = (*router)->Lookup(kv.key);
    ASSERT_TRUE(served.ok()) << kv.key;
    auto direct = (*router)->shard((*router)->ShardOf(kv.key))->Lookup(kv.key);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*served, *direct);
  }
  EXPECT_TRUE((*router)->Lookup("no-such-key").status().IsNotFound());
  // All shards committed their epoch 0.
  for (uint64_t e : (*router)->CommittedEpochs()) EXPECT_EQ(e, 0u);
}

TEST_F(ServingTest, DeltasRouteToTheRightShardAndMatchTheWholeGraph) {
  GraphGenOptions gen;
  gen.num_vertices = 160;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  for (int round = 1; round <= 2; ++round) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.08;
    dopt.seed = 40 + round;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    ASSERT_TRUE(
        (*router)
            ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
            .ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
    EXPECT_EQ((*router)->TotalPending(), 0u);
  }

  // Exactly-once across shards: the union of the served ranks matches a
  // from-scratch run over the WHOLE final graph, cross-shard edges
  // included.
  std::vector<KV> served;
  for (int s = 0; s < 4; ++s) {
    auto part = (*router)->shard(s)->ServingSnapshot();
    EXPECT_FALSE(part.empty()) << "shard " << s;
    served.insert(served.end(), part.begin(), part.end());
  }
  EXPECT_LT(pagerank::MeanError(served, pagerank::Reference(graph, 100, 1e-9)),
            1e-3);
}

// Configurations that would serve wrong answers are refused at Open.
TEST_F(ServingTest, OpenRefusesShardsThatRefreshAlone) {
  ShardRouterOptions options = PageRankShards(4);
  options.cross_shard_exchange = false;
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(ServingTest, OpenRefusesAnAllToOneApp) {
  ShardRouterOptions options;
  options.num_shards = 2;
  options.pipeline.spec = kmeans::MakeIterSpec("km", 2);
  auto router = ShardRouter::Open(root_, "km", options);
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(router.status().ToString().find("all-to-one"), std::string::npos)
      << router.status().ToString();
}

TEST_F(ServingTest, RouterRecoversAllShardsWithResetFalse) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  std::map<std::string, std::string> before;
  {
    auto router = ShardRouter::Open(root_, "pr", PageRankShards(4));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.1;
    dopt.seed = 7;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    ASSERT_TRUE(
        (*router)
            ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
            .ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
    for (const auto& kv : graph) {
      auto v = (*router)->Lookup(kv.key);
      ASSERT_TRUE(v.ok());
      before[kv.key] = *v;
    }
  }
  // "Process restart": re-attach every shard cluster and recover.
  ShardRouterOptions options = PageRankShards(4);
  options.reset = false;
  auto reopened = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->bootstrapped());
  for (const auto& [key, value] : before) {
    auto v = (*reopened)->Lookup(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value);
  }
  // And it keeps ingesting.
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  dopt.seed = 8;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*reopened)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  ASSERT_TRUE((*reopened)->DrainAll().ok());
}

// ---------------------------------------------------------------------------
// ShardGroup: epoch-consistent pinned snapshots
// ---------------------------------------------------------------------------

TEST_F(ServingTest, PinnedSnapshotSurvivesCommitAndPurge) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  ShardGroup group(router->get());

  auto pinned = group.PinSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->epochs(), std::vector<uint64_t>(4, 0));
  // Record what the pinned view serves, and which epoch dirs back it.
  std::map<std::string, std::string> pinned_values;
  for (const auto& kv : graph) {
    auto v = pinned->Get(kv.key);
    ASSERT_TRUE(v.ok());
    pinned_values[kv.key] = *v;
  }

  // Commits + purges land underneath the pin on every shard.
  std::vector<uint64_t> purge_before;
  for (int s = 0; s < 4; ++s) {
    purge_before.push_back((*router)->shard(s)->log()->purge_watermark());
  }
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.3;
  dopt.seed = 11;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*router)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  ASSERT_TRUE((*router)->DrainAll().ok());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ((*router)->shard(s)->committed_epoch(), 1u);
    // purge_log_on_commit really retired the drained records underneath.
    EXPECT_GT((*router)->shard(s)->log()->purge_watermark(), purge_before[s]);
  }

  // The in-flight pinned snapshot still serves epoch 0, bit for bit, and
  // its epoch dirs are still on disk (refcount held them out of GC).
  EXPECT_EQ(pinned->epochs(), std::vector<uint64_t>(4, 0));
  for (const auto& [key, value] : pinned_values) {
    auto v = pinned->Get(key);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, value) << key;
  }

  // A fresh pin sees the new consistent cut.
  auto fresh = group.PinSnapshot();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->epochs(), std::vector<uint64_t>(4, 1));
  bool changed = false;
  for (const auto& [key, value] : pinned_values) {
    auto v = fresh->Get(key);
    if (v.ok() && *v != value) changed = true;
  }
  EXPECT_TRUE(changed) << "the delta epoch changed no served value";
}

TEST_F(ServingTest, PinnedEpochDirStaysOnDiskWhilePinned) {
  GraphGenOptions gen;
  gen.num_vertices = 80;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  Pipeline* shard0 = (*router)->shard(0);
  EpochPin pin = shard0->PinServing();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.epoch(), 0u);
  ASSERT_TRUE(FileExists(JoinPath(pin.dir(), "MANIFEST")));

  auto run_epoch = [&](int seed) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.2;
    dopt.seed = seed;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    ASSERT_TRUE(
        (*router)
            ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
            .ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
  };
  run_epoch(31);
  run_epoch(32);

  // Two commits later the pinned epoch-0 dir is still there...
  EXPECT_TRUE(FileExists(JoinPath(pin.dir(), "MANIFEST")));
  std::string dir = pin.dir();
  pin = EpochPin();  // release
  run_epoch(33);
  // ...and the commit after the release collects it.
  EXPECT_FALSE(FileExists(JoinPath(dir, "MANIFEST")));
}

TEST_F(ServingTest, MultiGetRangeAndTopKAnswerFromThePinnedCut) {
  GraphGenOptions gen;
  gen.num_vertices = 150;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  ASSERT_TRUE((*router)->DrainAll().ok());
  ShardGroup group(router->get());

  auto snap = group.PinSnapshot();
  ASSERT_TRUE(snap.ok());

  // The union of all shards' committed snapshots = expected answers.
  std::vector<KV> all;
  for (int s = 0; s < 4; ++s) {
    auto part = (*router)->shard(s)->ServingSnapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());

  // Full-range scan matches, in key order.
  auto scanned = snap->Range("", "");
  ASSERT_EQ(scanned.size(), all.size());
  EXPECT_TRUE(std::equal(all.begin(), all.end(), scanned.begin()));

  // Bounded range + limit.
  std::string lo = all[all.size() / 4].key, hi = all[3 * all.size() / 4].key;
  std::vector<KV> expect_range;
  for (const auto& kv : all) {
    if (kv.key >= lo && kv.key < hi) expect_range.push_back(kv);
  }
  auto ranged = snap->Range(lo, hi);
  ASSERT_EQ(ranged.size(), expect_range.size());
  EXPECT_TRUE(std::equal(expect_range.begin(), expect_range.end(),
                         ranged.begin()));
  auto limited = snap->Range(lo, hi, 5);
  ASSERT_EQ(limited.size(), std::min<size_t>(5, expect_range.size()));
  EXPECT_TRUE(std::equal(limited.begin(), limited.end(), expect_range.begin()));

  // MultiGet: every key answered from its shard's pinned epoch.
  std::vector<std::string> keys;
  for (size_t i = 0; i < all.size(); i += 7) keys.push_back(all[i].key);
  keys.push_back("no-such-key");
  auto got = snap->MultiGet(keys);
  ASSERT_EQ(got.size(), keys.size());
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << keys[i];
  }
  EXPECT_TRUE(got.back().status().IsNotFound());

  // TopK by rank matches a global sort (score desc, key asc).
  auto rank_of = [](const KV& kv) {
    auto v = ParseDouble(kv.value);
    return v.ok() ? *v : 0.0;
  };
  std::vector<KV> by_rank = all;
  std::sort(by_rank.begin(), by_rank.end(), [&](const KV& a, const KV& b) {
    double ra = rank_of(a), rb = rank_of(b);
    if (ra != rb) return ra > rb;
    return a.key < b.key;
  });
  auto top = snap->TopK(10, rank_of);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].key, by_rank[i].key) << "rank " << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrent readers vs. commit + purge (TSan target)
// ---------------------------------------------------------------------------

TEST_F(ServingTest, ConcurrentPinnedReadersNeverObserveHalfCommittedEpochs) {
  GraphGenOptions gen;
  gen.num_vertices = 60;
  gen.avg_degree = 3;
  auto graph = GenGraph(gen);

  ShardRouterOptions options = PageRankShards(4, /*partitions=*/1);
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  ShardGroup group(router->get());

  const std::string probe = graph.front().key;
  const int probe_shard = (*router)->ShardOf(probe);

  // The writer records, per committed epoch of the probe's shard, the value
  // the probe served right after that commit (the writer is the only
  // epoch driver, so this map is the ground truth per epoch id).
  std::mutex truth_mu;
  std::map<uint64_t, std::string> truth;
  {
    auto v = (*router)->Lookup(probe);
    ASSERT_TRUE(v.ok());
    std::lock_guard<std::mutex> lock(truth_mu);
    truth[0] = *v;
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto fail = [&](const std::string& msg) {
    ADD_FAILURE() << msg;
    failures.fetch_add(1);
    stop.store(true);
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<uint64_t> last_epochs;
      while (!stop.load()) {
        auto snap = group.PinSnapshot();
        if (!snap.ok()) {
          fail("pin failed: " + snap.status().ToString());
          return;
        }
        // Version vectors move forward only.
        if (!last_epochs.empty()) {
          for (size_t s = 0; s < last_epochs.size(); ++s) {
            if (snap->epochs()[s] < last_epochs[s]) {
              fail("epoch went backwards");
              return;
            }
          }
        }
        last_epochs = snap->epochs();
        // Repeated reads through one snapshot agree (frozen view) and
        // match the ground truth for the pinned epoch id — a pin that
        // paired the new epoch id with the old store (or a torn commit)
        // would diverge here.
        auto v1 = snap->Get(probe);
        auto v2 = snap->Get(probe);
        if (!v1.ok() || !v2.ok() || *v1 != *v2) {
          fail("unstable read through a pinned snapshot");
          return;
        }
        uint64_t e = snap->epochs()[probe_shard];
        {
          std::lock_guard<std::mutex> lock(truth_mu);
          auto it = truth.find(e);
          if (it != truth.end() && it->second != *v1) {
            fail("pinned epoch " + std::to_string(e) +
                 " served a value from another epoch");
            return;
          }
        }
        // Scatter-gather against the frozen cut must be internally
        // consistent too.
        auto top = snap->TopK(3, [](const KV& kv) {
          auto v = ParseDouble(kv.value);
          return v.ok() ? *v : 0.0;
        });
        if (top.empty()) {
          fail("empty TopK on a bootstrapped group");
          return;
        }
      }
    });
  }

  // Writer: stream deltas and drive epochs (commit + purge) underneath.
  for (int epoch = 0; epoch < 5 && !stop.load(); ++epoch) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.25;
    dopt.seed = 60 + epoch;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    ASSERT_TRUE(
        (*router)
            ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
            .ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
    auto v = (*router)->shard(probe_shard)->Lookup(probe);
    ASSERT_TRUE(v.ok());
    std::lock_guard<std::mutex> lock(truth_mu);
    truth[(*router)->shard(probe_shard)->committed_epoch()] = *v;
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// AdmissionController: multi-tenant quotas
// ---------------------------------------------------------------------------

TEST(AdmissionTest, ReadTokenBucketAdmitsBurstThenRejects) {
  MetricsRegistry metrics;
  AdmissionController admission(&metrics, "adm_test1");
  TenantQuota quota;
  quota.read_rate = 0.001;  // effectively no refill within the test
  quota.read_burst = 3;
  admission.SetQuota("tenant-a", quota);

  EXPECT_TRUE(admission.AdmitRead("tenant-a"));
  EXPECT_TRUE(admission.AdmitRead("tenant-a"));
  EXPECT_TRUE(admission.AdmitRead("tenant-a"));
  EXPECT_FALSE(admission.AdmitRead("tenant-a"));
  EXPECT_FALSE(admission.AdmitRead("tenant-a"));

  auto stats = admission.tenant_stats("tenant-a");
  EXPECT_EQ(stats.reads_admitted, 3u);
  EXPECT_EQ(stats.reads_rejected, 2u);

  // An unquoted tenant is never rejected.
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(admission.AdmitRead("tenant-b"));
  EXPECT_EQ(admission.tenant_stats("tenant-b").reads_rejected, 0u);
}

TEST(AdmissionTest, ZeroRateIsAHardDenyNotAOneRequestBurst) {
  MetricsRegistry metrics;
  AdmissionController admission(&metrics, "adm_zero");
  TenantQuota blocked;
  blocked.read_rate = 0;   // "block this tenant"
  blocked.epoch_rate = 0;  // and never schedule its refreshes
  admission.SetQuota("banned", blocked);

  // The burst default (max(rate, 1) = 1) plus the start-full bucket used
  // to admit exactly one request; rate == 0 must deny from the first.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(admission.AdmitRead("banned")) << "request " << i;
    EXPECT_FALSE(admission.AdmitEpoch("banned")) << "epoch " << i;
  }
  auto stats = admission.tenant_stats("banned");
  EXPECT_EQ(stats.reads_admitted, 0u);
  EXPECT_EQ(stats.reads_rejected, 5u);
  EXPECT_EQ(stats.epochs_admitted, 0u);
  EXPECT_EQ(stats.epochs_deferred, 5u);
}

TEST(AdmissionTest, ReadBucketRefillsAtRate) {
  MetricsRegistry metrics;
  AdmissionController admission(&metrics, "adm_test2");
  TenantQuota quota;
  quota.read_rate = 1000;  // 1 token/ms
  quota.read_burst = 2;
  admission.SetQuota("t", quota);
  EXPECT_TRUE(admission.AdmitRead("t"));
  EXPECT_TRUE(admission.AdmitRead("t"));
  // Drained. A generous sleep refills well past one token.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(admission.AdmitRead("t"));
}

TEST_F(ServingTest, ThrottledTenantDoesNotAffectAnotherTenantsReads) {
  GraphGenOptions gen;
  gen.num_vertices = 80;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  MetricsRegistry metrics;
  AdmissionController admission(&metrics, "adm_serving");
  TenantQuota limited;
  limited.read_rate = 0.001;
  limited.read_burst = 2;
  admission.SetQuota("tenant-a", limited);

  ShardRouterOptions options = PageRankShards(4);
  options.metrics = &metrics;
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  ShardGroupOptions gopts;
  gopts.admission = &admission;
  ShardGroup group(router->get(), gopts);

  const std::string probe = graph.front().key;
  // Tenant A burns its burst, then is bounced at the edge...
  ASSERT_TRUE(group.Get("tenant-a", probe).ok());
  ASSERT_TRUE(group.Get("tenant-a", probe).ok());
  auto rejected = group.Get("tenant-a", probe);
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  EXPECT_TRUE(group.PinSnapshot("tenant-a").status().IsResourceExhausted());

  // ...while tenant B's reads all keep succeeding, unaffected.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(group.Get("tenant-b", probe).ok());
    ASSERT_TRUE(group.PinSnapshot("tenant-b").ok());
  }
  EXPECT_GE(admission.tenant_stats("tenant-a").reads_rejected, 2u);
  EXPECT_EQ(admission.tenant_stats("tenant-b").reads_rejected, 0u);
}

TEST_F(ServingTest, EpochQuotaDefersOneTenantsBacklogNotTheOthers) {
  GraphGenOptions gen;
  gen.num_vertices = 60;
  gen.avg_degree = 3;
  auto graph_a = GenGraph(gen);
  gen.seed = 99;
  auto graph_b = GenGraph(gen);

  MetricsRegistry metrics;
  AdmissionController admission(&metrics, "adm_epochs");
  // Tenant A: one epoch, then deferred (no refill within the test).
  TenantQuota starved;
  starved.epoch_rate = 0.001;
  starved.epoch_burst = 1;
  admission.SetQuota("tenant-a", starved);

  auto make = [&](const std::string& name, const std::string& tenant,
                  const std::string& subroot) {
    ShardRouterOptions options = PageRankShards(2, /*partitions=*/1);
    options.metrics = &metrics;
    options.tenant = tenant;
    options.admission = &admission;
    options.pipeline.min_batch = 1;
    options.poll_interval_ms = 2;
    return ShardRouter::Open(JoinPath(root_, subroot), name, options);
  };
  auto router_a = make("pr_a", "tenant-a", "a");
  auto router_b = make("pr_b", "tenant-b", "b");
  ASSERT_TRUE(router_a.ok()) << router_a.status().ToString();
  ASSERT_TRUE(router_b.ok()) << router_b.status().ToString();
  ASSERT_TRUE((*router_a)->Bootstrap(graph_a, UnitState(graph_a)).ok());
  ASSERT_TRUE((*router_b)->Bootstrap(graph_b, UnitState(graph_b)).ok());

  // Both tenants build a multi-epoch backlog, then the background
  // coordinators compete under the quota (one AdmitEpoch per epoch).
  auto feed = [&](ShardRouter* router, std::vector<KV>* graph, int seed) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.2;
    dopt.seed = seed;
    auto delta = GenGraphDelta(gen, dopt, graph);
    ASSERT_TRUE(
        router->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
            .ok());
  };
  (*router_a)->Start();
  (*router_b)->Start();
  for (int i = 0; i < 4; ++i) {
    feed(router_a->get(), &graph_a, 200 + i);
    feed(router_b->get(), &graph_b, 300 + i);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  // Tenant B drains fully despite A's standing backlog. The bound is 5 s,
  // not 2 s: under TSan B's own two coordinated epochs take ~3.5 s, the
  // same with A's coordinator stopped, so 2 s would time B, not A's
  // starving of it.
  for (int i = 0; i < 500 && (*router_b)->TotalPending() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*router_b)->TotalPending(), 0u);
  // A's coordinator asks again only once its one admitted epoch is done
  // (seconds under sanitizers).
  for (int i = 0;
       i < 1000 && admission.tenant_stats("tenant-a").epochs_deferred == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (*router_a)->Stop();
  (*router_b)->Stop();

  EXPECT_GT((*router_a)->TotalPending(), 0u)
      << "tenant-a's backlog should still be deferred";
  EXPECT_GT(admission.tenant_stats("tenant-a").epochs_deferred, 0u);
  EXPECT_EQ(admission.tenant_stats("tenant-b").epochs_deferred, 0u);
  // An explicit drain bypasses the gate (operator override), so the
  // backlog is still fully recoverable.
  ASSERT_TRUE((*router_a)->DrainAll().ok());
  EXPECT_EQ((*router_a)->TotalPending(), 0u);
}

// While a shard is down every coordinated epoch would refuse, so the
// coordinator skips its ticks instead of charging the tenant's epoch quota
// for them; after the promotion the tenant is not throttled for epochs
// that never ran.
TEST_F(ServingTest, DownShardTicksChargeNoEpochQuota) {
  GraphGenOptions gen;
  gen.num_vertices = 60;
  gen.avg_degree = 3;
  auto graph = GenGraph(gen);

  MetricsRegistry metrics;
  AdmissionController admission(&metrics, "adm_down");
  ShardRouterOptions options = PageRankShards(2, /*partitions=*/1);
  options.metrics = &metrics;
  options.tenant = "tenant-a";
  options.admission = &admission;
  options.pipeline.min_batch = 1;
  options.poll_interval_ms = 2;
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ASSERT_TRUE((*router)->MarkShardDown(0).ok());
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.2;
  dopt.seed = 400;
  std::vector<DeltaKV> live;
  for (const auto& d : GenGraphDelta(gen, dopt, &graph)) {
    if ((*router)->ShardOf(d.key) == 1) live.push_back(d);
  }
  ASSERT_FALSE(live.empty());
  ASSERT_TRUE((*router)->AppendBatch(live).ok());

  (*router)->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  (*router)->Stop();
  EXPECT_GT((*router)->TotalPending(), 0u);
  const auto stats = admission.tenant_stats("tenant-a");
  EXPECT_EQ(stats.epochs_admitted, 0u);
  EXPECT_EQ(stats.epochs_deferred, 0u);
}

// ---------------------------------------------------------------------------
// Router counters: successes only
// ---------------------------------------------------------------------------

TEST_F(ServingTest, RouterCountersCountOnlySuccessfulAppendsAndLookups) {
  GraphGenOptions gen;
  gen.num_vertices = 40;
  gen.avg_degree = 3;
  auto graph = GenGraph(gen);

  MetricsRegistry metrics;
  ShardRouterOptions options = PageRankShards(1);
  options.metrics = &metrics;
  // A tiny segment plus a simulated crash at the first rotation: appends
  // start failing mid-test, exactly the case the counters used to
  // overcount.
  options.pipeline.log.segment_bytes = 256;
  options.pipeline.log.crash_hook = [](const std::string& stage) {
    return stage == "rotate";
  };
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto deltas_routed = [&] {
    return metrics.Get("serving.pr.router.deltas_routed")->value();
  };
  auto lookups_routed = [&] {
    return metrics.Get("serving.pr.router.lookups_routed")->value();
  };

  // A lookup the shard cannot answer (not bootstrapped) was not served.
  EXPECT_FALSE((*router)->Lookup(graph[0].key).ok());
  EXPECT_EQ(lookups_routed(), 0);

  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  // Served lookups count — including a definitive NotFound.
  ASSERT_TRUE((*router)->Lookup(graph[0].key).ok());
  EXPECT_TRUE((*router)->Lookup("no-such-key").status().IsNotFound());
  EXPECT_EQ(lookups_routed(), 2);

  int64_t successes = 0;
  bool saw_failure = false;
  for (int i = 0; i < 50; ++i) {
    DeltaKV d{DeltaOp::kInsert, graph[i % graph.size()].key,
              "0000000001 0000000002"};
    auto seq = (*router)->Append(d);
    if (seq.ok()) {
      ASSERT_FALSE(saw_failure) << "log must stay failed once crashed";
      ++successes;
    } else {
      saw_failure = true;
    }
  }
  ASSERT_TRUE(saw_failure) << "the rotation crash hook never fired";
  ASSERT_GT(successes, 0);
  EXPECT_EQ(deltas_routed(), successes);

  // A batch into the crashed log routes nothing and counts nothing.
  std::vector<DeltaKV> batch(
      5, DeltaKV{DeltaOp::kInsert, graph[0].key, "0000000001"});
  EXPECT_FALSE((*router)->AppendBatch(batch).ok());
  EXPECT_EQ(deltas_routed(), successes);
}

// ---------------------------------------------------------------------------
// Range: one k-way merge across many shards
// ---------------------------------------------------------------------------

TEST_F(ServingTest, RangeMergesManyShardsWithEarlyStopAtLimit) {
  GraphGenOptions gen;
  gen.num_vertices = 300;
  gen.avg_degree = 3;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(8, 1));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  ShardGroup group(router->get());
  auto snap = group.PinSnapshot();
  ASSERT_TRUE(snap.ok());

  std::vector<KV> all;
  for (int s = 0; s < 8; ++s) {
    auto part = (*router)->shard(s)->ServingSnapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());

  auto full = snap->Range("", "");
  ASSERT_EQ(full.size(), all.size());
  EXPECT_TRUE(std::equal(all.begin(), all.end(), full.begin()));

  // Early stop: the first `limit` records in key order, across 8 shards.
  for (size_t limit : {size_t{1}, size_t{7}, size_t{100}, all.size() + 10}) {
    auto limited = snap->Range("", "", limit);
    size_t want = std::min(limit, all.size());
    ASSERT_EQ(limited.size(), want) << "limit " << limit;
    EXPECT_TRUE(std::equal(limited.begin(), limited.end(), all.begin()))
        << "limit " << limit;
  }
  EXPECT_TRUE(snap->Range("", "", 0).empty());

  // Bounded ranges still merge correctly.
  std::string lo = all[all.size() / 3].key, hi = all[2 * all.size() / 3].key;
  std::vector<KV> expect;
  for (const auto& kv : all) {
    if (kv.key >= lo && kv.key < hi) expect.push_back(kv);
  }
  auto bounded = snap->Range(lo, hi);
  ASSERT_EQ(bounded.size(), expect.size());
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), bounded.begin()));
  auto bounded_limited = snap->Range(lo, hi, 9);
  ASSERT_EQ(bounded_limited.size(), std::min<size_t>(9, expect.size()));
  EXPECT_TRUE(std::equal(bounded_limited.begin(), bounded_limited.end(),
                         expect.begin()));
}

// ---------------------------------------------------------------------------
// Metrics surfacing
// ---------------------------------------------------------------------------

TEST_F(ServingTest, PerShardCountersSurfaceThroughTheRegistry) {
  GraphGenOptions gen;
  gen.num_vertices = 80;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  MetricsRegistry metrics;
  ShardRouterOptions options = PageRankShards(4);
  options.metrics = &metrics;
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  ShardGroup group(router->get());

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.2;
  dopt.seed = 5;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  size_t delta_count = delta.size();
  ASSERT_TRUE(
      (*router)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  ASSERT_TRUE((*router)->DrainAll().ok());
  auto snap = group.PinSnapshot();
  ASSERT_TRUE(snap.ok());
  for (const auto& kv : graph) ASSERT_TRUE(snap->Get(kv.key).ok());

  // Every shard committed exactly one delta epoch; the replayed-record
  // counters sum to the routed batch.
  int64_t epochs = 0;
  for (int s = 0; s < 4; ++s) {
    std::string prefix = "serving.pr.shard" + std::to_string(s);
    EXPECT_EQ(metrics.Get(prefix + ".epochs_committed")->value(), 1)
        << prefix;
    EXPECT_GT(metrics.Get(prefix + ".snapshot_reads")->value(), 0) << prefix;
    epochs += metrics.Get(prefix + ".epochs_committed")->value();
  }
  EXPECT_EQ(epochs, 4);
  EXPECT_GT(metrics.SumPrefixed("serving.pr."), 0);
  int64_t replayed = 0;
  for (int s = 0; s < 4; ++s) {
    replayed += metrics
                    .Get("serving.pr.shard" + std::to_string(s) +
                         ".deltas_applied")
                    ->value();
  }
  EXPECT_EQ(replayed, static_cast<int64_t>(delta_count));
  EXPECT_EQ(metrics.Get("serving.pr.router.deltas_routed")->value(),
            static_cast<int64_t>(delta_count));
  EXPECT_EQ(metrics.Get("serving.pr.snapshots_pinned")->value(), 1);
}

}  // namespace
}  // namespace i2mr
