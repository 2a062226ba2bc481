// Tests for the read-replica subsystem: delta-log + epoch shipping to
// followers, pinned reads over replica backends, kill-a-replica
// availability (reads keep succeeding, lag recovers after restart),
// compressed-archive shipping, and promote-on-primary-death failover inside
// the coordinated fleet (the promoted follower serves exactly the pre-crash
// committed epoch, a follower behind the fleet is refused, and the fleet
// keeps committing barrier epochs equal to the unsharded computation).
// Runs in the TSan matrix: the concurrent-reader sections double as race
// checks on the shipper/cutover paths.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/pagerank.h"
#include "data/graph_gen.h"
#include "io/compress.h"
#include "io/env.h"
#include "pipeline/delta_log.h"
#include "replication/replica_set.h"
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

/// Mean error of the fleet's served ranks (union over the set's current
/// primaries) against a from-scratch run over the whole graph.
double FleetError(const ReplicaSet& set, const std::vector<KV>& graph) {
  std::vector<KV> served;
  for (int s = 0; s < set.num_shards(); ++s) {
    auto part = set.primary(s)->ServingSnapshot();
    served.insert(served.end(), part.begin(), part.end());
  }
  return pagerank::MeanError(served, pagerank::Reference(graph, 100, 1e-9));
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/i2mr_replication";
    replicas_ = ::testing::TempDir() + "/i2mr_replication_replicas";
    ASSERT_TRUE(ResetDir(root_).ok());
    ASSERT_TRUE(ResetDir(replicas_).ok());
  }

  void AppendDelta(ShardRouter* router, std::vector<KV>* graph,
                   const GraphGenOptions& gen, int seed) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.08;
    dopt.seed = seed;
    auto delta = GenGraphDelta(gen, dopt, graph);
    ASSERT_TRUE(
        router->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
            .ok());
  }

  std::string root_;
  std::string replicas_;
};

// ---------------------------------------------------------------------------
// Shipping
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, ShipsCommittedEpochsAndServesThemFromFollowers) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  ro.read_from_primary = false;  // reads must come from followers
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Every follower applied exactly the primary's committed epoch, counted
  // honest shipped bytes, and reports zero lag.
  for (int s = 0; s < 2; ++s) {
    FollowerReplica* f = (*set)->replica(s, 0);
    EXPECT_EQ(f->applied_epoch(), (*router)->shard(s)->committed_epoch());
    EXPECT_EQ(f->applied_watermark(),
              (*router)->shard(s)->committed_watermark());
    EXPECT_GT(f->shipped_bytes()->value(), 0);
    EXPECT_TRUE((*set)->shipper(s)->IsCaughtUp(0));
  }

  // Follower-served reads agree with the primary for every key.
  for (const auto& kv : graph) {
    auto replica_read = (*set)->Get(kv.key);
    ASSERT_TRUE(replica_read.ok()) << kv.key;
    auto primary_read = (*router)->Lookup(kv.key);
    ASSERT_TRUE(primary_read.ok());
    EXPECT_EQ(*replica_read, *primary_read);
  }

  // New epochs keep flowing: append, drain, sync, re-check.
  AppendDelta(router->get(), &graph, gen, 41);
  ASSERT_TRUE((*router)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());
  auto snap = (*set)->PinSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->epochs(), (*router)->CommittedEpochs());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ((*set)->replica(s, 0)->applied_epoch(),
              (*router)->shard(s)->committed_epoch());
    EXPECT_GT((*set)->replica(s, 0)->applied_epochs()->value(), 1);
  }
}

TEST_F(ReplicationTest, ShipsCompressedArchiveSegmentsTransparently) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  ShardRouterOptions options = PageRankShards(2);
  options.pipeline.log.segment_bytes = 2 << 10;  // rotate often
  options.pipeline.log.archive_purged = true;
  options.pipeline.log.compress_archive = true;
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  for (int round = 1; round <= 3; ++round) {
    AppendDelta(router->get(), &graph, gen, 50 + round);
    ASSERT_TRUE((*router)->DrainAll().ok());
  }
  ASSERT_TRUE((*set)->SyncAll().ok());

  // The primary archived consumed segments as compressed .lzd files and
  // the shipper landed (some of) them at the followers unmodified.
  bool saw_compressed = false;
  for (int s = 0; s < 2; ++s) {
    for (const auto& base : (*set)->replica(s, 0)->SegmentBasenames()) {
      if (base.size() > 4 &&
          base.compare(base.size() - 4, 4, ".lzd") == 0) {
        saw_compressed = true;
      }
    }
  }
  EXPECT_TRUE(saw_compressed) << "no compressed archive segment was shipped";

  // Failover on top of a compressed shipped log: the promoted pipeline's
  // recovery scan reads .lzd archives transparently.
  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  uint64_t pre_crash = (*router)->shard(0)->committed_epoch();
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ((*set)->primary(0)->committed_epoch(), pre_crash);
  EXPECT_LT(FleetError(**set, graph), 1e-3);
}

TEST_F(ReplicationTest, ArchivedTwinOfShippedRawSegmentNeverBlocksPromotion) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  ShardRouterOptions options = PageRankShards(2);
  options.pipeline.log.segment_bytes = 2 << 10;  // rotate often
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Seal fresh raw segments past the follower's applied watermark and ship
  // them. No drain: the follower holds the raw records but never applies a
  // newer epoch, so its purge mark can't retire them — the lagging
  // follower failover exists for.
  for (int round = 0; round < 8; ++round) {
    AppendDelta(router->get(), &graph, gen, 77 + round);
  }
  ASSERT_TRUE((*set)->SyncAll().ok());
  ASSERT_TRUE((*set)->KillPrimary(0).ok());

  // Emulate the primary having archived those same spans as compressed
  // `.lzd` twins before dying (the shipper's first-seq dedup normally
  // skips them; a direct install must replace — never duplicate — the raw
  // copy, since both cover the same seq range and a promoted root's
  // recovery scan rejects a duplicated span as a sequence regression).
  FollowerReplica* f = (*set)->replica(0, 0);
  auto held = ListFiles(f->LogDir());
  ASSERT_TRUE(held.ok());
  std::string scratch = root_ + "_twin_scratch";
  ASSERT_TRUE(ResetDir(scratch).ok());
  int twins = 0;
  for (const auto& seg : *held) {
    if (!IsDeltaLogSegmentFile(seg) || IsCompressedDeltaLogSegmentFile(seg)) {
      continue;
    }
    auto raw = ReadFileToString(seg);
    ASSERT_TRUE(raw.ok());
    std::string compressed;
    LzCompress(*raw, &compressed);
    std::string base = seg.substr(seg.find_last_of('/') + 1);
    std::string lzd =
        JoinPath(scratch, base.substr(0, base.size() - 4) + ".lzd");
    ASSERT_TRUE(WriteStringToFile(lzd, compressed, false).ok());
    ASSERT_TRUE(f->InstallSegment(lzd, nullptr).ok()) << lzd;
    ++twins;
  }
  ASSERT_GT(twins, 0) << "no raw shipped segment to re-encode";
  EXPECT_EQ(f->SegmentBasenames().size(), f->SegmentFirstSeqs().size())
      << "follower holds twin raw+compressed copies of a segment";

  // The promoted pipeline's recovery scans every held segment file; with
  // exactly one form per span it replays the shipped backlog cleanly.
  uint64_t pre_crash_applied = f->applied_epoch();
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ((*set)->primary(0)->committed_epoch(), pre_crash_applied);
  for (const auto& kv : graph) {
    if ((*router)->ShardOf(kv.key) != 0) continue;
    EXPECT_TRUE((*set)->Get(kv.key).ok());
    break;
  }
}

// ---------------------------------------------------------------------------
// Kill a replica: availability + lag recovery
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, KillReplicaKeepsReadsServingAndLagRecovers) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Hammer reads from another thread across the kill window; every read
  // must succeed (remaining backends cover the shard).
  std::atomic<bool> stop{false};
  std::atomic<int> failed{0}, done{0};
  std::thread reader([&] {
    size_t i = 0;
    while (!stop.load()) {
      const auto& kv = graph[i++ % graph.size()];
      auto v = (*set)->Get(kv.key);
      if (!v.ok()) failed.fetch_add(1);
      done.fetch_add(1);
    }
  });

  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE((*set)->KillReplica(s, 0).ok());
    EXPECT_TRUE((*set)->IsReplicaStale(s, 0));
  }

  // The killed replicas fall behind while the primaries keep committing.
  for (int round = 1; round <= 2; ++round) {
    AppendDelta(router->get(), &graph, gen, 60 + round);
    ASSERT_TRUE((*router)->DrainAll().ok());
  }
  ASSERT_TRUE((*set)->SyncAll().ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_GT((*set)->ReplicaLag(s, 0), 0u);
    EXPECT_TRUE((*set)->IsReplicaStale(s, 0));
    // The surviving replica stayed caught up.
    EXPECT_EQ((*set)->ReplicaLag(s, 1), 0u);
    EXPECT_FALSE((*set)->IsReplicaStale(s, 1));
  }

  // Restart: the shipper catches the replicas back up and routing
  // readmits them.
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE((*set)->RestartReplica(s, 0).ok());
  }
  ASSERT_TRUE((*set)->SyncAll().ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ((*set)->ReplicaLag(s, 0), 0u);
    EXPECT_FALSE((*set)->IsReplicaStale(s, 0));
    EXPECT_EQ((*set)->replica(s, 0)->applied_epoch(),
              (*router)->shard(s)->committed_epoch());
  }

  stop.store(true);
  reader.join();
  EXPECT_GT(done.load(), 0);
  EXPECT_EQ(failed.load(), 0) << failed.load() << " of " << done.load()
                              << " reads failed during the kill window";
}

// ---------------------------------------------------------------------------
// Kill the primary: promote a follower
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, PromoteOnPrimaryDeathServesExactCommittedState) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  AppendDelta(router->get(), &graph, gen, 71);
  ASSERT_TRUE((*router)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());

  const uint64_t pre_crash_epoch = (*router)->shard(0)->committed_epoch();
  std::map<std::string, std::string> pre_crash;
  for (const auto& kv : graph) {
    if ((*router)->ShardOf(kv.key) != 0) continue;
    auto v = (*router)->Lookup(kv.key);
    ASSERT_TRUE(v.ok());
    pre_crash[kv.key] = *v;
  }

  // Concurrent reads across kill + promotion: zero failures allowed.
  std::atomic<bool> stop{false};
  std::atomic<int> failed{0}, done{0};
  std::thread reader([&] {
    size_t i = 0;
    while (!stop.load()) {
      const auto& kv = graph[i++ % graph.size()];
      auto v = (*set)->Get(kv.key);
      if (!v.ok()) failed.fetch_add(1);
      done.fetch_add(1);
    }
  });

  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  EXPECT_TRUE((*set)->primary_dead(0));
  // Writes to the dead shard are refused until a replica is promoted.
  ASSERT_FALSE(pre_crash.empty());
  EXPECT_FALSE((*set)
                   ->Append(DeltaKV{DeltaOp::kInsert, pre_crash.begin()->first,
                                    "0000000002"})
                   .ok());

  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_FALSE((*set)->primary_dead(0));

  stop.store(true);
  reader.join();
  EXPECT_GT(done.load(), 0);
  EXPECT_EQ(failed.load(), 0) << failed.load() << " of " << done.load()
                              << " reads failed across the failover";

  // The promoted pipeline serves exactly the epoch the dead primary had
  // durably committed, value-for-value.
  Pipeline* promoted_primary = (*set)->primary(0);
  EXPECT_EQ(promoted_primary->committed_epoch(), pre_crash_epoch);
  for (const auto& [key, value] : pre_crash) {
    auto v = promoted_primary->Lookup(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }

  // The router now routes to the promoted primary: the shard ingests
  // again, the fleet stays exact vs a from-scratch recompute of the whole
  // graph, and replication to the survivor resumes.
  EXPECT_EQ((*router)->shard(0), promoted_primary);
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.08;
  dopt.seed = 72;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*set)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  ASSERT_TRUE((*set)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());

  EXPECT_LT(FleetError(**set, graph), 1e-3);
  int survivor = *promoted == 0 ? 1 : 0;
  EXPECT_EQ((*set)->replica(0, survivor)->applied_epoch(),
            (*set)->primary(0)->committed_epoch());
  EXPECT_FALSE((*set)->IsReplicaStale(0, survivor));
}

// ---------------------------------------------------------------------------
// Failover inside the coordinated fleet
// ---------------------------------------------------------------------------

// A down shard stops barrier epochs and its writes while followers keep
// serving its reads; a follower behind the fleet's committed epoch is
// refused; after promoting an up-to-date one the epoch vector is uniform
// and the next barrier epoch still equals the unsharded computation.
TEST_F(ReplicationTest, FailoverRefusesEpochsUntilAnUpToDateFollowerIsPromoted) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Follower 1 of shard 0 misses epoch 1; follower 0 applies it.
  ASSERT_TRUE((*set)->KillReplica(0, 1).ok());
  AppendDelta(router->get(), &graph, gen, 81);
  ASSERT_TRUE((*router)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());
  const uint64_t fleet_epoch = 1;
  ASSERT_EQ((*router)->CommittedEpochs(),
            std::vector<uint64_t>(2, fleet_epoch));
  EXPECT_EQ((*set)->replica(0, 0)->applied_epoch(), fleet_epoch);

  std::string key0;
  for (const auto& kv : graph) {
    if ((*router)->ShardOf(kv.key) == 0) {
      key0 = kv.key;
      break;
    }
  }
  ASSERT_FALSE(key0.empty());
  auto before = (*router)->Lookup(key0);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  EXPECT_TRUE((*set)->primary_dead(0));
  // No barrier epoch and no write that touches the down shard...
  auto epoch = (*router)->RefreshCoordinated();
  EXPECT_EQ(epoch.status().code(), Status::Code::kUnavailable);
  EXPECT_FALSE((*set)->DrainAll().ok());
  auto next_graph = graph;
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.08;
  dopt.seed = 82;
  auto delta = GenGraphDelta(gen, dopt, &next_graph);
  const std::vector<DeltaKV> batch(delta.begin(), delta.end());
  EXPECT_EQ((*set)->AppendBatch(batch).code(), Status::Code::kUnavailable);
  EXPECT_EQ((*set)
                ->Append(DeltaKV{DeltaOp::kInsert, key0, "0000000002"})
                .status()
                .code(),
            Status::Code::kUnavailable);
  EXPECT_EQ((*router)->TotalPending(), 0u);
  // ...while its reads keep coming from the follower at the fleet epoch.
  auto during = (*set)->Get(key0);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(*during, *before);

  // Only the lagging follower serves: promoting it would roll shard 0
  // back behind the fleet, so it is refused.
  ASSERT_TRUE((*set)->KillReplica(0, 0).ok());
  ASSERT_TRUE((*set)->RestartReplica(0, 1).ok());
  EXPECT_LT((*set)->replica(0, 1)->applied_epoch(), fleet_epoch);
  auto lagging = (*set)->Promote(0);
  ASSERT_FALSE(lagging.ok());
  EXPECT_EQ(lagging.status().code(), Status::Code::kFailedPrecondition)
      << lagging.status().ToString();
  EXPECT_TRUE((*set)->primary_dead(0));
  EXPECT_FALSE((*router)->RefreshCoordinated().ok());

  // The up-to-date follower is promoted into the router's fleet.
  ASSERT_TRUE((*set)->RestartReplica(0, 0).ok());
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*promoted, 0);
  EXPECT_FALSE((*set)->primary_dead(0));
  EXPECT_EQ((*router)->shard(0), (*set)->primary(0));
  EXPECT_EQ((*router)->CommittedEpochs(),
            std::vector<uint64_t>(2, fleet_epoch));

  // The refused batch now lands, and the next barrier epoch commits on
  // both shards, equal to a recompute of the whole graph.
  ASSERT_TRUE((*set)->AppendBatch(batch).ok());
  graph = next_graph;
  ASSERT_TRUE((*set)->DrainAll().ok());
  EXPECT_EQ((*router)->CommittedEpochs(),
            std::vector<uint64_t>(2, fleet_epoch + 1));
  ShardGroup group(router->get());
  auto pinned = group.PinSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->epochs(), std::vector<uint64_t>(2, fleet_epoch + 1));
  EXPECT_LT(FleetError(**set, graph), 1e-3);

  // Shipping resumes from the new primary to the lagging survivor.
  ASSERT_TRUE((*set)->SyncAll().ok());
  EXPECT_EQ((*set)->replica(0, 1)->applied_epoch(), fleet_epoch + 1);
}

// A promoted slice lives under the follower's root, so a reopen
// re-attaches the dead primary's dir, one epoch behind the fleet once a
// barrier epoch commits past the promotion. Open refuses that mixed
// vector instead of serving it.
TEST_F(ReplicationTest, ReopenAfterPromotionRefusesTheMixedEpochVector) {
  GraphGenOptions gen;
  gen.num_vertices = 80;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  {
    auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
    ReplicaSetOptions ro;
    ro.replicas_per_shard = 1;
    auto set = ReplicaSet::Open(router->get(), replicas_, ro);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    ASSERT_TRUE((*set)->SyncAll().ok());
    ASSERT_TRUE((*set)->KillPrimary(0).ok());
    ASSERT_TRUE((*set)->Promote(0).ok());
    AppendDelta(router->get(), &graph, gen, 91);
    ASSERT_TRUE((*set)->DrainAll().ok());
    ASSERT_EQ((*router)->CommittedEpochs(), std::vector<uint64_t>(2, 1));
  }
  auto options = PageRankShards(2);
  options.reset = false;
  auto reopened = ShardRouter::Open(root_, "pr", options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Status::Code::kFailedPrecondition)
      << reopened.status().ToString();
}

}  // namespace
}  // namespace i2mr
