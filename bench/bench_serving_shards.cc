// Sharded serving read latency: pinned epoch-consistent reads while deltas
// stream and coordinated cross-shard epochs commit underneath.
//
// For each shard count we bootstrap one PageRank computation partitioned
// across the shards (boundary contributions routed between shards, every
// epoch committed on all shards atomically under the barrier), start the
// background coordinator,
// and stream graph deltas while reader threads serve pinned reads
// (PinSnapshot + point Get). Reported per shard count: read latency
// p50/p99, read throughput, and coordinated epochs committed during the
// read phase — the p99 is what CI gates (reads must stay non-blocking: a
// read that waits on a refresh OR on the barrier commit would blow it up
// by orders of magnitude).
//
// Emits BENCH_serving.json (tracked trajectory point; see
// tools/check_bench_regression.py --key shards).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/pagerank.h"
#include "bench_util.h"
#include "common/codec.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/graph_gen.h"
#include "io/env.h"
#include "replication/replica_set.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"

using namespace i2mr;

namespace {

/// Read latencies land in a shared lock-free Histogram (nanoseconds —
/// the registry-wide convention) instead of per-reader vectors; the
/// percentiles below come from its log-bucketed counts (<= ~9% relative
/// error) and the raw bucket array goes into the JSON for offline
/// distribution diffs.
struct LatencySummary {
  uint64_t reads = 0;
  double p50_read_ms = 0;
  double p95_read_ms = 0;
  double p99_read_ms = 0;
  std::vector<std::pair<uint64_t, uint64_t>> buckets_ns;
};

LatencySummary Summarize(const Histogram& hist) {
  LatencySummary s;
  s.reads = hist.count();
  s.p50_read_ms = static_cast<double>(hist.p50()) / 1e6;
  s.p95_read_ms = static_cast<double>(hist.p95()) / 1e6;
  s.p99_read_ms = static_cast<double>(hist.p99()) / 1e6;
  s.buckets_ns = hist.NonzeroBuckets();
  return s;
}

void PrintBuckets(std::FILE* json, const LatencySummary& s) {
  std::fprintf(json, "\"latency_buckets_ns\": [");
  for (size_t b = 0; b < s.buckets_ns.size(); ++b) {
    std::fprintf(json, "%s[%llu, %llu]", b > 0 ? ", " : "",
                 (unsigned long long)s.buckets_ns[b].first,
                 (unsigned long long)s.buckets_ns[b].second);
  }
  std::fprintf(json, "]");
}

struct ShardResult {
  int shards = 0;
  LatencySummary lat;
  double reads_per_sec = 0;
  uint64_t epochs_committed = 0;
  uint64_t deltas_applied = 0;
};

StatusOr<ShardResult> MeasureShards(int shards, int num_vertices) {
  ShardResult result;
  result.shards = shards;

  GraphGenOptions gen;
  gen.num_vertices = num_vertices;
  gen.avg_degree = 6;
  auto graph = GenGraph(gen);

  MetricsRegistry metrics;
  ShardRouterOptions options;
  options.num_shards = shards;
  options.workers_per_shard = 2;
  options.cost = bench::PaperCosts();
  options.metrics = &metrics;
  options.pipeline.spec = pagerank::MakeIterSpec("rank", 2, 60, 1e-6);
  options.pipeline.engine.filter_threshold = 0.1;
  options.pipeline.min_batch = 1;
  options.poll_interval_ms = 2;
  std::string root =
      bench::BenchRoot("serving_shards") + "/s" + std::to_string(shards);
  I2MR_RETURN_IF_ERROR(ResetDir(root));
  auto router = ShardRouter::Open(root, "rank", options);
  if (!router.ok()) return router.status();
  I2MR_RETURN_IF_ERROR(
      (*router)->Bootstrap(graph, bench::UnitState(graph)));
  ShardGroup group(router->get());

  // The router publishes every barrier commit through the registry.
  auto commit_counters = [&] {
    uint64_t epochs = 0, deltas = 0;
    for (int s = 0; s < shards; ++s) {
      std::string prefix = "serving.rank.shard" + std::to_string(s);
      epochs += static_cast<uint64_t>(
          metrics.Get(prefix + ".epochs_committed")->value());
      deltas += static_cast<uint64_t>(
          metrics.Get(prefix + ".deltas_applied")->value());
    }
    return std::make_pair(epochs, deltas);
  };
  const uint64_t epochs_before = commit_counters().first;

  // Readers: pinned point reads against rotating probe keys while the
  // writer streams deltas and epochs commit underneath.
  (*router)->Start();
  const int kReaders = 2;
  const int kReadsPerReader = bench::ScaledInt(1500);
  Histogram read_hist;
  std::atomic<bool> failed{false};
  WallTimer read_phase;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
        const std::string& probe = graph[(r * 7919 + i) % graph.size()].key;
        const int64_t start = NowNanos();
        auto snap = group.PinSnapshot();
        if (!snap.ok() || !snap->Get(probe).ok()) {
          failed.store(true);
          return;
        }
        read_hist.Record(NowNanos() - start);
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 6 && !failed.load(); ++round) {
      GraphDeltaOptions dopt;
      dopt.update_fraction = 0.02;
      dopt.seed = 900 + round;
      auto delta = GenGraphDelta(gen, dopt, &graph);
      if (!(*router)
               ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
               .ok()) {
        failed.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  });
  for (auto& t : readers) t.join();
  double read_phase_s = read_phase.ElapsedSeconds();
  writer.join();
  (*router)->Stop();
  if (failed.load()) return Status::Internal("serving bench read failed");

  result.lat = Summarize(read_hist);
  result.reads_per_sec =
      read_phase_s > 0 ? result.lat.reads / read_phase_s : 0;
  auto [epochs, deltas] = commit_counters();
  result.epochs_committed = epochs - epochs_before;
  result.deltas_applied = deltas;
  return result;
}

// ---------------------------------------------------------------------------
// Read replicas: aggregate pinned-read throughput vs followers per shard.
//
// Every serving backend (primary or follower) models a fixed per-read
// service time charged under its slot mutex (read_service_ms), so adding
// followers adds real aggregate capacity even on a single-core runner:
// with R reader threads hammering one shard's single primary the reads
// serialize, while primary + 2 followers serve three at a time. Deltas
// stream through the router, the background coordinator commits barrier
// epochs, and every epoch ships to the followers throughout, so the
// numbers include live shipping, not an idle fleet.
// ---------------------------------------------------------------------------

struct ReplicaResult {
  int replicas = 0;   // followers per shard (0 = primary-only baseline)
  int backends = 0;   // serving slots per shard
  LatencySummary lat;
  double reads_per_sec = 0;
  uint64_t shipped_bytes = 0;
};

StatusOr<ReplicaResult> MeasureReplicas(int followers, int num_vertices) {
  ReplicaResult result;
  result.replicas = followers;
  result.backends = 1 + followers;

  GraphGenOptions gen;
  gen.num_vertices = num_vertices;
  gen.avg_degree = 6;
  auto graph = GenGraph(gen);

  MetricsRegistry metrics;
  ShardRouterOptions options;
  options.num_shards = 2;
  options.workers_per_shard = 2;
  options.cost = bench::PaperCosts();
  options.metrics = &metrics;
  options.pipeline.spec = pagerank::MakeIterSpec("rank", 2, 60, 1e-6);
  options.pipeline.engine.filter_threshold = 0.1;
  options.pipeline.min_batch = 1;
  options.pipeline.log.segment_bytes = 32 << 10;
  options.pipeline.log.archive_purged = true;
  options.pipeline.log.compress_archive = true;  // ship .lzd archives too
  options.poll_interval_ms = 2;
  std::string root = bench::BenchRoot("serving_replicas") + "/f" +
                     std::to_string(followers);
  I2MR_RETURN_IF_ERROR(ResetDir(root));
  auto router = ShardRouter::Open(root, "rank", options);
  if (!router.ok()) return router.status();
  I2MR_RETURN_IF_ERROR((*router)->Bootstrap(graph, bench::UnitState(graph)));

  ReplicaSetOptions ro;
  ro.replicas_per_shard = followers;
  ro.read_service_ms = 0.2;  // simulated per-backend service capacity
  ro.ship_poll_ms = 5;
  ro.max_replica_lag_epochs = 8;
  auto set = ReplicaSet::Open(router->get(), root + "/replicas", ro);
  if (!set.ok()) return set.status();
  I2MR_RETURN_IF_ERROR((*set)->SyncAll());

  (*router)->Start();
  const int kReaders = 8;
  const int kReadsPerReader = bench::ScaledInt(600);
  Histogram read_hist;
  std::atomic<bool> failed{false};
  WallTimer read_phase;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
        const std::string& probe = graph[(r * 7919 + i) % graph.size()].key;
        const int64_t start = NowNanos();
        if (!(*set)->Get(probe).ok()) {
          failed.store(true);
          return;
        }
        read_hist.Record(NowNanos() - start);
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 4 && !failed.load(); ++round) {
      GraphDeltaOptions dopt;
      dopt.update_fraction = 0.02;
      dopt.seed = 700 + round;
      auto delta = GenGraphDelta(gen, dopt, &graph);
      if (!(*set)
               ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
               .ok()) {
        failed.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  });
  for (auto& t : readers) t.join();
  double read_phase_s = read_phase.ElapsedSeconds();
  writer.join();
  (*router)->Stop();
  if (failed.load()) return Status::Internal("replica bench read failed");

  result.lat = Summarize(read_hist);
  result.reads_per_sec =
      read_phase_s > 0 ? result.lat.reads / read_phase_s : 0;
  for (int s = 0; s < (*set)->num_shards(); ++s) {
    for (int i = 0; i < followers; ++i) {
      result.shipped_bytes += static_cast<uint64_t>(
          (*set)->replica(s, i)->shipped_bytes()->value());
    }
  }
  return result;
}

}  // namespace

int main() {
  const bool traced = trace::StartFromEnv();
  bench::Title("Sharded serving: pinned read latency while epochs commit");
  const int n = bench::ScaledInt(3000);
  const int kShardCounts[] = {1, 2, 4};

  std::printf("%-8s %-10s %-12s %-12s %-12s %-14s %-10s %s\n", "shards",
              "reads", "p50 ms", "p95 ms", "p99 ms", "reads/sec", "epochs",
              "deltas");
  std::vector<ShardResult> results;
  for (int shards : kShardCounts) {
    auto r = MeasureShards(shards, n);
    if (!r.ok()) {
      std::fprintf(stderr, "shards=%d: %s\n", shards,
                   r.status().ToString().c_str());
      return 1;
    }
    results.push_back(*r);
    std::printf("%-8d %-10llu %-12.4f %-12.4f %-12.4f %-14.0f %-10llu %llu\n",
                r->shards, (unsigned long long)r->lat.reads,
                r->lat.p50_read_ms, r->lat.p95_read_ms, r->lat.p99_read_ms,
                r->reads_per_sec, (unsigned long long)r->epochs_committed,
                (unsigned long long)r->deltas_applied);
  }

  bench::Title("Read replicas: pinned-read throughput vs followers/shard");
  const int kFollowerCounts[] = {0, 1, 2, 4};
  std::printf("%-10s %-10s %-10s %-12s %-12s %-12s %-14s %s\n", "replicas",
              "backends", "reads", "p50 ms", "p95 ms", "p99 ms", "reads/sec",
              "shipped MB");
  std::vector<ReplicaResult> replica_results;
  for (int followers : kFollowerCounts) {
    auto r = MeasureReplicas(followers, n);
    if (!r.ok()) {
      std::fprintf(stderr, "replicas=%d: %s\n", followers,
                   r.status().ToString().c_str());
      return 1;
    }
    replica_results.push_back(*r);
    std::printf("%-10d %-10d %-10llu %-12.4f %-12.4f %-12.4f %-14.0f %.2f\n",
                r->replicas, r->backends, (unsigned long long)r->lat.reads,
                r->lat.p50_read_ms, r->lat.p95_read_ms, r->lat.p99_read_ms,
                r->reads_per_sec, r->shipped_bytes / (1024.0 * 1024.0));
  }

  std::FILE* json = std::fopen("BENCH_serving.json", "w");
  if (json == nullptr) return 1;
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"serving_shards\",\n");
  std::fprintf(json, "  \"workload\": \"pagerank\",\n");
  std::fprintf(json, "  \"num_vertices\": %d,\n", n);
  std::fprintf(json, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ShardResult& r = results[i];
    std::fprintf(json,
                 "    {\"shards\": %d, \"reads\": %llu, "
                 "\"p50_read_ms\": %.4f, \"p95_read_ms\": %.4f, "
                 "\"p99_read_ms\": %.4f, "
                 "\"reads_per_sec\": %.0f, \"epochs_committed\": %llu, "
                 "\"deltas_applied\": %llu, ",
                 r.shards, (unsigned long long)r.lat.reads, r.lat.p50_read_ms,
                 r.lat.p95_read_ms, r.lat.p99_read_ms, r.reads_per_sec,
                 (unsigned long long)r.epochs_committed,
                 (unsigned long long)r.deltas_applied);
    PrintBuckets(json, r.lat);
    std::fprintf(json, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"replica_results\": [\n");
  for (size_t i = 0; i < replica_results.size(); ++i) {
    const ReplicaResult& r = replica_results[i];
    std::fprintf(json,
                 "    {\"replicas\": %d, \"backends\": %d, \"reads\": %llu, "
                 "\"p50_read_ms\": %.4f, \"p95_read_ms\": %.4f, "
                 "\"p99_read_ms\": %.4f, "
                 "\"reads_per_sec\": %.0f, \"shipped_bytes\": %llu, ",
                 r.replicas, r.backends, (unsigned long long)r.lat.reads,
                 r.lat.p50_read_ms, r.lat.p95_read_ms, r.lat.p99_read_ms,
                 r.reads_per_sec, (unsigned long long)r.shipped_bytes);
    PrintBuckets(json, r.lat);
    std::fprintf(json, "}%s\n", i + 1 < replica_results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  bench::Note("\nwrote BENCH_serving.json");
  if (traced) {
    Status exported = trace::ExportFromEnv();
    if (!exported.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   exported.ToString().c_str());
      return 1;
    }
    bench::Note("wrote trace (I2MR_TRACE_JSON)");
  }
  return 0;
}
