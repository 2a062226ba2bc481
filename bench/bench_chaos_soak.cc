// Chaos soak: a sharded + replicated SSSP pipeline absorbs a seeded
// fault storm (injected EIO/ENOSPC, torn writes, latency on every
// filesystem primitive under its root) while streaming delta rounds,
// then must recover on its own and converge to the exact state of a
// fault-free twin that processed the identical stream — through the
// router read path, through the replicas, and again after a full
// reopen from disk. Violations (a crash would fail the harness
// outright): a read that returns Corruption/Internal during chaos, an
// append that never lands after faults lift, a poisoned router that
// stays poisoned, or any key diverging from the twin.
//
// Seeds come from I2MR_CHAOS_SEEDS (comma-separated); the default four
// keep laptop runs under ~10 s, and the nightly chaos CI job widens
// the sweep. Per seed the run reports injected fault count, appends
// that needed post-storm retry, degraded-mode entries observed, and
// recovery latency (faults lifted -> full parity). Emits
// BENCH_chaos.json; exit status is nonzero on any violation, so the
// binary doubles as a CI gate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/sssp.h"
#include "bench_util.h"
#include "common/codec.h"
#include "common/health.h"
#include "common/metrics.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "replication/replica_set.h"
#include "serving/shard_router.h"

using namespace i2mr;

namespace {

constexpr int kVertices = 32;
constexpr int kShards = 2;
constexpr int kReplicasPerShard = 2;
constexpr int kBatch = 6;

std::string VertexKey(int i) { return PaddedNum(i); }

std::vector<KV> RingGraph(int n) {
  std::vector<KV> graph;
  graph.reserve(n);
  for (int i = 0; i < n; ++i) {
    graph.push_back(KV{VertexKey(i), VertexKey((i + 1) % n) + ":1"});
  }
  return graph;
}

// Shortcut-edge additions whose replacement adjacency depends on
// (seed, key) alone: lost-ack retries replayed after later rounds are
// idempotent, and SSSP's monotone min-plus fixpoint makes the converged
// state independent of how chaos regroups deltas into epochs.
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
  options.pipeline.append_retries = 1;
  options.pipeline.append_retry_backoff_ms = 0.5;
  options.pipeline.degraded_probe_interval_ms = 5;
  return options;
}

bool IsIntegrityError(const Status& st) {
  return st.code() == Status::Code::kCorruption ||
         st.code() == Status::Code::kInternal;
}

std::vector<uint64_t> Seeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("I2MR_CHAOS_SEEDS")) {
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
    }
  }
  if (seeds.empty()) seeds = {11, 12, 13, 14};
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
    std::fprintf(stderr, "router open: %s\n",
                 router.status().ToString().c_str());
    return false;
  }
  sys->router = std::move(router.value());
  ReplicaSetOptions ro;
  ro.replicas_per_shard = kReplicasPerShard;
  ro.reset = reset;
  auto set =
      ReplicaSet::Open(sys->router.get(), JoinPath(root, "replicas"), ro);
  if (!set.ok()) {
    std::fprintf(stderr, "replica set open: %s\n",
                 set.status().ToString().c_str());
    return false;
  }
  sys->replicas = std::move(set.value());
  return true;
}

struct SeedResult {
  uint64_t seed = 0;
  uint64_t injections = 0;
  int unacked = 0;
  uint64_t degraded_transitions = 0;
  double recovery_ms = 0;
  bool pass = false;
  std::string why;
};

SeedResult RunSeed(uint64_t seed, int rounds) {
  SeedResult res;
  res.seed = seed;
  auto fail = [&res](const std::string& why) {
    res.why = why;
    return res;
  };
  const std::string base =
      bench::BenchRoot("chaos") + "/seed" + std::to_string(seed);
  const std::string sys_root = JoinPath(base, "sys");
  if (!ResetDir(base).ok()) return fail("reset dir");

  ChaosSystem sys;
  if (!OpenSystem(sys_root, /*reset=*/true, &sys)) return fail("open");
  MetricsRegistry twin_metrics;
  HealthRegistry twin_health(&twin_metrics);
  auto twin =
      ShardRouter::Open(JoinPath(base, "twin"), "sys",
                        RouterOptions(&twin_metrics, &twin_health, true));
  if (!twin.ok()) return fail("twin open: " + twin.status().ToString());

  auto graph = RingGraph(kVertices);
  std::vector<KV> state;
  const auto spec = RouterOptions(nullptr, nullptr, true).pipeline.spec;
  for (const auto& kv : graph) {
    state.push_back(KV{kv.key, spec.init_state(kv.key)});
  }
  if (!sys.router->Bootstrap(graph, state).ok()) return fail("bootstrap");
  if (!(*twin)->Bootstrap(graph, state).ok()) return fail("twin bootstrap");

  auto* inj = fault::FaultInjector::Instance();
  fault::ChaosOptions chaos;
  chaos.seed = seed;
  chaos.p_fail = 0.05;
  chaos.p_torn = 0.25;
  chaos.p_latency = 0.02;
  chaos.max_latency_ms = 1.0;
  chaos.path_substr = sys_root;
  inj->StartChaos(chaos);

  std::vector<DeltaKV> unacked;
  for (int round = 0; round < rounds; ++round) {
    for (const DeltaKV& delta : RoundDeltas(seed, round)) {
      if (!(*twin)->Append(delta).ok()) return fail("twin append");
      bool acked = false;
      for (int attempt = 0; attempt < 20 && !acked; ++attempt) {
        auto seq = sys.replicas->Append(delta);
        if (seq.ok()) {
          acked = true;
        } else if (IsIntegrityError(seq.status())) {
          return fail("append integrity: " + seq.status().ToString());
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (!acked) unacked.push_back(delta);
    }
    auto epoch = sys.router->RefreshCoordinated();
    if (!epoch.ok() && IsIntegrityError(epoch.status())) {
      return fail("epoch integrity: " + epoch.status().ToString());
    }
    Status shipped = sys.replicas->SyncAll();
    if (!shipped.ok() && IsIntegrityError(shipped)) {
      return fail("ship integrity: " + shipped.ToString());
    }
    for (int i = 0; i < kVertices; i += 5) {
      auto read = sys.replicas->Get(VertexKey(i));
      if (!read.ok() && IsIntegrityError(read.status())) {
        return fail("read integrity: " + read.status().ToString());
      }
    }
    if (!(*twin)->DrainAll().ok()) return fail("twin drain");
  }

  res.injections = inj->injections();
  res.unacked = static_cast<int>(unacked.size());
  inj->Reset();
  const auto lifted = std::chrono::steady_clock::now();

  bool reopened = false;
  for (const DeltaKV& delta : unacked) {
    bool acked = false;
    for (int attempt = 0; attempt < 400 && !acked; ++attempt) {
      auto seq = sys.replicas->Append(delta);
      if (seq.ok()) {
        acked = true;
      } else if (seq.status().code() == Status::Code::kFailedPrecondition &&
                 !reopened) {
        sys.Close();
        if (!OpenSystem(sys_root, /*reset=*/false, &sys)) {
          return fail("recovery reopen");
        }
        reopened = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    if (!acked) return fail("append never recovered");
  }
  Status drained;
  for (int attempt = 0; attempt < 200; ++attempt) {
    drained = sys.router->DrainAll();
    if (drained.ok() && sys.router->TotalPending() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!drained.ok()) return fail("drain: " + drained.ToString());
  if (sys.router->TotalPending() != 0) return fail("pending stuck");
  if (sys.router->poisoned()) return fail("router stayed poisoned");
  if (!sys.replicas->SyncAll().ok()) return fail("final ship");
  if (!(*twin)->DrainAll().ok()) return fail("twin final drain");

  auto parity = [&](ShardRouter* got, const char* what) -> std::string {
    for (int i = 0; i < kVertices; ++i) {
      auto expect = (*twin)->Lookup(VertexKey(i));
      auto have = got->Lookup(VertexKey(i));
      if (!expect.ok() || !have.ok() || *have != *expect) {
        return std::string(what) + " diverged at " + VertexKey(i);
      }
    }
    return "";
  };
  std::string bad = parity(sys.router.get(), "router");
  if (!bad.empty()) return fail(bad);
  for (int i = 0; i < kVertices; ++i) {
    auto expect = (*twin)->Lookup(VertexKey(i));
    auto rep = sys.replicas->Get(VertexKey(i));
    if (!expect.ok() || !rep.ok() || *rep != *expect) {
      return fail("replica diverged at " + VertexKey(i));
    }
  }
  res.recovery_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - lifted)
          .count();

  // Degraded-mode entries the storm actually caused: health gauges sum
  // transitions into and out of kDegraded as logged reports.
  for (const auto& h : sys.health->Snapshot()) {
    res.degraded_transitions += h.transitions;
  }

  sys.Close();
  if (!OpenSystem(sys_root, /*reset=*/false, &sys)) return fail("reopen");
  bad = parity(sys.router.get(), "reopened router");
  if (!bad.empty()) return fail(bad);
  sys.Close();

  res.pass = true;
  return res;
}

}  // namespace

int main() {
  bench::Title("Chaos soak: seeded fault storms over a sharded + "
               "replicated pipeline");
  const int rounds = bench::ScaledInt(8);
  const auto seeds = Seeds();
  std::printf("%d seeds x %d rounds | %d vertices, %d shards, %d replicas "
              "per shard\n\n",
              static_cast<int>(seeds.size()), rounds, kVertices, kShards,
              kReplicasPerShard);
  std::printf("%-8s %-12s %-10s %-14s %-12s %s\n", "seed", "injections",
              "unacked", "degraded", "recovery ms", "verdict");

  std::vector<SeedResult> results;
  bool ok = true;
  for (uint64_t seed : seeds) {
    SeedResult r = RunSeed(seed, rounds);
    fault::FaultInjector::Instance()->Reset();
    std::printf("%-8llu %-12llu %-10d %-14llu %-12.1f %s%s\n",
                (unsigned long long)r.seed, (unsigned long long)r.injections,
                r.unacked, (unsigned long long)r.degraded_transitions,
                r.recovery_ms, r.pass ? "pass" : "FAIL: ", r.why.c_str());
    if (!r.pass) ok = false;
    results.push_back(std::move(r));
  }

  std::FILE* json = std::fopen("BENCH_chaos.json", "w");
  if (json == nullptr) return 1;
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"chaos_soak\",\n");
  std::fprintf(json, "  \"vertices\": %d,\n", kVertices);
  std::fprintf(json, "  \"shards\": %d,\n", kShards);
  std::fprintf(json, "  \"replicas_per_shard\": %d,\n", kReplicasPerShard);
  std::fprintf(json, "  \"rounds\": %d,\n", rounds);
  std::fprintf(json, "  \"seeds\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SeedResult& r = results[i];
    std::fprintf(json,
                 "    {\"seed\": %llu, \"injections\": %llu, "
                 "\"unacked\": %d, \"degraded_transitions\": %llu, "
                 "\"recovery_ms\": %.1f, \"pass\": %s}%s\n",
                 (unsigned long long)r.seed, (unsigned long long)r.injections,
                 r.unacked, (unsigned long long)r.degraded_transitions,
                 r.recovery_ms, r.pass ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"pass\": %s\n", ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  bench::Note("\nwrote BENCH_chaos.json");
  return ok ? 0 : 1;
}
