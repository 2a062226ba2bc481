// Sharded serving: one PageRank computation hash-partitioned across four
// shards, each a full vertical slice (own cluster, delta log, epoch dirs),
// behind a ShardRouter running in coordinated cross-shard mode: rank
// contributions along edges that cross the partition are captured at each
// shard's engine boundary, routed to the owning shard by the
// CrossShardExchange, and re-reduced under a barrier until the joint
// fixpoint — so the sharded answer equals the whole unsharded computation,
// and every epoch commits on all shards atomically (uniform snapshot
// version vectors). While graph deltas stream in and the coordinator
// commits barrier epochs in the background, readers pin epoch-consistent
// ShardSnapshots and serve point gets, multi-gets and scatter-gather
// top-k from exactly that cut — commits and log purges land underneath
// without ever blocking or invalidating them. An AdmissionController
// gives a paying tenant unlimited reads while a free-tier tenant is
// token-bucket throttled at the edge, and caps the free tenant's epoch
// scheduling so its delta backlog can't crowd out the paid tenant's
// refreshes.
//
// Build: cmake --build build && ./build/examples/sharded_serving
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "apps/pagerank.h"
#include "common/codec.h"
#include "data/graph_gen.h"
#include "common/trace.h"
#include "serving/admission.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"

using namespace i2mr;

namespace {

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

std::string EpochVector(const std::vector<uint64_t>& epochs) {
  std::string out = "[";
  for (size_t i = 0; i < epochs.size(); ++i) {
    out += (i ? " " : "") + std::to_string(epochs[i]);
  }
  return out + "]";
}

double Rank(const KV& kv) {
  auto v = ParseDouble(kv.value);
  return v.ok() ? *v : 0.0;
}

}  // namespace

int main() {
  // I2MR_TRACE_JSON=/tmp/trace.json ./sharded_serving records the whole run
  // as a Chrome trace (load it in Perfetto / chrome://tracing).
  const bool traced = trace::StartFromEnv();

  // -- Tenants: "gold" reads freely, "free" is throttled --------------------
  AdmissionController admission;
  TenantQuota free_tier;
  free_tier.read_rate = 20;   // 20 reads/sec sustained...
  free_tier.read_burst = 10;  // ...bursting to 10
  free_tier.epoch_rate = 2;   // and at most ~2 refresh epochs/sec
  admission.SetQuota("free", free_tier);

  // -- Four shards, each its own pipeline + cluster -------------------------
  GraphGenOptions gen;
  gen.num_vertices = 2400;
  gen.avg_degree = 6;
  auto graph = GenGraph(gen);

  ShardRouterOptions options;
  options.num_shards = 4;
  options.workers_per_shard = 2;
  // Cross-shard rank contributions are exchanged and epochs commit under
  // a barrier, so the sharded results match the unsharded computation.
  options.pipeline.spec = pagerank::MakeIterSpec("rank", 2, 60, 1e-4);
  // Exact change propagation: with a coarse CPC threshold the exchange
  // rounds would stop at a correspondingly coarse joint fixpoint. The
  // 1e-4 epsilon bounds the barrier rounds per epoch (~ln(1/eps)).
  options.pipeline.engine.filter_threshold = 0.0;
  options.pipeline.min_batch = 20;
  options.pipeline.max_lag_ms = 100;
  options.poll_interval_ms = 5;
  options.tenant = "free";  // the computation itself runs on the free tier
  options.admission = &admission;
  auto router = ShardRouter::Open("/tmp/i2mr_sharded_serving", "rank", options);
  if (!router.ok()) {
    std::fprintf(stderr, "open: %s\n", router.status().ToString().c_str());
    return 1;
  }
  if (!(*router)->Bootstrap(graph, UnitState(graph)).ok()) return 1;
  std::printf("bootstrapped %zu pages across %d shards, epochs %s\n",
              graph.size(), (*router)->num_shards(),
              EpochVector((*router)->CommittedEpochs()).c_str());

  ShardGroupOptions gopts;
  gopts.admission = &admission;
  ShardGroup group(router->get(), gopts);

  // -- Stream deltas while serving pinned reads -----------------------------
  (*router)->Start();
  const std::string probe = graph.front().key;
  for (int round = 1; round <= 4; ++round) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.04;
    dopt.seed = 700 + round;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    if (!(*router)
             ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
             .ok()) {
      return 1;
    }

    // The gold tenant pins an epoch-consistent snapshot: every answer in
    // this round comes from the same frozen per-shard epoch vector, no
    // matter how many commits land meanwhile.
    auto snap = group.PinSnapshot("gold");
    if (!snap.ok()) return 1;
    auto rank = snap->Get(probe);
    auto top = snap->TopK(3, Rank);
    if (!rank.ok() || top.empty()) return 1;
    std::printf(
        "round %d: +%4zu deltas | gold pinned cut %s rank(%s)=%s top1=%s\n",
        round, delta.size(), EpochVector(snap->epochs()).c_str(),
        probe.c_str(), rank->c_str(), top.front().key.c_str());
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }

  // -- The free tenant hammers reads and hits its bucket --------------------
  int admitted = 0, throttled = 0;
  for (int i = 0; i < 60; ++i) {
    auto r = group.Get("free", probe);
    if (r.ok()) {
      ++admitted;
    } else if (r.status().IsResourceExhausted()) {
      ++throttled;
    } else {
      return 1;
    }
  }
  // Gold is untouched by free's rejections.
  for (int i = 0; i < 60; ++i) {
    if (!group.Get("gold", probe).ok()) return 1;
  }
  std::printf("free tenant: %d/60 reads admitted, %d throttled at the edge; "
              "gold tenant: 60/60 admitted\n", admitted, throttled);

  // Drain what's left (operator drain bypasses the epoch quota) and report.
  for (int i = 0; i < 500 && (*router)->TotalPending() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (*router)->Stop();
  if (!(*router)->DrainAll().ok() || (*router)->TotalPending() != 0) return 1;
  std::printf("drained; final epochs %s\n",
              EpochVector((*router)->CommittedEpochs()).c_str());

  auto stats = admission.tenant_stats("free");
  std::printf("free tenant totals: reads %llu admitted / %llu rejected, "
              "epochs %llu admitted / %llu deferred\n",
              (unsigned long long)stats.reads_admitted,
              (unsigned long long)stats.reads_rejected,
              (unsigned long long)stats.epochs_admitted,
              (unsigned long long)stats.epochs_deferred);
  std::printf("registry slice:\n%s",
              MetricsRegistry::Default()->ToString("serving.rank.shard0").c_str());

  // Ground truth: the union of the shards' served ranks matches an offline
  // recompute of the WHOLE graph — not merely each shard's own subgraph —
  // because the coordinated refresh exchanged every cross-shard
  // contribution. The pinned vectors above being uniform is the same
  // property on the commit side.
  std::vector<KV> served;
  for (int s = 0; s < (*router)->num_shards(); ++s) {
    auto part = (*router)->shard(s)->ServingSnapshot();
    served.insert(served.end(), part.begin(), part.end());
  }
  const double error =
      pagerank::MeanError(served, pagerank::Reference(graph, 60, 1e-6));
  std::printf("mean error vs whole-graph offline recompute: %.5f%%\n",
              error * 100.0);
  std::printf("exchange: %s\n",
              MetricsRegistry::Default()
                  ->ToString("serving.rank.exchange")
                  .c_str());
  if (traced) {
    auto st = trace::ExportFromEnv();
    if (!st.ok()) {
      std::fprintf(stderr, "trace export: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to $I2MR_TRACE_JSON\n");
  }
  if (error > 1e-3) {
    std::fprintf(stderr, "sharded ranks diverge from the whole graph\n");
    return 1;
  }
  return 0;
}
