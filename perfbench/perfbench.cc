// perfbench: drives one benchmark workload through i2mr's public API and
// prints its raw measurements as one JSON object on the last stdout line.
// perfbench/run.py builds this binary, runs it and turns the samples into
// the metrics named in BENCHMARK.json.
//
// Workloads (all real time: every cluster runs CostModel{}, checked below):
//   pr-trickle  solo Pipeline, PageRank, closed loop: AppendBatch of a small
//               re-sampled fraction of vertices, then RunEpoch.
//   km-refresh  solo Pipeline, Kmeans with the MRBGraph off, closed loop.
//   pr-serve    ShardRouter (coordinated shards) + ReplicaSet; one open-loop
//               generator thread issues vertex updates and pinned reads on a
//               fixed schedule, one driver thread runs RefreshCoordinated.
//
// Phases: set-up (repeated a fixed number of times per workload; the last
// instance is kept), an untraced measurement phase of --seconds, then — when
// I2MR_TRACE_JSON is set — a traced phase of --seconds with benchmark-side
// spans around every public call, exported as Chrome trace JSON to that path.
// Full recomputes of the initial dataset give the baseline: interleaved with
// the solo workloads' closed loop; for pr-serve half before the phase and
// half after the fleet closes. Host-speed probes run before each set-up and
// between the untraced phase's epochs.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/kmeans.h"
#include "apps/pagerank.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/iter_engine.h"
#include "data/graph_gen.h"
#include "data/points_gen.h"
#include "io/env.h"
#include "mr/cluster.h"
#include "pipeline/pipeline.h"
#include "replication/replica_set.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"

using namespace i2mr;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

// Sleeps until `deadline_ns`, spinning through the last 200 us so that the
// open-loop generator sends on time rather than at the timer's slack.
void SleepUntil(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 200000;
  const int64_t now = NowNs();
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

// -- Arguments ----------------------------------------------------------------

// Only the run's identity is configurable; each workload's sizing is fixed
// next to the code that builds it, so that every run of a workload measures
// the same job.
struct Args {
  std::string workload;
  uint64_t seed = 1;  // update streams and read keys
  double seconds = 10;
  std::string root;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (kv.count("workload")) a.workload = kv["workload"];
  if (kv.count("root")) a.root = kv["root"];
  if (kv.count("seed")) a.seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
  if (kv.count("seconds")) a.seconds = std::atof(kv["seconds"].c_str());
  if (a.workload.empty() || a.root.empty() || a.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload pr-trickle|km-refresh|pr-serve "
                 "--root DIR --seed N --seconds S\n");
    std::exit(2);
  }
  return a;
}

// Sizing shared by the workloads. The dataset is fixed; --seed drives only
// the update streams and read keys.
constexpr uint64_t kDataSeed = 1;
constexpr double kAvgDegree = 8;
constexpr double kRankEpsilon = 1e-6;  // PageRank convergence epsilon

// -- JSON output --------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Arr(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", v[i]);
      s += buf;
    }
    Raw(key, s + "]");
  }
  void Obj(const std::string& key, const JsonObject& o) { Raw(key, o.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
  }
  std::string body_;
};

// -- Measurement --------------------------------------------------------------

// Samples of one measurement phase. Stage times (map..merge) are the
// task-summed EpochStats fields: tasks overlap, so they are not parts of
// the epoch's wall time.
struct Phase {
  double seconds = 0;
  // A freshness sample is wait + work: `fresh_wait_ms` is the part spent
  // waiting for pr-serve's epoch tick (0 on the closed-loop workloads),
  // `freshness_ms` the rest.
  std::vector<double> epoch_ms, freshness_ms, fresh_wait_ms, read_us, pin_us,
      get_us, append_us, late_ms;
  std::vector<double> refresh_ms, commit_ms, drain_ms, iterations;
  std::vector<double> map_ms, shuffle_ms, sort_ms, reduce_ms, merge_ms;
  std::vector<double> rounds, round_ms, edges, lag_epochs;
  double exchange_bytes = 0, shipped_bytes = 0;
  double primary_reads = 0, follower_reads = 0;
  uint64_t appends = 0, epochs = 0, reads = 0;
  uint64_t failed = 0, mismatches = 0, parity_checked = 0;
  double result_error = -1;

  JsonObject ToJson() const {
    JsonObject o;
    o.Num("seconds", seconds);
    o.Arr("epoch_ms", epoch_ms);
    o.Arr("freshness_ms", freshness_ms);
    o.Arr("fresh_wait_ms", fresh_wait_ms);
    o.Arr("read_us", read_us);
    o.Arr("pin_us", pin_us);
    o.Arr("get_us", get_us);
    o.Arr("append_us", append_us);
    o.Arr("late_ms", late_ms);
    o.Arr("refresh_ms", refresh_ms);
    o.Arr("commit_ms", commit_ms);
    o.Arr("drain_ms", drain_ms);
    o.Arr("iterations", iterations);
    o.Arr("task_sum_map_ms", map_ms);
    o.Arr("task_sum_shuffle_ms", shuffle_ms);
    o.Arr("task_sum_sort_ms", sort_ms);
    o.Arr("task_sum_reduce_ms", reduce_ms);
    o.Arr("task_sum_merge_ms", merge_ms);
    o.Arr("rounds", rounds);
    o.Arr("round_ms", round_ms);
    o.Arr("edges", edges);
    o.Arr("lag_epochs", lag_epochs);
    o.Num("exchange_bytes", exchange_bytes);
    o.Num("shipped_bytes", shipped_bytes);
    o.Num("primary_reads", primary_reads);
    o.Num("follower_reads", follower_reads);
    o.Num("appends", static_cast<double>(appends));
    o.Num("epochs", static_cast<double>(epochs));
    o.Num("reads", static_cast<double>(reads));
    o.Num("failed", static_cast<double>(failed));
    o.Num("mismatches", static_cast<double>(mismatches));
    o.Num("parity_checked", static_cast<double>(parity_checked));
    o.Num("result_error", result_error);
    return o;
  }
};

struct Report {
  std::vector<double> setup_s;
  std::vector<double> recompute_ms;
  // Host-speed probes: one right before each set-up, and `probe_ms` between
  // the untraced phase's epochs.
  std::vector<double> setup_probe_ms, probe_ms;
  Phase untraced, traced;
  bool has_traced = false;
  int followers = 0;
  double error_tolerance = 0;
  double mrbg_bytes = 0, epoch_dir_bytes = 0, disk_bytes = 0;
  uint64_t trace_dropped = 0;
};

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      auto n = it->file_size(size_ec);
      if (!size_ec) total += n;
    }
  }
  return total;
}

// Bytes of a pipeline's last committed epoch directory.
uint64_t EpochDirBytes(LocalCluster* cluster, Pipeline* p) {
  return DirBytes(cluster->root() + "/pipeline/" + p->name() + "/" +
                  Pipeline::EpochDirName(p->committed_epoch()));
}

// Refuses to measure under a cost model that would sleep.
void RequireZeroCost(const CostModel& c) {
  if (c.job_startup_ms != 0 || c.task_startup_ms != 0 || c.net_mb_per_s != 0 ||
      c.net_latency_ms != 0) {
    Die("cost model", Status::FailedPrecondition(
                          "a cost field is non-zero; simulated sleeps would "
                          "enter the measurements"));
  }
}

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  state.reserve(structure.size());
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

// Starts the trace session for the traced phase; exports it on Finish.
class TraceSession {
 public:
  explicit TraceSession(const char* path) : path_(path) {
    auto* c = trace::TraceCollector::Get();
    c->set_ring_capacity(1 << 16);
    c->Start();
  }
  uint64_t Finish() {
    auto* c = trace::TraceCollector::Get();
    c->Stop();
    Status st = c->ExportChromeJson(path_);
    if (!st.ok()) Die("trace export", st);
    return c->approx_dropped();
  }

 private:
  std::string path_;
};

// Host-speed probe: a fixed single-threaded job of the kinds of work the
// engine does (string formatting and hashing, allocation, inserts into and
// lookups in a hash map of a few MB) that calls no i2mr code, so no change
// to the library moves it. On a shared 4-vCPU VM the host's speed drifted up
// to 1.7x within minutes with other tenants' load; run.py scales the
// end-to-end times by the probes measured next to them. In two sets of ten
// pr-serve runs, epoch p50 divided by this probe spread 0.15 and 0.16
// IQR/median; divided by an L2-resident sort-and-small-map probe 0.25 and
// 0.13, undivided 0.36 and 0.18. A 48 MB pointer chase (0.26) and this job
// on two threads at once (0.17) tracked no better.
double ProbeMs() {
  constexpr int kEntries = 60000;
  const int64_t t0 = NowNs();
  std::unordered_map<std::string, std::string> m;
  std::mt19937_64 rng(42);
  for (int i = 0; i < kEntries; ++i) {
    std::string key = std::to_string(rng());
    m[key] = std::to_string(rng());
  }
  uint64_t found = 0;
  rng.seed(42);
  for (int i = 0; i < kEntries; ++i) {
    auto it = m.find(std::to_string(rng()));
    rng();
    found += it->second.size();
  }
  // Keeps the job from being optimised away.
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(found, std::memory_order_relaxed);
  return MsSince(t0);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // KiB on Linux
}

// -- Solo pipeline workloads --------------------------------------------------

// Cluster workers of a solo workload. Two, not more: with the benchmark's
// own threads near 70% of a shared 4-vCPU VM, hypervisor steal rose from 1% to
// 17% within three runs.
constexpr int kSoloWorkers = 2;
// Share of the dataset re-sampled per epoch.
constexpr double kUpdateFraction = 0.01;
// Closed-loop pinned reads after each epoch.
constexpr int kReadsPerEpoch = 32;

// What differs between pr-trickle and km-refresh.
struct SoloSpec {
  PipelineOptions options;
  int setups = 0;      // set-ups per run (setup_s is their median)
  int recomputes = 0;  // full recomputes per run
  std::vector<KV> structure;
  std::vector<KV> initial_state;
  // Next epoch's delta; also applies it to `structure`.
  std::function<std::vector<DeltaKV>(uint64_t epoch)> next_delta;
  // Key a closed-loop read looks up.
  std::function<const std::string&(std::mt19937_64* rng)> read_key;
  // Output check on the committed result: returns the error metric.
  std::function<double(Pipeline* p)> result_error;
  double error_tolerance = 0;
  // The full-recompute baseline: `recompute_spec` over `dataset` (the
  // initial input) from `initial_state`. A fixed job, so its time follows
  // the host's speed and not the update stream; Lloyd's iteration count
  // from fixed centroids swings several-fold with a 1% change of points.
  std::vector<KV> dataset;
  IterJobSpec recompute_spec;
};

// One full recompute (IterativeEngine Prepare + Run) in a fresh cluster.
double RecomputeOnce(const std::string& root, int workers,
                     const IterJobSpec& spec, const std::vector<KV>& structure,
                     const std::vector<KV>& initial_state) {
  const int64_t t0 = NowNs();
  LocalCluster cluster(root, workers, CostModel{});
  RequireZeroCost(cluster.cost());
  IterativeEngine full(&cluster, spec);
  Status st = full.Prepare(structure, initial_state);
  if (st.ok()) st = full.Run().status();
  if (!st.ok()) Die("recompute", st);
  return MsSince(t0);
}

// Ends a traced run: one traced recompute, then the trace export.
void FinishTrace(TraceSession* session,
                 const std::function<double()>& recompute, Report* rep) {
  if (session == nullptr) return;
  {
    trace::ScopedSpan span("bench.recompute", "id=0");
    recompute();
  }
  rep->trace_dropped = session->Finish();
  rep->has_traced = true;
}

// Closed-loop client of a solo pipeline. With `rep` (the untraced phase),
// it also runs one host-speed probe per epoch and the spec's recomputes at
// evenly spaced points of the phase, so that they see the same host
// conditions as the epochs.
void SoloPhase(const Args& args, SoloSpec& w, Pipeline* p, bool traced,
               uint64_t* next_epoch, Phase* ph, Report* rep) {
  std::mt19937_64 rng(args.seed * 7919 + (traced ? 1 : 0));
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  auto recompute = [&] {
    rep->recompute_ms.push_back(RecomputeOnce(args.root + "/recompute",
                                              kSoloWorkers, w.recompute_spec,
                                              w.dataset, w.initial_state));
  };
  const int64_t gap = static_cast<int64_t>(args.seconds * 1e9 / w.recomputes);
  int64_t next_recompute = start + gap / 2;
  while (NowNs() < deadline) {
    if (rep != nullptr && NowNs() >= next_recompute &&
        static_cast<int>(rep->recompute_ms.size()) < w.recomputes) {
      recompute();
      next_recompute += gap;
      continue;
    }
    if (rep != nullptr) rep->probe_ms.push_back(ProbeMs());
    const uint64_t id = (*next_epoch)++;
    std::vector<DeltaKV> delta = w.next_delta(id);
    const int64_t t0 = NowNs();
    {
      trace::ScopedSpan span("bench.append", "id=%" PRIu64, id);
      auto seq = p->AppendBatch(delta);
      ++ph->appends;
      if (!seq.ok()) {
        ++ph->failed;
        continue;
      }
    }
    const int64_t t1 = NowNs();
    StatusOr<EpochStats> stats = Status::Unavailable("not run");
    {
      trace::ScopedSpan span("bench.run_epoch", "id=%" PRIu64, id);
      stats = p->RunEpoch();
    }
    const int64_t t2 = NowNs();
    ++ph->epochs;
    if (!stats.ok() || stats->deltas_applied == 0) {
      ++ph->failed;
      continue;
    }
    ph->append_us.push_back((t1 - t0) / 1e3);
    ph->epoch_ms.push_back((t2 - t1) / 1e6);
    ph->freshness_ms.push_back((t2 - t0) / 1e6);
    ph->fresh_wait_ms.push_back(0);
    ph->refresh_ms.push_back(stats->refresh_ms);
    ph->commit_ms.push_back(stats->commit_ms);
    ph->drain_ms.push_back(stats->wall_ms - stats->refresh_ms -
                           stats->commit_ms);
    ph->iterations.push_back(static_cast<double>(stats->iterations));
    ph->map_ms.push_back(stats->refresh_map_ms);
    ph->shuffle_ms.push_back(stats->refresh_shuffle_ms);
    ph->sort_ms.push_back(stats->refresh_sort_ms);
    ph->reduce_ms.push_back(stats->refresh_reduce_ms);
    ph->merge_ms.push_back(stats->refresh_merge_ms);
    for (int r = 0; r < kReadsPerEpoch; ++r) {
      const std::string& key = w.read_key(&rng);
      const int64_t r0 = NowNs();
      EpochPin pin;
      {
        trace::ScopedSpan span("bench.pin", "id=%" PRIu64, ph->reads);
        pin = p->PinServing();
      }
      const int64_t r1 = NowNs();
      StatusOr<std::string> v = Status::Unavailable("not run");
      {
        trace::ScopedSpan span("bench.get", "id=%" PRIu64, ph->reads);
        v = pin.valid() ? pin.Lookup(key)
                        : StatusOr<std::string>(Status::Unavailable("no pin"));
      }
      const int64_t r2 = NowNs();
      ++ph->reads;
      if (!v.ok()) {
        ++ph->failed;
        continue;
      }
      ph->pin_us.push_back((r1 - r0) / 1e3);
      ph->get_us.push_back((r2 - r1) / 1e3);
      ph->read_us.push_back((r2 - r0) / 1e3);
    }
  }
  while (rep != nullptr &&
         static_cast<int>(rep->recompute_ms.size()) < w.recomputes) {
    recompute();
  }
  ph->seconds = MsSince(start) / 1e3;
  ph->result_error = w.result_error(p);
  if (!(ph->result_error <= w.error_tolerance)) ++ph->failed;
}

void RunSolo(const Args& args, SoloSpec& w, Report* rep) {
  const std::string root = args.root + "/solo";
  const std::string name = "w";
  std::unique_ptr<LocalCluster> cluster;
  std::unique_ptr<Pipeline> pipeline;
  for (int i = 0; i < w.setups; ++i) {
    pipeline.reset();
    cluster.reset();
    rep->setup_probe_ms.push_back(ProbeMs());
    const int64_t t0 = NowNs();
    cluster = std::make_unique<LocalCluster>(root, kSoloWorkers, CostModel{});
    auto opened = Pipeline::Open(cluster.get(), name, w.options);
    if (!opened.ok()) Die("open", opened.status());
    pipeline = std::move(*opened);
    Status st = pipeline->Bootstrap(w.structure, w.initial_state);
    if (!st.ok()) Die("bootstrap", st);
    rep->setup_s.push_back(MsSince(t0) / 1e3);
  }
  RequireZeroCost(cluster->cost());
  rep->error_tolerance = w.error_tolerance;

  uint64_t next_epoch = 1;
  SoloPhase(args, w, pipeline.get(), false, &next_epoch, &rep->untraced,
            rep);
  auto mrbg = pipeline->engine()->MrbgFileBytes();
  rep->mrbg_bytes = mrbg.ok() ? static_cast<double>(*mrbg) : 0;
  rep->epoch_dir_bytes =
      static_cast<double>(EpochDirBytes(cluster.get(), pipeline.get()));
  rep->disk_bytes = static_cast<double>(DirBytes(root));

  const char* trace_path = std::getenv("I2MR_TRACE_JSON");
  std::unique_ptr<TraceSession> session;
  if (trace_path != nullptr) {
    session = std::make_unique<TraceSession>(trace_path);
    SoloPhase(args, w, pipeline.get(), true, &next_epoch, &rep->traced,
              nullptr);
  }
  pipeline.reset();
  cluster.reset();
  FinishTrace(session.get(), [&] {
    return RecomputeOnce(args.root + "/recompute", kSoloWorkers,
                         w.recompute_spec, w.dataset, w.initial_state);
  }, rep);
}

// Largest accepted PageRank mean error. Change propagation control trades
// accuracy for speed (paper Fig. 10b): at filter_threshold 0.1 the solo
// pipeline's mean error sits near 2.5%.
constexpr double kRankTolerance = 0.05;

// PageRank output check: mean error against the sequential reference on
// the same graph. A result missing ranks fails outright.
double RankError(const std::vector<KV>& state, const std::vector<KV>& graph) {
  if (state.size() < graph.size()) return 1e9;
  return pagerank::MeanError(state,
                             pagerank::Reference(graph, 200, kRankEpsilon));
}

// pr-trickle: 16k vertices, change propagation control at 0.1 (the solo
// pipeline's mean error stays near 2.5%). Fills `w`, whose address the
// callbacks keep.
void PageRankTrickle(const Args& args, SoloSpec& w) {
  auto gen = std::make_shared<GraphGenOptions>();
  gen->num_vertices = 16000;
  gen->avg_degree = kAvgDegree;
  gen->seed = kDataSeed;
  w.setups = 5;
  w.recomputes = 3;
  w.structure = GenGraph(*gen);
  w.dataset = w.structure;
  w.initial_state = UnitState(w.structure);
  w.options.spec = pagerank::MakeIterSpec("pr", kSoloWorkers, 60, kRankEpsilon);
  w.options.engine.filter_threshold = 0.1;
  const uint64_t seed = args.seed;
  w.next_delta = [&w, gen, seed](uint64_t epoch) {
    GraphDeltaOptions d;
    d.update_fraction = kUpdateFraction;
    d.seed = seed * 1000003 + epoch;
    return GenGraphDelta(*gen, d, &w.structure);
  };
  w.read_key = [&w](std::mt19937_64* rng) -> const std::string& {
    return w.structure[(*rng)() % w.structure.size()].key;
  };
  w.result_error = [&w](Pipeline* p) {
    return RankError(p->ServingSnapshot(), w.structure);
  };
  w.error_tolerance = kRankTolerance;
  w.recompute_spec =
      pagerank::MakeIterSpec("pr_full", kSoloWorkers, 60, kRankEpsilon);
}

// km-refresh: 25k 4-d points, k = 8, MRBGraph off. 25k rather than 100k so
// that a run holds enough epochs for a tail percentile.
//
// A re-sampled point takes the value of a random point of a pool drawn from
// the dataset's own mixture, so the point set keeps one distribution however
// many epochs a run reaches. GenPointsDelta draws each epoch's points around
// new random centres: over 200 epochs the Lloyd passes per refresh grew from
// 8 to 15-42 and the epoch p50 from 131 to 198 ms, so a faster host ran
// more epochs on harder data.
void KmeansRefresh(const Args& args, SoloSpec& w) {
  constexpr int kClusters = 8;
  constexpr size_t kPoints = 25000;
  constexpr size_t kPool = 25000;
  PointsGenOptions gen;
  gen.num_points = kPoints + kPool;
  gen.dims = 4;
  gen.num_clusters = kClusters;
  gen.seed = kDataSeed;
  w.setups = 9;
  w.recomputes = 9;
  // GenPoints draws the centres first, so the first kPoints points do not
  // depend on the pool size.
  auto pool = std::make_shared<std::vector<KV>>(GenPoints(gen));
  w.structure.assign(pool->begin(), pool->begin() + kPoints);
  pool->erase(pool->begin(), pool->begin() + kPoints);
  w.dataset = w.structure;
  w.initial_state = kmeans::InitialState(w.structure, kClusters);
  const double kEpsilon = 1e-4;
  // Lloyd passes can converge slowly after a refresh moves the centroids;
  // the cap only stops a run that does not converge at all.
  const int kMaxIterations = 100;
  w.options.spec =
      kmeans::MakeIterSpec("km", kSoloWorkers, kMaxIterations, kEpsilon);
  w.options.engine.maintain_mrbg = false;
  const uint64_t seed = args.seed;
  // Each update deletes a point's record and inserts it with its new value,
  // as GenPointsDelta does.
  w.next_delta = [&w, pool, seed](uint64_t epoch) {
    std::mt19937_64 rng(seed * 1000003 + epoch);
    const size_t n = w.structure.size();
    const auto updates = static_cast<size_t>(kUpdateFraction * n);
    std::vector<DeltaKV> delta;
    delta.reserve(2 * updates);
    for (size_t u = 0; u < updates; ++u) {
      KV& rec = w.structure[rng() % n];
      const std::string& value = (*pool)[rng() % pool->size()].value;
      delta.push_back(DeltaKV{DeltaOp::kDelete, rec.key, rec.value});
      delta.push_back(DeltaKV{DeltaOp::kInsert, rec.key, value});
      rec.value = value;
    }
    return delta;
  };
  static const std::string kKey = kmeans::kStateKey;
  w.read_key = [](std::mt19937_64*) -> const std::string& { return kKey; };
  // Largest centroid move under one more Lloyd pass over the final points:
  // a converged result moves no more than the spec epsilon.
  w.result_error = [&w](Pipeline* p) {
    auto dv = p->Lookup(kmeans::kStateKey);
    if (!dv.ok()) return 1e9;
    auto centroids = kmeans::DecodeCentroids(*dv);
    auto next = kmeans::Reference(w.structure, centroids, 1, 0);
    return kmeans::MaxCentroidDelta(next, centroids);
  };
  w.error_tolerance = kEpsilon;
  w.recompute_spec =
      kmeans::MakeIterSpec("km_full", kSoloWorkers, kMaxIterations, kEpsilon);
}

// -- pr-serve: coordinated shards + read replicas, open loop ------------------

// 2k vertices on 2 shards of one worker each, one follower per shard.
constexpr int kServeVertices = 2000;
constexpr int kShards = 2;
constexpr int kWorkersPerShard = 1;
// Change propagation control threshold. Not the solo workloads' 0.1: with
// 0.1, coordinated PageRank at 2k vertices reads ~26% mean error after one
// small epoch; with the control off the coordinated bootstrap takes 25-93 s.
constexpr double kServeFilterThreshold = 0.003;
constexpr double kAppendsPerS = 40;
constexpr double kReadsPerS = 400;
// Epoch tick. Back to back, each epoch's batch follows the previous epoch's
// length and the epoch p50 swung 60-176 ms between runs.
constexpr int64_t kEpochPeriodNs = 300 * 1000000LL;
// Longest the driver keeps running epochs after the phase to commit the
// last appends.
constexpr int64_t kDrainNs = 10 * 1000000000LL;
constexpr int kServeSetups = 3;
constexpr int kServeRecomputes = 6;

struct Serve {
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<ReplicaSet> replicas;
  std::unique_ptr<ShardGroup> primary_view;

  void Close() {
    primary_view.reset();
    replicas.reset();
    router.reset();
    metrics.reset();
  }
};

// Registry totals of reads served by primaries and by followers.
void ReadsServed(MetricsRegistry* m, double* primary, double* follower) {
  *primary = *follower = 0;
  for (const auto& [name, value] : m->Snapshot()) {
    const std::string suffix = ".reads_served";
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    if (name.find(".primary.") != std::string::npos) *primary += value;
    if (name.find(".replica") != std::string::npos) *follower += value;
  }
}

double ShippedBytes(ReplicaSet* set) {
  double total = 0;
  for (int s = 0; s < set->num_shards(); ++s) {
    for (int i = 0; i < set->replicas_per_shard(); ++i) {
      total +=
          static_cast<double>(set->replica(s, i)->shipped_bytes()->value());
    }
  }
  return total;
}

void ServePhase(const Args& args, Serve& sv, std::vector<KV>* graph,
                const GraphGenOptions& gen, bool traced, uint64_t* next_update,
                Phase* ph, std::vector<double>* probe_ms) {
  ShardRouter* router = sv.router.get();
  ReplicaSet* set = sv.replicas.get();
  const std::string exchange_counter = "serving.rank.exchange.bytes_routed";
  const double exchange0 =
      static_cast<double>(sv.metrics->Get(exchange_counter)->value());
  const double shipped0 = ShippedBytes(set);
  double primary0 = 0, follower0 = 0;
  ReadsServed(sv.metrics.get(), &primary0, &follower0);

  // Primary snapshots of recent epochs, for the follower parity check.
  std::mutex snaps_mu;
  std::deque<ShardSnapshot> snaps;
  auto pin_primary = [&] {
    auto snap = sv.primary_view->PinSnapshot();
    if (!snap.ok()) return false;
    std::lock_guard<std::mutex> lock(snaps_mu);
    snaps.push_back(std::move(*snap));
    while (snaps.size() > 8) snaps.pop_front();
    return true;
  };
  if (!pin_primary()) ++ph->failed;

  // Appends awaiting commit: (shard, seq, scheduled ns).
  struct Pending {
    int shard;
    uint64_t seq;
    int64_t sched_ns;
  };
  std::mutex pending_mu;
  std::deque<Pending> pending;
  std::atomic<bool> generating{true};

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);

  // Driver: one RefreshCoordinated per tick (back to back when an epoch
  // overruns the tick); resolves freshness samples, then runs one host-speed
  // probe. Keeps going after the deadline until every append has committed,
  // for at most kDrainNs; appends still pending then count as failed.
  uint64_t driver_failed = 0;  // the generator owns ph->failed until join
  std::thread driver([&] {
    uint64_t id = 0;
    int64_t next_tick = start;
    while (true) {
      size_t undrained;
      {
        std::lock_guard<std::mutex> lock(pending_mu);
        undrained = pending.size();
      }
      if (!generating.load() &&
          (undrained == 0 || NowNs() > deadline + kDrainNs)) {
        driver_failed += undrained;
        break;
      }
      const int64_t wait = next_tick - NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      next_tick = std::max(next_tick + kEpochPeriodNs, NowNs());
      const int64_t t0 = NowNs();
      StatusOr<ShardRouter::CoordinatedEpochStats> st =
          Status::Unavailable("not run");
      {
        trace::ScopedSpan span("bench.refresh_coordinated", "id=%" PRIu64, id);
        st = router->RefreshCoordinated();
      }
      const int64_t t1 = NowNs();
      if (!st.ok()) {
        ++ph->epochs;
        ++driver_failed;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (!st->committed) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      ++id;
      ++ph->epochs;
      ph->epoch_ms.push_back((t1 - t0) / 1e6);
      ph->rounds.push_back(st->rounds);
      ph->round_ms.push_back(st->wall_ms / (st->rounds + 1));
      ph->edges.push_back(static_cast<double>(st->edges_exchanged));
      std::vector<uint64_t> marks(router->num_shards());
      for (int s = 0; s < router->num_shards(); ++s) {
        marks[s] = router->shard(s)->committed_watermark();
      }
      {
        std::lock_guard<std::mutex> lock(pending_mu);
        for (auto it = pending.begin(); it != pending.end();) {
          if (marks[it->shard] >= it->seq) {
            // Up to the committing epoch's start the update waited for the
            // tick; from there on it waited for work.
            const int64_t from = std::max(t0, it->sched_ns);
            ph->fresh_wait_ms.push_back((from - it->sched_ns) / 1e6);
            ph->freshness_ms.push_back((t1 - from) / 1e6);
            it = pending.erase(it);
          } else {
            ++it;
          }
        }
      }
      if (!pin_primary()) ++driver_failed;
      if (probe_ms != nullptr) probe_ms->push_back(ProbeMs());
    }
  });

  // Generator: one thread, open loop, vertex updates and pinned reads on a
  // fixed schedule; every latency is timed from the scheduled send time.
  std::mt19937_64 rng(args.seed * 7919 + (traced ? 1 : 0));
  const int64_t append_gap = static_cast<int64_t>(1e9 / kAppendsPerS);
  const int64_t read_gap = static_cast<int64_t>(1e9 / kReadsPerS);
  int64_t next_append = start, next_read = start;
  while (true) {
    const bool is_append = next_append <= next_read;
    const int64_t sched = is_append ? next_append : next_read;
    if (sched >= deadline) break;
    SleepUntil(sched);
    const int64_t sent = NowNs();
    ph->late_ms.push_back((sent - sched) / 1e6);
    if (is_append) {
      next_append += append_gap;
      // One vertex update (delete + re-sampled insert) in one AppendBatch,
      // so no epoch splits the pair. GenGraphDelta floors fraction * |V|.
      GraphDeltaOptions d;
      d.update_fraction = 1.5 / static_cast<double>(graph->size());
      d.seed = args.seed * 1000003 + (*next_update)++;
      std::vector<DeltaKV> delta = GenGraphDelta(gen, d, graph);
      const int shard = router->ShardOf(delta.front().key);
      Status st;
      {
        trace::ScopedSpan span("bench.append", "id=%" PRIu64, *next_update);
        st = router->AppendBatch(delta);
      }
      const int64_t done = NowNs();
      ++ph->appends;
      if (!st.ok()) {
        ++ph->failed;
        continue;
      }
      ph->append_us.push_back((done - sent) / 1e3);
      std::lock_guard<std::mutex> lock(pending_mu);
      pending.push_back(
          Pending{shard, router->shard(shard)->log()->last_seq(), sched});
    } else {
      next_read += read_gap;
      const std::string& key = (*graph)[rng() % graph->size()].key;
      StatusOr<ShardSnapshot> snap = Status::Unavailable("not run");
      {
        trace::ScopedSpan span("bench.pin", "id=%" PRIu64, ph->reads);
        snap = set->PinSnapshot();
      }
      const int64_t pinned = NowNs();
      StatusOr<std::string> v = Status::Unavailable("not run");
      {
        trace::ScopedSpan span("bench.get", "id=%" PRIu64, ph->reads);
        v = snap.ok() ? snap->Get(key) : StatusOr<std::string>(snap.status());
      }
      const int64_t done = NowNs();
      ++ph->reads;
      if (!v.ok()) {
        ++ph->failed;
        continue;
      }
      ph->pin_us.push_back((pinned - sent) / 1e3);
      ph->get_us.push_back((done - pinned) / 1e3);
      ph->read_us.push_back((done - sched) / 1e3);
      // Parity: the value must equal the primary's at the same epoch. The
      // set reads from followers only, so this compares follower and primary.
      const int shard = router->ShardOf(key);
      const uint64_t epoch = snap->epochs()[shard];
      std::lock_guard<std::mutex> lock(snaps_mu);
      for (const auto& p : snaps) {
        if (p.epochs()[shard] != epoch) continue;
        auto want = p.Get(key);
        ++ph->parity_checked;
        if (!want.ok() || *want != *v) {
          ++ph->mismatches;
          ++ph->failed;
        }
        break;
      }
      if (ph->reads % 10 == 0) {
        uint64_t lag = 0;
        for (int s = 0; s < set->num_shards(); ++s) {
          lag = std::max(lag, set->ReplicaLag(s, 0));
        }
        ph->lag_epochs.push_back(static_cast<double>(lag));
      }
    }
  }
  generating.store(false);
  driver.join();
  ph->failed += driver_failed;
  ph->seconds = MsSince(start) / 1e3;
  ph->exchange_bytes =
      static_cast<double>(sv.metrics->Get(exchange_counter)->value()) -
      exchange0;
  ph->shipped_bytes = ShippedBytes(set) - shipped0;
  ReadsServed(sv.metrics.get(), &ph->primary_reads, &ph->follower_reads);
  ph->primary_reads -= primary0;
  ph->follower_reads -= follower0;

  // Output check: the fleet's committed ranks against the sequential
  // reference on the final graph.
  std::vector<KV> state;
  for (int s = 0; s < router->num_shards(); ++s) {
    auto part = router->shard(s)->ServingSnapshot();
    state.insert(state.end(), part.begin(), part.end());
  }
  ph->result_error = RankError(state, *graph);
  if (!(ph->result_error <= kRankTolerance)) ++ph->failed;
}

void RunServe(const Args& args, Report* rep) {
  GraphGenOptions gen;
  gen.num_vertices = kServeVertices;
  gen.avg_degree = kAvgDegree;
  gen.seed = kDataSeed;
  std::vector<KV> graph = GenGraph(gen);
  const std::string root = args.root + "/serve";

  Serve sv;
  for (int i = 0; i < kServeSetups; ++i) {
    sv.Close();
    rep->setup_probe_ms.push_back(ProbeMs());
    const int64_t t0 = NowNs();
    sv.metrics = std::make_unique<MetricsRegistry>();
    ShardRouterOptions options;
    options.num_shards = kShards;
    options.workers_per_shard = kWorkersPerShard;
    options.cost = CostModel{};
    options.cross_shard_exchange = true;
    options.metrics = sv.metrics.get();
    options.pipeline.spec = pagerank::MakeIterSpec(
        "rank", kWorkersPerShard, 60, kRankEpsilon);
    options.pipeline.engine.filter_threshold = kServeFilterThreshold;
    options.pipeline.min_batch = 1;
    Status st = ResetDir(root);
    if (!st.ok()) Die("reset", st);
    auto router = ShardRouter::Open(root, "rank", options);
    if (!router.ok()) Die("router open", router.status());
    sv.router = std::move(*router);
    st = sv.router->Bootstrap(graph, UnitState(graph));
    if (!st.ok()) Die("bootstrap", st);
    ReplicaSetOptions ro;
    ro.replicas_per_shard = 1;
    ro.read_from_primary = false;
    auto set = ReplicaSet::Open(sv.router.get(), root + "/replicas", ro);
    if (!set.ok()) Die("replica open", set.status());
    sv.replicas = std::move(*set);
    st = sv.replicas->SyncAll();
    if (!st.ok()) Die("replica sync", st);
    sv.primary_view = std::make_unique<ShardGroup>(sv.router.get());
    rep->setup_s.push_back(MsSince(t0) / 1e3);
  }
  for (int s = 0; s < sv.router->num_shards(); ++s) {
    RequireZeroCost(sv.router->cluster(s)->cost());
  }
  rep->error_tolerance = kRankTolerance;
  rep->followers = kShards;

  // The open loop cannot pause for a recompute, so half of pr-serve's
  // recomputes run before the phase (fleet idle) and half after it (fleet
  // closed); their median spans the host conditions of the whole run.
  const int workers = kShards * kWorkersPerShard;
  const IterJobSpec spec =
      pagerank::MakeIterSpec("pr_full", workers, 60, kRankEpsilon);
  const std::vector<KV> dataset = graph;
  const std::vector<KV> initial_state = UnitState(dataset);
  auto recompute = [&] {
    return RecomputeOnce(args.root + "/recompute", workers, spec, dataset,
                         initial_state);
  };
  for (int i = 0; i < kServeRecomputes / 2; ++i) {
    rep->recompute_ms.push_back(recompute());
  }
  uint64_t next_update = 1;
  ServePhase(args, sv, &graph, gen, false, &next_update, &rep->untraced,
             &rep->probe_ms);
  for (int s = 0; s < sv.router->num_shards(); ++s) {
    Pipeline* p = sv.router->shard(s);
    auto mrbg = p->engine()->MrbgFileBytes();
    if (mrbg.ok()) rep->mrbg_bytes += static_cast<double>(*mrbg);
    rep->epoch_dir_bytes +=
        static_cast<double>(EpochDirBytes(sv.router->cluster(s), p));
  }
  rep->disk_bytes = static_cast<double>(DirBytes(root));

  const char* trace_path = std::getenv("I2MR_TRACE_JSON");
  std::unique_ptr<TraceSession> session;
  if (trace_path != nullptr) {
    session = std::make_unique<TraceSession>(trace_path);
    ServePhase(args, sv, &graph, gen, true, &next_update, &rep->traced,
               nullptr);
  }
  sv.Close();
  FinishTrace(session.get(), recompute, rep);
  while (static_cast<int>(rep->recompute_ms.size()) < kServeRecomputes) {
    rep->recompute_ms.push_back(recompute());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  Status st = ResetDir(args.root);
  if (!st.ok()) Die("reset root", st);

  Report rep;
  if (args.workload == "pr-trickle") {
    SoloSpec w;
    PageRankTrickle(args, w);
    RunSolo(args, w, &rep);
  } else if (args.workload == "km-refresh") {
    SoloSpec w;
    KmeansRefresh(args, w);
    RunSolo(args, w, &rep);
  } else if (args.workload == "pr-serve") {
    RunServe(args, &rep);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  JsonObject out;
  out.Str("workload", args.workload);
  out.Str("cost_model", "zero");
  out.Num("seed", static_cast<double>(args.seed));
  out.Arr("setup_s", rep.setup_s);
  out.Arr("recompute_ms", rep.recompute_ms);
  out.Arr("setup_probe_ms", rep.setup_probe_ms);
  out.Arr("probe_ms", rep.probe_ms);
  out.Num("error_tolerance", rep.error_tolerance);
  out.Num("followers", rep.followers);
  out.Num("mrbg_bytes", rep.mrbg_bytes);
  out.Num("epoch_dir_bytes", rep.epoch_dir_bytes);
  out.Num("disk_bytes", rep.disk_bytes);
  out.Num("peak_rss_mb", PeakRssMb());
  out.Num("trace_dropped", static_cast<double>(rep.trace_dropped));
  out.Obj("untraced", rep.untraced.ToJson());
  if (rep.has_traced) out.Obj("traced", rep.traced.ToJson());
  std::printf("%s\n", out.str().c_str());
  return 0;
}
