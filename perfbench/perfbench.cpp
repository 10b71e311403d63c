// perfbench — end-to-end and per-layer benchmark of the XtraPuLP
// library (see README.md for the workloads and their metrics).
//
//   perfbench --workload partition-rmat|analytics-ooc|serve-mix
//             --seed N --seconds S --trace 0|1
//             [--toy] [--trace-out PATH] [--commit ID]
//
// Every workload runs in one process on kRanks simulated ranks with
// kThreadsPerRank worker threads each. After set-up (generation,
// distributed build, out-of-core enable), the operation repeats for S
// seconds after one warm-up and reports the median of its repetitions;
// set-up then runs a few more times and reports the median of all its
// runs. Every repetition's output is
// checked against the serial references in oracles.hpp. Layer numbers
// come only from the benchmark's side of the library's public calls:
// wall time around a call, or a ledger the library exposes, read
// after it. With --trace 1 the operation alternates untraced and
// traced repetitions, prints the layer metrics of the traced ones, and
// writes every span to PATH as Chrome trace-event JSON.
//
// The last line of stdout is the result object; earlier lines carry
// the run metadata, the host-drift probe and the layer values.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analytics/programs.hpp"
#include "core/xtrapulp.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"
#include "oracles.hpp"
#include "serve/loadgen.hpp"
#include "serve/scheduler.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace xtra;
using xtra::gid_t;  // not POSIX ::gid_t

constexpr int kRanks = 2;
constexpr int kThreadsPerRank = 2;
constexpr int kSetupReps = 5;  // set-up repetitions of an untraced run
constexpr int kMinReps = 3;    // timed repetitions, even past --seconds
/// Every workload's graph comes from this fixed generator seed, so the
/// graph is part of the workload's definition; --seed picks everything
/// else that is random (vertex placement, the partitioner's seed, the
/// SSSP root and weights, the query trace).
constexpr std::uint64_t kGraphSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string trace_out = "perfbench-trace.json";
  std::string commit = "unknown";
};

// ---------------------------------------------------------------------
// Metric bookkeeping.

using Values = std::map<std::string, double>;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Samples per metric name over repetitions; reported as medians.
struct Samples {
  std::map<std::string, std::vector<double>> by_name;
  void add(const Values& vals) {
    for (const auto& [k, v] : vals) by_name[k].push_back(v);
  }
  Values medians() const {
    Values out;
    for (const auto& [k, v] : by_name) out[k] = median(v);
    return out;
  }
};

/// One rank's layer values for a repetition, reduced across ranks by
/// fold(). Every rank records the same names in the same order, so the
/// reductions are a rank-uniform collective sequence.
class LayerValues {
 public:
  void max(const char* name, double v) { items_.push_back({name, v, true}); }
  void sum(const char* name, double v) { items_.push_back({name, v, false}); }

  Values fold(sim::Comm& comm) const {
    Values out;
    for (const Item& it : items_)
      out[it.name] =
          it.is_max ? comm.allreduce_max(it.v) : comm.allreduce_sum(it.v);
    return out;
  }

 private:
  struct Item {
    const char* name;
    double v;
    bool is_max;
  };
  std::vector<Item> items_;
};

/// Oracle checks: each is one attempted operation, each mismatch one
/// failed operation. Written by rank 0 only.
struct Checks {
  count_t attempted = 0;
  count_t failed = 0;
  /// Collective: records one check that failed on any rank.
  void record(sim::Comm& comm, bool local_ok) {
    const bool ok = comm.allreduce_and(local_ok);
    if (comm.rank() == 0) {
      ++attempted;
      if (!ok) ++failed;
    }
  }
};

/// What a workload's hooks see on one rank.
struct Ctx {
  sim::Comm& comm;
  const graph::DistGraph& g;
  Tracer* tracer;  ///< null on untraced repetitions
  int lane;
  LayerValues& layers;
  bool warmup = false;
};

double mb(count_t bytes) { return static_cast<double>(bytes) / 1e6; }

/// Quality metrics of a labelling of the local vertices (owned and
/// ghosts), via metrics::evaluate_dist.
Values quality_values(Ctx& c, const std::vector<part_t>& parts,
                      part_t nparts, metrics::QualityReport* out = nullptr) {
  Span sp(c.tracer, c.lane, "metrics.evaluate_dist");
  const metrics::QualityReport q =
      metrics::evaluate_dist(c.comm, c.g, parts, nparts);
  c.layers.max("metrics.evaluate_s", sp.stop());
  if (out) *out = q;
  return {{"edge_cut_ratio", q.edge_cut_ratio},
          {"scaled_max_cut", q.scaled_max_cut},
          {"max_imbalance", std::max(q.vertex_imbalance, q.edge_imbalance)}};
}

/// Quality of the vertex distribution itself (ranks as parts), for the
/// workloads that run on it unpartitioned.
Values distribution_quality(Ctx& c) {
  std::vector<part_t> owner(c.g.n_total());
  for (lid_t l = 0; l < c.g.n_total(); ++l)
    owner[l] = static_cast<part_t>(c.g.owner_of(l));
  return quality_values(c, owner, kRanks);
}

struct Inputs {
  graph::EdgeList el;
  std::vector<std::vector<serve::Query>> traces;
};

// ---------------------------------------------------------------------
// Workloads. Each generates its inputs (its fixed graph, and what the
// seed picks), computes serial reference answers, and runs its
// operation + checks on every rank.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Main thread: the inputs.
  virtual Inputs generate() const = 0;
  /// Main thread: serial reference answers from the inputs.
  virtual void reference(const Inputs& in) = 0;
  /// Collective, part of set-up: out-of-core enable where used.
  virtual void prepare_graph(sim::Comm&, graph::DistGraph&) {}
  /// Collective, once before the timed repetitions: end-to-end values
  /// that do not depend on the operation's output — by default the
  /// quality of the vertex distribution the operation runs on.
  virtual Values before_ops(Ctx& c) { return distribution_quality(c); }
  /// Collective: the timed operation.
  virtual void op(Ctx& c) = 0;
  /// Collective, after each op: checks its output; returns end-to-end
  /// values it produced (identical on every rank).
  virtual Values check(Ctx& c, Checks& chk) = 0;
  /// Main thread, after the run: end-to-end values pooled over all
  /// timed repetitions.
  virtual Values summary() const { return {}; }
};

// --- partition-rmat: XtraPuLP on an R-MAT graph ----------------------

class PartitionRmat final : public Workload {
 public:
  PartitionRmat(std::uint64_t seed, bool toy)
      : seed_(seed), scale_(toy ? 10 : 17), nparts_(toy ? 8 : 32) {}

  Inputs generate() const override {
    return {gen::rmat(scale_, 16, kGraphSeed), {}};
  }
  void reference(const Inputs& in) override { el_ = &in.el; }
  /// Quality comes from each repetition's partition instead.
  Values before_ops(Ctx&) override { return {}; }

  void op(Ctx& c) override {
    core::Params p;
    p.nparts = nparts_;
    p.num_threads = kThreadsPerRank;
    p.seed = seed_;
    Span sp(c.tracer, c.lane, "core.partition");
    result_[static_cast<std::size_t>(c.comm.rank())] =
        core::partition(c.comm, c.g, p);
    c.layers.max("core.partition_s", sp.stop());
    const core::PartitionResult& r = mine(c);
    c.layers.max("core.init_s", r.init_seconds);
    c.layers.max("core.vert_stage_s", r.vert_stage_seconds);
    c.layers.max("core.edge_stage_s", r.edge_stage_seconds);
    c.layers.sum("core.comm_mb", mb(r.comm_bytes));
  }

  Values check(Ctx& c, Checks& chk) override {
    const core::PartitionResult& r = mine(c);
    bool consistent = false;
    {
      Span sp(c.tracer, c.lane, "core.check_partition_consistent");
      consistent = core::check_partition_consistent(c.comm, c.g, r.parts,
                                                    nparts_);
    }
    chk.record(c.comm, consistent);
    metrics::QualityReport q;
    Values out = quality_values(c, r.parts, nparts_, &q);
    std::vector<part_t> global;
    {
      Span sp(c.tracer, c.lane, "core.gather_global_parts");
      global = core::gather_global_parts(c.comm, c.g, r.parts);
      c.layers.max("core.gather_s", sp.stop());
    }
    // Serial recount of the cut on rank 0, from the input edge list.
    bool same_cut = true;
    if (c.comm.rank() == 0) {
      const oracle::Cut cut = oracle::recount_cut(*el_, global, nparts_);
      same_cut = cut.cut == q.cut && cut.max_part_cut == q.max_part_cut;
    }
    chk.record(c.comm, same_cut);
    return out;
  }

 private:
  const core::PartitionResult& mine(const Ctx& c) const {
    return result_[static_cast<std::size_t>(c.comm.rank())];
  }

  std::uint64_t seed_;
  int scale_;
  part_t nparts_;
  const graph::EdgeList* el_ = nullptr;
  core::PartitionResult result_[kRanks];
};

// --- analytics-ooc: PageRank, WCC and SSSP out of core ---------------

class AnalyticsOoc final : public Workload {
 public:
  static constexpr int kPageRankIters = 20;
  static constexpr count_t kDelta = 8;
  static constexpr count_t kMaxWeight = 16;

  AnalyticsOoc(std::uint64_t seed, bool toy)
      : seed_(seed), n_(toy ? 2'000 : 80'000) {}

  Inputs generate() const override {
    return {gen::community_graph(n_, 14, 0.8, 2.3, kGraphSeed), {}};
  }

  void reference(const Inputs& in) override {
    const oracle::Csr csr = oracle::Csr::build(in.el);
    root_ = splitmix64(seed_) % in.el.n;
    ref_rank_ = oracle::pagerank(csr, kPageRankIters, 0.85);
    ref_components_ = oracle::count_components(in.el);
    ref_dist_ = oracle::dijkstra(
        csr, root_, analytics::kInfDist, [&](gid_t a, gid_t b) {
          return analytics::edge_weight(a, b, seed_, kMaxWeight);
        });
  }

  /// The adjacency sits behind an mmap-backed segment cache holding a
  /// quarter of each rank's adjacency bytes.
  void prepare_graph(sim::Comm& comm, graph::DistGraph& g) override {
    graph::SegCacheOptions opt;
    opt.budget_bytes =
        g.m_local() * static_cast<count_t>(sizeof(lid_t)) / 4;
    opt.backing = graph::SegBacking::kMmap;
    g.enable_out_of_core(comm, opt);
  }

  void op(Ctx& c) override {
    engine::Config cfg;
    cfg.num_threads = kThreadsPerRank;
    const graph::SegCacheStats s0 = c.g.segcache_stats();
    State& st = mine(c);
    engine::Stats pr_stats, wcc_stats, sssp_stats;
    {
      st.pr = analytics::PageRankProgram{};
      engine::Config pc = cfg;
      pc.max_supersteps = kPageRankIters;
      Span sp(c.tracer, c.lane, "engine.run.pagerank");
      pr_stats = engine::run(c.comm, c.g, st.pr, pc);
      c.layers.max("engine.pagerank_s", sp.stop());
    }
    {
      st.wcc = analytics::WccProgram{};
      Span sp(c.tracer, c.lane, "engine.run.wcc");
      wcc_stats = engine::run(c.comm, c.g, st.wcc, cfg);
      c.layers.max("engine.wcc_s", sp.stop());
    }
    {
      st.sssp = analytics::DeltaSsspProgram{};
      st.sssp.root = root_;
      st.sssp.delta = kDelta;
      st.sssp.max_weight = kMaxWeight;
      st.sssp.weight_seed = seed_;
      Span sp(c.tracer, c.lane, "engine.run.sssp");
      sssp_stats = engine::run(c.comm, c.g, st.sssp, cfg);
      c.layers.max("engine.sssp_s", sp.stop());
    }
    const graph::SegCacheStats s1 = c.g.segcache_stats();
    c.layers.max("engine.supersteps",
                 static_cast<double>(pr_stats.supersteps +
                                     wcc_stats.supersteps +
                                     sssp_stats.supersteps));
    c.layers.max("engine.exchange_s", pr_stats.exchange.seconds +
                                          wcc_stats.exchange.seconds +
                                          sssp_stats.exchange.seconds);
    c.layers.sum("engine.wire_mb",
                 mb(pr_stats.comm_bytes + wcc_stats.comm_bytes +
                    sssp_stats.comm_bytes));
    c.layers.sum("graph.seg_hits",
                 static_cast<double>(s1.seg_hits - s0.seg_hits));
    c.layers.sum("graph.seg_misses",
                 static_cast<double>(s1.seg_misses - s0.seg_misses));
    c.layers.sum("graph.seg_prefetch_hits",
                 static_cast<double>(s1.seg_prefetch_hits -
                                     s0.seg_prefetch_hits));
    c.layers.sum("graph.seg_evictions",
                 static_cast<double>(s1.seg_evictions - s0.seg_evictions));
    c.layers.sum("graph.seg_fetch_mb",
                 mb(s1.seg_fetch_bytes - s0.seg_fetch_bytes));
    c.layers.max("graph.seg_stall_model_s",
                 s1.seg_stall_seconds - s0.seg_stall_seconds);
  }

  Values check(Ctx& c, Checks& chk) override {
    const State& st = mine(c);
    const graph::DistGraph& g = c.g;
    bool pr_ok = true, sssp_ok = true;
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const gid_t gid = g.gid_of(v);
      const double want = ref_rank_[gid];
      if (!(std::abs(st.pr.rank[v] - want) <= 1e-9 * want)) pr_ok = false;
      if (st.sssp.dist[v] != ref_dist_[gid]) sssp_ok = false;
    }
    chk.record(c.comm, pr_ok);
    chk.record(c.comm, st.wcc.num_components == ref_components_);
    chk.record(c.comm, sssp_ok);
    return {};
  }

 private:
  struct State {
    analytics::PageRankProgram pr;
    analytics::WccProgram wcc;
    analytics::DeltaSsspProgram sssp;
  };
  State& mine(const Ctx& c) {
    return state_[static_cast<std::size_t>(c.comm.rank())];
  }

  std::uint64_t seed_;
  gid_t n_;
  gid_t root_ = 0;
  std::vector<double> ref_rank_;
  count_t ref_components_ = 0;
  std::vector<count_t> ref_dist_;
  State state_[kRanks];
};

// --- serve-mix: open-loop query trace through serve::Scheduler -------

class ServeMix final : public Workload {
 public:
  static constexpr count_t kSlotBudget = 8;
  static constexpr double kPprAlpha = 0.15;
  /// Distinct traces per run; repetitions cycle through them, and the
  /// latency percentiles pool every query of every trace.
  static constexpr std::size_t kTraces = 3;
  static constexpr std::size_t kWarmupQueries = 64;

  ServeMix(std::uint64_t seed, bool toy)
      : seed_(seed), n_(toy ? 2'000 : 100'000),
        num_queries_(toy ? 64 : 1'024) {}

  /// Open-loop Poisson arrivals at 0.5 queries per virtual second, an
  /// equal lookup / k-hop / BFS / PPR mix. README.md shows the rate is
  /// below saturation.
  static serve::LoadGenConfig trace_config(std::uint64_t seed,
                                           count_t num_queries) {
    serve::LoadGenConfig lg;
    lg.num_queries = num_queries;
    lg.rate_qps = 0.5;
    lg.seed = seed;
    lg.khop_depth = 3;
    lg.ppr_depth = 4;
    return lg;
  }

  Inputs generate() const override {
    Inputs in{gen::community_graph(n_, 14, 0.8, 2.3, kGraphSeed), {}};
    for (std::size_t t = 0; t < kTraces; ++t)
      in.traces.push_back(serve::LoadGen::generate(
          trace_config(splitmix64(seed_ + t), num_queries_), in.el.n));
    return in;
  }

  void reference(const Inputs& in) override {
    const oracle::Csr csr = oracle::Csr::build(in.el);
    traces_ = &in.traces;
    warmup_.assign(in.traces[0].begin(),
                   in.traces[0].begin() +
                       static_cast<std::ptrdiff_t>(std::min(
                           kWarmupQueries, in.traces[0].size())));
    expect_.assign(kTraces, {});
    for (std::size_t t = 0; t < kTraces; ++t)
      expect_[t].resize(in.traces[t].size());
    // Independent per query; spread over the workload's threads.
    std::vector<std::thread> pool;
    constexpr std::size_t kWorkers = kRanks * kThreadsPerRank;
    for (std::size_t w = 0; w < kWorkers; ++w)
      pool.emplace_back([&, w] {
        for (std::size_t t = 0; t < kTraces; ++t)
          for (std::size_t i = w; i < in.traces[t].size(); i += kWorkers)
            expect_[t][i] = answer(csr, in.traces[t][i]);
      });
    for (std::thread& th : pool) th.join();
  }

  void op(Ctx& c) override {
    serve::ServeConfig cfg;
    cfg.engine.num_threads = kThreadsPerRank;
    cfg.slot_budget = kSlotBudget;
    cfg.ppr_alpha = kPprAlpha;
    serve::Scheduler sched(cfg);
    const std::size_t r = static_cast<std::size_t>(c.comm.rank());
    Span sp(c.tracer, c.lane, "serve.Scheduler.run");
    results_[r] = sched.run(c.comm, c.g, trace(c));
    c.layers.max("serve.run_s", sp.stop());
    const serve::ServeStats& s = sched.stats();
    c.layers.max("serve.supersteps", static_cast<double>(s.supersteps));
    c.layers.max("serve.slot_occupancy", s.slot_occupancy);
    c.layers.max("serve.supersteps_per_query", s.supersteps_per_query);
    c.layers.max("serve.virtual_s", s.virtual_seconds);
  }

  Values check(Ctx& c, Checks& chk) override {
    // Results are rank-uniform; every rank checks its own copy, and
    // each query is one check.
    const std::size_t r = static_cast<std::size_t>(c.comm.rank());
    const std::size_t t = trace_index(c);
    const std::vector<serve::QueryResult>& got = results_[r];
    for (std::size_t i = 0; i < trace(c).size(); ++i) {
      const Expect& e = expect_[t][i];
      const bool ok =
          i < got.size() && got[i].value == e.value &&
          std::abs(got[i].score - e.score) <= 1e-12 * std::max(e.score, 1.0);
      chk.record(c.comm, ok);
    }
    if (!c.warmup) {
      if (r == 0 && !pooled_[t]) {
        for (const serve::QueryResult& q : got)
          latencies_.push_back(q.latency_seconds());
        pooled_[t] = true;
      }
      ++served_[r];
    }
    return {};
  }

  Values summary() const override {
    return {{"p50_ms", percentile(latencies_, 0.50) * 1e3},
            {"p99_ms", percentile(latencies_, 0.99) * 1e3}};
  }

 private:
  struct Expect {
    count_t value = 0;
    double score = 0.0;
  };

  /// Lookup: the source's degree. k-hop / BFS: vertices within the
  /// level cap. PPR: truncated random-walk-with-restart mass, alpha *
  /// (1 - alpha)^l per vertex first reached at level l.
  static Expect answer(const oracle::Csr& csr, const serve::Query& q) {
    Expect e;
    if (q.kind == serve::QueryKind::kPointLookup) {
      e.value = csr.degree(q.source);
      return e;
    }
    const bool capped = q.kind != serve::QueryKind::kBfs;
    const std::vector<count_t> levels = oracle::bfs_level_counts(
        csr, q.source, capped ? q.depth : analytics::kInfDist);
    double weight = kPprAlpha;
    e.score = kPprAlpha;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      e.value += levels[l];
      if (l == 0) continue;
      weight *= 1.0 - kPprAlpha;
      e.score += weight * static_cast<double>(levels[l]);
    }
    if (q.kind != serve::QueryKind::kPpr) e.score = 0.0;
    return e;
  }

  /// The warm-up serves a prefix of trace 0; timed repetition k serves
  /// trace k mod kTraces.
  std::size_t trace_index(const Ctx& c) const {
    return c.warmup ? 0
                    : served_[static_cast<std::size_t>(c.comm.rank())] %
                          kTraces;
  }
  const std::vector<serve::Query>& trace(const Ctx& c) const {
    return c.warmup ? warmup_ : (*traces_)[trace_index(c)];
  }

  std::uint64_t seed_;
  gid_t n_;
  count_t num_queries_;
  const std::vector<std::vector<serve::Query>>* traces_ = nullptr;
  std::vector<serve::Query> warmup_;
  std::vector<std::vector<Expect>> expect_;
  std::vector<serve::QueryResult> results_[kRanks];
  std::size_t served_[kRanks] = {};
  bool pooled_[kTraces] = {};      ///< rank 0 only
  std::vector<double> latencies_;  ///< rank 0 only: every pooled query
};

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "partition-rmat")
    return std::make_unique<PartitionRmat>(a.seed, a.toy);
  if (a.workload == "analytics-ooc")
    return std::make_unique<AnalyticsOoc>(a.seed, a.toy);
  if (a.workload == "serve-mix")
    return std::make_unique<ServeMix>(a.seed, a.toy);
  throw std::invalid_argument("unknown workload: " + a.workload);
}

// ---------------------------------------------------------------------
// Host-drift probe: a fixed serial CSR sweep owned by the benchmark,
// independent of the seed and of the library. Its time moves only
// when the host does.

/// Median seconds of five sweeps of a 2^20-vertex, 8-regular random
/// CSR: a working set (~50 MB) well past the last-level cache, like
/// the workloads'. Built per call and freed on return, so it never
/// overlaps the program's memory.
double host_probe() {
  constexpr std::uint32_t kN = 1 << 20, kDeg = 8;
  std::vector<std::uint32_t> adj(static_cast<std::size_t>(kN) * kDeg);
  for (std::size_t i = 0; i < adj.size(); ++i)
    adj[i] = static_cast<std::uint32_t>(splitmix64(i) % kN);
  std::vector<double> x(kN, 1.0), y(kN, 0.0), t;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    for (std::size_t v = 0; v < kN; ++v) {
      double s = 0.0;
      for (std::size_t i = v * kDeg; i < (v + 1) * kDeg; ++i) s += x[adj[i]];
      y[v] = 0.5 * s / kDeg + 0.5;
    }
    x.swap(y);
    t.push_back(now_s() - t0);
  }
  return median(t);
}

// ---------------------------------------------------------------------
// The harness.

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (const double x : v) s += (s.size() > 1 ? ", " : "") + json_num(x);
  return s + "]";
}

std::string json_values(const Values& vals) {
  std::string s = "{";
  for (const auto& [k, v] : vals)
    s += (s.size() > 1 ? ", \"" : "\"") + k + "\": " + json_num(v);
  return s + "}";
}

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"op_s", "s"},
    {"peak_rss_mb", "MB"},     {"edge_cut_ratio", "ratio"},
    {"scaled_max_cut", "ratio"}, {"max_imbalance", "ratio"},
    {"p50_ms", "ms"},          {"p99_ms", "ms"},
};

constexpr Metric kPerLayer[] = {
    {"gen.generate_s", "s"},
    {"graph.build_s", "s"},
    {"graph.ooc_enable_s", "s"},
    {"graph.ghosts", "count"},
    {"graph.seg_hits", "count"},
    {"graph.seg_misses", "count"},
    {"graph.seg_hit_rate", "ratio"},
    {"graph.seg_prefetch_hits", "count"},
    {"graph.seg_evictions", "count"},
    {"graph.seg_fetch_mb", "MB"},
    {"graph.seg_stall_model_s", "s"},
    {"core.partition_s", "s"},
    {"core.init_s", "s"},
    {"core.vert_stage_s", "s"},
    {"core.edge_stage_s", "s"},
    {"core.comm_mb", "MB"},
    {"core.gather_s", "s"},
    {"engine.pagerank_s", "s"},
    {"engine.wcc_s", "s"},
    {"engine.sssp_s", "s"},
    {"engine.supersteps", "count"},
    {"engine.exchange_s", "s"},
    {"engine.wire_mb", "MB"},
    {"serve.run_s", "s"},
    {"serve.supersteps", "count"},
    {"serve.slot_occupancy", "ratio"},
    {"serve.supersteps_per_query", "count"},
    {"serve.virtual_s", "s"},
    {"mpisim.collectives", "count"},
    {"mpisim.wire_mb", "MB"},
    {"mpisim.collective_s", "s"},
    {"mpisim.skew_s", "s"},
    {"metrics.evaluate_s", "s"},
    {"host.ref_s", "s"},
    {"trace.op_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Prints `tag {...}` with the named metrics; a metric the workload's
/// layers never touched reads 0 (the layer stayed idle).
std::string metrics_json(const Values& vals, const Metric* begin,
                         const Metric* end) {
  std::string s = "{";
  for (const Metric* m = begin; m != end; ++m) {
    const auto it = vals.find(m->name);
    const double v = it == vals.end() ? 0.0 : it->second;
    s += std::string(s.size() > 1 ? ", " : "") + "\"" + m->name +
         "\": {\"value\": " + json_num(v) + ", \"unit\": \"" + m->unit +
         "\"}";
  }
  return s + "}";
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a);
  Tracer tracer;
  Tracer* const setup_tracer = a.trace ? &tracer : nullptr;

  Samples setup;   // setup_s plus the set-up layers, per set-up
  Samples e2e;     // per timed repetition (or traced, under --trace 1)
  Samples layers;  // per timed repetition (or traced, under --trace 1)
  std::vector<double> op_s, untraced_op_s;
  double host_before = 0.0, host_after = 0.0;
  Values once;         // end-to-end values measured once, before the ops
  Values once_layers;  // and the layer values that measurement took
  double rss = 0.0;
  Checks checks;

  // One set-up; with `ops` it goes on to the repetitions of the op.
  const auto setup_round = [&](bool ops) {
    Inputs in;
    double gen_s = 0.0;
    {
      // Generation uses every thread the workload will (the
      // generators are deterministic at any width).
      par::ThreadScope scope(kRanks * kThreadsPerRank);
      Span sp(setup_tracer, 0, "gen.generate");
      in = w->generate();
      gen_s = sp.stop();
    }
    if (ops) {
      Span sp(setup_tracer, 0, "oracle.reference");
      w->reference(in);
    }

    sim::run_world(kRanks, [&](sim::Comm& comm) {
      const int lane = comm.rank() + 1;
      comm.barrier();
      const double t0 = now_s();
      Span build_sp(setup_tracer, lane, "graph.build_dist_graph");
      graph::DistGraph g = graph::build_dist_graph(
          comm, in.el,
          graph::VertexDist::random(in.el.n, kRanks, splitmix64(a.seed)));
      const double build_s = build_sp.stop();
      Span ooc_sp(setup_tracer, lane, "graph.enable_out_of_core");
      w->prepare_graph(comm, g);
      const double ooc_s = ooc_sp.stop();
      const double t1 = now_s();
      const double world_s = comm.allreduce_max(t1) - comm.allreduce_min(t0);
      const double build_max = comm.allreduce_max(build_s);
      const double ooc_max = comm.allreduce_max(ooc_s);
      const double ghosts =
          static_cast<double>(comm.allreduce_sum(g.n_ghost()));
      if (comm.rank() == 0)
        setup.add({{"setup_s", gen_s + world_s},
                   {"gen.generate_s", gen_s},
                   {"graph.build_s", build_max},
                   {"graph.ooc_enable_s", ooc_max},
                   {"graph.ghosts", ghosts}});
      if (!ops) return;

      {
        LayerValues lv;
        Ctx c{comm, g, setup_tracer, lane, lv};
        const Values v = w->before_ops(c);
        const Values l = lv.fold(comm);
        if (comm.rank() == 0) {
          once = v;
          once_layers = l;
        }
      }

      // One repetition: op window opened and closed by barriers, then
      // the checks (outside the window).
      // `keep` records the repetition's samples.
      const auto rep = [&](Tracer* tr, bool warmup, bool keep) {
        LayerValues lv;
        Ctx c{comm, g, tr, lane, lv, warmup};
        comm.barrier();
        const sim::CommStats c0 = comm.stats();
        const double start = now_s();
        {
          Span sp(tr, lane, "op");
          w->op(c);
        }
        const double end = now_s();
        const sim::CommStats c1 = comm.stats();
        comm.barrier();
        const double first_start = comm.allreduce_min(start);
        const double last_end = comm.allreduce_max(end);
        const double first_end = comm.allreduce_min(end);
        lv.max("mpisim.collectives",
               static_cast<double>(c1.collectives - c0.collectives));
        lv.sum("mpisim.wire_mb", mb(c1.bytes_sent - c0.bytes_sent));
        lv.max("mpisim.collective_s", c1.comm_seconds - c0.comm_seconds);
        const Values checked = w->check(c, checks);
        Values vals = lv.fold(comm);
        const double op = last_end - first_start;
        if (comm.rank() != 0) return op;
        vals["mpisim.skew_s"] = last_end - first_end;
        const double hits = vals["graph.seg_hits"];
        const double lookups = hits + vals["graph.seg_misses"];
        if (lookups > 0) vals["graph.seg_hit_rate"] = hits / lookups;
        if (keep) {
          layers.add(vals);
          Values ev = checked;
          ev["op_s"] = op;
          e2e.add(ev);
          op_s.push_back(op);
        }
        return op;
      };

      rep(nullptr, true, false);  // warm-up: caches, pools, lazy set-up
      const double loop_start = now_s();
      for (int i = 0;; ++i) {
        if (a.trace) {
          const double u = rep(nullptr, false, false);
          if (comm.rank() == 0) untraced_op_s.push_back(u);
          rep(&tracer, false, true);
        } else {
          rep(nullptr, false, true);
        }
        const bool more = comm.bcast_value<int>(
            (i + 1 < (a.trace ? 1 : kMinReps) ||
             now_s() - loop_start < a.seconds)
                ? 1
                : 0);
        if (!more) break;
      }
      if (comm.rank() == 0) rss = peak_rss_mb();
    });
  };

  // The set-up whose graph the op runs on comes first, so the peak RSS
  // read after the op loop covers one set-up and the ops, whatever the
  // allocator keeps from the extra set-up samples taken afterwards.
  const int setup_reps = a.trace ? 1 : kSetupReps;
  host_before = host_probe();
  setup_round(true);
  host_after = host_probe();
  for (int s = 1; s < setup_reps; ++s) setup_round(false);

  // Fold.
  Values end_to_end = e2e.medians();
  for (const auto& [k, v] : once) end_to_end[k] = v;
  for (const auto& [k, v] : w->summary()) end_to_end[k] = v;
  const Values setup_med = setup.medians();
  end_to_end["setup_s"] = setup_med.at("setup_s");
  end_to_end["peak_rss_mb"] = rss;
  if (!end_to_end.count("p50_ms")) {
    // Batch workloads: one operation is one request, and a run holds
    // far fewer than the hundreds of them a tail percentile needs (ten
    // samples beyond it), so both read the median operation latency.
    end_to_end["p50_ms"] = end_to_end["p99_ms"] = median(op_s) * 1e3;
  }

  Values layer = once_layers;
  for (const auto& [k, v] : layers.medians()) layer[k] = v;
  for (const auto& [k, v] : setup_med)
    if (k != "setup_s") layer[k] = v;
  layer["host.ref_s"] = 0.5 * (host_before + host_after);
  if (a.trace) {
    layer["trace.op_s"] = median(op_s);
    layer["trace.overhead_s"] = median(op_s) - median(untraced_op_s);
  }

  const std::string meta =
      std::string("{\"workload\": \"") + a.workload +
      "\", \"seed\": " + std::to_string(a.seed) +
      ", \"seconds\": " + json_num(a.seconds) +
      ", \"trace\": " + (a.trace ? "1" : "0") +
      ", \"toy\": " + (a.toy ? "true" : "false") +
      ", \"ranks\": " + std::to_string(kRanks) +
      ", \"threads_per_rank\": " + std::to_string(kThreadsPerRank) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": \"" PERFBENCH_COMPILER "\"" +
      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"" +
      ", \"commit\": \"" + a.commit + "\"" +
      ", \"setup_reps_s\": " + json_list(setup.by_name["setup_s"]) +
      ", \"op_reps_s\": " + json_list(op_s) +
      ", \"host_ref_before_s\": " + json_num(host_before) +
      ", \"host_ref_after_s\": " + json_num(host_after) + "}";
  std::printf("meta %s\n", meta.c_str());
  std::printf("layers %s\n", json_values(layer).c_str());

  if (a.trace) {
    const std::string other = "{\"meta\": " + meta + ", \"self_seconds\": " +
                              json_values(tracer.self_seconds()) + "}";
    if (!tracer.write_chrome_json(a.trace_out, other)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
    std::printf("trace %s\n", a.trace_out.c_str());
  }

  const std::string metrics =
      a.trace ? metrics_json(layer, std::begin(kPerLayer), std::end(kPerLayer))
              : metrics_json(end_to_end, std::begin(kEndToEnd),
                             std::end(kEndToEnd));
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      checks.failed == 0 && checks.attempted > 0 ? "true" : "false",
      static_cast<long long>(checks.attempted),
      static_cast<long long>(checks.failed), metrics.c_str());
  return 0;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--trace-out") a.trace_out = value();
    else if (k == "--commit") a.commit = value();
    else if (k == "--toy") a.toy = true;
    else throw std::invalid_argument("unknown argument: " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
