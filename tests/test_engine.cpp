// Tests for the unified vertex-program engine (src/engine/): the
// bit-identity matrix against a default-knob run across the transport
// knobs (coalesce 0, 1, 3), the dense
// drivers against hand-written blocking references (the overlapped
// halo superstep, PageRank, k-core) and against each other (commLP
// coalesced vs full refresh, ghosts equal owners on exit), the two
// engine-native workloads against serial oracles (delta-capped SSSP vs
// Dijkstra, approximate triangle count vs an exact serial count), and
// the Stats/Config plumbing, including the rejection of invalid
// Configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/dist_graph.hpp"
#include "graph/halo.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"

namespace xtra::analytics {
namespace {

using graph::DistGraph;
using graph::EdgeList;
using graph::VertexDist;

/// Gather a per-vertex result into gid order on every rank's view.
template <typename T>
std::vector<T> by_gid(sim::Comm& comm, const DistGraph& g,
                      const std::vector<T>& vals) {
  std::vector<T> global(g.n_global(), T{});
  for (lid_t v = 0; v < g.n_local(); ++v) global[g.gid_of(v)] = vals[v];
  comm.allreduce_max(global);
  return global;
}

/// CI matrix hook: XTRA_TEST_OOC={mmap,remote} re-drives every graph
/// in this suite with its adjacency behind a 4x-undersized segment
/// cache (DESIGN.md §9) — segments small enough that the quarter
/// budget still holds several frames, so eviction AND prefetch both
/// run under every kernel here. Results must be bit-identical; the
/// exact-billing assertions ignore the hook as usual (seg traffic
/// never enters the exchange wire ledger).
DistGraph build_graph(sim::Comm& comm, const EdgeList& el,
                      const VertexDist& dist) {
  DistGraph g = build_dist_graph(comm, el, dist);
  const char* v = std::getenv("XTRA_TEST_OOC");
  if (v == nullptr) return g;
  graph::SegCacheOptions opt;
  opt.backing = std::string_view(v) == "remote" ? graph::SegBacking::kRemote
                                                : graph::SegBacking::kMmap;
  opt.segment_bytes = 1 << 9;
  count_t entries = 0;
  for (lid_t l = 0; l < g.n_local(); ++l)
    entries += g.out_degree(l) + (g.directed() ? g.in_degree(l) : 0);
  opt.budget_bytes = std::max<count_t>(
      1, entries * static_cast<count_t>(sizeof(lid_t)) / 4);
  g.enable_out_of_core(comm, opt);
  return g;
}

/// Every transport configuration the engine must drive every kernel
/// through: the full refresh (coalesce 0) and the coalesced refresh
/// at cadence {1, 3}.
std::vector<engine::Config> knob_matrix() {
  std::vector<engine::Config> cfgs;
  for (const int coalesce : {0, 1, 3}) {
    engine::Config cfg;
    cfg.coalesce_every = coalesce;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

std::string cfg_name(const engine::Config& cfg) {
  return "c" + std::to_string(cfg.coalesce_every);
}

// ---------------------------------------------------------------------------
// Bit-identity across the knob matrix. WCC and k-core contract to
// unique fixpoints (min label, exact coreness), so every cell must
// reproduce the default-knob run bit for bit.

TEST(EngineMatrix, WccBitIdenticalAcrossAllKnobs) {
  const EdgeList el = gen::community_graph(2'000, 10, 0.7, 2.3, 5);
  std::vector<gid_t> ref;
  count_t ref_num = 0, ref_largest = 0;
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_graph(comm, el, VertexDist::random(el.n, 4, 3));
    WccProgram p;
    engine::run(comm, g, p);
    const auto global = by_gid(comm, g, p.component);
    if (comm.rank() == 0) {
      ref = global;
      ref_num = p.num_components;
      ref_largest = p.largest_size;
    }
  });
  for (const engine::Config& cfg : knob_matrix()) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_graph(comm, el, VertexDist::random(el.n, 4, 3));
      WccProgram p;
      engine::run(comm, g, p, cfg);
      const auto global = by_gid(comm, g, p.component);
      if (comm.rank() == 0) {
        EXPECT_EQ(global, ref) << cfg_name(cfg);
        EXPECT_EQ(p.num_components, ref_num) << cfg_name(cfg);
        EXPECT_EQ(p.largest_size, ref_largest) << cfg_name(cfg);
      }
    });
  }
}

TEST(EngineMatrix, KCoreBitIdenticalAcrossAllKnobs) {
  const EdgeList el = gen::erdos_renyi(1'500, 10, 7);
  std::vector<count_t> ref;
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_graph(comm, el, VertexDist::random(el.n, 4, 5));
    KCoreProgram p;
    engine::run(comm, g, p, {.max_supersteps = 40});
    const auto global = by_gid(comm, g, p.core);
    if (comm.rank() == 0) ref = global;
  });
  for (const engine::Config& cfg : knob_matrix()) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_graph(comm, el, VertexDist::random(el.n, 4, 5));
      KCoreProgram p;
      engine::Config run_cfg = cfg;
      run_cfg.max_supersteps = 40;
      engine::run(comm, g, p, run_cfg);
      const auto global = by_gid(comm, g, p.core);
      if (comm.rank() == 0) {
        EXPECT_EQ(global, ref) << cfg_name(cfg);
      }
    });
  }
}

// Community LP's majority vote is trajectory-dependent: only the
// staleness-free cells (coalesce <= 1) are bit-identical to the
// default-knob run; the stale cells must still converge to a valid
// labeling on a planted-community graph.
TEST(EngineMatrix, CommLpCoalesce1BitIdentical) {
  EdgeList el;
  el.n = 40;
  for (gid_t base : {gid_t{0}, gid_t{20}})
    for (gid_t a = base; a < base + 20; ++a)
      for (gid_t b = a + 1; b < base + 20; ++b) el.edges.push_back({a, b});
  el.edges.push_back({5, 25});  // single bridge
  std::vector<gid_t> ref;
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_graph(comm, el, VertexDist::random(el.n, 4, 4));
    CommLpProgram p;
    engine::run(comm, g, p, {.max_supersteps = 10});
    const auto global = by_gid(comm, g, p.label);
    if (comm.rank() == 0) ref = global;
  });
  for (const engine::Config& cfg : knob_matrix()) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_graph(comm, el, VertexDist::random(el.n, 4, 4));
      CommLpProgram p;
      engine::Config run_cfg = cfg;
      run_cfg.max_supersteps = 10;
      engine::run(comm, g, p, run_cfg);
      const bool exact = cfg.coalesce_every <= 1;
      const auto global = by_gid(comm, g, p.label);
      if (comm.rank() == 0 && exact) {
        EXPECT_EQ(global, ref) << cfg_name(cfg);
      }
      // Stale or not, the planted communities must be recovered.
      EXPECT_EQ(p.num_communities, 2) << cfg_name(cfg);
      for (lid_t v = 0; v < g.n_local(); ++v)
        EXPECT_EQ(p.label[v], g.gid_of(v) < 20 ? 0u : 20u)
            << cfg_name(cfg);
    });
  }
}

// PageRank is fixed-iteration: the chunk size preserves the read
// schedule, so every cell is bit-identical.
TEST(EngineMatrix, PageRankPolicyAndChunkBitIdentical) {
  const EdgeList el = gen::erdos_renyi(1'000, 8, 11);
  std::vector<double> ref;
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_graph(comm, el, VertexDist::random(el.n, 4, 3));
    PageRankProgram p;
    engine::run(comm, g, p, {.max_supersteps = 12});
    std::vector<double> global(g.n_global(), 0.0);
    for (lid_t v = 0; v < g.n_local(); ++v)
      global[g.gid_of(v)] = p.rank[v];
    comm.allreduce_max(global);
    if (comm.rank() == 0) ref = global;
  });
  for (const count_t chunk : {count_t{0}, count_t{1} << 10}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_graph(comm, el, VertexDist::random(el.n, 4, 3));
      PageRankProgram p;
      engine::Config cfg;
      cfg.max_supersteps = 12;
      cfg.max_exchange_bytes = chunk;
      engine::run(comm, g, p, cfg);
      std::vector<double> global(g.n_global(), 0.0);
      for (lid_t v = 0; v < g.n_local(); ++v)
        global[g.gid_of(v)] = p.rank[v];
      comm.allreduce_max(global);
      if (comm.rank() == 0) {
        EXPECT_EQ(global, ref);
      }
      EXPECT_NEAR(p.sum, 1.0, 1e-9);
    });
  }
}

// The composites route every engine run they issue through cfg: both
// must produce identical results under a chunked exchange.
TEST(EngineMatrix, HarmonicAndSccIdenticalUnderTransportKnobs) {
  const EdgeList directed = gen::webcrawl(2'000, 10, 3);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_graph(comm, directed, VertexDist::random(directed.n, 4, 3));
    const engine::Config cfg{.max_exchange_bytes = count_t{1} << 10};
    const HarmonicResult ref_h = harmonic_centrality(comm, g, 4, 9);
    const HarmonicResult h = harmonic_centrality(comm, g, 4, 9, cfg);
    EXPECT_EQ(h.centrality, ref_h.centrality);
    const SccResult ref_s = largest_scc(comm, g);
    const SccResult s = largest_scc(comm, g, cfg);
    EXPECT_EQ(s.scc_size, ref_s.scc_size);
    EXPECT_EQ(s.in_scc, ref_s.in_scc);
  });
}

// ---------------------------------------------------------------------------
// The engine's BFS program against the graph-layer primitive.

TEST(EngineFrontier, BfsProgramMatchesBfsLevels) {
  const EdgeList el = gen::erdos_renyi(800, 6, 3);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_graph(comm, el, VertexDist::random(el.n, 4, 3));
    std::vector<count_t> levels;
    const count_t ecc = graph::bfs_levels(comm, g, 1, levels);
    BfsProgram p;
    p.root = 1;
    engine::run(comm, g, p);
    EXPECT_EQ(p.ecc, ecc);
    for (lid_t v = 0; v < g.n_total(); ++v) {
      const count_t expect =
          levels[v] == graph::kUnreached ? kInfDist : levels[v];
      EXPECT_EQ(p.levels[v], expect);
    }
  });
}

// The batched multi-source stepper against N single-source runs: the
// per-slot level planes and eccentricities must be bit-identical, and
// the packed sweep must spend strictly fewer collectives (one
// emptiness vote + one exchange per packed level, shared by every
// source — the amortization the serving scheduler is built on).
TEST(EngineFrontier, MultiBfsMatchesPerSourceBfsWithFewerCollectives) {
  const EdgeList el = gen::erdos_renyi(800, 6, 3);
  const std::vector<gid_t> roots = {1, 97, 401, 640};
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g = build_graph(comm, el, VertexDist::random(el.n, 4, 3));
    const count_t coll0 = comm.stats().collectives;
    MultiBfsProgram multi;
    multi.roots = roots;
    engine::run(comm, g, multi);
    const count_t multi_coll = comm.stats().collectives - coll0;
    ASSERT_EQ(multi.ecc.size(), roots.size());
    count_t single_coll = 0;
    for (std::size_t s = 0; s < roots.size(); ++s) {
      const count_t c0 = comm.stats().collectives;
      BfsProgram p;
      p.root = roots[s];
      engine::run(comm, g, p);
      single_coll += comm.stats().collectives - c0;
      EXPECT_EQ(multi.ecc[s], p.ecc);
      for (lid_t v = 0; v < g.n_total(); ++v)
        EXPECT_EQ(
            multi.levels[s * static_cast<std::size_t>(multi.stride) + v],
            p.levels[v]);
    }
    EXPECT_LT(multi_coll, single_coll);
  });
}

// ---------------------------------------------------------------------------
// Delta-capped SSSP against a serial Dijkstra oracle.

std::vector<count_t> dijkstra(const EdgeList& el, gid_t root,
                              std::uint64_t weight_seed,
                              count_t max_weight) {
  std::vector<std::vector<gid_t>> adj(el.n);
  for (const auto& e : el.edges) {
    if (e.u == e.v) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<count_t> dist(el.n, kInfDist);
  using Item = std::pair<count_t, gid_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[root] = 0;
  pq.push({0, root});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (const gid_t u : adj[v]) {
      const count_t nd = d + edge_weight(v, u, weight_seed, max_weight);
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    }
  }
  return dist;
}

class SsspRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, SsspRanks, ::testing::Values(1, 2, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(SsspRanks, MatchesSerialDijkstraAcrossDeltas) {
  const int nranks = GetParam();
  const EdgeList el = gen::erdos_renyi(600, 5, 13);
  const gid_t root = 3;
  const std::uint64_t seed = 17;
  const count_t max_weight = 16;
  const std::vector<count_t> oracle = dijkstra(el, root, seed, max_weight);
  for (const count_t delta : {count_t{1}, count_t{8}, count_t{1 << 20}}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const DistGraph g =
          build_graph(comm, el, VertexDist::random(el.n, nranks, 3));
      DeltaSsspProgram p;
      p.root = root;
      p.delta = delta;
      p.max_weight = max_weight;
      p.weight_seed = seed;
      const engine::Stats st = engine::run(comm, g, p);
      for (lid_t v = 0; v < g.n_local(); ++v)
        EXPECT_EQ(p.dist[v], oracle[g.gid_of(v)])
            << "gid " << g.gid_of(v) << " delta " << delta;
      EXPECT_GT(st.supersteps, 0);
    });
  }
}

/// Vertices with a finite distance, summed over ranks.
count_t reached(sim::Comm& comm, const DistGraph& g,
                const DeltaSsspProgram& p) {
  count_t local = 0;
  for (lid_t v = 0; v < g.n_local(); ++v)
    if (p.dist[v] != kInfDist) ++local;
  return comm.allreduce_sum(local);
}

TEST(Sssp, PathGraphExactDistances) {
  // 0-1-2-3-4 path: distances are the prefix sums of the edge weights.
  EdgeList el;
  el.n = 5;
  for (gid_t v = 0; v + 1 < 5; ++v) el.edges.push_back({v, v + 1});
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_graph(comm, el, VertexDist::block(el.n, 2));
    DeltaSsspProgram p;
    p.delta = 4;
    engine::run(comm, g, p);
    count_t expect = 0;
    for (gid_t v = 0; v < 5; ++v) {
      if (v > 0) expect += edge_weight(v - 1, v, 1, 16);
      const lid_t l = g.lid_of(v);
      if (l != kInvalidLid && g.is_owned(l)) {
        EXPECT_EQ(p.dist[l], expect);
      }
    }
    EXPECT_EQ(reached(comm, g, p), 5);
  });
}

// A tighter delta only reorders the relaxations — results must be
// placement- and delta-invariant (asserted against the oracle above),
// and unreachable vertices stay at kInfDist.
TEST(Sssp, DisconnectedVerticesStayUnreached) {
  EdgeList el;
  el.n = 6;
  el.edges = {{0, 1}, {1, 2}};  // 3, 4, 5 isolated
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_graph(comm, el, VertexDist::block(el.n, 2));
    DeltaSsspProgram p;
    engine::run(comm, g, p);
    EXPECT_EQ(reached(comm, g, p), 3);
    for (lid_t v = 0; v < g.n_local(); ++v)
      if (g.gid_of(v) >= 3) {
        EXPECT_EQ(p.dist[v], kInfDist);
      }
  });
}

// ---------------------------------------------------------------------------
// Approximate triangle count against an exact serial count.

count_t serial_triangles(const EdgeList& el) {
  std::vector<std::vector<gid_t>> adj(el.n);
  for (const auto& e : el.edges) {
    if (e.u == e.v) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  count_t total = 0;
  for (gid_t v = 0; v < el.n; ++v)
    for (const gid_t a : adj[v])
      for (const gid_t b : adj[v]) {
        if (a >= b) continue;
        if (std::binary_search(adj[a].begin(), adj[a].end(), b)) ++total;
      }
  return total / 3;
}

class TriangleRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, TriangleRanks, ::testing::Values(1, 2, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(TriangleRanks, ExactWhenUnderSampleCap) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(500, 8, 0.6, 2.3, 3);
  const count_t exact = serial_triangles(el);
  ASSERT_GT(exact, 0);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_graph(comm, el, VertexDist::random(el.n, nranks, 5));
    // Cap far above any wedge count: every query is staged, so the
    // estimate is the exact count.
    TriangleCountProgram p;
    p.sample_cap = 1 << 20;
    engine::run(comm, g, p, {.max_supersteps = 1});
    EXPECT_EQ(p.sampled_centers, 0);
    EXPECT_DOUBLE_EQ(p.triangles, static_cast<double>(exact));
  });
}

TEST(Triangles, SampledEstimateTracksExactCount) {
  const EdgeList el = gen::community_graph(800, 12, 0.6, 2.3, 9);
  const count_t exact = serial_triangles(el);
  ASSERT_GT(exact, 0);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_graph(comm, el, VertexDist::random(el.n, 2, 3));
    TriangleCountProgram p;
    p.sample_cap = 64;
    engine::run(comm, g, p, {.max_supersteps = 1});
    EXPECT_GT(p.sampled_centers, 0);
    const double rel = p.triangles / static_cast<double>(exact);
    EXPECT_GT(rel, 0.5);
    EXPECT_LT(rel, 1.5);
  });
}

TEST(Triangles, TriangleFreeGraphCountsZero) {
  // Even cycle: no triangles.
  EdgeList el;
  el.n = 8;
  for (gid_t v = 0; v < 8; ++v) el.edges.push_back({v, (v + 1) % 8});
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_graph(comm, el, VertexDist::block(el.n, 2));
    TriangleCountProgram p;
    engine::run(comm, g, p, {.max_supersteps = 1});
    EXPECT_DOUBLE_EQ(p.triangles, 0.0);
  });
}

// ---------------------------------------------------------------------------
// The dense drivers against hand-written blocking references. The
// full refresh (HaloPlan::overlapped_superstep) must reproduce a
// superstep that updates every owned vertex and then refreshes every
// ghost with a blocking exchange, bit for bit; the coalesced refresh
// at cadence 1 must reproduce the full refresh.

/// Reference superstep: update every owned vertex, then a blocking
/// ghost refresh.
template <typename T, typename Fn>
void blocking_superstep(sim::Comm& comm, graph::HaloPlan& halo,
                        const DistGraph& g, std::vector<T>& vals,
                        Fn&& update) {
  for (lid_t v = 0; v < g.n_local(); ++v) update(v);
  halo.exchange(comm, vals);
}

// Serial and parallel (8 threads, oversubscribed) overlapped
// supersteps, with a collective riding the in-flight wire, land every
// superstep in the blocking reference's state with the same wire
// bytes, for unbounded and multi-phase bounds. The CI ThreadSanitizer
// job runs the parallel sweep.
TEST(HaloSuperstep, OverlappedBitIdenticalToBlocking) {
  const EdgeList el = gen::erdos_renyi(400, 8, 29);
  for (const count_t bound : {count_t(0), count_t(8), count_t(1) << 14}) {
    for (const bool parallel : {false, true}) {
      sim::run_world(4, [&](sim::Comm& comm) {
        const DistGraph g = graph::build_dist_graph(
            comm, el, VertexDist::random(el.n, 4, 5));
        graph::HaloPlan ref_halo(comm, g);
        graph::HaloPlan halo(comm, g);
        ref_halo.set_max_send_bytes(bound);
        halo.set_max_send_bytes(bound);
        ref_halo.reset_stats();
        halo.reset_stats();
        par::ThreadScope threads(parallel ? 8 : 1);

        std::vector<gid_t> expect(g.n_total()), vals(g.n_total());
        for (lid_t v = 0; v < g.n_total(); ++v)
          expect[v] = vals[v] = g.gid_of(v);
        for (int iter = 1; iter <= 3; ++iter) {
          blocking_superstep(comm, ref_halo, g, expect, [&](lid_t v) {
            expect[v] = expect[v] * 5 + static_cast<gid_t>(iter);
          });
          halo.overlapped_superstep(
              comm, vals,
              [&](lid_t v) {
                vals[v] = vals[v] * 5 + static_cast<gid_t>(iter);
              },
              [&] { (void)comm.allreduce_sum<count_t>(1); }, parallel);
          EXPECT_FALSE(halo.prefetch_in_flight());
          ASSERT_EQ(vals, expect)
              << "bound=" << bound << " parallel=" << parallel
              << " iter=" << iter;
        }
        EXPECT_EQ(halo.stats().bytes_sent, ref_halo.stats().bytes_sent);
        EXPECT_EQ(halo.stats().phases, ref_halo.stats().phases);
        EXPECT_EQ(halo.stats().overlapped, halo.stats().exchanges);
      });
    }
  }
}

TEST(EngineReference, PageRankBitIdenticalToBlockingReference) {
  const EdgeList el = gen::community_graph(1000, 8, 0.6, 2.3, 3);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g = graph::build_dist_graph(
        comm, el, VertexDist::random(el.n, 4, 5));
    constexpr int kIters = 15;
    constexpr double kDamping = 0.85;

    // Blocking reference: contrib + dangling in one pass, blocking
    // halo refresh, allreduce, update.
    std::vector<double> ref_rank(g.n_total(),
                                 1.0 / static_cast<double>(g.n_global()));
    {
      graph::HaloPlan halo(comm, g);
      const double n = static_cast<double>(g.n_global());
      std::vector<double> contrib(g.n_total(), 0.0);
      for (int iter = 0; iter < kIters; ++iter) {
        double dangling = 0.0;
        for (lid_t v = 0; v < g.n_local(); ++v) {
          const count_t d = g.degree(v);
          if (d == 0) {
            dangling += ref_rank[v];
            contrib[v] = 0.0;
          } else {
            contrib[v] = ref_rank[v] / static_cast<double>(d);
          }
        }
        halo.exchange(comm, contrib);
        dangling = comm.allreduce_sum(dangling);
        for (lid_t v = 0; v < g.n_local(); ++v) {
          double sum = 0.0;
          for (const lid_t u : g.neighbors(v)) sum += contrib[u];
          ref_rank[v] =
              (1.0 - kDamping) / n + kDamping * (sum + dangling / n);
        }
      }
      halo.exchange(comm, ref_rank);
    }

    PageRankProgram pr;
    pr.damping = kDamping;
    const engine::Stats st =
        engine::run(comm, g, pr, {.max_supersteps = kIters});
    ASSERT_EQ(pr.rank.size(), ref_rank.size());
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(pr.rank[v], ref_rank[v]) << "lid " << v;  // bit-identical
    EXPECT_EQ(st.supersteps, kIters);
  });
}

TEST(EngineReference, KcoreBitIdenticalToBlockingReference) {
  const EdgeList el = gen::community_graph(800, 8, 0.6, 2.3, 5);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g = graph::build_dist_graph(
        comm, el, VertexDist::random(el.n, 4, 5));
    constexpr int kRounds = 12;

    // Blocking reference: the synchronous (Jacobi) h-index sweep with
    // a full blocking ghost refresh per round.
    std::vector<count_t> ref(g.n_total());
    {
      graph::HaloPlan halo(comm, g);
      for (lid_t v = 0; v < g.n_total(); ++v) ref[v] = g.degree(v);
      std::vector<count_t> prev(ref), nbr;
      for (int round = 0; round < kRounds; ++round) {
        bool changed = false;
        for (lid_t v = 0; v < g.n_local(); ++v) {
          nbr.clear();
          for (const lid_t u : g.neighbors(v)) nbr.push_back(prev[u]);
          std::sort(nbr.begin(), nbr.end(), std::greater<count_t>());
          count_t h = 0;
          for (std::size_t i = 0; i < nbr.size(); ++i) {
            if (nbr[i] >= static_cast<count_t>(i + 1))
              h = static_cast<count_t>(i + 1);
            else
              break;
          }
          h = std::min<count_t>(h, g.degree(v));
          if (h < ref[v]) {
            ref[v] = h;
            changed = true;
          }
        }
        halo.exchange(comm, ref);
        prev = ref;
        if (!comm.allreduce_or(changed)) break;
      }
    }

    KCoreProgram kc;
    engine::run(comm, g, kc, {.max_supersteps = kRounds});
    ASSERT_EQ(kc.core.size(), ref.size());
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(kc.core[v], ref[v]) << "lid " << v;
  });
}

TEST(EngineCoalesce, CommLpCoalesceEveryOneBitIdenticalToUncoalesced) {
  const EdgeList el = gen::community_graph(600, 8, 0.7, 2.3, 13);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g = graph::build_dist_graph(
        comm, el, VertexDist::random(el.n, 4, 5));
    // coalesce_every == 1 delivers every changed label every sweep —
    // exactly the full refresh (unchanged ghosts already agree), so
    // the runs must match bit for bit, supersteps included.
    CommLpProgram plain, co;
    const engine::Stats plain_st = engine::run(
        comm, g, plain, {.coalesce_every = 0, .max_supersteps = 8});
    const engine::Stats co_st = engine::run(
        comm, g, co, {.coalesce_every = 1, .max_supersteps = 8});
    EXPECT_EQ(co.label, plain.label);
    EXPECT_EQ(co.num_communities, plain.num_communities);
    EXPECT_EQ(co_st.supersteps, plain_st.supersteps);
  });
}

TEST(EngineCoalesce, CommLpCoalescedRecoversPlantedCommunities) {
  // Two 20-cliques and a single bridge: the planted structure must
  // survive label staleness of up to coalesce_every - 1 sweeps.
  EdgeList el;
  el.n = 40;
  for (gid_t base : {gid_t{0}, gid_t{20}})
    for (gid_t a = base; a < base + 20; ++a)
      for (gid_t b = a + 1; b < base + 20; ++b) el.edges.push_back({a, b});
  el.edges.push_back({5, 25});
  for (const int every : {2, 4}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g = graph::build_dist_graph(
          comm, el, VertexDist::random(el.n, 4, 4));
      CommLpProgram r;
      engine::run(comm, g, r, {.coalesce_every = every, .max_supersteps = 20});
      EXPECT_EQ(r.num_communities, 2) << "every=" << every;
      for (lid_t v = 0; v < g.n_local(); ++v)
        EXPECT_EQ(r.label[v], g.gid_of(v) < 20 ? 0u : 20u)
            << "every=" << every;
    });
  }
}

TEST(EngineCoalesce, CommLpCoalescedGhostsConsistentOnExit) {
  // Every change-converging program, on both dense refresh drivers,
  // must exit with every ghost equal to its owner. The coalesced
  // driver exits by sweep budget mid-batch (5 supersteps at cadence
  // 3), so its trailing flush must still deliver everything; the full
  // refresh lands every superstep's values before the superstep ends.
  const EdgeList el = gen::erdos_renyi(500, 8, 17);
  const auto check_ghosts = [](sim::Comm& comm, const DistGraph& g,
                               const auto& result, const char* what,
                               int every) {
    auto check = result;
    graph::HaloPlan halo(comm, g);
    halo.exchange(comm, check);
    EXPECT_EQ(check, result) << what << " every=" << every;
  };
  for (const int every : {0, 3}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g = graph::build_dist_graph(
          comm, el, VertexDist::random(el.n, 4, 5));
      const engine::Config cfg{.coalesce_every = every, .max_supersteps = 5};
      CommLpProgram lp;
      engine::run(comm, g, lp, cfg);
      check_ghosts(comm, g, lp.label, "commlp", every);
      WccProgram wcc;
      engine::run(comm, g, wcc, cfg);
      check_ghosts(comm, g, wcc.component, "wcc", every);
      KCoreProgram kc;
      engine::run(comm, g, kc, cfg);
      check_ghosts(comm, g, kc.core, "kcore", every);
    });
  }
}

// ---------------------------------------------------------------------------
// Stats and Config plumbing.

TEST(EngineStats, LedgerAndJsonExport) {
  const EdgeList el = gen::erdos_renyi(500, 6, 3);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_graph(comm, el, VertexDist::block(el.n, 2));
    WccProgram p;
    const engine::Stats st = engine::run(comm, g, p);
    EXPECT_GT(st.supersteps, 0);
    EXPECT_GT(st.seconds, 0.0);
    EXPECT_GT(st.exchange.exchanges, 0);
    if (comm.size() > 1) {
      EXPECT_GT(st.comm_bytes, 0);
    }
    const std::string json = st.to_json();
    for (const char* key :
         {"\"seconds\"", "\"comm_bytes\"", "\"supersteps\"",
          "\"bytes_sent\"", "\"overlapped\"", "\"seg_hits\"",
          "\"seg_misses\"", "\"seg_evictions\"", "\"seg_prefetch_hits\"",
          "\"seg_fetch_bytes\"", "\"seg_stall_seconds\""})
      EXPECT_NE(json.find(key), std::string::npos) << key;
  });
}

TEST(EngineConfig, FromParamsMapsEveryKnob) {
  core::Params params;
  params.max_exchange_bytes = 1 << 14;
  params.num_threads = 4;
  const engine::Config cfg = engine::Config::from_params(params);
  EXPECT_EQ(cfg.max_exchange_bytes, 1 << 14);
  EXPECT_EQ(cfg.num_threads, 4);
  // The analytics-only knobs keep their defaults.
  EXPECT_EQ(cfg.coalesce_every, 0);
  EXPECT_EQ(cfg.tol, 0.0);
  EXPECT_EQ(cfg.max_supersteps, engine::Config::kUnbounded);
}

// Zero-iteration contract: a cap of 0 runs no supersteps and returns
// the seed state.
TEST(EngineConfig, ZeroSuperstepCapRunsNone) {
  const EdgeList el = gen::erdos_renyi(200, 4, 3);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_graph(comm, el, VertexDist::block(el.n, 2));
    PageRankProgram pr;
    EXPECT_EQ(engine::run(comm, g, pr, {.max_supersteps = 0}).supersteps, 0);
    EXPECT_NEAR(pr.sum, 1.0, 1e-12);  // uniform seed ranks, mass intact
    KCoreProgram kc;
    EXPECT_EQ(engine::run(comm, g, kc, {.max_supersteps = 0}).supersteps, 0);
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_EQ(kc.core[v], g.degree(v));  // degree upper bound untouched
  });
}

// Entry audit: a Config no driver accepts throws std::invalid_argument
// on every rank before the first collective, so no rank aborts and
// none waits for a peer. Each rank then runs a valid program, which
// would hang or fail the verifier if any rank had started a collective
// before throwing.
TEST(EngineConfig, InvalidConfigThrowsOnEveryRank) {
  const EdgeList el = gen::erdos_renyi(200, 4, 3);
  const std::vector<std::pair<const char*, engine::Config>> bad_any = {
      {"num_threads 0", {.num_threads = 0}},
      {"num_threads -2", {.num_threads = -2}},
      {"coalesce_every -1", {.coalesce_every = -1}},
      {"max_exchange_bytes -1", {.max_exchange_bytes = -1}},
  };
  // Fixed-iteration programs additionally need a cap and refuse the
  // coalesced refresh.
  const std::vector<std::pair<const char*, engine::Config>> bad_fixed = {
      {"no cap", {}},
      {"coalescing", {.coalesce_every = 2, .max_supersteps = 5}},
  };
  for (const int nranks : {1, 2}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const DistGraph g =
          build_graph(comm, el, VertexDist::block(el.n, nranks));
      for (const auto& [name, cfg] : bad_any) {
        WccProgram wcc;
        EXPECT_THROW(engine::run(comm, g, wcc, cfg), std::invalid_argument)
            << name;
        PageRankProgram pr;
        engine::Config capped = cfg;
        capped.max_supersteps = 5;
        EXPECT_THROW(engine::run(comm, g, pr, capped), std::invalid_argument)
            << name;
        BfsProgram bfs;
        EXPECT_THROW(engine::run(comm, g, bfs, cfg), std::invalid_argument)
            << name;
        MultiBfsProgram multi;
        multi.roots = {0, 1};
        EXPECT_THROW(engine::run(comm, g, multi, cfg), std::invalid_argument)
            << name;
      }
      for (const auto& [name, cfg] : bad_fixed) {
        PageRankProgram pr;
        EXPECT_THROW(engine::run(comm, g, pr, cfg), std::invalid_argument)
            << name;
        TriangleCountProgram tc;
        EXPECT_THROW(engine::run(comm, g, tc, cfg), std::invalid_argument)
            << name;
      }
      // Nothing was left half-started: a valid run completes on every
      // rank.
      WccProgram wcc;
      engine::run(comm, g, wcc);
      EXPECT_GT(wcc.num_components, 0);
      // Coalescing stays valid on a change-converging program.
      KCoreProgram kc;
      EXPECT_NO_THROW(engine::run(comm, g, kc, {.coalesce_every = 2}));
    });
  }
}

// ---------------------------------------------------------------------------
// Program objects are reusable: run() must not carry any result of an
// earlier run into the next one.

/// Set up one program object with `first` and run it under cfg, then
/// apply `second` and run it again; a fresh object given both set-ups
/// must report the same results as the second run.
template <typename P, typename First, typename Second, typename Results>
void expect_rerun_matches_fresh(sim::Comm& comm, const DistGraph& g,
                                const engine::Config& cfg, First&& first,
                                Second&& second, Results&& results) {
  P reused;
  first(reused);
  engine::run(comm, g, reused, cfg);
  second(reused);
  engine::run(comm, g, reused, cfg);
  P fresh;
  first(fresh);
  second(fresh);
  engine::run(comm, g, fresh, cfg);
  EXPECT_EQ(results(reused), results(fresh));
}

TEST(EngineReuse, EveryProgramRunTwiceReportsFreshResults) {
  // One graph per world: a remote-backed segment cache (the
  // XTRA_TEST_OOC hook) holds the world's fetch window while it lives.
  const auto on_graph = [](const EdgeList& el, auto&& body) {
    for (const int nranks : {1, 2})
      sim::run_world(nranks, [&](sim::Comm& comm) {
        const DistGraph g =
            build_graph(comm, el, VertexDist::block(el.n, nranks));
        body(comm, g);
      });
  };
  const auto same = [](auto&) {};

  on_graph(gen::erdos_renyi(300, 8, 9), [&](sim::Comm& comm,
                                            const DistGraph& g) {
    const engine::Config capped{.max_supersteps = 20};
    expect_rerun_matches_fresh<PageRankProgram>(
        comm, g, capped, same, same,
        [](const PageRankProgram& p) { return std::tuple(p.rank, p.sum); });
    expect_rerun_matches_fresh<WccProgram>(
        comm, g, {}, same, same, [](const WccProgram& p) {
          return std::tuple(p.component, p.num_components, p.largest_size);
        });
    expect_rerun_matches_fresh<CommLpProgram>(
        comm, g, capped, same, same, [](const CommLpProgram& p) {
          return std::tuple(p.label, p.num_communities);
        });
    expect_rerun_matches_fresh<KCoreProgram>(
        comm, g, {}, same, same, [](const KCoreProgram& p) {
          return std::tuple(p.core, p.max_core);
        });
    // A capped first run leaves deferred vertices pending.
    DeltaSsspProgram reused;
    reused.delta = 2;
    engine::run(comm, g, reused, {.max_supersteps = 2});
    engine::run(comm, g, reused);
    DeltaSsspProgram fresh;
    fresh.delta = 2;
    engine::run(comm, g, fresh);
    EXPECT_EQ(reused.dist, fresh.dist);
    // A small sample cap makes most centers count as sampled.
    expect_rerun_matches_fresh<TriangleCountProgram>(
        comm, g, {.max_supersteps = 1},
        [](TriangleCountProgram& p) { p.sample_cap = 4; }, same,
        [](const TriangleCountProgram& p) {
          return std::tuple(p.triangles, p.sampled_centers);
        });
  });

  // A 40-vertex path plus one isolated vertex (gid 40).
  EdgeList path;
  path.n = 41;
  for (gid_t v = 0; v + 1 < 40; ++v) path.edges.push_back({v, v + 1});
  on_graph(path, [&](sim::Comm& comm, const DistGraph& g) {
    // Deep first run (root at the path's end), then a run from the
    // isolated vertex, which reaches nothing.
    expect_rerun_matches_fresh<BfsProgram>(
        comm, g, {}, same, [](BfsProgram& p) { p.root = 40; },
        [](const BfsProgram& p) { return std::tuple(p.levels, p.ecc); });
    expect_rerun_matches_fresh<MultiBfsProgram>(
        comm, g, {}, [](MultiBfsProgram& p) { p.roots = {0, 39}; },
        [](MultiBfsProgram& p) { p.roots = {20, 5}; },
        [](const MultiBfsProgram& p) { return std::tuple(p.levels, p.ecc); });
  });

  on_graph(gen::webcrawl(300, 6, 3), [&](sim::Comm& comm,
                                         const DistGraph& g) {
    expect_rerun_matches_fresh<SccTrimProgram>(
        comm, g, {}, same, same,
        [](const SccTrimProgram& p) { return p.active; });
  });
}

// ---------------------------------------------------------------------------
// MPI+X thread determinism. The intra-rank thread width is a pure
// throughput knob: every transport cell must produce byte-identical
// per-vertex results AND an identical wire ledger at threads = 1, 2, 8
// (8 exceeds this container's cores, so oversubscription is covered).

/// Every deterministic counter of the run's wire accounting (times
/// excluded), plus the superstep count.
std::vector<count_t> wire_ledger(const engine::Stats& st) {
  const comm::ExchangeStats& ex = st.exchange;
  return {st.comm_bytes,          st.supersteps,
          ex.exchanges,           ex.phases,
          ex.records_sent,        ex.bytes_sent,
          ex.coalesced_flushes,   ex.overlapped,
          ex.max_inflight_bytes};
}

TEST(EngineThreads, PageRankBitIdenticalAcrossThreadCountsAndKnobs) {
  const EdgeList el = gen::erdos_renyi(1'000, 8, 11);
  for (const engine::Config& base : knob_matrix()) {
    // Coalescing needs a change-converging program; CommLP covers
    // those cells below.
    if (base.coalesce_every != 0) continue;
    std::vector<double> ref;
    std::vector<count_t> ref_wire;
    for (const int threads : {1, 2, 8}) {
      sim::run_world(4, [&](sim::Comm& comm) {
        const DistGraph g =
            build_graph(comm, el, VertexDist::random(el.n, 4, 3));
        PageRankProgram p;
        engine::Config cfg = base;
        cfg.max_supersteps = 12;
        cfg.num_threads = threads;
        const engine::Stats st = engine::run(comm, g, p, cfg);
        EXPECT_EQ(st.num_threads, threads) << cfg_name(base);
        const auto global = by_gid(comm, g, p.rank);
        auto wire = wire_ledger(st);
        comm.allreduce_max(wire);  // any rank drift fails the compare
        if (comm.rank() != 0) return;
        if (threads == 1) {
          ref = global;
          ref_wire = wire;
        } else {
          EXPECT_EQ(global, ref)
              << cfg_name(base) << " threads=" << threads;
          EXPECT_EQ(wire, ref_wire)
              << cfg_name(base) << " threads=" << threads;
        }
      });
    }
  }
}

TEST(EngineThreads, CommLpBitIdenticalAcrossThreadCountsAndKnobs) {
  const EdgeList el = gen::community_graph(1'000, 10, 0.7, 2.3, 5);
  for (const engine::Config& base : knob_matrix()) {
    std::vector<gid_t> ref;
    std::vector<count_t> ref_wire;
    for (const int threads : {1, 2, 8}) {
      sim::run_world(4, [&](sim::Comm& comm) {
        const DistGraph g =
            build_graph(comm, el, VertexDist::random(el.n, 4, 4));
        CommLpProgram p;
        engine::Config cfg = base;
        cfg.max_supersteps = 10;
        cfg.num_threads = threads;
        const engine::Stats st = engine::run(comm, g, p, cfg);
        const auto global = by_gid(comm, g, p.label);
        auto wire = wire_ledger(st);
        comm.allreduce_max(wire);
        if (comm.rank() != 0) return;
        if (threads == 1) {
          ref = global;
          ref_wire = wire;
        } else {
          EXPECT_EQ(global, ref)
              << cfg_name(base) << " threads=" << threads;
          EXPECT_EQ(wire, ref_wire)
              << cfg_name(base) << " threads=" << threads;
        }
      });
    }
  }
}

// The frontier engine's two-phase scan: SSSP results and wire ledger
// must not notice the thread width either.
TEST(EngineThreads, SsspBitIdenticalAcrossThreadCounts) {
  const EdgeList el = gen::erdos_renyi(800, 6, 13);
  std::vector<count_t> ref;
  std::vector<count_t> ref_wire;
  for (const int threads : {1, 2, 8}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_graph(comm, el, VertexDist::random(el.n, 4, 3));
      DeltaSsspProgram p;
      p.root = 3;
      p.delta = 8;
      engine::Config cfg;
      cfg.num_threads = threads;
      const engine::Stats st = engine::run(comm, g, p, cfg);
      const auto global = by_gid(comm, g, p.dist);
      auto wire = wire_ledger(st);
      comm.allreduce_max(wire);
      if (comm.rank() != 0) return;
      if (threads == 1) {
        ref = global;
        ref_wire = wire;
      } else {
        EXPECT_EQ(global, ref) << "threads=" << threads;
        EXPECT_EQ(wire, ref_wire) << "threads=" << threads;
      }
    });
  }
}

// Triangle count stages its queries through the sharded emission layer
// (comm/sharded_buckets.hpp): the estimate and the query traffic must
// be slot-exact at any width.
TEST(EngineThreads, TriangleCountBitIdenticalAcrossThreadCounts) {
  const EdgeList el = gen::community_graph(800, 12, 0.6, 2.3, 9);
  double ref_triangles = 0.0;
  count_t ref_sampled = 0;
  std::vector<count_t> ref_wire;
  for (const int threads : {1, 2, 8}) {
    sim::run_world(2, [&](sim::Comm& comm) {
      const DistGraph g =
          build_graph(comm, el, VertexDist::random(el.n, 2, 3));
      TriangleCountProgram p;
      p.sample_cap = 64;
      engine::Config cfg;
      cfg.max_supersteps = 1;  // single staging superstep
      cfg.num_threads = threads;
      const engine::Stats st = engine::run(comm, g, p, cfg);
      auto wire = wire_ledger(st);
      comm.allreduce_max(wire);
      if (comm.rank() != 0) return;
      if (threads == 1) {
        ref_triangles = p.triangles;
        ref_sampled = p.sampled_centers;
        ref_wire = wire;
      } else {
        EXPECT_EQ(p.triangles, ref_triangles) << "threads=" << threads;
        EXPECT_EQ(p.sampled_centers, ref_sampled) << "threads=" << threads;
        EXPECT_EQ(wire, ref_wire) << "threads=" << threads;
      }
    });
  }
}

// Every engine exchange is a two-sided alltoallv: an in-core run bills
// its payload in the exchange ledger, one wire phase per unbounded
// exchange, and issues no window traffic at all. The graph is built
// in-core on purpose (the XTRA_TEST_OOC remote backing pulls through
// windows).
TEST(EngineStats, TwoSidedLedgerBillsEveryExchange) {
  const EdgeList el = gen::erdos_renyi(800, 8, 5);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    const count_t gets_before = comm.stats().one_sided_gets;
    WccProgram p;
    const engine::Stats st = engine::run(comm, g, p);
    EXPECT_EQ(comm.stats().one_sided_gets, gets_before);
    EXPECT_GT(st.exchange.exchanges, 0);
    EXPECT_EQ(st.exchange.phases, st.exchange.exchanges);
    EXPECT_GT(st.exchange.bytes_sent, 0);
    EXPECT_LE(st.exchange.bytes_sent, st.comm_bytes);
    EXPECT_EQ(st.to_json().find("one_sided"), std::string::npos);
  });
}

}  // namespace
}  // namespace xtra::analytics
