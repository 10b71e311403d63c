// Scenario: partition a web crawl and extract its largest strongly
// connected component (the paper's SCC analytic on WDC12), through
// the unified vertex-program engine API.
//
// Demonstrates the directed-graph path: a crawl is generated (or could
// be loaded with graph/io.hpp), symmetrized for partitioning, and the
// *directed* graph is redistributed by the computed partition before
// running the engine-native kernels — largest_scc with an
// engine::Config (trim + forward/backward reachability, all riding
// the config's transport knobs), and WCC and the delta-capped SSSP
// from the crawl root as programs under engine::run.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "core/xtrapulp.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/io.hpp"
#include "mpisim/comm.hpp"

int main(int argc, char** argv) {
  using namespace xtra;
  constexpr int kRanks = 4;

  // Load a crawl from file if given, else generate a WDC12-like one.
  graph::EdgeList crawl;
  if (argc > 1) {
    crawl = graph::read_edge_list_text(argv[1]);
    std::printf("loaded %s: %llu vertices, %lld arcs\n", argv[1],
                static_cast<unsigned long long>(crawl.n),
                static_cast<long long>(crawl.edge_count()));
  } else {
    crawl = gen::webcrawl(40'000, 18, 11);
  }
  const graph::EdgeList undirected = graph::symmetrized(crawl);

  // Partition the undirected view; the paper initializes web graphs
  // from the crawl order (block) and lets the balance stages run. The
  // same Params seed the engine config the analytics run under.
  core::Params params;
  params.nparts = kRanks;
  params.init = core::InitStrategy::kBlock;
  const engine::Config cfg = engine::Config::from_params(params);
  std::vector<part_t> parts;
  sim::run_world(kRanks, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, undirected, graph::VertexDist::block(undirected.n, kRanks));
    const auto r = core::partition(comm, g, params);
    const auto global = core::gather_global_parts(comm, g, r.parts);
    if (comm.rank() == 0) parts = global;
  });

  // Redistribute the directed crawl by partition and run the
  // analytics through the engine.
  auto owners = std::make_shared<std::vector<int>>(parts.begin(), parts.end());
  sim::run_world(kRanks, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, crawl, graph::VertexDist::explicit_map(crawl.n, kRanks, owners));
    const analytics::SccResult scc = analytics::largest_scc(comm, g, cfg);

    analytics::WccProgram wcc;
    const engine::Stats wcc_st = engine::run(comm, g, wcc, cfg);

    analytics::DeltaSsspProgram paths;  // root 0, delta 8
    const engine::Stats paths_st = engine::run(comm, g, paths, cfg);
    count_t reached = 0;
    count_t max_dist = 0;
    for (lid_t v = 0; v < g.n_local(); ++v)
      if (paths.dist[v] != analytics::kInfDist) {
        ++reached;
        max_dist = std::max(max_dist, paths.dist[v]);
      }
    reached = comm.allreduce_sum(reached);
    max_dist = comm.allreduce_max(max_dist);

    if (comm.rank() == 0) {
      std::printf("largest SCC: %lld of %llu vertices (%.1f%%)\n",
                  static_cast<long long>(scc.scc_size),
                  static_cast<unsigned long long>(crawl.n),
                  100.0 * static_cast<double>(scc.scc_size) /
                      static_cast<double>(crawl.n));
      std::printf("weak components: %lld (largest %lld)\n",
                  static_cast<long long>(wcc.num_components),
                  static_cast<long long>(wcc.largest_size));
      std::printf("SCC supersteps: %lld, comm: %.1f KB/rank avg\n",
                  static_cast<long long>(scc.stats.supersteps),
                  static_cast<double>(scc.stats.comm_bytes) / 1024.0);
      std::printf("SSSP from crawl root: reached %lld, max dist %lld "
                  "(%lld supersteps)\n",
                  static_cast<long long>(reached),
                  static_cast<long long>(max_dist),
                  static_cast<long long>(paths_st.supersteps));
      std::printf("WCC engine stats: %s\n", wcc_st.to_json().c_str());
    }
  });
  return 0;
}
