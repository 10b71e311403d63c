// The two composite analytics of Fig 8 (algorithms follow Slota et
// al. [29], the paper's companion analytics study). Every single-run
// kernel — PageRank, WCC, label propagation, k-core, delta-capped
// SSSP, triangle count — is a program struct in analytics/programs.hpp
// run directly through engine::run(comm, g, program, cfg); its result
// state lives in the program. The two functions below chain several
// engine runs plus glue collectives, so they stay free functions: cfg
// reaches every run they issue, and each reports the folded
// engine::Stats of those runs.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/config.hpp"
#include "engine/stats.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"

namespace xtra::analytics {

/// Harmonic centrality (HC) of `num_sources` sampled vertices:
/// HC(v) = sum_u 1/d(u,v). All sources run as ONE batched
/// multi-source BFS (MultiBfsProgram slots — one sweep and one
/// exchange per level for the whole sample, bit-identical to a
/// per-source loop of BfsProgram runs).
struct HarmonicResult {
  engine::Stats stats;  ///< the batched BFS run
  std::vector<gid_t> sources;
  std::vector<double> centrality;  ///< aligned with sources
};
HarmonicResult harmonic_centrality(sim::Comm& comm,
                                   const graph::DistGraph& g,
                                   int num_sources = 16,
                                   std::uint64_t seed = 1,
                                   const engine::Config& cfg = {});

/// Largest strongly connected component extraction (SCC) on a
/// *directed* graph: trim + forward/backward BFS from a max-degree
/// pivot (the MultiStep scheme of [29], first stage).
struct SccResult {
  engine::Stats stats;  ///< trim + forward + backward runs, folded
  std::vector<std::uint8_t> in_scc;  ///< size n_total, 1 if in largest SCC
  count_t scc_size = 0;
};
SccResult largest_scc(sim::Comm& comm, const graph::DistGraph& g,
                      const engine::Config& cfg = {});

}  // namespace xtra::analytics
