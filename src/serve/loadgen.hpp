// serve::LoadGen — deterministic open-loop query trace generation.
//
// Poisson arrivals (exponential inter-arrival gaps at rate_qps) and a
// configurable kind mix, all drawn from the seeded Rng so every rank
// computes the IDENTICAL trace locally: the trace is shared state the
// scheduler's rank-uniform admission decisions key on, and it must
// cost zero communication. Arrival times are virtual seconds
// (serve/clock.hpp); nothing here reads a wall clock (lint rule F).
#pragma once

#include <vector>

#include "serve/query.hpp"
#include "util/types.hpp"

namespace xtra::serve {

struct LoadGenConfig {
  count_t num_queries = 64;
  double rate_qps = 25.0;   ///< Poisson arrival rate, queries per
                            ///< virtual second
  std::uint64_t seed = 1;   ///< trace stream; same seed => same trace
  // Kind mix weights (any non-negative scale; normalized internally).
  double weight_lookup = 1.0;
  double weight_khop = 1.0;
  double weight_bfs = 1.0;
  double weight_ppr = 1.0;
  count_t khop_depth = 3;  ///< level cap stamped on kKHop queries
  count_t ppr_depth = 4;   ///< truncation depth stamped on kPpr queries
};

class LoadGen {
 public:
  /// Deterministic trace of cfg.num_queries queries with
  /// non-decreasing arrival_seconds and sources uniform in
  /// [0, n_global). Pure function of (cfg, n_global) — call it on
  /// every rank and hand the result to serve::Scheduler::run. Throws
  /// std::invalid_argument when n_global == 0, rate_qps <= 0, a mix
  /// weight is negative, or the weights sum to <= 0.
  static std::vector<Query> generate(const LoadGenConfig& cfg,
                                     gid_t n_global);
};

}  // namespace xtra::serve
