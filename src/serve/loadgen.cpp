#include "serve/loadgen.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace xtra::serve {

std::vector<Query> LoadGen::generate(const LoadGenConfig& cfg,
                                     gid_t n_global) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("serve::LoadGen: ") + what);
  };
  if (n_global == 0) reject("n_global must be > 0");
  if (!(cfg.rate_qps > 0.0)) reject("rate_qps must be > 0");
  if (cfg.weight_lookup < 0.0 || cfg.weight_khop < 0.0 ||
      cfg.weight_bfs < 0.0 || cfg.weight_ppr < 0.0)
    reject("mix weights must be >= 0");
  const double wsum = cfg.weight_lookup + cfg.weight_khop + cfg.weight_bfs +
                      cfg.weight_ppr;
  if (!(wsum > 0.0)) reject("mix weights must sum to > 0");

  // One fixed stream (not per rank): the trace is shared state.
  Rng rng(cfg.seed, 0x10adULL);
  std::vector<Query> queries;
  queries.reserve(static_cast<std::size_t>(cfg.num_queries));
  double t = 0.0;
  for (count_t i = 0; i < cfg.num_queries; ++i) {
    // Exponential gap: -ln(1 - u) / rate, u in [0, 1) so the log
    // argument stays in (0, 1].
    t += -std::log1p(-rng.next_double()) / cfg.rate_qps;
    Query q;
    q.arrival_seconds = t;
    const double pick = rng.next_double() * wsum;
    if (pick < cfg.weight_lookup) {
      q.kind = QueryKind::kPointLookup;
    } else if (pick < cfg.weight_lookup + cfg.weight_khop) {
      q.kind = QueryKind::kKHop;
      q.depth = cfg.khop_depth;
    } else if (pick < cfg.weight_lookup + cfg.weight_khop + cfg.weight_bfs) {
      q.kind = QueryKind::kBfs;
    } else {
      q.kind = QueryKind::kPpr;
      q.depth = cfg.ppr_depth;
    }
    q.source = rng.next_below(n_global);
    queries.push_back(q);
  }
  return queries;
}

}  // namespace xtra::serve
