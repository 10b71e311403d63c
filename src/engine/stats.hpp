// engine::Stats — the unified per-run measurement every vertex
// program returns: wall seconds, bytes this rank sent and supersteps,
// plus the comm layer's ExchangeStats ledger aggregated over every
// engine the run owned (halo plan, frontier/census exchangers,
// coalescer). JSON-exportable for bench tooling.
#pragma once

#include <string>

#include "comm/exchanger.hpp"
#include "graph/segcache.hpp"
#include "util/types.hpp"

namespace xtra::engine {

struct Stats {
  double seconds = 0.0;    ///< wall time inside engine::run on this rank
  count_t comm_bytes = 0;  ///< wire bytes this rank sent during the run
  count_t supersteps = 0;  ///< supersteps (dense) or levels (frontier)
  int num_threads = 1;     ///< intra-rank threads the run was configured with

  /// Aggregated wire ledger across every exchanger the run owned.
  comm::ExchangeStats exchange;

  /// One JSON object, keys stable for bench tooling (COMM_STATS_JSON
  /// consumers parse the same field names).
  std::string to_json() const;
};

namespace detail {

/// Fold a run's segment-cache activity (delta vs the start-of-run
/// snapshot) into the exchange ledger headed for Stats::to_json. Used
/// by both the dense and frontier drivers.
inline void fold_segcache_delta(comm::ExchangeStats& into,
                                const graph::SegCacheStats& start,
                                const graph::SegCacheStats& end) {
  into.seg_hits += end.seg_hits - start.seg_hits;
  into.seg_misses += end.seg_misses - start.seg_misses;
  into.seg_evictions += end.seg_evictions - start.seg_evictions;
  into.seg_prefetch_hits += end.seg_prefetch_hits - start.seg_prefetch_hits;
  into.seg_fetch_bytes += end.seg_fetch_bytes - start.seg_fetch_bytes;
  into.seg_stall_seconds += end.seg_stall_seconds - start.seg_stall_seconds;
}

}  // namespace detail

}  // namespace xtra::engine
