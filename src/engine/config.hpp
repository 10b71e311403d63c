// engine::Config — the one knob bag every vertex program runs under.
//
// The comm substrate offers two transport strategies (memory-bounded
// phasing and cross-superstep coalescing). Config gathers their knobs
// so every kernel executed by engine::run inherits both;
// from_params() copies the knobs the partitioner shares with the
// engine out of core::Params so benches drive analytics and
// partitioning from one struct.
#pragma once

#include <limits>
#include <stdexcept>
#include <string>

#include "core/params.hpp"
#include "util/types.hpp"

namespace xtra::engine {

struct Config {
  /// Per-phase send-payload cap (chunk size) for every exchange the
  /// engine issues (halo refreshes, frontier notifications,
  /// census/query traffic), in bytes; 0 = unbounded single alltoallv.
  /// Results are bit-identical for any value. Same value on every rank.
  count_t max_exchange_bytes = 0;

  /// > 0 switches a change-converging dense program's ghost refresh
  /// from a full per-superstep halo exchange to sparse changed-value
  /// updates batched in a comm::CoalescingExchanger and flushed every
  /// `coalesce_every` supersteps (and at convergence). Peers read
  /// values up to coalesce_every-1 supersteps stale between flushes;
  /// coalesce_every == 1 delivers every superstep and is bit-identical
  /// to the full refresh.
  /// engine::run throws if a fixed-iteration dense program gets > 0.
  int coalesce_every = 0;

  /// Residual stop for fixed-iteration dense programs (PageRank):
  /// > 0 adds one allreduce per superstep and stops when the summed
  /// residual the program accumulates drops to tol; 0 keeps the
  /// fixed-iteration contract (and its collective count).
  double tol = 0.0;

  /// Intra-rank worker threads for the engine's chunked sweeps
  /// (boundary/interior update sweeps, the frontier expansion scan).
  /// Deterministic: {1, T} threads produce byte-identical results and
  /// identical ExchangeStats wire accounting for every T — threading
  /// never changes what goes on the wire, only who computes it.
  int num_threads = 1;

  /// Superstep cap. kUnbounded (the default) runs change-converging
  /// programs to convergence; fixed-iteration programs must set a
  /// non-negative cap or engine::run throws (0 runs no supersteps at
  /// all — init and finish only).
  static constexpr count_t kUnbounded = -1;
  count_t max_supersteps = kUnbounded;

  /// Copy the knobs the partitioner shares with the engine (chunk
  /// size, threads); the analytics-only knobs keep their defaults
  /// — set them, tol and max_supersteps after.
  static Config from_params(const core::Params& p) {
    Config cfg;
    cfg.max_exchange_bytes = p.max_exchange_bytes;
    cfg.num_threads = p.num_threads;
    return cfg;
  }
};

namespace detail {

/// Entry check every driver runs before its first collective: throws
/// std::invalid_argument for knob values the program cannot run under.
/// Every rank holds the same cfg, so every rank throws and none waits.
/// `fixed_iteration`: a dense program that stops only at the cap.
inline void validate(const Config& cfg, bool fixed_iteration) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("engine::Config: ") + what);
  };
  if (cfg.num_threads < 1) reject("num_threads must be >= 1");
  if (cfg.coalesce_every < 0) reject("coalesce_every must be >= 0");
  if (cfg.max_exchange_bytes < 0) reject("max_exchange_bytes must be >= 0");
  if (fixed_iteration && cfg.max_supersteps < 0)
    reject("fixed-iteration programs need max_supersteps");
  if (fixed_iteration && cfg.coalesce_every > 0)
    reject("coalesce_every > 0 requires a change-converging program");
}

/// The loop bound cfg.max_supersteps encodes (negative = unbounded).
inline count_t superstep_limit(const Config& cfg) {
  return cfg.max_supersteps >= 0 ? cfg.max_supersteps
                                 : std::numeric_limits<count_t>::max();
}

}  // namespace detail

}  // namespace xtra::engine
