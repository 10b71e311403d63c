// ExchangeUpdates — Algorithm 3, the partitioner's only point-to-point
// communication pattern.
//
// Each rank queues owned vertices whose part label changed this
// superstep. For every queued vertex we send (gid, new_part) to each
// *distinct* rank appearing in its neighborhood, then apply the
// incoming records to our ghost labels. Those destination sets depend
// only on the graph, so they are built once per partition run
// (build_destinations, the paper's toSend mask precomputed) and each
// exchange walks a vertex's few destinations instead of its arcs. The
// two passes over the queue around prefix-summed offsets mirror
// Algorithm 3 exactly — they live in comm::DestBuckets; the wire trip
// (optionally phased under a max_send_bytes budget, per the paper's
// memory-bounded multi-phase communication) lives in comm::Exchanger.
#pragma once

#include <span>
#include <vector>

#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/types.hpp"

namespace xtra::core {

/// One part-assignment update on the wire.
struct PartUpdate {
  gid_t gid;
  part_t part;
};

/// Persistent ExchangeUpdates engine: owns the bucketing scratch and
/// the (possibly phased) exchanger, so calling run() once per
/// label-propagation iteration reallocates nothing. PhaseState holds
/// one so every balance/refine iteration reuses the same buffers.
class UpdateExchanger {
 public:
  /// max_send_bytes == 0: unbounded single alltoallv per exchange.
  explicit UpdateExchanger(count_t max_send_bytes = 0)
      : ex_(max_send_bytes) {
    ex_.set_label("core::UpdateExchanger");
  }

  /// Build, for every owned vertex of g, the list of distinct remote
  /// ranks owning one of its out-arcs (first-seen order). Rank-local;
  /// must be called for g before run()/start() on g, and again if the
  /// exchanger moves to another graph. Walks every arc once, on the
  /// rank's thread pool when g is in-core.
  void build_destinations(const graph::DistGraph& g);

  /// Collective. `queue` holds owned local ids whose entry in `parts`
  /// changed; on return the ghost entries of `parts` reflect all
  /// peers' updates. Safe to call with empty queues (still collective).
  /// A thin start()+finish() wrapper.
  void run(sim::Comm& comm, const graph::DistGraph& g,
           std::vector<part_t>& parts, const std::vector<lid_t>& queue);

  /// Collective halves of run(), for overlapping the wire with local
  /// work: start() buckets the queued updates and kicks off the
  /// transfer (parts and queue are released when it returns); local
  /// compute that does not read ghost labels — e.g. fold_changes'
  /// allreduce — may run before finish() applies the arrivals.
  void start(sim::Comm& comm, const graph::DistGraph& g,
             const std::vector<part_t>& parts,
             const std::vector<lid_t>& queue);
  void finish(sim::Comm& comm, const graph::DistGraph& g,
              std::vector<part_t>& parts);

  /// The last start()'s grouped send buffer and per-destination
  /// counts (valid until the next start()).
  const comm::DestBuckets<PartUpdate>& send_buckets() const {
    return buckets_;
  }

  void set_max_send_bytes(count_t bytes) { ex_.set_max_send_bytes(bytes); }
  const comm::ExchangeStats& stats() const { return ex_.stats(); }
  void reset_stats() { ex_.reset_stats(); }

 private:
  /// Distinct remote owners among v's out-arcs.
  std::span<const int> dests(lid_t v) const {
    const auto lo = static_cast<std::size_t>(dest_off_[v]);
    const auto hi = static_cast<std::size_t>(dest_off_[v + 1]);
    return {dest_ranks_.data() + lo, hi - lo};
  }

  std::vector<count_t> dest_off_;  ///< n_local + 1 offsets into dest_ranks_
  std::vector<int> dest_ranks_;    ///< per-vertex destination lists
  comm::DestBuckets<PartUpdate> buckets_;
  comm::Exchanger ex_;
};

/// One-shot convenience wrapper (init paths, tests): builds a scratch
/// UpdateExchanger, destination lists included, per call. Hot loops
/// should hold a persistent one.
void exchange_updates(sim::Comm& comm, const graph::DistGraph& g,
                      std::vector<part_t>& parts,
                      const std::vector<lid_t>& queue);

}  // namespace xtra::core
