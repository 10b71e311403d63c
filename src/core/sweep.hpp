// PhaseScan — the scan/commit split that threads the partitioner's
// balance/refine sweeps without changing a single move decision.
//
// Every phase iterates owned vertices, counts the neighborhood's part
// labels, and moves the vertex where the phase's scoring says. The
// counting is the O(m) bulk of the iteration; the decision logic is
// cheap but order-sensitive (each move updates the change ledgers and
// weights the very next vertex reads). So the sweep splits:
//
//  * scan(): parallel, read-only. Every owned vertex's neighbor-part
//    counts are computed against the sweep-start labels on the rank's
//    thread pool (util/parallel.hpp) and cached as (part, units,
//    weight) entries in first-touch order, chunk by chunk. No writer
//    exists during the scan — ghost labels only change at the
//    end-of-sweep exchange, owned labels only in the commit — so the
//    reads race with nothing.
//  * commit (in the phase, serial): the ORIGINAL per-vertex selection
//    runs unchanged over materialized counts — replayed from the
//    cache when the vertex is clean, recounted live when an earlier
//    commit this sweep moved one of its counted neighbors (the phase
//    calls mark_moved() after each move). A clean vertex's cached
//    counts equal a live recount by construction, so the committed
//    trajectory is byte-identical to the historical serial sweep at
//    every thread count, including one.
//
// Why the dirty set is exact: vertex w's counts read parts[u] for
// u in neighbors(w), so w goes stale exactly when some moved v has
// w in in_neighbors(v) (== neighbors(v) for undirected graphs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/state.hpp"
#include "graph/dist_graph.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace xtra::core {

class PhaseScan {
 public:
  /// One part of a vertex's neighborhood: how many arcs land in it
  /// and their total weight.
  struct Entry {
    part_t part;
    std::uint32_t units;
    double weight;
  };
  static_assert(sizeof(Entry) == 16, "cache entry must stay 16 bytes");

  /// Neighbor weighting of the counts: Alg 4's degree weighting for
  /// the balance phases, plain label counts for refinement.
  enum class Weight { kUnit, kDegree };

  /// Parallel read-only pass: cache every owned vertex's neighbor-part
  /// counts against the current (sweep-start) labels and clear the
  /// dirty set. Not collective — purely rank-local.
  void scan(const graph::DistGraph& g, const std::vector<part_t>& parts,
            part_t nparts, Weight weight) {
    const auto n = static_cast<count_t>(g.n_local());
    const count_t nchunks = par::chunk_count(n);
    if (static_cast<count_t>(chunk_entries_.size()) < nchunks)
      chunk_entries_.resize(static_cast<std::size_t>(nchunks));
    loc_.resize(static_cast<std::size_t>(n));
    dirty_.assign(static_cast<std::size_t>(n), 0);
    if (nparts_ != nparts) {
      slots_.clear();
      nparts_ = nparts;
    }
    while (static_cast<int>(slots_.size()) < par::num_threads())
      slots_.emplace_back(nparts);
    weight_ = weight;
    const auto scan_chunk = [&](count_t c, count_t lo, count_t hi) {
      NeighborCounts& counts = slots_[static_cast<std::size_t>(
          par::current_slot())];  // lint-ok: per-slot scratch
      auto& out = chunk_entries_[static_cast<std::size_t>(c)];
      out.clear();
      for (count_t i = lo; i < hi; ++i) {
        const lid_t v = static_cast<lid_t>(i);
        counts.reset();
        count_neighbors(g, parts, v, counts);
        const auto off = static_cast<count_t>(out.size());
        // Touched parts first, in touch order, so a replay rebuilds
        // the same touched() sequence; then parts reached only by
        // zero-weight arcs, which carry units but no weight.
        for (const part_t pt : counts.touched())
          out.push_back({pt, units32(counts.units(pt)), counts.get(pt)});
        for (const part_t pt : counts.unweighted())
          if (counts.get(pt) == 0.0)
            out.push_back({pt, units32(counts.units(pt)), 0.0});
        loc_[static_cast<std::size_t>(v)] = {
            off, static_cast<count_t>(out.size()) - off};
      }
    };
    // Out-of-core sweeps replay the same chunks serially, so the cached
    // layout is unchanged.
    par::for_chunks_if(!g.out_of_core(), n, scan_chunk);
  }

  /// Materialize v's neighbor-part counts for the commit pass: replay
  /// the cache when v is clean, recount live (exactly the historical
  /// loop) when an earlier commit this sweep dirtied it. Either way
  /// `counts` ends bit-identical to a live recount, including the
  /// touched order (first nonzero add wins, and a clean vertex's
  /// neighbor labels have not moved since the scan).
  void load(const graph::DistGraph& g, const std::vector<part_t>& parts,
            lid_t v, NeighborCounts& counts) const {
    counts.reset();
    if (dirty_[static_cast<std::size_t>(v)]) {
      count_neighbors(g, parts, v, counts);
      return;
    }
    for (const Entry& e : entries(v)) counts.add(e.part, e.units, e.weight);
  }

  /// Record that v moved: every owned vertex whose counts include v
  /// must recount live from here on.
  void mark_moved(const graph::DistGraph& g, lid_t v) {
    for (const lid_t u : g.in_arcs(v))
      if (g.is_owned(u)) dirty_[static_cast<std::size_t>(u)] = 1;
  }

  bool dirty(lid_t v) const {
    return dirty_[static_cast<std::size_t>(v)] != 0;
  }

  /// Cached entries of v in first-touch order (valid while v is
  /// clean).
  std::span<const Entry> entries(lid_t v) const {
    const auto [off, len] = loc_[static_cast<std::size_t>(v)];
    const auto c =
        static_cast<std::size_t>(static_cast<count_t>(v) / par::kChunkGrain);
    return {chunk_entries_[c].data() + off, static_cast<std::size_t>(len)};
  }

 private:
  static std::uint32_t units32(count_t units) {
    XTRA_DEBUG_ASSERT(units >= 0 && units <= UINT32_MAX);
    return static_cast<std::uint32_t>(units);
  }

  void count_neighbors(const graph::DistGraph& g,
                       const std::vector<part_t>& parts, lid_t v,
                       NeighborCounts& counts) const {
    if (weight_ == Weight::kDegree) {
      for (const lid_t u : g.arcs(v))
        counts.add(parts[u], static_cast<double>(g.degree(u)));
    } else {
      for (const lid_t u : g.arcs(v)) counts.add(parts[u], 1.0);
    }
  }

  Weight weight_ = Weight::kUnit;
  part_t nparts_ = -1;
  std::vector<NeighborCounts> slots_;  ///< per pool slot count scratch
  /// Cached entries, per scan chunk (chunk c covers lids
  /// [c*kChunkGrain, ...)); loc_[v] is (offset, length) into v's chunk.
  std::vector<std::vector<Entry>> chunk_entries_;
  std::vector<std::pair<count_t, count_t>> loc_;
  std::vector<std::uint8_t> dirty_;
};

}  // namespace xtra::core
