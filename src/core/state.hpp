// Shared per-phase bookkeeping for the balance/refinement stages.
//
// The distributed algorithm never re-counts part sizes from scratch
// inside an iteration. Instead each rank tracks the *local* changes
// C*(i) it made this iteration, estimates global sizes as
// S*(i) + mult * C*(i) (the dynamic-multiplier scheme of §III-C), and
// folds the changes into S* with one Allreduce per iteration.
#pragma once

#include <vector>

#include "core/exchange.hpp"
#include "core/params.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/types.hpp"

namespace xtra::core {

struct PhaseState {
  part_t nparts = 0;
  int nprocs = 1;
  double x = 1.0;  ///< multiplier endpoint X (final iteration)
  double y = 0.25; ///< multiplier endpoint Y (first iteration)
  int iter_tot = 0;  ///< iterations done in the current outer-loop set
  int i_tot = 1;     ///< Itot = Iouter * (Ibal + Iref)

  count_t imb_v = 0;  ///< Imbv: target max vertices per part
  count_t imb_e = 0;  ///< Imbe: target max edge endpoints per part

  std::vector<count_t> size_v, size_e, size_c;      ///< Sv, Se, Sc
  std::vector<count_t> change_v, change_e, change_c;///< Cv, Ce, Cc (local)

  /// Persistent ExchangeUpdates engine: bucketing scratch and the
  /// (optionally memory-bounded) exchanger survive across every
  /// balance/refine iteration instead of being rebuilt per call.
  UpdateExchanger exchanger;

  /// mult <- nprocs * ((X - Y) * itertot/Itot + Y), §III-C.
  double mult() const {
    return nprocs * ((x - y) * (static_cast<double>(iter_tot) /
                                static_cast<double>(i_tot)) +
                     y);
  }

  /// Estimated global size of part i during the current iteration.
  double est_v(part_t i) const {
    return static_cast<double>(size_v[static_cast<std::size_t>(i)]) +
           mult() * static_cast<double>(change_v[static_cast<std::size_t>(i)]);
  }
  double est_e(part_t i) const {
    return static_cast<double>(size_e[static_cast<std::size_t>(i)]) +
           mult() * static_cast<double>(change_e[static_cast<std::size_t>(i)]);
  }
  double est_c(part_t i) const {
    return static_cast<double>(size_c[static_cast<std::size_t>(i)]) +
           mult() * static_cast<double>(change_c[static_cast<std::size_t>(i)]);
  }

  /// Worst-case global size of part i if every rank made the same
  /// changes this rank did. Used to gate *constraints* (as opposed to
  /// the objective being actively balanced): constraint overshoot is
  /// not self-correcting — no weighting function pulls it back — so an
  /// optimistic estimate would let the cap ratchet upward.
  double est_v_strict(part_t i) const {
    return static_cast<double>(size_v[static_cast<std::size_t>(i)]) +
           static_cast<double>(nprocs) *
               static_cast<double>(change_v[static_cast<std::size_t>(i)]);
  }
  double est_e_strict(part_t i) const {
    return static_cast<double>(size_e[static_cast<std::size_t>(i)]) +
           static_cast<double>(nprocs) *
               static_cast<double>(change_e[static_cast<std::size_t>(i)]);
  }

  /// Whether one more vertex may leave part x without risking an empty
  /// part. An empty part can never reappear in a neighborhood, so
  /// label propagation could not repopulate it. Ranks move vertices
  /// concurrently without communicating, so the bound is worst-case:
  /// even if every rank removed as many vertices as this one, at least
  /// one vertex must remain.
  bool can_leave(part_t p) const {
    const auto i = static_cast<std::size_t>(p);
    return size_v[i] + static_cast<count_t>(nprocs) * (change_v[i] - 1) >= 1;
  }
};

/// Count owned vertices per part and Allreduce (initial Sv). Collective.
std::vector<count_t> compute_vertex_sizes(sim::Comm& comm,
                                          const graph::DistGraph& g,
                                          const std::vector<part_t>& parts,
                                          part_t nparts);

/// Per-part degree sums (the Se convention: |E(pi)| is counted as edge
/// endpoints in pi; the sum over parts is 2|E| and the count updates
/// locally on a move, which is what makes distributed tracking cheap —
/// same convention as the PuLP/XtraPuLP reference code). Collective.
std::vector<count_t> compute_edge_sizes(sim::Comm& comm,
                                        const graph::DistGraph& g,
                                        const std::vector<part_t>& parts,
                                        part_t nparts);

/// Per-part cut sizes Sc: cut edges with an endpoint in the part (each
/// cut edge contributes once to each endpoint's part). Collective.
std::vector<count_t> compute_cut_sizes(sim::Comm& comm,
                                       const graph::DistGraph& g,
                                       const std::vector<part_t>& parts,
                                       part_t nparts);

/// Fold this iteration's local changes into the global sizes:
/// Allreduce(C*, SUM); S* += C*; C* = 0. Folds the vertex and edge
/// vectors (their deltas are exact); cut sizes need refresh_cut_sizes
/// (see state.cpp for why). Collective.
void fold_changes(sim::Comm& comm, PhaseState& st);

/// Recompute Sc exactly from the post-exchange labels and clear Cc.
/// Collective.
void refresh_cut_sizes(sim::Comm& comm, const graph::DistGraph& g,
                       const std::vector<part_t>& parts, PhaseState& st);

/// Scratch for the per-vertex neighbor-part counting loop: dense
/// weighted counts and unit (arc) counts plus the list of touched
/// parts, reset in O(touched).
///
/// The weighted count is what the phases score; the unit count is how
/// many arcs land in the part, which the edge phases need for the
/// closed-form cut delta of a move (DESIGN.md §11). A part is touched
/// on its first nonzero weight; a part reached only by zero-weight
/// arcs keeps its unit count in a side list so reset() still clears it.
class NeighborCounts {
 public:
  explicit NeighborCounts(part_t nparts)
      : counts_(static_cast<std::size_t>(nparts), 0.0),
        units_(static_cast<std::size_t>(nparts), 0) {}

  void add(part_t p, double w) { add(p, 1, w); }

  /// Add `units` arcs of total weight `w` to part p (a cache replay
  /// adds a whole part at once).
  void add(part_t p, count_t units, double w) {
    const auto i = static_cast<std::size_t>(p);
    if (counts_[i] == 0.0) {
      if (w != 0.0) {
        touched_.push_back(p);
      } else if (units_[i] == 0) {
        unweighted_.push_back(p);
      }
    }
    counts_[i] += w;
    units_[i] += units;
  }

  double get(part_t p) const { return counts_[static_cast<std::size_t>(p)]; }
  /// Number of arcs counted into part p.
  count_t units(part_t p) const { return units_[static_cast<std::size_t>(p)]; }
  const std::vector<part_t>& touched() const { return touched_; }
  /// Parts reached so far only by zero-weight arcs (possibly touched
  /// later); their units still count.
  const std::vector<part_t>& unweighted() const { return unweighted_; }

  void reset() {
    for (const part_t p : touched_) clear(p);
    for (const part_t p : unweighted_) clear(p);
    touched_.clear();
    unweighted_.clear();
  }

 private:
  void clear(part_t p) {
    counts_[static_cast<std::size_t>(p)] = 0.0;
    units_[static_cast<std::size_t>(p)] = 0;
  }

  std::vector<double> counts_;
  std::vector<count_t> units_;
  std::vector<part_t> touched_;
  std::vector<part_t> unweighted_;
};

/// Cut-size deltas of moving owned vertex v from part x to part w != x,
/// in closed form (DESIGN.md §11). Sc(i) counts cut arcs with an
/// endpoint in part i, so only x and w change: with d = out_degree(v)
/// and c_p = counts.units(p), change_c[x] += 2c_x - d and
/// change_c[w] += d - 2c_w. `counts` holds v's neighborhood against
/// the labels before the move.
void apply_cut_deltas(const graph::DistGraph& g, const NeighborCounts& counts,
                      lid_t v, part_t x, part_t w,
                      std::vector<count_t>& change_c);

}  // namespace xtra::core
