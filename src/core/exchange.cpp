#include "core/exchange.hpp"

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace xtra::core {

void UpdateExchanger::run(sim::Comm& comm, const graph::DistGraph& g,
                          std::vector<part_t>& parts,
                          const std::vector<lid_t>& queue) {
  start(comm, g, parts, queue);
  finish(comm, g, parts);
}

void UpdateExchanger::build_destinations(const graph::DistGraph& g) {
  const auto n = static_cast<count_t>(g.n_local());
  // Chunk c's lists land back to back in chunk_ranks[c]; each vertex's
  // list length goes to dest_off_[v + 1] until the prefix sum below.
  std::vector<std::vector<int>> chunk_ranks(
      static_cast<std::size_t>(par::chunk_count(n)));
  dest_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  par::for_chunks_if(!g.out_of_core(), n, [&](count_t c, count_t lo,
                                              count_t hi) {
    // seen[r] == v: rank r is already on v's list.
    std::vector<lid_t> seen(static_cast<std::size_t>(g.nranks()),
                            kInvalidLid);
    std::vector<int>& out = chunk_ranks[static_cast<std::size_t>(c)];
    for (count_t i = lo; i < hi; ++i) {
      const auto v = static_cast<lid_t>(i);
      const std::size_t before = out.size();
      for (const lid_t u : g.arcs(v)) {
        const int task = g.owner_of(u);
        if (task == g.rank() || seen[static_cast<std::size_t>(task)] == v)
          continue;
        seen[static_cast<std::size_t>(task)] = v;
        out.push_back(task);
      }
      dest_off_[v + 1] = static_cast<count_t>(out.size() - before);
    }
  });
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v)
    dest_off_[v + 1] += dest_off_[v];
  dest_ranks_.clear();
  dest_ranks_.reserve(static_cast<std::size_t>(dest_off_.back()));
  for (const std::vector<int>& ranks : chunk_ranks)
    dest_ranks_.insert(dest_ranks_.end(), ranks.begin(), ranks.end());
}

void UpdateExchanger::start(sim::Comm& comm, const graph::DistGraph& g,
                            const std::vector<part_t>& parts,
                            const std::vector<lid_t>& queue) {
  XTRA_ASSERT_MSG(dest_off_.size() == g.n_local() + 1,
                  "UpdateExchanger::build_destinations not run for this "
                  "graph");

  // Pass 1 (Alg 3): count records per destination, one per (queued
  // vertex, distinct remote owner in its neighborhood).
  buckets_.begin(comm.size());
  for (const lid_t v : queue) {
    XTRA_DEBUG_ASSERT(g.is_owned(v));
    for (const int task : dests(v)) buckets_.count(task);
  }
  buckets_.commit();

  // Pass 2: fill the send buffer at prefix-summed offsets. Each
  // destination's records stay in queue order.
  for (const lid_t v : queue) {
    const PartUpdate rec{g.gid_of(v), parts[v]};
    for (const int task : dests(v)) buckets_.push(task, rec);
  }

  // buckets_ is not touched again until the next start()'s begin(),
  // safely after the finish — slice it in place, no payload copy.
  ex_.start_inplace(comm, buckets_);
}

void UpdateExchanger::finish(sim::Comm& comm, const graph::DistGraph& g,
                             std::vector<part_t>& parts) {
  const std::span<const PartUpdate> recv = ex_.finish<PartUpdate>(comm);

  // Apply to ghosts. A received gid must be a ghost here: the sender
  // saw one of our owned vertices in its neighborhood, so we see theirs.
  for (const PartUpdate& rec : recv) {
    const lid_t l = g.lid_of(rec.gid);
    XTRA_ASSERT_MSG(l != kInvalidLid && !g.is_owned(l),
                    "part update for a vertex that is not a local ghost");
    parts[l] = rec.part;
  }
}

void exchange_updates(sim::Comm& comm, const graph::DistGraph& g,
                      std::vector<part_t>& parts,
                      const std::vector<lid_t>& queue) {
  UpdateExchanger scratch;
  scratch.build_destinations(g);
  scratch.run(comm, g, parts, queue);
}

}  // namespace xtra::core
