// comm::FetchLane — the dedicated one-sided lane the out-of-core
// segment cache pulls edge segments through (graph/segcache.hpp).
//
// The lane holds one window slot for its whole lifetime, taken at
// open() from the substrate's lowest-free scan (find_free_window) like
// every other exposure. open() is collective and every rank's window
// set is identical at that point, so the slot is rank-uniform. Several
// remote-backed graphs may therefore coexist in one world, each on its
// own slot; Exchanger exposures take whichever slots remain, and
// exhaustion fails loudly with the substrate's diagnostics naming
// every holder's label.
//
// open() is collective: every rank contributes its segment blob, the
// designated memory rank hosts the rank-ordered concatenation in its
// exposed region (RFP's remote-fetching pull paradigm in miniature —
// consumers issue win_gets instead of the owner pushing), and every
// other rank exposes an empty region so the window's lifecycle stays
// symmetric under the comm verifier. The hosted region is read-only
// for the whole epoch, so no fences are needed and the verifier's
// owner-mutation checksum stays clean. get() is passive-target and
// non-collective — billed to the fetching rank; the memory rank's own
// fetches are self-local and free, exactly the asymmetry a far-memory
// deployment has.
#pragma once

#include <cstdint>
#include <vector>

#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace xtra::comm {

class FetchLane {
 public:
  FetchLane() = default;
  FetchLane(const FetchLane&) = delete;
  FetchLane& operator=(const FetchLane&) = delete;

  /// Collective. Ship `blob_bytes` of `blob` to `host_rank`, which
  /// exposes the rank-ordered concatenation on the lowest free window;
  /// every other rank exposes an empty region on the same slot.
  void open(sim::Comm& comm, const void* blob, std::size_t blob_bytes,
            int host_rank) {
    XTRA_ASSERT(!open_);
    XTRA_ASSERT(host_rank >= 0 && host_rank < comm.size());
    host_rank_ = host_rank;
    std::vector<std::uint8_t> mine(
        static_cast<const std::uint8_t*>(blob),
        static_cast<const std::uint8_t*>(blob) + blob_bytes);
    const std::vector<count_t> sizes = comm.allgatherv(
        std::vector<count_t>{static_cast<count_t>(blob_bytes)});
    my_base_ = 0;
    for (int r = 0; r < comm.rank(); ++r)
      my_base_ += static_cast<std::size_t>(sizes[static_cast<std::size_t>(r)]);
    hosted_ = comm.gatherv(mine, host_rank);
    if (comm.rank() != host_rank) {
      hosted_.clear();
      hosted_.shrink_to_fit();
    }
    win_ = comm.find_free_window();
    comm.win_expose(hosted_.empty() ? nullptr : hosted_.data(),
                    hosted_.size(), win_, "segcache fetch lane");
    open_ = true;
  }

  /// Pull [offset, offset+len) of THIS rank's blob from the memory
  /// rank into dst. Non-collective, passive-target.
  void get(sim::Comm& comm, std::size_t offset, std::size_t len,
           void* dst) const {
    XTRA_ASSERT(open_);
    comm.win_get(win_, host_rank_, my_base_ + offset, len, dst);
  }

  /// Collective. Ends the exposure epoch and frees the hosted copy.
  void close(sim::Comm& comm) {
    if (!open_) return;
    comm.win_unexpose(win_);
    hosted_.clear();
    hosted_.shrink_to_fit();
    open_ = false;
  }

  bool is_open() const { return open_; }
  int host_rank() const { return host_rank_; }

  /// Bytes the memory rank holds for every rank (its own view; zero
  /// elsewhere). Introspection for tests.
  std::size_t hosted_bytes() const { return hosted_.size(); }

 private:
  bool open_ = false;
  int host_rank_ = 0;
  int win_ = 0;                      ///< window slot taken at open()
  std::size_t my_base_ = 0;          ///< this rank's offset in the host blob
  std::vector<std::uint8_t> hosted_; ///< memory rank only
};

}  // namespace xtra::comm
