#include "engine/stats.hpp"

#include <cstdio>

namespace xtra::engine {

std::string Stats::to_json() const {
  char buf[1152];
  std::snprintf(
      buf, sizeof(buf),
      "{\"seconds\": %.6f, \"comm_bytes\": %lld, \"supersteps\": %lld, "
      "\"num_threads\": %d, "
      "\"exchanges\": %lld, \"phases\": %lld, \"records_sent\": %lld, "
      "\"bytes_sent\": %lld, \"coalesced_flushes\": %lld, "
      "\"overlapped\": %lld, "
      "\"max_inflight_bytes\": %lld, "
      "\"seg_hits\": %lld, \"seg_misses\": %lld, \"seg_evictions\": %lld, "
      "\"seg_prefetch_hits\": %lld, \"seg_fetch_bytes\": %lld, "
      "\"seg_stall_seconds\": %.6f}",
      seconds, static_cast<long long>(comm_bytes),
      static_cast<long long>(supersteps), num_threads,
      static_cast<long long>(exchange.exchanges),
      static_cast<long long>(exchange.phases),
      static_cast<long long>(exchange.records_sent),
      static_cast<long long>(exchange.bytes_sent),
      static_cast<long long>(exchange.coalesced_flushes),
      static_cast<long long>(exchange.overlapped),
      static_cast<long long>(exchange.max_inflight_bytes),
      static_cast<long long>(exchange.seg_hits),
      static_cast<long long>(exchange.seg_misses),
      static_cast<long long>(exchange.seg_evictions),
      static_cast<long long>(exchange.seg_prefetch_hits),
      static_cast<long long>(exchange.seg_fetch_bytes),
      exchange.seg_stall_seconds);
  return buf;
}

}  // namespace xtra::engine
