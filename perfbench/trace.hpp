// Spans recorded by the benchmark around its calls into the library.
//
// A span is (name, lane, start, end, parent). Lane 0 is the process's
// main thread, lane r+1 is simulated rank r. Each lane is appended to
// only by its own thread, so recording needs no lock; the spans stay
// in memory and are written as Chrome trace-event JSON when the
// benchmark exits. A Span given no tracer still measures its own
// duration (the layer metrics read it) but records nothing.
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since the first call in the process.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

inline constexpr int kMaxLanes = 9;  // main thread + up to 8 ranks

class Tracer {
 public:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index into the same lane, -1 for a root span
  };

  /// Opens a span on `lane`; returns its index in the lane.
  int open(int lane, const char* name, double start) {
    Lane& l = lanes_.at(static_cast<std::size_t>(lane));
    const int parent = l.stack.empty() ? -1 : l.stack.back();
    l.records.push_back({name, start, start, parent});
    const int idx = static_cast<int>(l.records.size()) - 1;
    l.stack.push_back(idx);
    return idx;
  }

  void close(int lane, int idx, double end) {
    Lane& l = lanes_.at(static_cast<std::size_t>(lane));
    l.records[static_cast<std::size_t>(idx)].end = end;
    l.stack.pop_back();
  }

  /// Summed self time (duration minus the time its child spans cover)
  /// per span name, over all lanes. Children never overlap one
  /// another, since a lane is one thread.
  std::map<std::string, double> self_seconds() const {
    std::map<std::string, double> out;
    for (const Lane& l : lanes_) {
      std::vector<double> child(l.records.size(), 0.0);
      for (const Record& r : l.records)
        if (r.parent >= 0)
          child[static_cast<std::size_t>(r.parent)] += r.end - r.start;
      for (std::size_t i = 0; i < l.records.size(); ++i)
        out[l.records[i].name] +=
            l.records[i].end - l.records[i].start - child[i];
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds);
  /// `other_data` is a JSON object written under "otherData".
  bool write_chrome_json(const std::string& path,
                         const std::string& other_data) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      const std::vector<Record>& recs = lanes_[lane].records;
      if (recs.empty()) continue;
      std::fprintf(f,
                   "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, "
                   "\"tid\": %zu, \"args\": {\"name\": \"%s%d\"}}",
                   first ? "" : ",\n", lane, lane == 0 ? "main" : "rank",
                   lane == 0 ? 0 : static_cast<int>(lane) - 1);
      first = false;
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const Record& r = recs[i];
        std::fprintf(f,
                     ",\n{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 0, "
                     "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, \"rank\": %d}}",
                     r.name.c_str(), lane, r.start * 1e6,
                     (r.end - r.start) * 1e6, i, r.parent,
                     static_cast<int>(lane) - 1);
      }
    }
    std::fprintf(f, "\n], \"otherData\": %s}\n", other_data.c_str());
    return std::fclose(f) == 0;
  }

 private:
  struct Lane {
    std::vector<Record> records;
    std::vector<int> stack;
  };
  std::array<Lane, kMaxLanes> lanes_{};
};

/// RAII span: measures its own duration always, and records it when
/// given a tracer.
class Span {
 public:
  Span(Tracer* tracer, int lane, const char* name)
      : tracer_(tracer), lane_(lane), start_(now_s()),
        idx_(tracer ? tracer->open(lane, name, start_) : -1) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      end_ = now_s();
      if (tracer_) tracer_->close(lane_, idx_, end_);
      stopped_ = true;
    }
    return end_ - start_;
  }

 private:
  Tracer* tracer_;
  int lane_;
  double start_;
  int idx_;
  double end_ = 0.0;
  bool stopped_ = false;
};

}  // namespace perfbench
