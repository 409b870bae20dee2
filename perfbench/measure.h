// Measurement helpers for the pipeline benchmark: clocks, resource usage,
// order statistics, and an in-memory span recorder for the traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// User plus system CPU time of the whole process (every thread), in ms.
double process_cpu_ms();

/// Peak resident set size of the process (ru_maxrss), in MiB.
double peak_rss_mb();

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc();

double median(std::vector<double> v);

/// The tail latency of a run. The ops, in the order they finished, are cut
/// into at most kTailWindows windows of at least kTailWindowOps ops (one
/// window for a shorter run). Each window's tail is its highest percentile,
/// capped at p95, with at least ten samples above it; the run reports the
/// median of the windows' tails. On a shared host, stretches of contention
/// and scheduling delays of several ms set a run's p99, so a whole-run p99
/// moved with the host far more than the median did. The median window
/// discards a stretch of contention unless it covers most of the run, and
/// the p95 cap keeps the tail inside the slowest ops' own spread rather
/// than in the host's wake-up delays. With fewer than eleven ops in a window
/// its maximum is used (percentile 100).
inline constexpr std::size_t kTailWindows = 5;
inline constexpr std::size_t kTailWindowOps = 100;
struct Tail {
  double value = 0.0;
  double percentile = 100.0;  // of the first window (the others within 1%)
  std::size_t samples = 0;
  std::size_t windows = 0;
};
Tail tail_of(const std::vector<double>& in_order);

/// One metric of the final report line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest round-trip decimal form of `v` (all its digits, no rounding).
std::string json_number(double v);

/// One traced interval. `parent` indexes the enclosing span in the same
/// Trace (-1 for a root); spans of one op share `op`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
  std::string program;
};

/// In-memory span recorder. Spans are appended as they open and closed in
/// LIFO order, so they nest strictly; nothing is written until the run ends.
class Trace {
 public:
  explicit Trace(std::string workload) : workload_(std::move(workload)) {}

  /// Start a new op: subsequent spans carry its id.
  void begin_op() { ++op_; }

  int open(const char* name, std::string_view program);
  void close(int index);

  class Scope {
   public:
    Scope(Trace& t, const char* name, std::string_view program)
        : trace_(t), index_(t.open(name, program)) {}
    ~Scope() { trace_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Self time (duration minus the time covered by direct children) per
  /// span name, summed over spans [first, size()), in ms.
  std::map<std::string, double> self_ms(std::size_t first) const;
  /// Inclusive duration per span name over spans [first, size()), in ms.
  std::map<std::string, double> total_ms(std::size_t first) const;

  /// Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
  bool write_json(const std::string& path) const;

 private:
  std::string workload_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t op_ = 0;
};

}  // namespace perfbench
