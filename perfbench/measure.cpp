#include "measure.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

double tv_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

/// The highest percentile, capped at p95, with at least ten samples above
/// it (the maximum below eleven samples), and that percentile.
std::pair<double, double> window_tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) return {v.back(), 100.0};
  // v[k] has n - 1 - k samples above it: at least ten, and at least 5% of
  // the samples once n exceeds 200.
  const std::size_t above = std::max<std::size_t>(10, (n + 19) / 20);
  const std::size_t k = n - 1 - above;
  return {v[k], 100.0 * static_cast<double>(k + 1) / static_cast<double>(n)};
}

}  // namespace

Tail tail_of(const std::vector<double>& in_order) {
  Tail t;
  const std::size_t n = in_order.size();
  t.samples = n;
  if (n == 0) return t;
  t.windows = std::clamp<std::size_t>(n / kTailWindowOps, 1, kTailWindows);
  std::vector<double> tails;
  for (std::size_t w = 0; w < t.windows; ++w) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(
                                               w * n / t.windows);
    const auto last = in_order.begin() + static_cast<std::ptrdiff_t>(
                                              (w + 1) * n / t.windows);
    const auto [value, percentile] = window_tail({first, last});
    tails.push_back(value);
    if (w == 0) t.percentile = percentile;
  }
  t.value = median(std::move(tails));
  return t;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

int Trace::open(const char* name, std::string_view program) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.program = std::string(program);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Trace::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, double> Trace::self_ms(std::size_t first) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int>(first))
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1e6;
  }
  return out;
}

std::map<std::string, double> Trace::total_ms(std::size_t first) const {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i)
    out[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
  return out;
}

bool Trace::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"name\":" << json_string(s.name)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << json_number(static_cast<double>(s.start_ns - t0) / 1e3)
      << ",\"dur\":"
      << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
      << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
      << ",\"op\":" << s.op << ",\"workload\":" << json_string(workload_)
      << ",\"program\":" << json_string(s.program) << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
