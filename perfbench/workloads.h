// The benchmark's workloads: table3 and table5 (batch passes over a fixed
// program set) and daemon_mix (closed-loop clients against an in-process
// analysis daemon).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

// Worker counts, fixed so runs on different hosts do the same work.
inline constexpr unsigned kBatchRosaThreads = 2;  // ROSA matrix workers
inline constexpr unsigned kDaemonWorkers = 2;     // daemon analysis workers
inline constexpr unsigned kDaemonClients = 2;     // closed-loop connections
inline constexpr unsigned kJobRosaThreads = 1;    // JobRequest default
/// Set-up is repeated this often before the first timed op; setup_s is the
/// median of all set-ups a run times.
inline constexpr int kSetupRepeats = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bench_dir = "perfbench";  // reference/ and jobs/ live here
  std::string reference_dir;            // default: <bench_dir>/reference
  std::string work_dir = ".bench_build/run";  // sockets and trace files
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> lines;
  /// The first correctness failures, for diagnosis.
  std::vector<std::string> errors;

  void fail(std::string why);
};

/// Run one workload as `opts` says. Throws std::runtime_error on a bad
/// workload name or a missing input file.
Report run_workload(const Options& opts);

/// The reference file a batch workload is checked against, generated from
/// one untraced pass (for review against EXPERIMENTS.md, never trusted
/// blindly).
std::string generate_reference(const Options& opts);

}  // namespace perfbench
