// pipeline_bench: runs one workload of the pipeline benchmark and prints a
// human-readable report followed by one JSON result line.
//
//   pipeline_bench --workload table3|table5|daemon_mix --seed N
//                  --seconds S --trace 0|1 [--bench-dir DIR]
//                  [--reference-dir DIR] [--work-dir DIR]
//   pipeline_bench --workload table3|table5 --write-reference
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer split through the rebuilt, span-instrumented pipeline. Exit
// code 0 = correct run, 1 = a correctness check failed (the result line is
// still printed, with "correct": false), 2 = usage or set-up error.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/str.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pipeline_bench: " << why << "\n"
            << "usage: pipeline_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--bench-dir DIR] [--reference-dir DIR] "
               "[--work-dir DIR] | --workload NAME --write-reference\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used == text.size() && v >= 0) return v;
  } catch (const std::exception&) {
  }
  usage(flag + " needs a non-negative number, got '" + text + "'");
}

std::string result_line(const Report& rep) {
  std::string out = pa::str::cat(
      "{\"correct\": ", rep.correct ? "true" : "false",
      ", \"attempted\": ", rep.attempted, ", \"failed\": ", rep.failed,
      ", \"metrics\": {");
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    out += pa::str::cat(i ? ", " : "", "\"", m.name, "\": {\"value\": ",
                        json_number(m.value), ", \"unit\": \"", m.unit,
                        "\"}");
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool write_reference = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      write_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = static_cast<std::uint64_t>(parse_number(flag, value));
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = parse_number(flag, value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (flag == "--bench-dir") {
      opts.bench_dir = value;
    } else if (flag == "--reference-dir") {
      opts.reference_dir = value;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opts.workload.empty()) usage("--workload is required");

  try {
    if (write_reference) {
      std::cout << generate_reference(opts);
      return 0;
    }
    if (!have_seed || !have_seconds || !have_trace)
      usage("--seed, --seconds and --trace are required");

    const unsigned cpus = nproc();
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned workers[] = {kBatchRosaThreads, kDaemonWorkers,
                                kDaemonClients, kJobRosaThreads};
    bool oversubscribed = false;
    for (unsigned w : workers) oversubscribed |= w > cpus;
    std::cout << "workload " << opts.workload << " seed " << opts.seed
              << " seconds " << opts.seconds << " trace " << opts.trace
              << "\n"
              << "host nproc=" << cpus << " hardware_threads=" << hw
              << " batch_rosa_threads=" << kBatchRosaThreads
              << " daemon_workers=" << kDaemonWorkers
              << " daemon_clients=" << kDaemonClients
              << " job_rosa_threads=" << kJobRosaThreads
              << " oversubscribed=" << (oversubscribed ? "yes" : "no")
              << "\n";
    if (oversubscribed)
      std::cout << "WARNING: a worker count exceeds nproc=" << cpus
                << "; timings from this host are not comparable\n";

    const Report rep = run_workload(opts);
    for (const std::string& line : rep.lines) std::cout << line << "\n";
    if (!opts.trace) {
      std::cout << "row " << opts.workload;
      for (const Metric& m : rep.metrics)
        std::cout << " " << m.name << "=" << json_number(m.value) << " "
                  << m.unit;
      std::cout << "\n";
    }
    for (const std::string& e : rep.errors)
      std::cout << "CHECK FAILED: " << e << "\n";
    std::cout << result_line(rep) << std::endl;
    return rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 2;
  }
}
