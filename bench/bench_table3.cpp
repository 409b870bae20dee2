// Regenerates the paper's Table III: for each of the five baseline
// programs, the ChronoPriv privilege epochs (privileges, uids, gids,
// dynamic instruction counts) and the four ROSA attack verdicts per epoch.
//
// Expected shape versus the paper: ping safe everywhere; thttpd safe for
// ~90%; passwd and su vulnerable to attacks 1/2/4 for most of execution;
// sshd vulnerable for essentially all of it; attack 3 only where
// CAP_NET_BIND_SERVICE is still permitted.
#include <algorithm>
#include <chrono>
#include <iostream>

#include "autopriv/report.h"
#include "bench_util.h"
#include "chronopriv/instrument.h"
#include "privanalyzer/export.h"
#include "privanalyzer/render.h"
#include "support/str.h"

using namespace pa;

namespace {

// Interpreter cost: wall time of the ChronoPriv runs of the five baseline
// programs (post-AutoPriv, as the pipeline runs them) divided by the
// instructions they execute. Best of `reps` passes, so a busy host reads
// high rather than low.
double chronopriv_ns_per_instr(int reps) {
  std::vector<programs::ProgramSpec> specs = programs::all_baseline_programs();
  const privanalyzer::PipelineOptions defaults;
  for (programs::ProgramSpec& spec : specs)
    autopriv::run_autopriv(spec.module, "main", defaults.autopriv);
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    double seconds = 0.0, instrs = 0.0;
    for (const programs::ProgramSpec& spec : specs) {
      os::Kernel kernel = programs::make_standard_world();
      const os::Pid pid = programs::spawn_program(kernel, spec);
      const auto t0 = std::chrono::steady_clock::now();
      const chronopriv::ChronoReport report =
          chronopriv::run_instrumented(kernel, spec.module, pid, spec.args);
      seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
      instrs += static_cast<double>(report.total_instructions);
    }
    const double ns = instrs > 0 ? seconds * 1e9 / instrs : 0.0;
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::take_json_flag(argc, argv);
  std::cout << privanalyzer::render_attack_table() << "\n";

  privanalyzer::PipelineOptions opts;
  opts.rosa_limits.max_states = 1'000'000;

  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(opts);

  std::cout << privanalyzer::render_efficacy_table(
      analyses,
      "Table III: Security Efficacy Results (V vulnerable / x safe / T "
      "limit)");

  std::cout << "\nHeadline numbers (paper: passwd and su retain the ability "
               "to read+write /dev/mem\nfor 97% and 88% of execution):\n";
  for (const privanalyzer::ProgramAnalysis& a : analyses) {
    privanalyzer::ExposureSummary s = privanalyzer::exposure_of(a);
    std::cout << "  " << a.program << ": devmem-read "
              << str::percent(s.devmem_read) << ", devmem-write "
              << str::percent(s.devmem_write) << ", any-attack "
              << str::percent(s.any_attack) << "\n";
  }
  std::cout << "\nCSV (for plotting):\n"
            << privanalyzer::efficacy_to_csv(analyses);

  if (!json_path.empty()) {
    // Aggregate throughput/compactness over the full Table-III query matrix,
    // plus the interpreter's work and cost; merged into an existing metrics
    // file (BENCH_rosa.json in CI).
    double states = 0.0, seconds = 0.0, worst_bps = 0.0, instrs = 0.0;
    for (const privanalyzer::ProgramAnalysis& a : analyses) {
      instrs += static_cast<double>(a.chrono.total_instructions);
      const rosa::SearchStats s = a.search_stats();
      states += static_cast<double>(s.states);
      seconds += s.seconds;
      worst_bps = std::max(worst_bps, s.bytes_per_state());
    }
    std::vector<std::pair<std::string, double>> metrics = {
        {"table3_states", states},
        {"table3_seconds", seconds},
        {"table3_states_per_sec", seconds > 0 ? states / seconds : 0.0},
        {"table3_max_bytes_per_state", worst_bps},
        {"table3_chronopriv_instructions", instrs},
        {"table3_chronopriv_ns_per_instr", chronopriv_ns_per_instr(5)},
    };
    if (!bench::append_json_metrics(json_path, metrics)) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
