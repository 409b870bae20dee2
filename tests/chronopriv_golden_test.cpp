// Golden test for ChronoPriv's measured execution: every observable output
// of a ChronoPriv run — the tracker's epoch rows (key, instructions,
// first_seen), the report's row names and fractions, every timeline
// segment, the per-epoch entry points, the synthesized filters
// (conservative and refined), the exit code, and the Enforce-mode re-run
// under the conservative filters — for the five Table II programs, the
// three refactored variants and every program under examples/programs/,
// must match tests/golden/chronopriv.txt byte for byte. The golden was
// captured from the per-instruction interpreter, so it pins the VM's
// accounting across interpreter rewrites.
//
// Each program runs the way privanalyzer::analyze_program runs it with
// --filters enforce: AutoPriv with default options, the measurement run
// with point capture, filter synthesis, then the re-run with the
// conservative allowlists installed (FilterAction::Eperm).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "autopriv/report.h"
#include "chronopriv/instrument.h"
#include "filters/epoch_filter.h"
#include "privanalyzer/loader.h"
#include "privanalyzer/pipeline.h"
#include "programs/world.h"

namespace pa {
namespace {

std::vector<programs::ProgramSpec> golden_programs() {
  std::vector<programs::ProgramSpec> specs = programs::all_baseline_programs();
  specs.push_back(programs::make_passwd_refactored());
  specs.push_back(programs::make_su_refactored());
  specs.push_back(programs::make_sshd_refactored());
  for (const char* file : {"filesrv.pc", "su.pc", "tinyd.pir"})
    specs.push_back(privanalyzer::load_program_file(
        std::string(PA_SOURCE_DIR) + "/examples/programs/" + file));
  return specs;
}

os::Kernel make_world(const programs::ProgramSpec& spec) {
  return spec.refactored_world ? programs::make_refactored_world()
                               : programs::make_standard_world();
}

std::string key_text(const chronopriv::EpochKey& key) {
  std::ostringstream os;
  os << "uid=" << key.creds.uid.to_string()
     << " gid=" << key.creds.gid.to_string() << " {"
     << key.permitted.to_string() << "}";
  return os.str();
}

std::string fraction_text(double f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", f);
  return buf;
}

std::string join(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : ",") + n;
  return out;
}

void render_run(std::ostringstream& os, const char* tag,
                const chronopriv::EpochTracker& tracker,
                const chronopriv::ChronoReport& report, long exit_code) {
  os << tag << " exit " << exit_code << " total "
     << report.total_instructions << "\n";
  for (std::size_t i = 0; i < tracker.epochs().size(); ++i) {
    const chronopriv::Epoch& e = tracker.epochs()[i];
    os << tag << " epoch " << e.first_seen << " " << e.instructions << " "
       << key_text(e.key) << "\n";
  }
  for (const chronopriv::EpochRow& row : report.rows)
    os << tag << " row " << row.name << " " << row.instructions << " "
       << fraction_text(row.fraction) << " " << key_text(row.key) << "\n";
  for (const chronopriv::EpochSegment& seg : tracker.timeline())
    os << tag << " seg " << seg.start << " " << seg.length << " "
       << key_text(seg.key) << "\n";
}

// One program's block of golden lines, opened by a "program <name>" line.
std::string render_program(const programs::ProgramSpec& spec) {
  ir::Module module = spec.module;
  autopriv::run_autopriv(module, "main",
                         privanalyzer::PipelineOptions{}.autopriv);

  std::ostringstream os;
  os << "program " << spec.name << "\n";

  os::Kernel kernel = make_world(spec);
  const os::Pid pid = programs::spawn_program(kernel, spec);
  chronopriv::EpochTracker tracker;
  tracker.set_record_points(true);
  long exit_code = 0;
  const chronopriv::ChronoReport report = chronopriv::run_instrumented_with(
      kernel, module, pid, tracker, spec.args, "main", &exit_code);
  render_run(os, "measure", tracker, report, exit_code);
  for (std::size_t i = 0; i < tracker.epoch_points().size(); ++i)
    for (const auto& [where, ip] : tracker.epoch_points()[i])
      os << "point " << i << " @" << where.first << " " << where.second << " "
         << ip << "\n";

  const filters::FilterReport filters =
      filters::synthesize_filters(module, report, tracker.epoch_points());
  for (const filters::EpochFilter& f : filters.epochs)
    os << "filter " << f.epoch << " conservative=" << join(f.conservative)
       << " refined=" << join(f.refined) << "\n";

  os::Kernel enforced_kernel = make_world(spec);
  const os::Pid enforced_pid = programs::spawn_program(enforced_kernel, spec);
  enforced_kernel.install_filters(
      enforced_pid,
      filters::to_filter_stack(filters, os::FilterAction::Eperm));
  chronopriv::EpochTracker enforced_tracker;
  enforced_tracker.set_epoch_change_hook(
      [&enforced_kernel, enforced_pid](std::size_t epoch) {
        enforced_kernel.set_filter_epoch(enforced_pid, epoch);
      });
  long enforced_exit = 0;
  const chronopriv::ChronoReport enforced = chronopriv::run_instrumented_with(
      enforced_kernel, module, enforced_pid, enforced_tracker, spec.args,
      "main", &enforced_exit);
  render_run(os, "enforce", enforced_tracker, enforced, enforced_exit);
  os << "enforce violations "
     << enforced_kernel.filter_violations().size() << "\n";
  return os.str();
}

// The golden file's block for `program`: from its "program <name>" line up
// to the next "program " line.
std::string golden_block(const std::string& program) {
  const std::string path =
      std::string(PA_SOURCE_DIR) + "/tests/golden/chronopriv.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path;
  std::string line, block;
  bool inside = false;
  while (std::getline(in, line)) {
    if (line.rfind("program ", 0) == 0) inside = line == "program " + program;
    if (inside) block += line + "\n";
  }
  return block;
}

class ChronoGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChronoGoldenTest, MatchesCapturedRun) {
  const std::vector<programs::ProgramSpec> specs = golden_programs();
  ASSERT_LT(GetParam(), specs.size());
  const programs::ProgramSpec& spec = specs[GetParam()];
  const std::string expected = golden_block(spec.name);
  ASSERT_FALSE(expected.empty()) << "no golden block for " << spec.name;
  const std::string actual = render_program(spec);
  // Line by line, so a mismatch names the first diverging record.
  std::istringstream want(expected), got(actual);
  std::string w, g;
  int line = 0;
  while (std::getline(want, w)) {
    ++line;
    ASSERT_TRUE(std::getline(got, g)) << spec.name << ": output ends at line "
                                      << line << ", golden has: " << w;
    ASSERT_EQ(g, w) << spec.name << " line " << line;
  }
  EXPECT_FALSE(std::getline(got, g))
      << spec.name << ": extra output after line " << line << ": " << g;
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ChronoGoldenTest,
                         ::testing::Range<std::size_t>(0, 11));

TEST(ChronoGoldenFileTest, CoversEveryProgramOnce) {
  const std::vector<programs::ProgramSpec> specs = golden_programs();
  EXPECT_EQ(specs.size(), 11u);
  std::set<std::string> names;
  for (const programs::ProgramSpec& s : specs)
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
}

}  // namespace
}  // namespace pa
