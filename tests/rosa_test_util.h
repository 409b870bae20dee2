// Shared fixtures for the ROSA differential test suites: the Table-III and
// Table-V golden matrices (query construction, limits, rendered line format,
// golden loader) and the small handmade open-file queries with
// deterministic budgets. The repr-diff, cache, parallel-diff and
// reduction-diff suites all compare engines against the same captures, so
// the fixture lives once here — a drift between two copies of
// build_matrix() would silently weaken the differential guarantee.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attacks/scenario.h"
#include "privanalyzer/efficacy.h"
#include "programs/world.h"
#include "rosa/fingerprint.h"
#include "rosa/query.h"
#include "rosa/search.h"
#include "support/str.h"

namespace pa::rosa_test {

// --- Golden matrices (captures in tests/golden/) -----------------------------

struct Golden {
  std::vector<std::string> qlines;     // normalized "q fp verdict ..." lines
  std::vector<std::string> fractions;  // normalized "f program v v v v" lines
};

// Collapse runs of spaces and drop the trailing "# label" comment so lines
// compare on content only.
inline std::string normalize(const std::string& line) {
  std::istringstream in(line);
  std::string tok, out;
  while (in >> tok) {
    if (tok == "#") break;
    if (!out.empty()) out += ' ';
    out += tok;
  }
  return out;
}

/// `file` names a capture under tests/golden/: rosa_table3_seed.txt (Table
/// III, unreduced) or rosa_table5.txt (Table V, reduced).
inline Golden load_golden(const std::string& file = "rosa_table3_seed.txt") {
  const std::string path = std::string(PA_SOURCE_DIR) + "/tests/golden/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path;
  Golden g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("q ", 0) == 0) g.qlines.push_back(normalize(line));
    if (line.rfind("f ", 0) == 0) g.fractions.push_back(normalize(line));
  }
  return g;
}

struct Matrix {
  std::vector<rosa::Query> queries;
  std::vector<std::string> labels;
};

// Every (program, epoch, attack) cell of a program set, in program, epoch,
// attack order; `analyses` are ChronoPriv-only runs of `specs`.
inline Matrix build_matrix(
    const std::vector<programs::ProgramSpec>& specs,
    const std::vector<privanalyzer::ProgramAnalysis>& analyses,
    rosa::AttackerModel attacker = rosa::AttackerModel::Full) {
  Matrix m;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const auto syscalls = specs[p].syscalls_used();
    for (const chronopriv::EpochRow& row : analyses[p].chrono.rows) {
      attacks::ScenarioInput in = attacks::scenario_from_epoch(
          row, syscalls, specs[p].scenario_extra_users,
          specs[p].scenario_extra_groups);
      in.attacker = attacker;
      for (const attacks::AttackInfo& a : attacks::modeled_attacks()) {
        m.queries.push_back(attacks::build_attack_query(a.id, in));
        m.labels.push_back(
            str::cat(specs[p].name, "/", row.name, "/", a.name));
      }
    }
  }
  return m;
}

inline privanalyzer::PipelineOptions chrono_only() {
  privanalyzer::PipelineOptions opts;
  opts.run_rosa = false;
  return opts;
}

// The exact construction the seed capture used: every cell of Table III.
inline Matrix build_matrix() {
  return build_matrix(programs::all_baseline_programs(),
                      privanalyzer::analyze_baseline(chrono_only()));
}

// Every cell of Table V: the refactored passwd and su.
inline Matrix build_table5_matrix() {
  return build_matrix(
      {programs::make_passwd_refactored(), programs::make_su_refactored()},
      privanalyzer::analyze_refactored(chrono_only()));
}

inline rosa::SearchLimits table3_limits() {
  rosa::SearchLimits limits;
  limits.max_states = 1'000'000;
  limits.check_hashes = true;  // pin incremental digests to full_hash()
  // The golden matrix pins the *unreduced* reference engine: its state /
  // transition counts and witnesses predate symmetry reduction.
  // tests/rosa_reduction_diff_test.cpp proves the reduced engine agrees on
  // every verdict and fraction.
  limits.reduction = false;
  return limits;
}

// Table V runs the default reduced engine: unreduced, the refactored
// programs' wildcard pools blow the space up, and the capture pins the
// symmetry reduction path that Table III's does not.
inline rosa::SearchLimits table5_limits() {
  rosa::SearchLimits limits;
  limits.max_states = 1'000'000;
  limits.check_hashes = true;
  return limits;
}

// The "f program v1 v2 v3 v4" fraction line of one analysed program.
inline std::string fraction_line(const privanalyzer::ProgramAnalysis& a) {
  std::string line = str::cat("f ", a.program);
  for (std::size_t atk = 0; atk < attacks::modeled_attacks().size(); ++atk)
    line += str::cat(" ", str::fixed(a.vulnerable_fraction(atk), 6));
  return line;
}

// The golden line format. hash_collisions and byte counters are deliberately
// excluded: which distinct states share a 64-bit key is a property of the
// hash function, and byte accounting is a property of the node layout — the
// golden pins the model, not the implementation.
inline std::string render_line(const rosa::Query& q,
                               const rosa::SearchResult& r,
                               const rosa::SearchLimits& limits) {
  const auto fp = rosa::fingerprint_query(q, limits);
  std::string line = str::cat(
      "q ", fp ? fp->to_hex() : std::string("uncacheable"), " ",
      rosa::verdict_name(r.verdict), " ", r.stats.states, " ",
      r.stats.transitions, " ", r.stats.dedup_hits, " ",
      r.stats.peak_frontier, " ", r.witness.size());
  for (const rosa::Action& a : r.witness)
    line += str::cat(" ", a.to_string());
  return line;
}

/// The attacker-model golden line (tests/golden/rosa_attacker_models.txt):
/// render_line() without the fingerprint, which pins results rather than
/// cache keys, plus the symmetry-pruned count.
inline std::string render_model_line(const rosa::Query& q,
                                     const rosa::SearchResult& r,
                                     const rosa::SearchLimits& limits) {
  std::string line = render_line(q, r, limits);
  line.erase(2, line.find(' ', 2) - 1);  // "q <fp> rest" -> "q rest"
  return str::cat(line, " sym=", r.stats.symmetry_pruned);
}

// --- Small handmade search problems ----------------------------------------

// A tiny but non-trivial search problem: proc 1 (uid 1000) may open each of
// `n_files` files it owns, so the reachable space is the 2^n_files subsets
// of open files — big enough to exercise budgets deterministically.
inline rosa::Query open_query(int n_files, int mode_bits, rosa::Goal goal) {
  rosa::Query q;
  rosa::ProcObj p;
  p.id = 1;
  p.uid = {1000, 1000, 1000};
  p.gid = {1000, 1000, 1000};
  q.initial.procs.push_back(p);
  for (int f = 0; f < n_files; ++f) {
    q.initial.files.push_back(
        rosa::FileObj{2 + f, {1000, 1000, os::Mode(mode_bits)}});
    q.initial.set_name(2 + f, "f");
  }
  q.initial.set_users({1000});
  q.initial.set_groups({1000});
  q.initial.normalize();
  for (int f = 0; f < n_files; ++f)
    q.messages.push_back(rosa::msg_open(1, 2 + f, rosa::kAccRead, {}));
  q.goal = std::move(goal);
  return q;
}

inline rosa::Query reachable_query() {
  return open_query(2, 0600, rosa::goal_file_in_rdfset(1, 3));
}
inline rosa::Query unreachable_query(int n_files = 2) {
  return open_query(n_files, 0600, rosa::goal_proc_terminated(1));
}

inline rosa::SearchLimits states_budget(std::size_t n) {
  rosa::SearchLimits lim;
  lim.max_states = n;
  return lim;
}

/// Everything except wall time and the cache counters must agree.
inline void expect_same_work(const rosa::SearchResult& a,
                             const rosa::SearchResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.states_explored(), b.states_explored());
  EXPECT_EQ(a.transitions(), b.transitions());
  EXPECT_EQ(a.stats.states, b.stats.states);
  EXPECT_EQ(a.stats.transitions, b.stats.transitions);
  EXPECT_EQ(a.stats.dedup_hits, b.stats.dedup_hits);
  EXPECT_EQ(a.stats.hash_collisions, b.stats.hash_collisions);
  EXPECT_EQ(a.stats.peak_frontier, b.stats.peak_frontier);
  EXPECT_EQ(a.stats.symmetry_pruned, b.stats.symmetry_pruned);
  EXPECT_EQ(a.stats.escalations, b.stats.escalations);
  ASSERT_EQ(a.witness.size(), b.witness.size());
  for (std::size_t i = 0; i < a.witness.size(); ++i)
    EXPECT_EQ(a.witness[i].to_string(), b.witness[i].to_string());
}

/// expect_same_work plus the counters the goldens deliberately omit: byte
/// accounting, spill figures and the decisive attempt's state count.
inline void expect_identical_runs(const rosa::SearchResult& a,
                                  const rosa::SearchResult& b) {
  expect_same_work(a, b);
  EXPECT_EQ(a.stats.peak_bytes, b.stats.peak_bytes);
  EXPECT_EQ(a.stats.state_bytes, b.stats.state_bytes);
  EXPECT_EQ(a.stats.decisive_states, b.stats.decisive_states);
  EXPECT_EQ(a.stats.spilled_states, b.stats.spilled_states);
  EXPECT_EQ(a.stats.spill_bytes, b.stats.spill_bytes);
}

/// The per-query oracle for batch runs: every query as its own search().
inline std::vector<rosa::SearchResult> search_each(
    const std::vector<rosa::Query>& queries,
    const rosa::SearchLimits& limits) {
  std::vector<rosa::SearchResult> out;
  for (const rosa::Query& q : queries) out.push_back(rosa::search(q, limits));
  return out;
}

}  // namespace pa::rosa_test
