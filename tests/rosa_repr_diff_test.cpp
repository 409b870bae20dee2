// Golden differential tests: the full Table-III query matrix (5 programs x
// epochs x 4 attacks, 96 queries, unreduced) must produce bit-identical
// fingerprints, verdicts, work counters, witnesses, and vulnerable-fractions
// to the goldens captured from the seed build
// (tests/golden/rosa_table3_seed.txt), and the Table-V matrix (refactored
// passwd and su, 48 queries, reduced) to tests/golden/rosa_table5.txt,
// captured from per-query searches before standalone search was folded
// into the multi-goal loop — serial and 4-thread, uncached and cached, and
// per-query search(). The searches run with SearchLimits::check_hashes, so
// every incrementally maintained digest is cross-checked against a
// from-scratch State::full_hash() along the way. The Table-III matrix under
// the CfiOrdered and FixedArgs attackers, reduced, must match
// tests/golden/rosa_attacker_models.txt (no fingerprints: it pins results
// across changes to how attack queries are keyed).
//
// The golden matrix machinery (build_matrix, table3_limits, render_line,
// load_golden) is shared with the other differential suites via
// rosa_test_util.h.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rosa/cache.h"
#include "rosa_test_util.h"
#include "support/str.h"

namespace pa {
namespace {

using rosa_test::Golden;
using rosa_test::Matrix;

void expect_lines_match(const Golden& golden, const Matrix& m,
                        const std::vector<rosa::SearchResult>& results,
                        const rosa::SearchLimits& limits,
                        const std::string& mode) {
  ASSERT_EQ(m.queries.size(), golden.qlines.size());
  ASSERT_EQ(results.size(), golden.qlines.size());
  for (std::size_t i = 0; i < m.queries.size(); ++i)
    EXPECT_EQ(rosa_test::render_line(m.queries[i], results[i], limits),
              golden.qlines[i])
        << m.labels[i] << " (" << mode << ")";
}

void expect_matches_golden(unsigned n_threads, bool cached) {
  const Golden golden = rosa_test::load_golden();
  ASSERT_EQ(golden.qlines.size(), 96u) << "golden file out of shape";
  const Matrix m = rosa_test::build_matrix();
  const rosa::SearchLimits limits = rosa_test::table3_limits();
  rosa::QueryCache cache;
  expect_lines_match(golden, m,
                     rosa::run_queries(m.queries, limits, n_threads, {},
                                       cached ? &cache : nullptr),
                     limits,
                     str::cat("threads=", n_threads, " cached=", cached));
}

Golden table5_golden() {
  const Golden golden = rosa_test::load_golden("rosa_table5.txt");
  EXPECT_EQ(golden.qlines.size(), 48u) << "golden file out of shape";
  EXPECT_EQ(golden.fractions.size(), 2u) << "golden file out of shape";
  return golden;
}

TEST(ReprDiffTest, SerialUncachedMatchesSeedGoldens) {
  expect_matches_golden(1, false);
}

TEST(ReprDiffTest, FourThreadUncachedMatchesSeedGoldens) {
  expect_matches_golden(4, false);
}

TEST(ReprDiffTest, SerialCachedMatchesSeedGoldens) {
  expect_matches_golden(1, true);
}

TEST(ReprDiffTest, FourThreadCachedMatchesSeedGoldens) {
  expect_matches_golden(4, true);
}

TEST(ReprDiffTest, VulnerableFractionsMatchSeedGoldens) {
  const Golden golden = rosa_test::load_golden();
  ASSERT_EQ(golden.fractions.size(), 5u) << "golden file out of shape";

  privanalyzer::PipelineOptions full;
  full.rosa_limits = rosa_test::table3_limits();
  full.rosa_threads = 1;
  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(full);
  ASSERT_EQ(analyses.size(), golden.fractions.size());
  for (std::size_t i = 0; i < analyses.size(); ++i)
    EXPECT_EQ(rosa_test::fraction_line(analyses[i]), golden.fractions[i]);
}

TEST(ReprDiffTest, TableFivePerQuerySearchMatchesGoldens) {
  const Golden golden = table5_golden();
  const Matrix m = rosa_test::build_table5_matrix();
  const rosa::SearchLimits limits = rosa_test::table5_limits();
  std::vector<rosa::SearchResult> results;
  for (const rosa::Query& q : m.queries)
    results.push_back(rosa::search(q, limits));
  expect_lines_match(golden, m, results, limits, "search()");
}

TEST(ReprDiffTest, TableFiveBatchMatchesGoldens) {
  const Golden golden = table5_golden();
  const Matrix m = rosa_test::build_table5_matrix();
  const rosa::SearchLimits limits = rosa_test::table5_limits();
  for (unsigned n_threads : {1u, 4u}) {
    for (bool cached : {false, true}) {
      rosa::QueryCache cache;
      expect_lines_match(golden, m,
                         rosa::run_queries(m.queries, limits, n_threads, {},
                                           cached ? &cache : nullptr),
                         limits,
                         str::cat("threads=", n_threads, " cached=", cached));
    }
  }
}

TEST(ReprDiffTest, TableFiveVulnerableFractionsMatchGoldens) {
  const Golden golden = table5_golden();
  privanalyzer::PipelineOptions full;
  full.rosa_limits = rosa_test::table5_limits();
  full.rosa_threads = 1;
  const std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_refactored(full);
  ASSERT_EQ(analyses.size(), golden.fractions.size());
  for (std::size_t i = 0; i < analyses.size(); ++i)
    EXPECT_EQ(rosa_test::fraction_line(analyses[i]), golden.fractions[i]);
}

TEST(ReprDiffTest, AttackerModelMatricesMatchGolden) {
  const Golden golden = rosa_test::load_golden("rosa_attacker_models.txt");
  ASSERT_EQ(golden.qlines.size(), 192u) << "golden file out of shape";
  const auto specs = programs::all_baseline_programs();
  const auto analyses =
      privanalyzer::analyze_baseline(rosa_test::chrono_only());
  rosa::SearchLimits limits = rosa_test::table3_limits();
  limits.reduction = true;  // the default engine: symmetry counts are live
  std::size_t line = 0;
  for (const rosa::AttackerModel model :
       {rosa::AttackerModel::CfiOrdered, rosa::AttackerModel::FixedArgs}) {
    const Matrix m = rosa_test::build_matrix(specs, analyses, model);
    const std::vector<rosa::SearchResult> results =
        rosa::run_queries(m.queries, limits, /*n_threads=*/1);
    ASSERT_LE(line + m.queries.size(), golden.qlines.size());
    for (std::size_t i = 0; i < m.queries.size(); ++i, ++line)
      EXPECT_EQ(rosa_test::render_model_line(m.queries[i], results[i], limits),
                golden.qlines[line])
          << rosa::attacker_model_name(model) << "/" << m.labels[i];
  }
  EXPECT_EQ(line, golden.qlines.size());
}

}  // namespace
}  // namespace pa
