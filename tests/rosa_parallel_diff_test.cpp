// Differential test for the parallel ROSA query engine: for every program
// spec × attack, the pipeline run with rosa_threads=1 (the original serial
// path) and rosa_threads=4 must produce identical verdict matrices,
// bit-identical vulnerable_fraction values, identical per-query search
// counters, and the same witnesses — and every witness must replay on the
// SimOS kernel. The batch engine (rosa::run_queries) is also diffed against
// per-query search() on the Table-III matrix, on 1 and 4 workers, cached and
// uncached, reductions on and off, down to the counters the goldens omit;
// on a mixed-attacker batch; and under escalation. This is the harness that
// guards the paper's Table III/V numbers against the parallel engine.
#include <gtest/gtest.h>

#include "attacks/scenario.h"
#include "privanalyzer/pipeline.h"
#include "rosa/cache.h"
#include "rosa/query.h"
#include "rosa/replay.h"
#include "rosa_test_util.h"

namespace pa::privanalyzer {
namespace {

using attacks::EpochVerdicts;

PipelineOptions options_with_threads(unsigned n_threads) {
  PipelineOptions opts;
  opts.rosa_limits.max_states = 150'000;
  opts.rosa_threads = n_threads;
  return opts;
}

void expect_equivalent(const ProgramAnalysis& serial,
                       const ProgramAnalysis& parallel) {
  EXPECT_EQ(serial.program, parallel.program);
  ASSERT_EQ(serial.verdicts.size(), parallel.verdicts.size());

  for (std::size_t e = 0; e < serial.verdicts.size(); ++e) {
    const EpochVerdicts& s = serial.verdicts[e];
    const EpochVerdicts& p = parallel.verdicts[e];
    EXPECT_EQ(s.epoch_name, p.epoch_name);
    for (std::size_t a = 0; a < s.verdicts.size(); ++a) {
      SCOPED_TRACE(serial.program + "/" + s.epoch_name + "/attack" +
                   std::to_string(a + 1));
      EXPECT_EQ(s.verdicts[a], p.verdicts[a]);
      // Each search is single-threaded and deterministic, so the parallel
      // engine must reproduce the serial exploration exactly — not just the
      // verdict.
      EXPECT_EQ(s.results[a].verdict, p.results[a].verdict);
      EXPECT_EQ(s.results[a].states_explored(),
                p.results[a].states_explored());
      EXPECT_EQ(s.results[a].transitions(), p.results[a].transitions());
      EXPECT_EQ(s.results[a].stats.dedup_hits, p.results[a].stats.dedup_hits);
      EXPECT_EQ(s.results[a].stats.hash_collisions,
                p.results[a].stats.hash_collisions);
      EXPECT_EQ(s.results[a].stats.peak_frontier,
                p.results[a].stats.peak_frontier);
      ASSERT_EQ(s.results[a].witness.size(), p.results[a].witness.size());
      for (std::size_t w = 0; w < s.results[a].witness.size(); ++w)
        EXPECT_EQ(s.results[a].witness[w].to_string(),
                  p.results[a].witness[w].to_string());
    }
  }

  // The headline metric must be bit-identical, not approximately equal:
  // both runs sum the same epoch fractions in the same order.
  for (std::size_t a = 0; a < attacks::modeled_attacks().size(); ++a)
    EXPECT_EQ(serial.vulnerable_fraction(a), parallel.vulnerable_fraction(a))
        << serial.program << " attack " << a + 1;
}

void replay_all_witnesses(const programs::ProgramSpec& spec,
                          const ProgramAnalysis& analysis) {
  const std::vector<std::string> syscalls = spec.syscalls_used();
  ASSERT_EQ(analysis.verdicts.size(), analysis.chrono.rows.size());
  for (std::size_t e = 0; e < analysis.verdicts.size(); ++e) {
    attacks::ScenarioInput input = attacks::scenario_from_epoch(
        analysis.chrono.rows[e], syscalls, spec.scenario_extra_users,
        spec.scenario_extra_groups);
    for (std::size_t a = 0; a < attacks::modeled_attacks().size(); ++a) {
      const rosa::SearchResult& r = analysis.verdicts[e].results[a];
      if (r.verdict != rosa::Verdict::Reachable) continue;
      rosa::Query q =
          attacks::build_attack_query(attacks::modeled_attacks()[a].id, input);
      rosa::Materialized world(q.initial);
      std::string diag;
      EXPECT_TRUE(world.replay(r.witness, &diag))
          << spec.name << "/" << analysis.verdicts[e].epoch_name << "/attack"
          << a + 1 << ": " << diag;
    }
  }
}

class ParallelDiff : public ::testing::TestWithParam<int> {
 public:
  static programs::ProgramSpec spec_for(int which) {
    switch (which) {
      case 0: return programs::make_passwd();
      case 1: return programs::make_su();
      case 2: return programs::make_ping();
      case 3: return programs::make_thttpd();
      case 4: return programs::make_sshd();
      case 5: return programs::make_passwd_refactored();
      default: return programs::make_su_refactored();
    }
  }
};

TEST_P(ParallelDiff, SerialAndParallelPipelinesAgree) {
  programs::ProgramSpec spec = spec_for(GetParam());
  ProgramAnalysis serial = analyze_program(spec, options_with_threads(1));
  ProgramAnalysis parallel = analyze_program(spec, options_with_threads(4));
  expect_equivalent(serial, parallel);
  // Witness validity on the parallel run (the serial path is covered by
  // witness_replay_test.cpp; replaying here proves the parallel engine's
  // witnesses are just as executable).
  replay_all_witnesses(spec, parallel);
}

INSTANTIATE_TEST_SUITE_P(AllSeedPrograms, ParallelDiff,
                         ::testing::Range(0, 7));

TEST(ParallelDiffTest, DefaultThreadCountMatchesSerialToo) {
  // rosa_threads = 0 (hardware_concurrency, the production default) is the
  // path every other pipeline test now exercises; pin its equivalence to
  // the serial engine on one program explicitly.
  programs::ProgramSpec spec = programs::make_passwd();
  ProgramAnalysis serial = analyze_program(spec, options_with_threads(1));
  ProgramAnalysis parallel = analyze_program(spec, options_with_threads(0));
  expect_equivalent(serial, parallel);
}

TEST(ParallelDiffTest, RunQueriesOrdersResultsLikeInputs) {
  // Mixed-difficulty batch: result i must correspond to query i even when
  // later queries finish first.
  using namespace rosa;
  std::vector<Query> queries;
  for (int f = 0; f < 6; ++f)
    queries.push_back(rosa_test::open_query(1, f % 2 ? 0600 : 0000,
                                            goal_file_in_rdfset(1, 2)));
  std::vector<SearchResult> serial = run_queries(queries, {}, 1);
  std::vector<SearchResult> parallel = run_queries(queries, {}, 4);
  ASSERT_EQ(serial.size(), queries.size());
  ASSERT_EQ(parallel.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // Odd-indexed files are mode 0600 (readable by owner): reachable.
    EXPECT_EQ(serial[i].verdict,
              i % 2 ? Verdict::Reachable : Verdict::Unreachable);
    EXPECT_EQ(parallel[i].verdict, serial[i].verdict);
    EXPECT_EQ(parallel[i].states_explored(), serial[i].states_explored());
  }
}

// --- run_queries against per-query search() --------------------------------

void expect_batch_matches_per_query(unsigned n_threads, bool cached,
                                    bool reduction) {
  const rosa_test::Matrix m = rosa_test::build_matrix();
  rosa::SearchLimits limits = rosa_test::table3_limits();
  limits.reduction = reduction;
  const std::vector<rosa::SearchResult> reference =
      rosa_test::search_each(m.queries, limits);

  rosa::QueryCache cache;
  const std::vector<rosa::SearchResult> batch = rosa::run_queries(
      m.queries, limits, n_threads, {}, cached ? &cache : nullptr);

  ASSERT_EQ(batch.size(), reference.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(m.labels[i]);
    rosa_test::expect_identical_runs(reference[i], batch[i]);
  }
}

TEST(ParallelDiffTest, SerialUncachedBatchMatchesPerQuery) {
  expect_batch_matches_per_query(1, false, false);
}

TEST(ParallelDiffTest, SerialCachedBatchMatchesPerQuery) {
  expect_batch_matches_per_query(1, true, false);
}

TEST(ParallelDiffTest, FourWorkerUncachedBatchMatchesPerQuery) {
  expect_batch_matches_per_query(4, false, false);
}

TEST(ParallelDiffTest, FourWorkerCachedBatchMatchesPerQuery) {
  expect_batch_matches_per_query(4, true, false);
}

TEST(ParallelDiffTest, SerialReducedBatchMatchesPerQuery) {
  expect_batch_matches_per_query(1, false, true);
}

TEST(ParallelDiffTest, FourWorkerReducedBatchMatchesPerQuery) {
  expect_batch_matches_per_query(4, false, true);
}

// Batch witnesses are not just string-identical to the per-query ones —
// they execute on the SimOS kernel and land in the goal state, like every
// other witness (witness_replay_test.cpp).
TEST(ParallelDiffTest, BatchWitnessesReplayOnKernel) {
  using attacks::AttackId;
  const rosa_test::Matrix m = rosa_test::build_matrix();
  const std::vector<rosa::SearchResult> results = rosa::run_queries(
      m.queries, rosa_test::table3_limits(), /*n_threads=*/4, {}, nullptr);

  const auto& attacks_list = attacks::modeled_attacks();
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].verdict != rosa::Verdict::Reachable) continue;
    SCOPED_TRACE(m.labels[i]);
    rosa::Materialized world(m.queries[i].initial);
    std::string diag;
    ASSERT_TRUE(world.replay(results[i].witness, &diag)) << diag;
    switch (attacks_list[i % attacks_list.size()].id) {
      case AttackId::ReadDevMem:
        EXPECT_TRUE(world.holds_open(attacks::kVictimProc,
                                     attacks::kDevMemFile, false));
        break;
      case AttackId::WriteDevMem:
        EXPECT_TRUE(world.holds_open(attacks::kVictimProc,
                                     attacks::kDevMemFile, true));
        break;
      case AttackId::BindPrivilegedPort:
        EXPECT_TRUE(world.has_privileged_bind(attacks::kVictimProc));
        break;
      case AttackId::KillServer:
        EXPECT_TRUE(world.is_terminated(attacks::kServerProc));
        break;
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

// A batch mixing attacker models over otherwise identical epochs: the
// attacker is part of each query, so every result must match its own
// per-query search rather than a neighbour's with the other model.
TEST(ParallelDiffTest, MixedAttackerBatchMatchesPerQuery) {
  std::vector<rosa::Query> queries;
  for (rosa::AttackerModel model :
       {rosa::AttackerModel::Full, rosa::AttackerModel::CfiOrdered}) {
    attacks::ScenarioInput in;
    in.permitted = {caps::Capability::Setuid, caps::Capability::Setgid,
                    caps::Capability::NetBindService};
    in.creds = caps::Credentials::of_user(1000, 1000);
    in.syscalls = {"open", "chown", "setuid", "setgid",
                   "kill", "socket", "bind"};
    in.attacker = model;
    for (const attacks::AttackInfo& a : attacks::modeled_attacks())
      queries.push_back(attacks::build_attack_query(a.id, in));
  }

  const rosa::SearchLimits limits = rosa_test::table3_limits();
  const std::vector<rosa::SearchResult> reference =
      rosa_test::search_each(queries, limits);
  for (unsigned n_threads : {1u, 4u}) {
    const std::vector<rosa::SearchResult> batch =
        rosa::run_queries(queries, limits, n_threads, {}, nullptr);
    ASSERT_EQ(batch.size(), 8u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(str::cat(n_threads, " workers, query ", i));
      rosa_test::expect_identical_runs(reference[i], batch[i]);
    }
  }
}

// Escalation inside a batch: one query decides in the base round, the
// other needs several escalation rounds. Each batch result, accumulated
// counters included, must match its standalone escalating search.
TEST(ParallelDiffTest, EscalationInsideBatchMatchesPerQuery) {
  // Proc 1 may open each of 3 files (2^3 reachable states).
  rosa::Query fast = rosa_test::open_query(
      3, 0600, rosa::goal_file_in_rdfset(1, 2));  // decided at 2 states
  rosa::Query slow = rosa_test::open_query(
      3, 0600,
      rosa::goal_and(rosa::goal_and(rosa::goal_file_in_rdfset(1, 2),
                                    rosa::goal_file_in_rdfset(1, 3)),
                     rosa::goal_file_in_rdfset(1, 4)));  // the last state
  const rosa::SearchLimits limits = rosa_test::states_budget(2);
  const rosa::EscalationPolicy policy{/*rounds=*/4, /*factor=*/2.0};

  const rosa::SearchResult fast_ref =
      rosa::search_escalating(fast, limits, policy);
  const rosa::SearchResult slow_ref =
      rosa::search_escalating(slow, limits, policy);
  ASSERT_EQ(fast_ref.verdict, rosa::Verdict::Reachable);
  ASSERT_EQ(slow_ref.verdict, rosa::Verdict::Reachable);
  EXPECT_EQ(fast_ref.stats.escalations, 0u);
  EXPECT_GE(slow_ref.stats.escalations, 2u);

  const std::vector<rosa::Query> pair = {fast, slow};
  for (unsigned n_threads : {1u, 4u}) {
    SCOPED_TRACE(str::cat(n_threads, " workers"));
    const std::vector<rosa::SearchResult> batch =
        rosa::run_queries(pair, limits, n_threads, policy, nullptr);
    ASSERT_EQ(batch.size(), 2u);
    rosa_test::expect_identical_runs(fast_ref, batch[0]);
    rosa_test::expect_identical_runs(slow_ref, batch[1]);
  }
}

// The batched pipeline agrees with per-attack searches (analyze_epoch, one
// search per cell) on every verdict cell and vulnerable fraction — the
// paper-facing numbers, not just the engine counters.
TEST(ParallelDiffTest, PipelineFractionsMatchPerCellAnalysis) {
  PipelineOptions opts;
  opts.rosa_limits = rosa_test::table3_limits();
  opts.rosa_threads = 4;

  const std::vector<ProgramAnalysis> batched = analyze_baseline(opts);
  const std::vector<programs::ProgramSpec> specs =
      programs::all_baseline_programs();
  std::vector<ProgramAnalysis> per_cell = batched;
  ASSERT_EQ(specs.size(), per_cell.size());
  for (std::size_t p = 0; p < per_cell.size(); ++p) {
    const std::vector<std::string> syscalls = specs[p].syscalls_used();
    const std::vector<chronopriv::EpochRow>& rows = per_cell[p].chrono.rows;
    ASSERT_EQ(rows.size(), per_cell[p].verdicts.size());
    for (std::size_t e = 0; e < rows.size(); ++e)
      per_cell[p].verdicts[e] = attacks::analyze_epoch(
          rows[e],
          attacks::scenario_from_epoch(rows[e], syscalls,
                                       specs[p].scenario_extra_users,
                                       specs[p].scenario_extra_groups),
          opts.rosa_limits);
  }
  for (std::size_t p = 0; p < batched.size(); ++p) {
    SCOPED_TRACE(batched[p].program);
    ASSERT_EQ(batched[p].verdicts.size(), per_cell[p].verdicts.size());
    for (std::size_t e = 0; e < batched[p].verdicts.size(); ++e)
      for (std::size_t a = 0; a < batched[p].verdicts[e].verdicts.size(); ++a)
        EXPECT_EQ(batched[p].verdicts[e].verdicts[a],
                  per_cell[p].verdicts[e].verdicts[a]);
    for (std::size_t a = 0; a < attacks::modeled_attacks().size(); ++a)
      EXPECT_DOUBLE_EQ(batched[p].vulnerable_fraction(a),
                       per_cell[p].vulnerable_fraction(a));
  }
}

}  // namespace
}  // namespace pa::privanalyzer
