// Differential test for fused multi-goal search (rosa::detail::
// search_fused, reached through rosa::run_queries' world-signature
// grouping): one shared exploration answering all four attacks of an epoch
// must be indistinguishable — bit for bit — from four one-query searches.
// The full Table-III matrix is diffed run_queries-vs-per-query-search() on
// 1 and 4 matrix workers, cached and uncached, reductions on and off, down
// to the counters the goldens deliberately omit (peak_bytes, state_bytes,
// decisive_states). Fused witnesses must replay on the SimOS kernel, a
// mixed-attacker batch must NOT fuse across world signatures, spilling
// must disable fusion entirely, a one-member group must leave every fused_*
// counter at 0, and the escalation ladder must re-run only still-undecided
// goals.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/scenario.h"
#include "privanalyzer/efficacy.h"
#include "rosa/cache.h"
#include "rosa/replay.h"
#include "rosa_test_util.h"
#include "test_tmpdir.h"

namespace pa {
namespace {

using attacks::AttackId;
using rosa_test::Matrix;

/// Everything except wall time and the cache/fused observability counters.
void expect_identical_runs(const rosa::SearchResult& unfused,
                           const rosa::SearchResult& fused) {
  rosa_test::expect_same_work(unfused, fused);
  EXPECT_EQ(unfused.stats.peak_bytes, fused.stats.peak_bytes);
  EXPECT_EQ(unfused.stats.state_bytes, fused.stats.state_bytes);
  EXPECT_EQ(unfused.stats.decisive_states, fused.stats.decisive_states);
  EXPECT_EQ(unfused.stats.spilled_states, fused.stats.spilled_states);
  EXPECT_EQ(unfused.stats.spill_bytes, fused.stats.spill_bytes);
}

/// The unfused oracle: every query as its own one-member search.
std::vector<rosa::SearchResult> search_each(
    const std::vector<rosa::Query>& queries,
    const rosa::SearchLimits& limits) {
  std::vector<rosa::SearchResult> out;
  for (const rosa::Query& q : queries) out.push_back(rosa::search(q, limits));
  return out;
}

void expect_fused_matches_unfused(unsigned n_threads, bool cached,
                                  bool reduction) {
  const Matrix m = rosa_test::build_matrix();

  rosa::SearchLimits limits = rosa_test::table3_limits();
  limits.reduction = reduction;
  const std::vector<rosa::SearchResult> reference =
      search_each(m.queries, limits);

  rosa::QueryCache cache;
  const std::vector<rosa::SearchResult> fused = rosa::run_queries(
      m.queries, limits, n_threads, {}, cached ? &cache : nullptr);

  ASSERT_EQ(fused.size(), reference.size());
  std::size_t searches_saved = 0;
  std::size_t world_states = 0;
  std::size_t standalone_states = 0;
  for (std::size_t i = 0; i < fused.size(); ++i) {
    SCOPED_TRACE(m.labels[i]);
    expect_identical_runs(reference[i], fused[i]);
    searches_saved += fused[i].stats.fused_searches_saved;
    world_states += fused[i].stats.fused_world_states;
    standalone_states += fused[i].stats.states;
  }
  // The matrix's 96 queries collapse to well under the acceptance bound of
  // 30 distinct explorations: at least 50 whole searches are fanned in. The
  // state reduction floor is structural — bit-identity pins each member's
  // replayed count, so the shared exploration costs exactly the union of the
  // members' decisive prefixes (measured 1.8x on this matrix; asserted at
  // 1.5x for headroom).
  if (!cached) {
    EXPECT_GE(searches_saved, 50u);
    EXPECT_LE(3 * world_states, 2 * standalone_states);
  }
}

TEST(FusedDiffTest, SerialUncachedMatchesUnfused) {
  expect_fused_matches_unfused(1, false, false);
}

TEST(FusedDiffTest, SerialCachedMatchesUnfused) {
  expect_fused_matches_unfused(1, true, false);
}

TEST(FusedDiffTest, FourWorkerUncachedMatchesUnfused) {
  expect_fused_matches_unfused(4, false, false);
}

TEST(FusedDiffTest, FourWorkerCachedMatchesUnfused) {
  expect_fused_matches_unfused(4, true, false);
}

TEST(FusedDiffTest, SerialReducedMatchesUnfusedReduced) {
  expect_fused_matches_unfused(1, false, true);
}

TEST(FusedDiffTest, FourWorkerReducedMatchesUnfusedReduced) {
  expect_fused_matches_unfused(4, false, true);
}

// Fused witnesses are not just string-identical to the standalone ones —
// they execute on the SimOS kernel and land in the goal state, like every
// other witness (witness_replay_test.cpp).
TEST(FusedDiffTest, FusedWitnessesReplayOnKernel) {
  const Matrix m = rosa_test::build_matrix();
  const rosa::SearchLimits limits = rosa_test::table3_limits();
  const std::vector<rosa::SearchResult> results =
      rosa::run_queries(m.queries, limits, /*n_threads=*/1, {}, nullptr);

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

attacks::ScenarioInput handmade_epoch(rosa::AttackerModel attacker) {
  attacks::ScenarioInput in;
  in.permitted = {caps::Capability::Setuid, caps::Capability::Setgid,
                  caps::Capability::NetBindService};
  in.creds = caps::Credentials::of_user(1000, 1000);
  in.syscalls = {"open", "chown", "setuid", "setgid",
                 "kill", "socket", "bind"};
  in.attacker = attacker;
  return in;
}

// A batch mixing attacker models: each model's four attacks share a world
// signature and fuse, but nothing fuses ACROSS the models — the attacker
// is part of the world, so a group spanning both would explore transitions
// one member's model forbids.
TEST(FusedDiffTest, MixedAttackerBatchFusesOnlyWithinWorlds) {
  std::vector<rosa::Query> queries;
  for (rosa::AttackerModel model :
       {rosa::AttackerModel::Full, rosa::AttackerModel::CfiOrdered}) {
    const attacks::ScenarioInput in = handmade_epoch(model);
    for (const attacks::AttackInfo& a : attacks::modeled_attacks())
      queries.push_back(attacks::build_attack_query(a.id, in));
  }

  const rosa::SearchLimits limits = rosa_test::table3_limits();
  const std::vector<rosa::SearchResult> reference =
      search_each(queries, limits);
  const std::vector<rosa::SearchResult> fused =
      rosa::run_queries(queries, limits, 1, {}, nullptr);

  ASSERT_EQ(fused.size(), 8u);
  std::size_t saved = 0;
  for (std::size_t i = 0; i < fused.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical_runs(reference[i], fused[i]);
    // Four goals per world, never eight: no group crosses attacker models.
    EXPECT_EQ(fused[i].stats.fused_group_size, 4u);
    saved += fused[i].stats.fused_searches_saved;
  }
  EXPECT_EQ(saved, 6u);  // two groups, each fanning 4 goals into 1 search
}

// Only a one-member group can spill (the per-member replay does not model
// evicted states), so spill-enabled limits opt out of fusion wholesale.
TEST(FusedDiffTest, SpillEnabledLimitsDoNotFuse) {
  const attacks::ScenarioInput in =
      handmade_epoch(rosa::AttackerModel::Full);
  std::vector<rosa::Query> queries;
  for (const attacks::AttackInfo& a : attacks::modeled_attacks())
    queries.push_back(attacks::build_attack_query(a.id, in));

  const test_util::ScopedTestDir dir;
  rosa::SearchLimits limits = rosa_test::table3_limits();
  limits.spill_dir = dir.path();
  limits.max_bytes = std::size_t{1} << 30;  // never actually spills
  ASSERT_TRUE(limits.spill_enabled());

  const std::vector<rosa::SearchResult> results =
      rosa::run_queries(queries, limits, 1, {}, nullptr);
  for (const rosa::SearchResult& r : results) {
    EXPECT_EQ(r.stats.fused_group_size, 0u);
    EXPECT_EQ(r.stats.fused_searches_saved, 0u);
    EXPECT_EQ(r.stats.fused_world_states, 0u);
  }
}

// search() is the multi-goal loop on a one-member group: nothing is shared,
// so every fused_* counter stays 0 — through search(), the escalation
// ladder, the loop itself, and a batch whose only query forms its own
// group — and the FSaved/FStates columns and CSV export read as before.
TEST(FusedDiffTest, OneMemberGroupLeavesFusedCountersAtZero) {
  const rosa::Query slow = rosa_test::unreachable_query(4);
  const rosa::SearchLimits limits = rosa_test::states_budget(4);
  const rosa::EscalationPolicy policy{/*rounds=*/2, /*factor=*/2.0};
  const std::vector<rosa::Query> one = {slow};
  std::vector<rosa::SearchResult> runs = {
      rosa::search(slow, limits),
      rosa::search_escalating(slow, limits, policy),
      rosa::detail::search_fused(one, limits)[0],
      rosa::detail::search_fused_escalating(one, limits, policy)[0],
      rosa::run_queries(one, limits, 1, policy, nullptr)[0],
  };
  EXPECT_GT(runs[1].stats.escalations, 0u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(runs[i].stats.fused_group_size, 0u);
    EXPECT_EQ(runs[i].stats.fused_searches_saved, 0u);
    EXPECT_EQ(runs[i].stats.fused_world_states, 0u);
  }
  rosa_test::expect_same_work(runs[0], runs[2]);
  rosa_test::expect_same_work(runs[1], runs[3]);
  rosa_test::expect_same_work(runs[1], runs[4]);
}

// Escalation regression: two goals over one shared world, where one decides
// in the base round and the other needs multiple escalation rounds. The
// ladder must re-run only the still-undecided goal, and every accumulated
// counter must match the standalone escalating searches.
TEST(FusedDiffTest, EscalationRerunsOnlyUndecidedGoals) {
  // One world: proc 1 may open each of 3 files (2^3 reachable states). Both
  // goals touch only proc 1's fd table, so the queries share an independence
  // table and fuse; a goal with a different POR footprint (say,
  // goal_proc_terminated) would land in its own group by design.
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

  const std::vector<rosa::Query> group = {fast, slow};
  const std::vector<rosa::SearchResult> fused =
      rosa::detail::search_fused_escalating(group, limits, policy);
  ASSERT_EQ(fused.size(), 2u);
  expect_identical_runs(fast_ref, fused[0]);
  expect_identical_runs(slow_ref, fused[1]);

  // And through the public batch API, which routes the pair into one group.
  const std::vector<rosa::SearchResult> batch =
      rosa::run_queries(group, limits, 1, policy, nullptr);
  ASSERT_EQ(batch.size(), 2u);
  expect_identical_runs(fast_ref, batch[0]);
  expect_identical_runs(slow_ref, batch[1]);
  EXPECT_EQ(batch[0].stats.fused_group_size, 2u);
}

// The fused pipeline agrees with per-attack searches (analyze_epoch, one
// search per cell) on every verdict cell and vulnerable fraction — the
// paper-facing numbers, not just the engine counters.
TEST(FusedDiffTest, PipelineFractionsMatchUnfused) {
  privanalyzer::PipelineOptions fused_opts;
  fused_opts.rosa_limits = rosa_test::table3_limits();
  fused_opts.rosa_threads = 1;

  const std::vector<privanalyzer::ProgramAnalysis> fused =
      privanalyzer::analyze_baseline(fused_opts);
  const std::vector<programs::ProgramSpec> specs =
      programs::all_baseline_programs();
  std::vector<privanalyzer::ProgramAnalysis> unfused = fused;
  ASSERT_EQ(specs.size(), unfused.size());
  for (std::size_t p = 0; p < unfused.size(); ++p) {
    const std::vector<std::string> syscalls = specs[p].syscalls_used();
    const std::vector<chronopriv::EpochRow>& rows = unfused[p].chrono.rows;
    ASSERT_EQ(rows.size(), unfused[p].verdicts.size());
    for (std::size_t e = 0; e < rows.size(); ++e)
      unfused[p].verdicts[e] = attacks::analyze_epoch(
          rows[e],
          attacks::scenario_from_epoch(rows[e], syscalls,
                                       specs[p].scenario_extra_users,
                                       specs[p].scenario_extra_groups),
          fused_opts.rosa_limits);
  }
  ASSERT_EQ(fused.size(), unfused.size());
  for (std::size_t p = 0; p < fused.size(); ++p) {
    SCOPED_TRACE(fused[p].program);
    ASSERT_EQ(fused[p].verdicts.size(), unfused[p].verdicts.size());
    for (std::size_t e = 0; e < fused[p].verdicts.size(); ++e)
      for (std::size_t a = 0; a < fused[p].verdicts[e].verdicts.size(); ++a)
        EXPECT_EQ(fused[p].verdicts[e].verdicts[a],
                  unfused[p].verdicts[e].verdicts[a]);
    for (std::size_t a = 0; a < 4; ++a)
      EXPECT_DOUBLE_EQ(fused[p].vulnerable_fraction(a),
                       unfused[p].vulnerable_fraction(a));
  }
}

}  // namespace
}  // namespace pa
