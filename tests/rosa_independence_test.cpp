// Unit tests for the partial-order reduction machinery (rosa/independence.h):
// the static independence relation must match the rules' real semantics
// (independent pairs commute exactly, dependent pairs are never declared
// independent), every candidate ample set must satisfy the structural
// soundness conditions (dependence-closed, invisible, proper subset), and a
// multi-process workload must shrink under POR without changing its verdict.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "rosa/independence.h"
#include "rosa/replay.h"
#include "rosa_test_util.h"

namespace pa {
namespace {

/// Two unrelated processes, each owning one private file it may open and
/// chmod, plus a credential move and a kill for the dependence cases:
///   0 open(1, f3)   1 chmod(1, f3)   2 open(2, f4)   3 chmod(2, f4)
///   4 seteuid(1, wild)               5 kill(1, proc 2, SIGKILL)
rosa::Query two_proc_query() {
  rosa::Query q;
  for (int p = 1; p <= 2; ++p) {
    rosa::ProcObj proc;
    proc.id = p;
    proc.uid = {1000 * p, 1000 * p, 1000 * p};
    proc.gid = {1000 * p, 1000 * p, 1000 * p};
    q.initial.procs.push_back(proc);
  }
  q.initial.files.push_back(rosa::FileObj{3, {1000, 1000, os::Mode(0600)}});
  q.initial.files.push_back(rosa::FileObj{4, {2000, 2000, os::Mode(0600)}});
  q.initial.set_name(3, "a");
  q.initial.set_name(4, "b");
  // Both pool ids occur in the initial state, so no identity is free and
  // symmetry reduction self-disables: these tests isolate POR.
  q.initial.set_users({1000, 2000});
  q.initial.set_groups({1000, 2000});
  q.initial.normalize();
  q.messages.push_back(rosa::msg_open(1, 3, rosa::kAccRead, {}));
  q.messages.push_back(rosa::msg_chmod(1, 3, 0640, {}));
  q.messages.push_back(rosa::msg_open(2, 4, rosa::kAccRead, {}));
  q.messages.push_back(rosa::msg_chmod(2, 4, 0640, {}));
  q.messages.push_back(
      rosa::msg_seteuid(1, rosa::kWild, {caps::Capability::Setuid}));
  q.messages.push_back(rosa::msg_kill(1, 2, 9, {caps::Capability::Kill}));
  q.goal = rosa::goal_file_in_rdfset(1, 3);
  return q;
}

TEST(IndependenceTest, RelationMatchesRuleSemantics) {
  const rosa::Query q = two_proc_query();
  const rosa::IndependenceTable t = rosa::IndependenceTable::build(q);
  ASSERT_TRUE(t.enabled());
  ASSERT_EQ(t.message_count(), 6u);

  // Cross-process, disjoint files: fully independent.
  EXPECT_TRUE(t.independent(0, 2));
  EXPECT_TRUE(t.independent(0, 3));
  EXPECT_TRUE(t.independent(1, 2));
  EXPECT_TRUE(t.independent(1, 3));
  // Same file metadata: open reads what chmod writes.
  EXPECT_FALSE(t.independent(0, 1));
  EXPECT_FALSE(t.independent(2, 3));
  // seteuid writes proc 1's credentials, which every proc-1 message reads —
  // but leaves proc 2's messages untouched.
  EXPECT_FALSE(t.independent(4, 0));
  EXPECT_FALSE(t.independent(4, 1));
  EXPECT_TRUE(t.independent(4, 2));
  EXPECT_TRUE(t.independent(4, 3));
  // kill(1 -> 2) writes proc 2's running flag, which proc 2's rules read.
  EXPECT_FALSE(t.independent(5, 2));
  EXPECT_FALSE(t.independent(5, 3));
  // The relation is symmetric and reflexively dependent.
  for (std::size_t i = 0; i < t.message_count(); ++i) {
    EXPECT_FALSE(t.independent(i, i));
    for (std::size_t j = 0; j < t.message_count(); ++j)
      EXPECT_EQ(t.independent(i, j), t.independent(j, i));
  }
  // Only open(1, f3) can change goal_file_in_rdfset(1, 3).
  EXPECT_EQ(t.visible_mask(), std::uint64_t{1});
}

TEST(IndependenceTest, IndependentPairsCommuteExactly) {
  // The semantic claim behind the static relation: for every pair declared
  // independent, firing i then j from the initial state reaches the same
  // canonical state set as j then i.
  const rosa::Query q = two_proc_query();
  const rosa::IndependenceTable t = rosa::IndependenceTable::build(q);
  ASSERT_TRUE(t.enabled());

  auto successors = [&](const rosa::State& st, std::size_t mi) {
    std::vector<rosa::Transition> out;
    rosa::apply_message(st, q.messages[mi], q.attacker,
                        rosa::linux_checker(), out);
    for (rosa::Transition& tr : out) tr.next.set_msgs_remaining(0);
    return out;
  };

  int checked_pairs = 0;
  for (std::size_t i = 0; i < q.messages.size(); ++i) {
    for (std::size_t j = i + 1; j < q.messages.size(); ++j) {
      if (!t.independent(i, j)) continue;
      // Collect all i-then-j endpoints, then all j-then-i endpoints.
      auto endpoints = [&](std::size_t a, std::size_t b) {
        std::vector<rosa::State> ends;
        for (const rosa::Transition& first : successors(q.initial, a))
          for (rosa::Transition& second : successors(first.next, b))
            ends.push_back(std::move(second.next));
        return ends;
      };
      std::vector<rosa::State> ij = endpoints(i, j);
      std::vector<rosa::State> ji = endpoints(j, i);
      ASSERT_EQ(ij.size(), ji.size()) << "pair " << i << "," << j;
      for (const rosa::State& a : ij) {
        bool found = false;
        for (const rosa::State& b : ji)
          if (a.hash() == b.hash() && rosa::canonical_equal(a, b)) {
            found = true;
            break;
          }
        EXPECT_TRUE(found) << "independent pair " << i << "," << j
                           << " does not commute";
      }
      ++checked_pairs;
    }
  }
  EXPECT_GE(checked_pairs, 4) << "fixture lost its independent pairs";
}

TEST(IndependenceTest, CandidateAmpleSetsAreStructurallySound) {
  const rosa::Query q = two_proc_query();
  const rosa::IndependenceTable t = rosa::IndependenceTable::build(q);
  ASSERT_TRUE(t.enabled());
  const std::uint64_t full = (std::uint64_t{1} << q.messages.size()) - 1;

  std::vector<std::uint64_t> cands;
  int total = 0;
  for (std::uint64_t unconsumed = 0; unconsumed <= full; ++unconsumed) {
    t.candidates(unconsumed, cands);
    std::uint64_t prev_pop = 0, prev_mask = 0;
    bool first = true;
    for (std::uint64_t a : cands) {
      SCOPED_TRACE("unconsumed=" + std::to_string(unconsumed) +
                   " ample=" + std::to_string(a));
      // Nonempty proper subset of the unconsumed messages.
      EXPECT_NE(a, 0u);
      EXPECT_EQ(a & ~unconsumed, 0u);
      EXPECT_NE(a, unconsumed);
      // No goal-visible message may be deferred *into* the ample set.
      EXPECT_EQ(a & t.visible_mask(), 0u);
      // Dependence-closed: everything deferred is independent of
      // everything inside.
      for (std::size_t i = 0; i < t.message_count(); ++i) {
        if (!(a & (std::uint64_t{1} << i))) continue;
        std::uint64_t deferred = unconsumed & ~a;
        EXPECT_EQ(t.dep_mask(i) & deferred, 0u);
      }
      // Deterministic order: (popcount, mask) ascending, no duplicates.
      std::uint64_t pop = std::popcount(a);
      if (!first) {
        EXPECT_TRUE(pop > prev_pop || (pop == prev_pop && a > prev_mask));
      }
      first = false;
      prev_pop = pop;
      prev_mask = a;
      ++total;
    }
  }
  EXPECT_GT(total, 0) << "POR never proposed an ample set";
}

TEST(IndependenceTest, DisabledUnderCfiOrderedAndUnknownGoals) {
  rosa::Query q = two_proc_query();
  q.attacker = rosa::AttackerModel::CfiOrdered;
  EXPECT_FALSE(rosa::IndependenceTable::build(q).enabled());

  rosa::Query lambda_goal = two_proc_query();
  lambda_goal.goal = rosa::Goal(
      [](const rosa::State& st) { return !st.procs.empty(); }, "ad-hoc");
  EXPECT_FALSE(rosa::IndependenceTable::build(lambda_goal).enabled());

  rosa::Query no_msgs = two_proc_query();
  no_msgs.messages.clear();
  EXPECT_FALSE(rosa::IndependenceTable::build(no_msgs).enabled());
}

TEST(IndependenceTest, MultiProcessSearchShrinksWithVerdictUnchanged) {
  // The workload POR is built for: two processes with disjoint resources.
  // The unreachable goal forces exhaustive exploration, where interleaving
  // the independent pairs costs the unreduced engine strictly more states.
  rosa::Query q = two_proc_query();
  q.goal = rosa::goal_proc_terminated(1);  // no kill targets proc 1
  q.messages.pop_back();                   // drop kill(1 -> 2)

  rosa::SearchLimits off;
  off.reduction = false;
  const rosa::SearchResult unreduced = rosa::search(q, off);
  const rosa::SearchResult reduced = rosa::search(q);

  ASSERT_EQ(unreduced.verdict, rosa::Verdict::Unreachable);
  EXPECT_EQ(reduced.verdict, rosa::Verdict::Unreachable);
  EXPECT_EQ(reduced.stats.symmetry_pruned, 0u)
      << "fixture regressed: all pool ids are pinned, symmetry must be off";
  EXPECT_GT(reduced.stats.por_pruned, 0u);
  EXPECT_LT(reduced.stats.states, unreduced.stats.states);
}

TEST(IndependenceTest, DeferredPathStillFindsDependentWitness) {
  // Reaching the goal REQUIRES the dependent order chmod -> open (the file
  // starts unreadable even to its owner): POR may defer but never lose it,
  // and the witness must replay on the simulated kernel.
  rosa::Query q;
  for (int p = 1; p <= 2; ++p) {
    rosa::ProcObj proc;
    proc.id = p;
    proc.uid = {1000 * p, 1000 * p, 1000 * p};
    proc.gid = {1000 * p, 1000 * p, 1000 * p};
    q.initial.procs.push_back(proc);
  }
  q.initial.files.push_back(rosa::FileObj{3, {1000, 1000, os::Mode(0000)}});
  q.initial.files.push_back(rosa::FileObj{4, {2000, 2000, os::Mode(0600)}});
  q.initial.set_name(3, "a");
  q.initial.set_name(4, "b");
  q.initial.set_users({1000, 2000});
  q.initial.set_groups({1000, 2000});
  q.initial.normalize();
  q.messages.push_back(rosa::msg_chmod(1, 3, 0400, {}));
  q.messages.push_back(rosa::msg_open(1, 3, rosa::kAccRead, {}));
  q.messages.push_back(rosa::msg_open(2, 4, rosa::kAccRead, {}));
  q.messages.push_back(rosa::msg_chmod(2, 4, 0640, {}));
  q.goal = rosa::goal_file_in_rdfset(1, 3);

  for (bool reduction : {false, true}) {
    rosa::SearchLimits limits;
    limits.reduction = reduction;
    const rosa::SearchResult r = rosa::search(q, limits);
    ASSERT_EQ(r.verdict, rosa::Verdict::Reachable)
        << "reduction=" << reduction;
    rosa::Materialized world(q.initial);
    std::string diag;
    ASSERT_TRUE(world.replay(r.witness, &diag)) << diag;
    EXPECT_TRUE(world.holds_open(1, 3, /*for_write=*/false));
  }
}

}  // namespace
}  // namespace pa
