// Partial-order reduction for ROSA: a static independence relation over a
// query's messages, and ample-set selection per frontier pop.
//
// Two one-shot messages are *independent* when their static read/write
// footprints over an abstract resource vocabulary (per-process credentials,
// fd-sets, running flags, sockets; per-file metadata; the directory
// structure; the object-id allocator; the port namespace) are
// non-conflicting: neither writes anything the other reads or writes. For
// such a pair, firing order commutes exactly — same transitions enabled,
// same successor states — so exploring both interleavings is redundant.
//
// At each frontier pop the engine asks for candidate *ample sets*:
// dependence-closed subsets of the unconsumed messages containing no
// goal-visible message. Expanding only the ample set and deferring the rest
// preserves goal reachability (hence verdicts, vulnerable_fractions, and
// witness existence):
//
//   Soundness sketch (induction on |unconsumed(s)|, possible because
//   messages are one-shot, so the state graph is a DAG and the classic
//   "ignoring problem" cannot arise — no cycle can defer a message
//   forever). Let A be the chosen ample set at s, a proper dependence-
//   closed, invisible, enabled subset, and let w = m1..mn be a full-graph
//   path from s to a goal state.
//   (1) If some mi ∈ A, every mj before it is outside A and therefore
//       independent of mi, so mi commutes to the front: s -mi-> s' still
//       reaches the goal, mi's transitions from s are expanded, and the
//       hypothesis applies to s'.
//   (2) If no mi ∈ A, pick any expanded transition s -a-> s' with a ∈ A:
//       independence keeps w enabled from s' and a's invisibility keeps
//       the final state a goal state, so the hypothesis applies to s'.
//   Deferred messages are charged to SearchStats::por_pruned.
//
// The footprints are deliberately coarse where precision would endanger
// determinism-sensitive fixtures and buy little on real workloads: fd-sets
// are one resource per *process* (two opens by the same process never
// commute here), and any message whose rule consults process credentials
// conflicts with every set*id by that process — which renders the
// reduction inert on the paper's single-process attack scenarios (their
// set*id messages couple everything; the state-space win there comes from
// symmetry reduction instead) and lets it bite on multi-process queries,
// where disjoint processes' messages genuinely commute.
#pragma once

#include <cstdint>
#include <vector>

#include "rosa/canon.h"
#include "rosa/rules.h"
#include "rosa/search.h"

namespace pa::rosa {

/// Static per-query dependence matrix + goal-visibility mask.
/// Default-constructed = POR disabled.
class IndependenceTable {
 public:
  /// Analyze `query`. Disabled when the goal's touch set is unknown (every
  /// message must then be treated as visible), under CfiOrdered attackers
  /// (program order makes interleavings non-commutable by construction),
  /// or with no messages.
  static IndependenceTable build(const Query& query);

  bool enabled() const { return enabled_; }
  std::size_t message_count() const { return dep_.size(); }
  /// Bit j set: message i and message j may not commute (always includes
  /// i itself; symmetric).
  std::uint64_t dep_mask(std::size_t i) const { return dep_[i]; }
  /// Bit i set: message i can change the goal predicate's value.
  std::uint64_t visible_mask() const { return visible_; }
  bool independent(std::size_t i, std::size_t j) const {
    return !(dep_[i] & (std::uint64_t{1} << j));
  }

  /// Candidate ample sets for a state whose unconsumed-message mask is
  /// `unconsumed`: dependence closures of each invisible unconsumed seed
  /// that stay invisible and are proper subsets, deduplicated and ordered
  /// by (popcount, mask) — deterministic and a pure function of the
  /// arguments. The search commits to the first candidate that yields a transition and
  /// falls back to full expansion when none does.
  void candidates(std::uint64_t unconsumed,
                  std::vector<std::uint64_t>& out) const;

 private:
  bool enabled_ = false;
  std::uint64_t visible_ = 0;
  std::uint64_t dead_ = 0;  // proc absent: never fires, never seeds an ample
  std::vector<std::uint64_t> dep_;  // [message] -> dependent-message mask
};

/// Everything one search needs about both reductions, computed once.
struct ReductionPlan {
  SymmetryInfo symmetry;
  IndependenceTable table;

  bool sym() const { return symmetry.enabled(); }
  bool por() const { return table.enabled(); }
  bool any() const { return sym() || por(); }
};

/// Build the plan for a search: empty (both reductions off) unless
/// limits.reduction, with each reduction further gated by its own
/// eligibility rules (compute_symmetry, IndependenceTable::build).
ReductionPlan make_reduction_plan(const Query& query,
                                  const SearchLimits& limits);

/// One buffered successor: the message index that produced it plus the
/// transition (next state already has msgs_remaining cleared).
struct ExpandedTransition {
  unsigned msg = 0;
  Transition tr;
};

/// Expand one state: apply the chosen ample set's messages (or, without an
/// enabled `table`, every unconsumed message allowed by `fire_mask`) in
/// ascending index order, appending the successors to `out` in exactly the
/// order the unreduced serial loop enumerates them. Returns the number of
/// unconsumed messages deferred by the ample choice (the state's por_pruned
/// charge; 0 on full expansion). `scratch` is reusable transition storage.
/// The CfiOrdered program-order gate is applied here in both modes, always
/// against the FULL message list: masked-out later messages are never
/// consumed, so the gate degenerates to program order over the mask's
/// subsequence — the same semantics a tailored per-attack message list had.
/// `fire_mask` is the query's msg_mask; the POR path ignores it
/// (IndependenceTable::build refuses proper masks).
std::size_t expand_state(const State& cur, const Query& query,
                         const AccessChecker& checker,
                         const IndependenceTable* table,
                         std::uint64_t full_msg_mask, std::uint64_t fire_mask,
                         std::vector<ExpandedTransition>& out,
                         std::vector<Transition>& scratch);

}  // namespace pa::rosa
