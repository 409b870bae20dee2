// ROSA's bounded search — the C++ analogue of Maude's `search` command:
// breadth-first exploration of every configuration reachable from the
// initial state by consuming syscall messages, with duplicate states pruned
// via a 64-bit hash of the canonical form (collisions resolved by exact
// comparison, so dedup semantics are identical to full canonical keying).
//
// search() is ONE plain breadth-first loop for one query, run on the calling
// thread; search_escalating() is its budget-escalation ladder. run_queries()
// fans a batch out as one task per query across a thread pool with
// deterministic, input-ordered results (the engine behind
// PipelineOptions::rosa_threads).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rosa/message.h"
#include "rosa/rules.h"
#include "rosa/state.h"

namespace pa::rosa {

class QueryCache;  // rosa/cache.h

/// A goal predicate plus an optional stable cache identity. The predicate is
/// what the search evaluates; the cache key is what the verdict cache
/// (rosa/cache.h) fingerprints — two goals with the same key MUST accept
/// exactly the same states. Ad-hoc lambdas convert implicitly and carry no
/// key, which simply makes their queries uncacheable; the builders in
/// rosa/query.h all return keyed goals.
/// Static annotations on a goal predicate that the reduction machinery
/// (rosa/canon.h, rosa/independence.h) needs to stay sound. Builders in
/// rosa/query.h fill these in; ad-hoc lambda goals keep the conservative
/// defaults, which disable both reductions for the query.
struct GoalInfo {
  /// True when the predicate's value is invariant under any permutation of
  /// uid values and (separately) gid values across the whole state — the
  /// precondition for symmetry reduction. All the shipped builders qualify:
  /// they inspect fdsets, sockets, and running flags, never identities.
  bool identity_invariant = false;
  /// True when the touch sets below are exhaustive, i.e. the predicate
  /// reads *only* the listed per-process resources. False means "reads
  /// unknown state", which makes every message goal-visible and turns
  /// partial-order reduction into a no-op (safe default).
  bool touch_known = false;
  std::vector<int> fd_procs;    // reads rdfset/wrfset of these procs
  std::vector<int> run_procs;   // reads the running flag of these procs
  std::vector<int> sock_procs;  // reads sockets/bound ports of these procs
};

class Goal {
 public:
  Goal() = default;
  /// Keyed (cacheable) goal. The key must determine the predicate.
  Goal(std::function<bool(const State&)> fn, std::string key)
      : fn_(std::move(fn)), key_(std::move(key)) {}
  /// Unkeyed goal from any predicate callable (uncacheable).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Goal> &&
                std::is_invocable_r_v<bool, F, const State&>>>
  Goal(F fn) : fn_(std::move(fn)) {}

  bool operator()(const State& st) const { return fn_(st); }
  explicit operator bool() const { return static_cast<bool>(fn_); }

  /// Stable identity for fingerprinting; empty = uncacheable.
  const std::string& cache_key() const { return key_; }

  const GoalInfo& info() const { return info_; }
  Goal& with_info(GoalInfo info) {
    info_ = std::move(info);
    return *this;
  }

 private:
  std::function<bool(const State&)> fn_;
  std::string key_;
  GoalInfo info_;
};

/// A search problem: initial configuration, one-shot messages, and the
/// pattern (goal predicate) describing the compromised system state.
///
/// Thread-safety contract for run_queries(): a Query is only ever read
/// during search, but `goal` and `checker` are *shared* by whichever worker
/// picks the query up — goal predicates must be pure functions of the State
/// and checkers stateless, as every implementation in this repo is.
struct Query {
  State initial;
  /// At most 64 messages (bitmask-tracked). Under AttackerModel::CfiOrdered
  /// the list order IS the program order the attacker must respect.
  std::vector<Message> messages;
  Goal goal;
  std::string description;
  /// Attacker strength (§X: modelling defenses like CFI / data-flow
  /// integrity weakens the attacker).
  AttackerModel attacker = AttackerModel::Full;
  /// Access-control model the rules evaluate against (§X: comparing the
  /// efficacy of different OS privilege models). Non-owning; defaults to
  /// Linux capabilities.
  const AccessChecker* checker = nullptr;
  /// Which messages the attacker may actually fire (bit i = messages[i];
  /// default: all). Masked-out messages can never fire, but their
  /// msgs_remaining bits stay SET forever, so two queries over the same
  /// message list that differ only in mask share canonical state
  /// representations — what lets the (epoch × attack) matrix pose every
  /// attack against one union world. Proper masks are salted into the
  /// query fingerprint; full-mask fingerprints are unchanged.
  std::uint64_t msg_mask = ~std::uint64_t{0};
};

struct SearchLimits {
  /// Stop after exploring this many distinct states (0 = unlimited). This is
  /// the bound that produces the paper's "timed out" verdicts.
  std::size_t max_states = 2'000'000;
  /// Wall-clock budget in seconds (0 = unlimited). Checked once per frontier
  /// pop, so even huge-frontier/tiny-fanout searches respect the budget.
  double max_seconds = 0.0;
  /// Memory budget in bytes for the search's node arena (0 = unlimited).
  /// Exceeding it returns ResourceLimit, exactly like max_states. The
  /// accounting is capacity-based (arena chunks + per-state heap bytes), not
  /// allocator-dependent, so byte-budget exhaustion is deterministic and
  /// search_escalating() can grow this budget geometrically like the others.
  std::size_t max_bytes = 0;
  /// Directory for disk-spillable frontiers (rosa/spill.h). When set
  /// together with a max_bytes budget, a search whose node arena would
  /// exceed the budget serializes every state it commits from then on to
  /// versioned temp files under this directory and reads them back when
  /// they are expanded or compared, so the byte budget bounds *resident*
  /// memory instead of total exploration — the search completes with the
  /// same verdict/witness it would have produced unconstrained, rather
  /// than returning ResourceLimit. Empty = spill disabled.
  std::string spill_dir;
  /// Disable duplicate-state detection (ablation only; exponential blowup).
  bool no_dedup = false;
  /// Symmetry + partial-order reduction (rosa/canon.h, rosa/independence.h).
  /// On by default: states are canonicalized modulo wildcard-identity
  /// permutations before dedup, and each frontier pop expands only an
  /// ample subset of the unconsumed messages when the rest provably
  /// commutes past it. Verdicts, vulnerable_fractions, and witness
  /// *validity* are preserved exactly (tests/rosa_reduction_diff_test.cpp);
  /// work counters and the particular witness found may differ from the
  /// unreduced run, so the flag is salted into cache fingerprints. Set
  /// false (`--no-reduction`) for A/B ablation against the full space.
  bool reduction = true;
  /// Debug mode: cross-check every incrementally maintained state digest
  /// against a from-scratch State::full_hash() and abort on mismatch. Costs
  /// a full rehash per generated successor; tests enable it to pin the
  /// incremental XOR updates to the reference hash.
  bool check_hashes = false;
  /// Test hook: replace State::hash() as the dedup key (e.g. a constant to
  /// force every insert through the collision-fallback path). Verdicts must
  /// not change under any override (tests/rosa_hash_test.cpp).
  std::function<std::uint64_t(const State&)> hash_override;
  /// Absolute batch-wide deadline (default-constructed = none). Checked once
  /// per frontier pop like max_seconds; past-deadline searches return
  /// ResourceLimit. The pipeline derives this from
  /// PipelineOptions::max_total_seconds so a runaway (epoch × attack) matrix
  /// cannot hang a batch.
  std::chrono::steady_clock::time_point deadline{};
  /// Cooperative cancellation (non-owning; e.g. ThreadPool::cancel_token()).
  /// When set and *cancel is true, the search stops at the next frontier pop
  /// with ResourceLimit. run_queries wires this up automatically for its
  /// deadline handling; callers can also supply their own flag.
  const std::atomic<bool>* cancel = nullptr;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  /// True when the spill path is configured: it needs both a directory and
  /// a byte budget to bound resident memory against.
  bool spill_enabled() const { return !spill_dir.empty() && max_bytes > 0; }
  bool expired() const {
    return (cancel && cancel->load(std::memory_order_relaxed)) ||
           (has_deadline() && std::chrono::steady_clock::now() >= deadline);
  }
};

/// Geometric budget escalation for queries that hit Outcome
/// Verdict::ResourceLimit: retry with max_states and max_seconds multiplied
/// by `factor` each round, up to `rounds` extra attempts. Escalation shrinks
/// the paper's presumed-invulnerable (timed-out) bucket; the retries are
/// deterministic whenever the limits are (states-based limits always are).
struct EscalationPolicy {
  unsigned rounds = 0;   // extra attempts after the base search (0 = off)
  double factor = 2.0;   // budget multiplier per round

  bool enabled() const { return rounds > 0; }
};

enum class Verdict {
  Reachable,      // the compromised state can be reached (vulnerable)
  Unreachable,    // the full reachable space contains no such state
  ResourceLimit,  // limits hit before the space was exhausted (the paper's hourglass)
};

std::string_view verdict_name(Verdict v);
/// Inverse of verdict_name (for the persistent cache loader).
std::optional<Verdict> parse_verdict(std::string_view name);

/// Per-query observability counters, aggregated across the pipeline's
/// (epoch × attack) matrix and printed by `privanalyzer --stats`.
struct SearchStats {
  std::size_t states = 0;           // distinct states explored
  std::size_t transitions = 0;      // rule applications attempted
  std::size_t dedup_hits = 0;       // successors pruned as already seen
  std::size_t hash_collisions = 0;  // distinct states sharing a 64-bit key
  std::size_t peak_frontier = 0;    // high-water mark of the BFS queue
  /// High-water mark of the node arena in bytes (chunk reservations plus
  /// per-state heap allocations); the arena only grows, so this is simply
  /// its final size. Aggregated across queries by max, like peak_frontier.
  std::size_t peak_bytes = 0;
  /// Representation-only footprint: sum over explored states of
  /// sizeof(State) plus the state's own heap bytes. Excludes search
  /// bookkeeping (parent/collision links, stored actions, chunk reservation
  /// slack), so state_bytes / states measures how compact the state
  /// *representation* is, independently of the arena around it.
  std::size_t state_bytes = 0;
  /// States whose representation was written to a spill file instead of
  /// kept resident (0 unless SearchLimits::spill_dir is in use).
  std::size_t spilled_states = 0;
  /// Bytes written to spill files (frame payloads plus per-frame headers).
  std::size_t spill_bytes = 0;
  /// Successors whose canonicalization applied a non-identity wildcard
  /// identity renaming (rosa/canon.h) — each one is a state the unreduced
  /// search would have treated as distinct from its orbit representative.
  std::size_t symmetry_pruned = 0;
  /// Unconsumed messages deferred at frontier pops because the chosen
  /// ample set (rosa/independence.h) provably commutes past them.
  std::size_t por_pruned = 0;
  std::size_t escalations = 0;      // budget-doubled retries after ResourceLimit
  /// Always 0. Fused multi-goal search, which filled this with the whole
  /// explorations a world group saved, is retired; the field stays because
  /// the benchmark of record (perfbench/workloads.cpp) still reads it.
  std::size_t fused_searches_saved = 0;
  /// States explored by the decisive (final) attempt. Equal to `states`
  /// except under escalation, where `states` accumulates work across every
  /// retry while this keeps the count of the attempt whose verdict the
  /// result carries. The verdict cache's reuse rules reason over this:
  /// "would a smaller budget have reached the same verdict" is a question
  /// about one attempt, not about the sum of all retries (rosa/cache.cpp).
  std::size_t decisive_states = 0;
  double seconds = 0.0;             // wall time

  /// Average arena bytes per explored state (0 when nothing was explored) —
  /// the memory-compactness figure bench_rosa_scaling reports.
  double bytes_per_state() const {
    return states ? static_cast<double>(peak_bytes) /
                        static_cast<double>(states)
                  : 0.0;
  }
  /// Verdict-cache counters (rosa/cache.h). For a memoized query exactly one
  /// of cache_hits / cache_misses is 1 (uncacheable queries leave both 0);
  /// cache_joins marks a worker that blocked on another worker already
  /// computing the same fingerprint. In a parallel batch, *which* duplicate
  /// cell records the miss is scheduling-dependent, but the aggregate over
  /// the batch is deterministic: one miss per distinct fingerprint.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_joins = 0;

  /// Accumulate another query's counters (peak_frontier takes the max).
  void merge(const SearchStats& other);

  std::string to_string() const;
};

struct SearchResult {
  Verdict verdict = Verdict::Unreachable;
  /// All work counters live here — single source of truth (the old
  /// states_explored/transitions/seconds members duplicated stats.*).
  SearchStats stats;
  /// When Reachable: the instantiated syscall sequence that compromises the
  /// system (the paper's "solution"). Machine-readable Actions; replayable
  /// against the SimOS kernel (tests/witness_replay_test.cpp).
  std::vector<Action> witness;

  std::size_t states_explored() const { return stats.states; }
  std::size_t transitions() const { return stats.transitions; }
  double seconds() const { return stats.seconds; }

  std::string to_string() const;
};

/// Run the bounded search: one breadth-first exploration of `query`.
SearchResult search(const Query& query, const SearchLimits& limits = {});

/// search() with adaptive budget escalation: on ResourceLimit, retry with
/// geometrically grown limits per `policy` until a definite verdict, the
/// round cap, or the batch deadline/cancel flag. The returned result is the
/// decisive attempt's, except stats, which accumulate work across every
/// attempt and record the retry count in stats.escalations.
SearchResult search_escalating(const Query& query, const SearchLimits& limits,
                               const EscalationPolicy& policy);

/// Run a batch of independent queries, one pool task per query across
/// `n_threads` workers (0 = hardware_concurrency). results[i] always
/// corresponds to queries[i] regardless of completion order, and each
/// individual search is single-threaded, so every result is bit-identical
/// to a serial run. Exceptions from any query propagate to the caller.
///
/// `escalation` applies search_escalating() per query. When limits carries a
/// deadline, the first worker to observe it expiring cancels the rest
/// through the pool's cancel token; not-yet-started queries return stub
/// ResourceLimit results (0 states), so the batch always completes and
/// results stay position-complete.
///
/// `cache` (optional) memoizes whole-query results by content fingerprint:
/// each distinct fingerprint is searched once and its result fanned out to
/// every duplicate. The cache's in-flight slot handshake is the batch's only
/// deduplication: a worker that picks up a fingerprint another worker is
/// still computing blocks and adopts its result. Cached and uncached batches
/// are bit-identical in verdicts, witnesses, and work counters because
/// identical fingerprints imply identical deterministic searches
/// (rosa/cache.h spells out the reuse rules).
std::vector<SearchResult> run_queries(std::span<const Query> queries,
                                      const SearchLimits& limits = {},
                                      unsigned n_threads = 0,
                                      const EscalationPolicy& escalation = {},
                                      QueryCache* cache = nullptr);

}  // namespace pa::rosa
