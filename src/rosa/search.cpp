#include "rosa/search.h"

#include "rosa/arena.h"
#include "rosa/cache.h"
#include "rosa/canon.h"
#include "rosa/independence.h"
#include "rosa/rules.h"
#include "rosa/spill.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>

#include "support/error.h"
#include "support/faultpoint.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace pa::rosa {

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Reachable: return "REACHABLE";
    case Verdict::Unreachable: return "UNREACHABLE";
    case Verdict::ResourceLimit: return "RESOURCE-LIMIT";
  }
  return "?";
}

std::optional<Verdict> parse_verdict(std::string_view name) {
  if (name == "REACHABLE") return Verdict::Reachable;
  if (name == "UNREACHABLE") return Verdict::Unreachable;
  if (name == "RESOURCE-LIMIT") return Verdict::ResourceLimit;
  return std::nullopt;
}

void SearchStats::merge(const SearchStats& other) {
  states += other.states;
  transitions += other.transitions;
  dedup_hits += other.dedup_hits;
  hash_collisions += other.hash_collisions;
  peak_frontier = std::max(peak_frontier, other.peak_frontier);
  peak_bytes = std::max(peak_bytes, other.peak_bytes);
  state_bytes += other.state_bytes;
  spilled_states += other.spilled_states;
  spill_bytes += other.spill_bytes;
  symmetry_pruned += other.symmetry_pruned;
  por_pruned += other.por_pruned;
  escalations += other.escalations;
  decisive_states += other.decisive_states;
  seconds += other.seconds;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_joins += other.cache_joins;
}

std::string SearchStats::to_string() const {
  return str::cat("states=", states, " transitions=", transitions,
                  " dedup-hits=", dedup_hits,
                  " hash-collisions=", hash_collisions,
                  " peak-frontier=", peak_frontier,
                  " peak-bytes=", peak_bytes,
                  " spilled-states=", spilled_states,
                  " spill-bytes=", spill_bytes,
                  " symmetry-pruned=", symmetry_pruned,
                  " por-pruned=", por_pruned,
                  " escalations=", escalations,
                  " cache-hits=", cache_hits,
                  " cache-misses=", cache_misses, " cache-joins=", cache_joins,
                  " time=", str::fixed(seconds, 3), "s");
}

std::string SearchResult::to_string() const {
  std::string out =
      str::cat(verdict_name(verdict), " states=", stats.states,
               " transitions=", stats.transitions, " time=",
               str::fixed(stats.seconds, 3), "s");
  if (!witness.empty()) {
    out += "\n  solution:";
    for (const Action& step : witness) out += "\n    " + step.to_string();
  }
  return out;
}

namespace {

/// One explored state. `aux` is the intrusive hash chain: the next node
/// with the same dedup key (-1 = end of chain); the seen-map stores one
/// head index per key, and genuine collisions extend the chain instead of
/// allocating per-key buckets. An evicted node (spilling) keeps its parent,
/// action and chain link; its state lives in the spill store.
struct SearchNode {
  State state;
  std::int64_t parent = -1;
  Action action;
  std::int64_t aux = -1;
};

/// The node arena's byte footprint as a pure function of the commit
/// sequence: the chunks Arena<SearchNode> reserves (16, then doubling up to
/// the 128 cap) plus each node's extra heap bytes. Capacity-based, not
/// allocator-dependent, so every max_bytes verdict and peak_bytes figure is
/// deterministic.
struct ArenaSim {
  std::size_t size = 0;
  std::size_t reserved = 0;
  std::size_t extra = 0;
  std::size_t next_cap = 16;

  void push(std::size_t extra_bytes) {
    if (size == reserved) {
      reserved += next_cap;
      next_cap = std::min<std::size_t>(next_cap * 2, 128);
    }
    ++size;
    extra += extra_bytes;
  }
  std::size_t bytes() const { return reserved * sizeof(SearchNode) + extra; }
};

}  // namespace

SearchResult search(const Query& query, const SearchLimits& limits) {
  PA_FAULTPOINT("rosa.search");
  PA_CHECK(query.messages.size() <= 64,
           "ROSA tracks at most 64 one-shot messages");
  PA_CHECK(static_cast<bool>(query.goal), "query has no goal predicate");

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  SearchResult result;
  SearchStats& stats = result.stats;

  const std::uint64_t full_msg_mask =
      query.messages.empty()
          ? 0
          : (query.messages.size() == 64
                 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << query.messages.size()) - 1);
  // Masked-out messages never fire, but their msgs_remaining bits stay set
  // (Query::msg_mask), so every state keeps the full-list representation.
  const std::uint64_t fire_mask = query.msg_mask & full_msg_mask;

  // Chunked arena: node addresses are stable across appends (no whole-array
  // reallocation). `footprint` is the byte figure SearchLimits::max_bytes
  // bounds and SearchStats::peak_bytes reports.
  using Node = SearchNode;
  Arena<Node> nodes;
  ArenaSim footprint;
  // Dedup key -> head of the Node chain with that key. Keying on 8-byte
  // digests instead of full canonical() strings removes one string build +
  // hash per generated successor; exactness is restored by canonical_equal()
  // along the (almost always length-1) chain.
  std::unordered_map<std::uint64_t, std::size_t> seen;
  std::deque<std::size_t> frontier;
  // Size the seen-set for the typical attack query up front so early growth
  // never rehashes; it still grows for the huge exhaustive searches.
  const std::size_t reserve_hint =
      limits.max_states ? std::min<std::size_t>(limits.max_states, 4096)
                        : 4096;
  seen.reserve(reserve_hint);

  auto state_key = [&limits](const State& st) {
    if (limits.check_hashes)
      PA_CHECK(st.hash() == st.full_hash(),
               "incremental state digest diverged from full rehash");
    return limits.hash_override ? limits.hash_override(st) : st.hash();
  };

  State init = query.initial;
  init.normalize();
  init.set_msgs_remaining(full_msg_mask);
  const std::shared_ptr<const WorldSkeleton> world = init.world();

  // Byte accounting: the shared world skeleton is charged once per search
  // (every node references the same instance), each node's own heap
  // allocations are added to `footprint` as it is committed.
  std::size_t skeleton_bytes = 0;
  if (world) {
    skeleton_bytes = sizeof(WorldSkeleton) +
                     world->names.capacity() *
                         sizeof(std::pair<int, std::string>) +
                     (world->users.capacity() + world->groups.capacity()) *
                         sizeof(int);
    for (const auto& [id, name] : world->names)
      skeleton_bytes += name.capacity() > 15 ? name.capacity() + 1 : 0;
  }

  // Spilling: once the byte budget first trips, every node committed from
  // then on — index first_evicted onwards — is evicted, so
  // spill_refs[i - first_evicted] locates node i's frame.
  std::optional<SpillStore> store;
  std::optional<SpillReader> reader;
  if (limits.spill_enabled()) {
    store.emplace(limits.spill_dir);
    reader.emplace(*store);
  }
  std::size_t first_evicted = std::numeric_limits<std::size_t>::max();
  std::vector<SpillStore::Ref> spill_refs;
  State popped;  // read-back buffers for evicted states
  State probed;
  auto state_of = [&](std::size_t i, State& buf) -> const State& {
    if (i < first_evicted) return nodes[i].state;
    buf = reader->load(spill_refs[i - first_evicted], world);
    return buf;
  };

  // Symmetry + partial-order reduction plan (rosa/canon.h,
  // rosa/independence.h); empty when limits.reduction is off or the query
  // is ineligible, in which case the loop degenerates to the unreduced
  // reference search.
  const ReductionPlan plan = make_reduction_plan(query, limits);
  // Node index -> the (non-identity) renaming its state underwent during
  // canonicalization, needed to translate witness actions back into the
  // original identity frame. Sparse: most canonicalizations are identities.
  std::unordered_map<std::size_t, Renaming> renames;

  // Record the verdict and, for a goal node, rebuild the witness path.
  auto finish = [&](Verdict v, std::int64_t goal_node) {
    result.verdict = v;
    stats.seconds = elapsed();
    stats.decisive_states = stats.states;
    if (store) {
      stats.spilled_states = store->spilled_states();
      stats.spill_bytes = store->spill_bytes();
    }
    if (goal_node >= 0) {
      std::vector<std::size_t> path;
      for (std::int64_t nd = goal_node; nd > 0;
           nd = nodes[static_cast<std::size_t>(nd)].parent)
        path.push_back(static_cast<std::size_t>(nd));
      std::reverse(path.begin(), path.end());
      // Stored actions live in the canonical frame of their parent, i.e.
      // the original frame composed with rho = sigma_{i-1} ∘ … ∘ sigma_1.
      // Undo rho per step, then fold in this step's own renaming.
      Renaming rho;
      for (std::size_t nd : path) {
        Action step = nodes[nd].action;
        unrename_action(step, rho);
        result.witness.push_back(std::move(step));
        const auto it = renames.find(nd);
        if (it != renames.end()) compose_renaming(rho, it->second);
      }
    }
    return std::move(result);
  };

  {
    const std::uint64_t init_key = state_key(init);
    Node& root = nodes.push_back(Node{std::move(init), -1, Action{}, -1});
    const std::size_t heap = root.state.heap_bytes();
    seen.emplace(init_key, 0);
    frontier.push_back(0);
    stats.state_bytes = sizeof(State) + heap;
    footprint.push(heap);
    stats.states = 1;
    stats.peak_frontier = 1;
    stats.peak_bytes = skeleton_bytes + footprint.bytes();
    if (query.goal(root.state)) return finish(Verdict::Reachable, 0);
  }

  // Hoisted out of the pop loop: the checker never changes mid-search, and
  // the successor scratch vectors keep their capacity across every pop.
  const AccessChecker& ck = query.checker ? *query.checker : linux_checker();
  std::vector<Transition> scratch;
  std::vector<ExpandedTransition> expanded;

  while (!frontier.empty()) {
    // The wall-clock budget, the batch-wide deadline, and the cooperative
    // cancel flag are all enforced here, once per frontier pop: a
    // per-message-loop check alone is blind to searches whose per-state
    // fanout is tiny but whose frontier is enormous.
    if ((limits.max_seconds > 0 && elapsed() > limits.max_seconds) ||
        limits.expired())
      return finish(Verdict::ResourceLimit, -1);

    const std::size_t cur = frontier.front();
    frontier.pop_front();
    // A pop that reaches the open spill chunk publishes it first. In BFS
    // order that happens about once per layer, so the write buffer holds
    // about one layer of frames and each chunk file about one layer.
    if (cur >= first_evicted &&
        spill_refs[cur - first_evicted].chunk == store->chunks_written())
      store->flush();
    // Arena addresses are stable, so a resident popped state can be
    // referenced across successor appends without re-fetching by index.
    const State& cur_state = state_of(cur, popped);

    // expand_state applies either the chosen ample set (POR) or every
    // unconsumed fireable message (including the CfiOrdered program-order
    // gate), buffering successors in a fixed order.
    stats.por_pruned +=
        expand_state(cur_state, query, ck, plan.por() ? &plan.table : nullptr,
                     full_msg_mask, fire_mask, expanded, scratch);

    for (ExpandedTransition& et : expanded) {
      Transition& tr = et.tr;
      ++stats.transitions;
      Renaming sigma;
      if (plan.sym()) {
        sigma = canonicalize(tr.next, plan.symmetry);
        if (!sigma.identity()) ++stats.symmetry_pruned;
      }

      const std::size_t ni = nodes.size();
      if (!limits.no_dedup) {
        auto [it, inserted] = seen.try_emplace(state_key(tr.next), ni);
        if (!inserted) {
          // Key already present: walk the chain; exact match = duplicate,
          // otherwise it is a genuine 64-bit collision and the new state
          // joins the chain.
          std::size_t idx = it->second;
          bool duplicate = false;
          for (;;) {
            // Equal states consume equally many messages, so an evicted
            // chain state is usually in the layer under construction and
            // still in the open chunk; the reader parses it in place there
            // rather than publishing a chunk per probe.
            if (canonical_equal(state_of(idx, probed), tr.next)) {
              duplicate = true;
              break;
            }
            if (nodes[idx].aux < 0) break;
            idx = static_cast<std::size_t>(nodes[idx].aux);
          }
          if (duplicate) {
            ++stats.dedup_hits;
            continue;
          }
          ++stats.hash_collisions;
          nodes[idx].aux = static_cast<std::int64_t>(ni);
        }
      }
      // An evicted commit writes the canonical text to the store and keeps
      // only parent/action/chain link resident. The stored digest is the
      // state's real full hash — never a hash_override value; only identity
      // verification on read-back remains. state_bytes stays the logical
      // footprint either way, so bytes_per_state is undistorted by spilling.
      const bool evict = ni >= first_evicted;
      if (evict) spill_refs.push_back(store->append(tr.next, tr.next.hash()));
      Node& added = nodes.push_back(
          Node{evict ? State{} : std::move(tr.next),
               static_cast<std::int64_t>(cur), std::move(tr.action), -1});
      const State& committed = evict ? tr.next : added.state;
      const std::size_t heap = committed.heap_bytes();
      if (!sigma.identity()) renames.emplace(ni, std::move(sigma));

      stats.state_bytes += sizeof(State) + heap;
      footprint.push((evict ? 0 : heap) +
                     added.action.args.capacity() * sizeof(int));
      ++stats.states;
      stats.peak_bytes =
          std::max(stats.peak_bytes, skeleton_bytes + footprint.bytes());
      if (query.goal(committed))
        return finish(Verdict::Reachable, static_cast<std::int64_t>(ni));
      if (limits.max_states && stats.states >= limits.max_states)
        return finish(Verdict::ResourceLimit, -1);
      if (limits.max_bytes && !evict &&
          skeleton_bytes + footprint.bytes() > limits.max_bytes) {
        if (!store) return finish(Verdict::ResourceLimit, -1);
        // With a spill directory the search keeps going: the budget now
        // governs residency, not completion.
        first_evicted = ni + 1;
      }
      frontier.push_back(ni);
      stats.peak_frontier = std::max(stats.peak_frontier, frontier.size());
    }
  }
  return finish(Verdict::Unreachable, -1);
}

SearchResult search_escalating(const Query& query, const SearchLimits& limits,
                               const EscalationPolicy& policy) {
  SearchResult result = search(query, limits);
  if (!policy.enabled()) return result;

  SearchStats total = result.stats;
  SearchLimits grown = limits;
  // A definite verdict is final by monotonicity: a Reachable witness stays
  // a witness at any larger budget and Unreachable exhausted the graph.
  for (unsigned round = 0; round < policy.rounds &&
                           result.verdict == Verdict::ResourceLimit &&
                           !grown.expired();
       ++round) {
    if (grown.max_states)
      grown.max_states = static_cast<std::size_t>(
          static_cast<double>(grown.max_states) * policy.factor);
    if (grown.max_seconds > 0) grown.max_seconds *= policy.factor;
    if (grown.max_bytes)
      grown.max_bytes = static_cast<std::size_t>(
          static_cast<double>(grown.max_bytes) * policy.factor);
    result = search(query, grown);
    total.merge(result.stats);
    ++total.escalations;
  }
  total.decisive_states = result.stats.decisive_states;
  result.stats = total;
  return result;
}

std::vector<SearchResult> run_queries(std::span<const Query> queries,
                                      const SearchLimits& limits,
                                      unsigned n_threads,
                                      const EscalationPolicy& escalation,
                                      QueryCache* cache) {
  std::vector<SearchResult> results(queries.size());

  // Memoized or direct execution of one query; rosa/cache.h guarantees the
  // cached path returns what the direct path would have computed.
  auto run_one = [&](std::size_t i, const SearchLimits& lim) {
    if (lim.expired()) {
      // Cancelled by the batch deadline before it started: the paper's
      // hourglass verdict with zero work recorded.
      results[i].verdict = Verdict::ResourceLimit;
      return;
    }
    results[i] = cache ? cache->run_cached(queries[i], lim, escalation)
                       : search_escalating(queries[i], lim, escalation);
  };

  if (n_threads == 0) n_threads = support::ThreadPool::hardware_threads();
  if (n_threads <= 1 || queries.size() <= 1) {
    for (std::size_t i = 0; i < queries.size(); ++i) run_one(i, limits);
    return results;
  }
  support::ThreadPool pool(
      static_cast<unsigned>(std::min<std::size_t>(n_threads, queries.size())));
  // Thread the pool's cancel token through each search so the first worker
  // to observe the deadline stops the whole matrix (unless the caller wired
  // in a flag of their own, which then governs).
  SearchLimits task_limits = limits;
  if (!task_limits.cancel) task_limits.cancel = pool.cancel_token();
  for (std::size_t i = 0; i < queries.size(); ++i)
    pool.submit([&task_limits, &pool, &run_one, i] {
      run_one(i, task_limits);
      if (task_limits.has_deadline() &&
          std::chrono::steady_clock::now() >= task_limits.deadline)
        pool.request_cancel();
    });
  pool.wait_idle();
  return results;
}

}  // namespace pa::rosa
