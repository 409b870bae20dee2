#include "rosa/search.h"

#include "rosa/arena.h"
#include "rosa/cache.h"
#include "rosa/canon.h"
#include "rosa/independence.h"
#include "rosa/rules.h"
#include "rosa/spill.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>

#include "rosa/fingerprint.h"

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
  fused_group_size = std::max(fused_group_size, other.fused_group_size);
  fused_searches_saved += other.fused_searches_saved;
  fused_world_states += other.fused_world_states;
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
                  " fused-group=", fused_group_size,
                  " fused-saved=", fused_searches_saved,
                  " fused-world-states=", fused_world_states,
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

/// The node-arena footprint of one group member as a pure function of that
/// member's own commit sequence: the chunks an Arena<SearchNode> holding
/// only the member's nodes would reserve (16, then doubling up to the 128
/// cap) plus each node's extra heap bytes. skeleton_bytes + bytes() is thus
/// the member's footprint whatever else the group explored, and with it
/// every max_bytes verdict and peak_bytes figure.
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

/// Visit the set bits of `bits` as member indices, ascending.
template <typename Fn>
void for_members(std::uint64_t bits, Fn&& fn) {
  while (bits) {
    const int m = std::countr_zero(bits);
    bits &= bits - 1;
    fn(static_cast<std::size_t>(m));
  }
}

}  // namespace

SearchResult search(const Query& query, const SearchLimits& limits) {
  return std::move(
      detail::search_fused(std::span<const Query>(&query, 1), limits)[0]);
}

SearchResult search_escalating(const Query& query, const SearchLimits& limits,
                               const EscalationPolicy& policy) {
  return std::move(detail::search_fused_escalating(
      std::span<const Query>(&query, 1), limits, policy)[0]);
}

namespace detail {

std::vector<SearchResult> search_fused(std::span<const Query> group,
                                       const SearchLimits& limits) {
  PA_CHECK(!group.empty(), "search_fused needs at least one query");
  PA_CHECK(group.size() <= 64, "fused groups are capped at 64 members");
  PA_CHECK(group.size() == 1 || !limits.spill_enabled(),
           "only a one-member group can spill its frontier");
  for (const Query& q : group) {
    PA_FAULTPOINT("rosa.search");
    PA_CHECK(q.messages.size() <= 64,
             "ROSA tracks at most 64 one-shot messages");
    PA_CHECK(static_cast<bool>(q.goal), "query has no goal predicate");
    PA_CHECK(q.messages.size() == group[0].messages.size() &&
                 q.attacker == group[0].attacker,
             "fused group members must share one world");
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  const std::size_t n_members = group.size();
  const Query& world_q = group[0];
  std::vector<SearchResult> results(n_members);

  const std::uint64_t full_msg_mask =
      world_q.messages.empty()
          ? 0
          : (world_q.messages.size() == 64
                 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << world_q.messages.size()) - 1);

  // Per-member replay: the exploration walks the union graph once, and
  // each member's own run is re-enacted on the side — membership is
  // state-intrinsic (consumed ⊆ mask survives canonicalization and is equal
  // across equal states), so every counter a one-member run would have
  // produced is derivable from the union walk.
  struct Member {
    std::uint64_t mask = 0;  // normalized msg_mask
    SearchStats stats;
    std::size_t frontier = 0;  // virtual frontier population
    ArenaSim sim;
  };
  std::vector<Member> members(n_members);
  for (std::size_t m = 0; m < n_members; ++m)
    members[m].mask = group[m].msg_mask & full_msg_mask;

  std::uint64_t live = n_members == 64 ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << n_members) - 1;
  std::uint64_t live_fire = 0;
  auto refresh_fire = [&] {
    live_fire = 0;
    for_members(live, [&](std::size_t m) { live_fire |= members[m].mask; });
  };
  refresh_fire();

  // Member m contains a state iff every consumed message is in m's mask —
  // masked-out messages never fire, so consuming one puts the state outside
  // m's own graph forever.
  auto members_of = [&](std::uint64_t consumed) {
    std::uint64_t ms = 0;
    for (std::size_t m = 0; m < n_members; ++m)
      if (!(consumed & ~members[m].mask)) ms |= std::uint64_t{1} << m;
    return ms;
  };

  // Chunked arena: node addresses are stable across appends (no whole-array
  // reallocation). The byte footprint SearchLimits::max_bytes bounds and
  // SearchStats::peak_bytes reports is each member's ArenaSim.
  using Node = SearchNode;
  Arena<Node> nodes;
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

  State init = world_q.initial;
  init.normalize();
  init.set_msgs_remaining(full_msg_mask);
  const std::shared_ptr<const WorldSkeleton> world = init.world();

  // Byte accounting: the shared world skeleton is charged once per search
  // (every node references the same instance), each node's own heap
  // allocations are added to each owning member's ArenaSim as it is
  // committed. The accounting is capacity-based and allocator-independent,
  // so max_bytes exhaustion is deterministic.
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

  // Spilling (one-member groups only): once the byte budget first trips,
  // every node committed from then on — index first_evicted onwards — is
  // evicted, so spill_refs[i - first_evicted] locates node i's frame.
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
  // reference search. Grouping (run_queries) guarantees every member
  // computes this same plan: symmetry eligibility and the independence
  // table are part of the group key, and POR is refused outright under
  // proper masks.
  const ReductionPlan plan = make_reduction_plan(world_q, limits);
  // Node index -> the (non-identity) renaming its state underwent during
  // canonicalization, needed to translate witness actions back into the
  // original identity frame. Sparse: most canonicalizations are identities.
  std::unordered_map<std::size_t, Renaming> renames;

  auto decide = [&](std::size_t m, Verdict v, std::int64_t goal_node) {
    Member& mem = members[m];
    SearchResult& res = results[m];
    res.verdict = v;
    mem.stats.seconds = elapsed();
    mem.stats.decisive_states = mem.stats.states;
    if (store) {
      mem.stats.spilled_states = store->spilled_states();
      mem.stats.spill_bytes = store->spill_bytes();
    }
    if (goal_node >= 0) {
      std::vector<std::size_t> path;
      for (std::int64_t nd = goal_node; nd > 0;
           nd = nodes[static_cast<std::size_t>(nd)].parent)
        path.push_back(static_cast<std::size_t>(nd));
      std::reverse(path.begin(), path.end());
      // Stored actions live in the canonical frame of their parent, i.e.
      // the original frame composed with rho = sigma_{i-1} ∘ … ∘ sigma_1.
      // Undo rho per step, then fold in this step's own renaming. Every
      // node on the path is m-intrinsic (ancestors consume subsets).
      Renaming rho;
      for (std::size_t nd : path) {
        Action step = nodes[nd].action;
        unrename_action(step, rho);
        res.witness.push_back(std::move(step));
        const auto it = renames.find(nd);
        if (it != renames.end()) compose_renaming(rho, it->second);
      }
    }
    res.stats = mem.stats;
    live &= ~(std::uint64_t{1} << m);
    refresh_fire();
  };

  {
    const std::uint64_t init_key = state_key(init);
    Node& root = nodes.push_back(Node{std::move(init), -1, Action{}, -1});
    const std::size_t heap = root.state.heap_bytes();
    seen.emplace(init_key, 0);
    frontier.push_back(0);
    for (std::size_t m = 0; m < n_members; ++m) {
      Member& mem = members[m];
      mem.stats.state_bytes = sizeof(State) + heap;
      mem.sim.push(heap);
      mem.stats.states = 1;
      mem.frontier = 1;
      mem.stats.peak_frontier = 1;
      mem.stats.peak_bytes = skeleton_bytes + mem.sim.bytes();
      if (group[m].goal(root.state)) decide(m, Verdict::Reachable, 0);
    }
  }

  // Hoisted out of the pop loop: the checker never changes mid-search, and
  // the successor scratch vectors keep their capacity across every pop.
  const AccessChecker& ck =
      world_q.checker ? *world_q.checker : linux_checker();
  std::vector<Transition> scratch;
  std::vector<ExpandedTransition> expanded;

  while (live && !frontier.empty()) {
    // The wall-clock budget, the batch-wide deadline, and the cooperative
    // cancel flag are all enforced here, once per frontier pop: a
    // per-message-loop check alone is blind to searches whose per-state
    // fanout is tiny but whose frontier is enormous.
    if ((limits.max_seconds > 0 && elapsed() > limits.max_seconds) ||
        limits.expired()) {
      for_members(live,
                  [&](std::size_t m) { decide(m, Verdict::ResourceLimit, -1); });
      break;
    }

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
    const std::uint64_t cur_msgs = cur_state.msgs_remaining();
    const std::uint64_t consumed_cur = full_msg_mask & ~cur_msgs;
    const std::uint64_t live_owners = members_of(consumed_cur) & live;
    // Replay each live owner's pop; a node every owner of which has since
    // decided expands to nothing any live member could own, so skip it.
    for_members(live_owners, [&](std::size_t m) { --members[m].frontier; });
    if (!live_owners) continue;

    // expand_state applies either the chosen ample set (POR) or every
    // unconsumed live-fireable message (including the CfiOrdered
    // program-order gate), buffering successors in a fixed order.
    const std::size_t pruned =
        expand_state(cur_state, world_q, ck,
                     plan.por() ? &plan.table : nullptr, full_msg_mask,
                     live_fire, expanded, scratch);
    if (pruned)
      // POR only engages when every mask is full (build() refuses proper
      // masks), so the ample choice — and this charge — is exactly what
      // every live member's own pop would have done.
      for_members(live_owners, [&](std::size_t m) {
        members[m].stats.por_pruned += pruned;
      });

    for (ExpandedTransition& et : expanded) {
      if (!live) break;
      Transition& tr = et.tr;
      const std::uint64_t consumed_next =
          consumed_cur | (std::uint64_t{1} << et.msg);
      const std::uint64_t tr_members = members_of(consumed_next);
      std::uint64_t live_tr = tr_members & live;
      // Orphan candidate: no live member's own run generates it, and none
      // ever will (equal states have equal membership, live only shrinks)
      // — drop it before any bookkeeping.
      if (!live_tr) continue;
      for_members(live_tr,
                  [&](std::size_t m) { ++members[m].stats.transitions; });
      Renaming sigma;
      if (plan.sym()) {
        sigma = canonicalize(tr.next, plan.symmetry);
        if (!sigma.identity())
          for_members(live_tr, [&](std::size_t m) {
            ++members[m].stats.symmetry_pruned;
          });
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
          // Member m's own map holds this key iff the chain holds an
          // m-intrinsic state (every m-state here was committed while m was
          // live — liveness only shrinks). When no duplicate stops the walk
          // early, the walk reaches the chain's end, so the accumulated
          // membership is complete exactly when the collision charge below
          // needs it.
          std::uint64_t chain_members = 0;
          for (;;) {
            // Equal states consume equally many messages, so an evicted
            // chain state is usually in the layer under construction and
            // still in the open chunk; the reader parses it in place there
            // rather than publishing a chunk per probe.
            const State& chain_state = state_of(idx, probed);
            chain_members |=
                members_of(full_msg_mask & ~chain_state.msgs_remaining());
            if (canonical_equal(chain_state, tr.next)) {
              duplicate = true;
              break;
            }
            if (nodes[idx].aux < 0) break;
            idx = static_cast<std::size_t>(nodes[idx].aux);
          }
          if (duplicate) {
            for_members(live_tr, [&](std::size_t m) {
              ++members[m].stats.dedup_hits;
            });
            continue;
          }
          for_members(live_tr & chain_members, [&](std::size_t m) {
            ++members[m].stats.hash_collisions;
          });
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
      const std::size_t extra = (evict ? 0 : heap) +
                                added.action.args.capacity() * sizeof(int);
      if (!sigma.identity()) renames.emplace(ni, std::move(sigma));

      for_members(live_tr, [&](std::size_t m) {
        Member& mem = members[m];
        mem.stats.state_bytes += sizeof(State) + heap;
        mem.sim.push(extra);
        ++mem.stats.states;
        mem.stats.peak_bytes =
            std::max(mem.stats.peak_bytes, skeleton_bytes + mem.sim.bytes());
        if (group[m].goal(committed)) {
          decide(m, Verdict::Reachable, static_cast<std::int64_t>(ni));
          return;
        }
        if (limits.max_states && mem.stats.states >= limits.max_states) {
          decide(m, Verdict::ResourceLimit, -1);
          return;
        }
        if (limits.max_bytes && !evict &&
            skeleton_bytes + mem.sim.bytes() > limits.max_bytes) {
          if (!store) {
            decide(m, Verdict::ResourceLimit, -1);
            return;
          }
          // With a spill directory the search keeps going: the budget now
          // governs residency, not completion.
          first_evicted = ni + 1;
        }
        ++mem.frontier;
        mem.stats.peak_frontier =
            std::max(mem.stats.peak_frontier, mem.frontier);
      });
      if (tr_members & live) frontier.push_back(ni);
    }

    // A live member whose virtual frontier drained has no m-states left
    // anywhere (children only come from m-parents): its own run exits its
    // pop loop right here.
    for_members(live_owners & live, [&](std::size_t m) {
      if (members[m].frontier == 0) decide(m, Verdict::Unreachable, -1);
    });
  }
  // Global drain with members still live only happens when every one of
  // them drained on the final pop (handled above); this is a no-op guard.
  for_members(live,
              [&](std::size_t m) { decide(m, Verdict::Unreachable, -1); });

  if (n_members > 1) results[0].stats.fused_world_states = nodes.size();
  return results;
}

std::vector<SearchResult> search_fused_escalating(
    std::span<const Query> group, const SearchLimits& limits,
    const EscalationPolicy& policy) {
  std::vector<SearchResult> results = search_fused(group, limits);
  if (!policy.enabled()) return results;

  std::vector<SearchStats> accumulated;
  accumulated.reserve(results.size());
  for (const SearchResult& r : results) accumulated.push_back(r.stats);

  SearchLimits grown = limits;
  std::vector<Query> pending_queries;
  std::vector<std::size_t> pending;  // indices into `group`
  for (unsigned round = 0; round < policy.rounds; ++round) {
    pending.clear();
    for (std::size_t i = 0; i < results.size(); ++i)
      if (results[i].verdict == Verdict::ResourceLimit) pending.push_back(i);
    // Decided members are final by monotonicity: a Reachable witness stays
    // a witness at any larger budget and Unreachable exhausted the graph —
    // only the starved members re-run.
    if (pending.empty()) break;
    if (grown.expired()) break;
    if (grown.max_states)
      grown.max_states = static_cast<std::size_t>(
          static_cast<double>(grown.max_states) * policy.factor);
    if (grown.max_seconds > 0) grown.max_seconds *= policy.factor;
    if (grown.max_bytes)
      grown.max_bytes = static_cast<std::size_t>(
          static_cast<double>(grown.max_bytes) * policy.factor);
    pending_queries.clear();
    for (std::size_t i : pending) pending_queries.push_back(group[i]);
    std::vector<SearchResult> round_results =
        search_fused(pending_queries, grown);
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const std::size_t i = pending[k];
      results[i] = std::move(round_results[k]);
      SearchStats& acc = accumulated[i];
      const SearchStats& st = results[i].stats;
      acc.escalations += 1;
      acc.states += st.states;
      acc.transitions += st.transitions;
      acc.dedup_hits += st.dedup_hits;
      acc.hash_collisions += st.hash_collisions;
      acc.peak_frontier = std::max(acc.peak_frontier, st.peak_frontier);
      acc.peak_bytes = std::max(acc.peak_bytes, st.peak_bytes);
      acc.state_bytes += st.state_bytes;
      acc.spilled_states += st.spilled_states;
      acc.spill_bytes += st.spill_bytes;
      acc.symmetry_pruned += st.symmetry_pruned;
      acc.por_pruned += st.por_pruned;
      acc.seconds += st.seconds;
      // The per-round fused observability fields ride each round's rank-0
      // member, so the straight sums/maxes keep matrix-wide aggregation
      // consistent.
      acc.fused_world_states += st.fused_world_states;
      acc.fused_group_size = std::max(acc.fused_group_size,
                                      st.fused_group_size);
    }
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    accumulated[i].decisive_states = results[i].stats.decisive_states;
    results[i].stats = accumulated[i];
  }
  return results;
}

}  // namespace detail

namespace {

/// Stub for a query the batch deadline cancelled before it started: the
/// paper's hourglass verdict with zero work recorded.
SearchResult cancelled_result() {
  SearchResult r;
  r.verdict = Verdict::ResourceLimit;
  return r;
}

/// Field-for-field equality of two queries' independence tables — the
/// grouping guard that keeps one fused exploration's ample choices valid
/// for every member.
bool tables_equal(const IndependenceTable& a, const IndependenceTable& b) {
  if (a.enabled() != b.enabled()) return false;
  if (!a.enabled()) return true;
  if (a.message_count() != b.message_count() ||
      a.visible_mask() != b.visible_mask() || a.dead_mask() != b.dead_mask())
    return false;
  for (std::size_t i = 0; i < a.message_count(); ++i)
    if (a.dep_mask(i) != b.dep_mask(i)) return false;
  return true;
}

/// Execute one fused task (≥ 2 queries sharing a world signature and
/// reduction plan): dedupe members by full fingerprint, consult the cache
/// per representative, run the remaining representatives through ONE fused
/// exploration, then store/adopt so every per-query result — verdict,
/// witness, stats, cache entry, and cache counters — is what the unfused
/// path would have produced.
void run_fused_task(std::span<const Query> queries,
                    const std::vector<std::size_t>& task,
                    const SearchLimits& limits,
                    const EscalationPolicy& escalation, QueryCache* cache,
                    std::vector<SearchResult>& results) {
  const std::size_t n = task.size();
  std::vector<Fingerprint> fps(n);
  std::vector<std::size_t> adopt(n);
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> rep_of;
  for (std::size_t i = 0; i < n; ++i) {
    // Grouping only fuses fingerprintable queries, so the optionals hold.
    fps[i] = *fingerprint_query(queries[task[i]], limits);
    const auto [it, inserted] = rep_of.try_emplace(fps[i], i);
    adopt[i] = it->second;
  }

  std::vector<std::size_t> to_run;
  for (std::size_t i = 0; i < n; ++i) {
    if (adopt[i] != i) continue;
    if (cache) {
      if (auto hit = cache->lookup(fps[i], limits, escalation)) {
        results[task[i]] = std::move(*hit);
        continue;
      }
    }
    to_run.push_back(i);
  }

  if (!to_run.empty()) {
    std::vector<Query> sub;
    sub.reserve(to_run.size());
    for (std::size_t i : to_run) sub.push_back(queries[task[i]]);
    std::vector<SearchResult> computed =
        detail::search_fused_escalating(sub, limits, escalation);
    if (to_run.size() > 1) {
      for (SearchResult& r : computed)
        r.stats.fused_group_size = to_run.size();
      computed[0].stats.fused_searches_saved = to_run.size() - 1;
    }
    for (std::size_t k = 0; k < to_run.size(); ++k) {
      const std::size_t i = to_run[k];
      if (cache) {
        cache->store(fps[i], computed[k], limits, escalation);
        computed[k].stats.cache_misses = 1;
      }
      results[task[i]] = std::move(computed[k]);
    }
  }

  // Duplicates adopt their representative: through the cache when the entry
  // landed (replicating an unfused warm hit, global counters included),
  // else by copying the representative's deterministic result — exactly
  // what re-running the identical query would have produced, minus the
  // fused-run observability fields, which describe the shared exploration
  // and are not the duplicate's own.
  for (std::size_t i = 0; i < n; ++i) {
    if (adopt[i] == i) continue;
    if (cache) {
      if (auto hit = cache->lookup(fps[i], limits, escalation)) {
        results[task[i]] = std::move(*hit);
        continue;
      }
    }
    SearchResult copy = results[task[adopt[i]]];
    copy.stats.fused_group_size = 0;
    copy.stats.fused_searches_saved = 0;
    copy.stats.fused_world_states = 0;
    results[task[i]] = std::move(copy);
  }
}

}  // namespace

std::vector<SearchResult> run_queries(std::span<const Query> queries,
                                      const SearchLimits& limits,
                                      unsigned n_threads,
                                      const EscalationPolicy& escalation,
                                      QueryCache* cache) {
  std::vector<SearchResult> results(queries.size());

  // Partition the batch into execution tasks. Queries sharing a world
  // signature AND an identical reduction plan fuse into one multi-goal
  // exploration (capped at 64 members — the membership-bitmask width);
  // everything else — spill-enabled batches or unfingerprintable queries —
  // stays a singleton task.
  std::vector<std::vector<std::size_t>> tasks;
  {
    struct Group {
      bool sym = false;
      IndependenceTable table;
      std::size_t task = 0;  // index into `tasks`
    };
    std::vector<Group> groups;
    std::unordered_map<Fingerprint, std::vector<std::size_t>, FingerprintHash>
        by_sig;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      std::optional<Fingerprint> sig;
      if (!limits.spill_enabled() && fingerprint_query(q, limits))
        sig = world_signature(q, limits);
      if (!sig) {
        tasks.push_back({i});
        continue;
      }
      const ReductionPlan plan = make_reduction_plan(q, limits);
      std::vector<std::size_t>& cands = by_sig[*sig];
      std::size_t gi = groups.size();
      for (std::size_t cand : cands) {
        // The signature already proves a shared world; the exact plan
        // comparison (not a hash) is what licenses sharing one run's
        // symmetry plans and ample choices across the whole group.
        if (groups[cand].sym == plan.sym() &&
            tables_equal(groups[cand].table, plan.table) &&
            tasks[groups[cand].task].size() < 64) {
          gi = cand;
          break;
        }
      }
      if (gi == groups.size()) {
        cands.push_back(gi);
        tasks.emplace_back();
        groups.push_back(Group{plan.sym(), plan.table, tasks.size() - 1});
      }
      tasks[groups[gi].task].push_back(i);
    }
  }

  // Memoized or direct execution of one query; rosa/cache.h guarantees the
  // cached path returns what the direct path would have computed.
  auto run_one = [&escalation, cache](const Query& q, const SearchLimits& lim) {
    return cache ? cache->run_cached(q, lim, escalation)
                 : search_escalating(q, lim, escalation);
  };
  auto run_task = [&](const std::vector<std::size_t>& task,
                      const SearchLimits& lim) {
    if (task.size() == 1) {
      results[task[0]] = run_one(queries[task[0]], lim);
      return;
    }
    run_fused_task(queries, task, lim, escalation, cache, results);
  };

  if (n_threads == 0) n_threads = support::ThreadPool::hardware_threads();
  if (n_threads <= 1 || tasks.size() <= 1) {
    for (const std::vector<std::size_t>& task : tasks) {
      if (limits.expired()) {
        for (std::size_t i : task) results[i] = cancelled_result();
        continue;
      }
      run_task(task, limits);
    }
    return results;
  }
  support::ThreadPool pool(
      static_cast<unsigned>(std::min<std::size_t>(n_threads, tasks.size())));
  // Thread the pool's cancel token through each search so the first worker
  // to observe the deadline stops the whole matrix (unless the caller wired
  // in a flag of their own, which then governs).
  SearchLimits task_limits = limits;
  if (!task_limits.cancel) task_limits.cancel = pool.cancel_token();
  for (const std::vector<std::size_t>& task : tasks)
    pool.submit([&task_limits, &results, &pool, &run_task, &task] {
      if (task_limits.expired()) {
        for (std::size_t i : task) results[i] = cancelled_result();
        return;
      }
      run_task(task, task_limits);
      if (task_limits.has_deadline() &&
          std::chrono::steady_clock::now() >= task_limits.deadline)
        pool.request_cancel();
    });
  pool.wait_idle();
  return results;
}

}  // namespace pa::rosa
