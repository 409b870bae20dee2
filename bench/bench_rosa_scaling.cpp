// Ablation benchmarks for ROSA's design choices (§VIII's claim that search
// time is driven by state-space size), built on google-benchmark.
//
// The rich-but-impossible workhorse is WriteDevMem under CAP_SETGID: the
// attacker can permute gids through every group object (large reachable
// space) but /dev/mem's group has no write bit, so the goal is unreachable
// and the search must exhaust everything. The possible counterpart is
// ReadDevMem under CAP_SETUID, which stops at the first witness.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "attacks/scenario.h"
#include "bench_util.h"
#include "rosa/query.h"

using namespace pa;
using caps::Capability;

namespace {

rosa::Query make_query(attacks::AttackId attack, caps::CapSet permitted,
                       int extra_ids, int n_syscalls = 7) {
  attacks::ScenarioInput in;
  in.permitted = permitted;
  in.creds = caps::Credentials::of_user(1000, 1000);
  std::vector<std::string> all = {"setresgid", "open",   "chmod", "chown",
                                  "setgid",    "setuid", "unlink"};
  all.resize(static_cast<std::size_t>(n_syscalls));
  in.syscalls = all;
  for (int i = 0; i < extra_ids; ++i) {
    in.extra_users.push_back(2000 + i);
    in.extra_groups.push_back(3000 + i);
  }
  return attacks::build_attack_query(attack, in);
}

rosa::Query impossible_query(int extra_ids, int n_syscalls = 7) {
  return make_query(attacks::AttackId::WriteDevMem,
                    {Capability::Setgid}, extra_ids, n_syscalls);
}

void report(benchmark::State& state, const rosa::SearchResult& r) {
  state.counters["states"] = static_cast<double>(r.states_explored());
  state.counters["transitions"] = static_cast<double>(r.transitions());
  state.counters["bytes_per_state"] = r.stats.bytes_per_state();
}

}  // namespace

// Search cost vs. the size of the wildcard id pools — the mechanism that
// makes the refactored programs' searches slower (Figs. 10-11).
static void BM_PoolScaling(benchmark::State& state) {
  rosa::Query q = impossible_query(static_cast<int>(state.range(0)));
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_PoolScaling)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Search cost vs. the number of one-shot messages (bounded-model depth).
static void BM_MessageCountScaling(benchmark::State& state) {
  rosa::Query q = impossible_query(2, static_cast<int>(state.range(0)));
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_MessageCountScaling)->Arg(1)->Arg(3)->Arg(5)->Arg(7);

// The paper's §VIII observation: reachable goals verify fast (first-witness
// exit), impossible ones pay for the whole space.
static void BM_PossibleAttack(benchmark::State& state) {
  rosa::Query q = make_query(attacks::AttackId::ReadDevMem,
                             {Capability::Setuid}, 2);
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.verdict);
  }
  report(state, last);
  if (last.verdict != rosa::Verdict::Reachable)
    state.SkipWithError("expected reachable");
}
BENCHMARK(BM_PossibleAttack);

static void BM_ImpossibleAttack(benchmark::State& state) {
  rosa::Query q = impossible_query(2);
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.verdict);
  }
  report(state, last);
  if (last.verdict != rosa::Verdict::Unreachable)
    state.SkipWithError("expected unreachable");
}
BENCHMARK(BM_ImpossibleAttack);

// DESIGN.md decision 2: canonical-state deduplication. Off, commuting
// message orders multiply instead of collapsing.
static void BM_DedupOn(benchmark::State& state) {
  rosa::Query q = impossible_query(1);
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_DedupOn);

// DESIGN.md decision 13: symmetry + partial-order reduction. On (the
// default), the pool's free gids collapse to one orbit representative and
// the impossible space stops growing with the pool size; off, every
// wildcard landing multiplies the space.
static void BM_ReductionOn(benchmark::State& state) {
  rosa::Query q = impossible_query(static_cast<int>(state.range(0)));
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
  state.counters["symmetry_pruned"] =
      static_cast<double>(last.stats.symmetry_pruned);
}
BENCHMARK(BM_ReductionOn)->Arg(4)->Arg(6)->Arg(8);

static void BM_ReductionOff(benchmark::State& state) {
  rosa::Query q = impossible_query(static_cast<int>(state.range(0)));
  rosa::SearchLimits limits;
  limits.reduction = false;
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q, limits);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_ReductionOff)->Arg(4)->Arg(6)->Arg(8);

static void BM_DedupOff(benchmark::State& state) {
  rosa::Query q = impossible_query(1);
  rosa::SearchLimits limits;
  limits.no_dedup = true;
  limits.max_states = 5'000'000;  // safety net: the space explodes
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q, limits);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_DedupOff);

namespace {

/// The headline throughput/compactness measurement behind BENCH_rosa.json:
/// best-of-3 wall time for the impossible-attack space at two pool sizes,
/// reported as states/sec and arena bytes/state. These two workloads are
/// the fixed reference configs that perf changes are judged against.
void write_perf_json(const std::string& path) {
  std::vector<std::pair<std::string, double>> metrics;
  for (int extra : {6, 8}) {
    const rosa::Query q = impossible_query(extra);
    rosa::SearchResult last;
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      last = rosa::search(q);
      best = std::min(
          best, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
    }
    const std::string prefix = "pool_extra" + std::to_string(extra) + "_";
    metrics.emplace_back(prefix + "states",
                         static_cast<double>(last.stats.states));
    metrics.emplace_back(prefix + "seconds", best);
    metrics.emplace_back(prefix + "states_per_sec",
                         static_cast<double>(last.stats.states) / best);
    metrics.emplace_back(prefix + "bytes_per_state",
                         last.stats.bytes_per_state());
    // Representation-only footprint (sizeof(State) + per-state heap),
    // excluding search bookkeeping — directly comparable to the seed
    // build's ~760 B/state std::set-based representation.
    metrics.emplace_back(
        prefix + "state_bytes_per_state",
        last.stats.states ? static_cast<double>(last.stats.state_bytes) /
                                static_cast<double>(last.stats.states)
                          : 0.0);
    // The --no-reduction ablation: same space without symmetry/POR. The
    // ratio is the headline win of DESIGN.md decision 13 and is asserted
    // (>= 5x) by the CI perf smoke.
    rosa::SearchLimits unreduced;
    unreduced.reduction = false;
    rosa::SearchResult raw;
    double raw_best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      raw = rosa::search(q, unreduced);
      raw_best = std::min(
          raw_best, std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    }
    metrics.emplace_back(prefix + "unreduced_states",
                         static_cast<double>(raw.stats.states));
    metrics.emplace_back(prefix + "unreduced_states_per_sec",
                         static_cast<double>(raw.stats.states) / raw_best);
    metrics.emplace_back(
        prefix + "reduction_state_ratio",
        last.stats.states ? static_cast<double>(raw.stats.states) /
                                static_cast<double>(last.stats.states)
                          : 0.0);
  }
  if (!pa::bench::write_json_metrics(path, metrics)) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = pa::bench::take_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_perf_json(json_path);
  return 0;
}
