// Content-addressed verdict cache for ROSA searches.
//
// The (epoch × attack) matrix is full of canonically identical queries —
// consecutive epochs that differ only in instruction counts pose the exact
// same reachability question — and repeat batch runs re-explore every state
// space from scratch. QueryCache memoizes whole-query SearchResults by
// content fingerprint (rosa/fingerprint.h) so each distinct fingerprint is
// searched once per batch and its result fanned out to every duplicate
// cell, with optional persistence across runs (--rosa-cache FILE).
//
// ## Correctness model
//
// A search is a deterministic function of its fingerprint plus its budget
// signature (max_states, max_seconds, max_bytes, escalation rounds/factor),
// except where wall-clock limits, batch deadlines, or cancellation
// intervene (the byte budget is capacity-accounted and thus deterministic).
// The reuse rules below never return a verdict the uncached path could not
// have produced:
//
//  1. Exact signature match → the stored result is reused verbatim and is
//     bit-identical to what the duplicate cell would have computed
//     (verdict, witness, and every work counter). This is the in-batch
//     case: all cells of one run share one signature.
//  2. Definite verdicts (Reachable/Unreachable) transfer to pure
//     states-bounded requests (no wall-clock or byte budget):
//     Reachable decided at G explored states is reusable iff the request's
//     largest escalated budget Bmax is unlimited or >= G; Unreachable
//     decided after exhausting U states is reusable iff Bmax is unlimited
//     or > U (the search declares ResourceLimit the instant the Nth state
//     is inserted, so exhausting exactly N states under budget N does NOT
//     yield Unreachable).
//  3. ResourceLimit entries are stored only when provably budget-exhausted
//     (states_explored reached the decisive attempt's max_states — a
//     deadline- or cancel-induced ResourceLimit never qualifies) and are
//     reusable only at equal-or-smaller budgets: 0 != Bmax <= stored
//     decisive budget. Exploring D states without a decision implies the
//     same at every budget <= D.
//
// Cross-budget reuse (rules 2–3) returns the stored work counters — the
// cost of the search that proved the verdict — not what a re-search at the
// new budget would have counted.
//
// ## Concurrency
//
// The fingerprint → entry map is sharded and mutex-striped; run_cached is
// safe to call from every worker of rosa::run_queries. In-flight
// deduplication: the first worker to miss on a fingerprint computes it
// while any concurrent duplicate blocks on the entry's slot and adopts the
// result (recorded in SearchStats::cache_joins), so two workers never race
// the same search.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rosa/fingerprint.h"
#include "rosa/search.h"

namespace pa::rosa {

class QueryCache {
 public:
  explicit QueryCache(unsigned shards = 16);
  ~QueryCache();

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Persistent-file I/O attempts per load_file/save_file call: transient
  /// failures (the `rosa.cache_store` fault point, read errors, a failed
  /// temp write/rename) are retried with bounded exponential backoff this
  /// many times before the call degrades to its warn-and-return-false path.
  /// Malformed *content* is never retried — parsing is deterministic, so a
  /// corrupt cache is rejected on the first attempt like before.
  static constexpr int kIoAttempts = 3;

  /// Byte budget for resident entries (0 = unlimited, the default). When a
  /// store pushes the estimated resident footprint past the budget,
  /// least-recently-used entries are evicted (never the entry just stored
  /// or reused) until it fits again. Eviction only ever costs a future
  /// recompute — a re-submitted query misses and searches afresh — so every
  /// reuse rule stays intact. This is what lets privanalyzerd keep one
  /// resident multi-tenant cache without unbounded growth.
  void set_byte_budget(std::size_t bytes);

  /// Memoized search_escalating(): fingerprint the query, return a stored
  /// reusable result if present, otherwise search and (when the result is
  /// storable per the rules above) store it. Uncacheable queries fall
  /// through to a plain search with all cache counters zero; memoized
  /// results report exactly one of stats.cache_hits / stats.cache_misses.
  SearchResult run_cached(const Query& query, const SearchLimits& limits,
                          const EscalationPolicy& escalation = {});

  /// Lifetime aggregate of every run_cached call (monotone except the
  /// resident gauges; thread-safe).
  struct Totals {
    std::size_t hits = 0;    // served from a stored entry
    std::size_t misses = 0;  // searched (and possibly stored)
    std::size_t joins = 0;   // blocked on another worker's in-flight search
    std::size_t entries = 0; // entries currently stored
    std::size_t loaded = 0;  // entries accepted by load_file
    std::size_t evictions = 0;      // entries dropped by the byte budget
    std::size_t resident_bytes = 0; // estimated footprint of stored entries
  };
  Totals totals() const;

  /// Number of entries currently stored.
  std::size_t size() const;

  /// Load a persistent cache written by save_file. Missing file: fresh
  /// cache, returns true with nothing loaded. Version/model mismatch or any
  /// malformation (bad header, bad entry, missing `end` sentinel): the file
  /// is ignored wholesale — the cache stays empty, `*warning` explains why,
  /// and false is returned. Transient read failures are retried up to
  /// kIoAttempts times with exponential backoff before degrading the same
  /// way. Never throws on bad input.
  bool load_file(const std::string& path, std::string* warning = nullptr);

  /// Atomically rewrite `path` (write temp + rename) with every stored
  /// entry in deterministic (fingerprint-sorted) order. Each temp
  /// write/rename attempt passes the `rosa.cache_store` fault point;
  /// transient failures are retried up to kIoAttempts times with
  /// exponential backoff. Returns false with `*warning` set once every
  /// attempt failed.
  bool save_file(const std::string& path, std::string* warning = nullptr) const;

  /// Implementation detail (public only so cache.cpp's file-local helpers
  /// can name it): one stored result plus its budget signature.
  struct Entry;

 private:
  struct Shard;
  struct Lru;

  Shard& shard_for(const Fingerprint& fp) const;

  /// Record that `fp` was stored/reused with an entry of `bytes` estimated
  /// footprint (bytes == 0: touch only), then evict whatever the budget no
  /// longer covers. Must be called WITHOUT any shard/slot lock held.
  void lru_note(const Fingerprint& fp, std::size_t bytes);

  /// Drop one fingerprint's stored entry (budget eviction).
  void evict_entry(const Fingerprint& fp);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Lru> lru_;
};

}  // namespace pa::rosa
