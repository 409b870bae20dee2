// Chunked append-only arena — the node store behind the ROSA search loop.
//
// Elements never move once appended (chunks are reserved up front and never
// reallocated), so the BFS can hold plain references to popped nodes across
// successor appends, where a std::vector store would force a
// re-fetch-by-index discipline because any push_back could reallocate the
// whole array.
//
// Chunk capacities grow geometrically (first_capacity, doubling up to
// chunk_capacity, then uniform), so worst-case reservation slack is one
// chunk. Growth is deterministic — capacities depend only on append count,
// never on allocator behaviour — which is what lets the search model each
// goal's byte footprint from its own commit count (ArenaSim in
// rosa/search.cpp): SearchLimits::max_bytes bounds a search by memory the
// way max_states bounds it by node count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace pa::rosa {

template <typename T>
class Arena {
 public:
  explicit Arena(std::size_t chunk_capacity = 128,
                 std::size_t first_capacity = 16)
      : chunk_cap_(chunk_capacity ? chunk_capacity : 1),
        next_cap_(std::min(first_capacity ? first_capacity : 1, chunk_cap_)) {}

  std::size_t size() const { return size_; }

  /// Append; the returned reference (and every earlier one) stays valid for
  /// the arena's lifetime.
  T& push_back(T&& v) {
    if (chunks_.empty() ||
        chunks_.back().size() == chunks_.back().capacity()) {
      starts_.push_back(size_);
      chunks_.emplace_back();
      chunks_.back().reserve(next_cap_);
      next_cap_ = std::min(next_cap_ * 2, chunk_cap_);
    }
    chunks_.back().push_back(std::move(v));
    ++size_;
    return chunks_.back().back();
  }

  T& operator[](std::size_t i) {
    const std::size_t c = chunk_of(i);
    return chunks_[c][i - starts_[c]];
  }
  const T& operator[](std::size_t i) const {
    const std::size_t c = chunk_of(i);
    return chunks_[c][i - starts_[c]];
  }

 private:
  std::size_t chunk_of(std::size_t i) const {
    // Chunks are few (geometric prefix, then uniform), so a binary search
    // over their start indices is a handful of compares.
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), i);
    return static_cast<std::size_t>(it - starts_.begin()) - 1;
  }

  std::size_t chunk_cap_;
  std::size_t next_cap_;
  std::size_t size_ = 0;
  std::vector<std::size_t> starts_;
  std::vector<std::vector<T>> chunks_;
};

}  // namespace pa::rosa
