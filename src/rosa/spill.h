// Disk-spillable search frontier: when a search's node arena outgrows
// SearchLimits::max_bytes and SearchLimits::spill_dir is set, the search
// (rosa/search.cpp) evicts every state it commits from then on to a
// SpillStore and reads them back through a SpillReader, so the search
// completes with the verdict and witness it would have produced in memory
// instead of returning ResourceLimit.
//
// Frames are canonical()-text states in chunk files under a per-search temp
// directory (atomic temp+rename per chunk, corruption-tolerant on read like
// the verdict cache); evicted nodes keep only parent/action in memory.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "rosa/state.h"

namespace pa::rosa {

/// First line of every spill chunk file ("privanalyzer-rosa-spill v1
/// model=<kRosaModelVersion>"); version- and model-stamped so a reader
/// rejects frames written by an incompatible format or state model.
const std::string& spill_header_line();

/// Inverse of State::canonical(): rebuild a State (attached to `world`)
/// from its canonical serialization. Returns nullopt on any malformed
/// input. The rebuilt state's digest is left lazy — hash() recomputes the
/// full hash on first use, exactly like a freshly-constructed state.
std::optional<State> parse_canonical(
    std::string_view text, std::shared_ptr<const WorldSkeleton> world);

/// Append-only store of canonical state frames, split into chunk files
/// under a per-search subdirectory of SearchLimits::spill_dir. Writes are
/// buffered: append() queues a frame in the open chunk, flush() publishes
/// it atomically (.tmp + rename), so the chunk files on disk are always
/// complete. The destructor removes the whole subdirectory on every exit
/// path — success, resource-limit, cancellation, or an injected
/// rosa.spill_io fault.
class SpillStore {
 public:
  struct Ref {
    std::uint32_t chunk = 0;
    std::uint64_t offset = 0;  // byte offset of the frame within its chunk
  };

  /// Creates `<root>/rosa-spill-<pid>-<seq>` eagerly (even if nothing ever
  /// spills) so directory I/O failures — and the rosa.spill_io fault point —
  /// surface at search start rather than at an arbitrary search depth.
  explicit SpillStore(const std::string& root);
  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Queue one frame holding st.canonical(). `digest` must be the state's
  /// real full 64-bit digest (never a hash_override value); it is stored in
  /// the frame and re-verified against the parsed state on load. The frame
  /// lands in chunk chunks_written() (the open chunk) until the next flush.
  Ref append(const State& st, std::uint64_t digest);

  /// Publish the open chunk (no-op when it is empty).
  void flush();

  const std::string& dir() const { return dir_; }
  std::string chunk_path(std::uint32_t chunk) const;
  std::uint32_t chunks_written() const { return chunks_written_; }
  /// The open chunk's frames, not yet on disk.
  std::string_view unpublished() const { return buffer_; }
  std::size_t spilled_states() const { return spilled_states_; }
  /// Total frame bytes appended (excludes per-chunk header/footer).
  std::size_t spill_bytes() const { return spill_bytes_; }

 private:
  /// Auto-publish threshold: a chunk is flushed once its buffer exceeds
  /// this, bounding both the memory held by pending frames and the size of
  /// any single chunk file.
  static constexpr std::size_t kFlushThreshold = std::size_t{4} << 20;

  std::string dir_;
  std::string buffer_;
  std::uint32_t chunks_written_ = 0;
  std::size_t spilled_states_ = 0;
  std::size_t spill_bytes_ = 0;
};

/// Random-access reader over a SpillStore. Frames in published chunks are
/// read from disk through one cached chunk stream; frames still in the open
/// chunk are parsed from the store's write buffer, so every ref append()
/// returned is loadable at once. Any corruption — missing chunk, stale
/// header version, malformed or truncated frame, digest mismatch — raises a
/// Stage::Rosa StageError instead of ever returning a wrong state.
class SpillReader {
 public:
  explicit SpillReader(const SpillStore& store) : store_(&store) {}

  /// Load the state at `ref`, attaching `world` as its skeleton.
  State load(SpillStore::Ref ref,
             const std::shared_ptr<const WorldSkeleton>& world);

 private:
  const SpillStore* store_;
  std::ifstream in_;
  std::int64_t open_chunk_ = -1;
};

}  // namespace pa::rosa
