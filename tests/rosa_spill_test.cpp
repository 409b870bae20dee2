// Tests for the disk-spillable frontier (rosa/spill.h): canonical-text
// round-tripping, the chunked SpillStore/SpillReader mechanics (atomic
// publish, multi-chunk reads, reads from the open chunk), corruption
// robustness (truncated, tampered, stale-version chunks raise structured
// StageErrors instead of wrong states), temp-directory cleanup on every
// exit path, and end-to-end equality of spill-forced searches against
// unconstrained in-memory runs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rosa/spill.h"
#include "rosa/query.h"
#include "rosa_test_util.h"
#include "support/diagnostics.h"
#include "support/faultpoint.h"

namespace pa::rosa {
namespace {

namespace fp = support::faultpoint;
namespace fs = std::filesystem;

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::disarm_all();
    // Suffix with the pid: ctest runs each discovered case as its own
    // process, and concurrently-scheduled cases must not clobber each
    // other's directory.
    root_ = ::testing::TempDir() + "/rosa_spill_test_root_" +
            std::to_string(::getpid());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override {
    fp::disarm_all();
    fs::remove_all(root_);
  }

  /// Per-search subdirectories left under root_ (must be empty after every
  /// store is destroyed).
  std::vector<std::string> leftover_dirs() {
    std::vector<std::string> out;
    for (const fs::directory_entry& e : fs::directory_iterator(root_))
      out.push_back(e.path().filename().string());
    return out;
  }

  std::string root_;
};

/// A state exercising every object kind and every canonical field: a live
/// and a zombie process with supplementary groups and open fd sets, a
/// setuid file, a directory with an inode, a bound socket, and a message
/// mask with bit 63 set (which canonical() prints as a negative number).
State rich_state() {
  State st;
  ProcObj p1;
  p1.id = 1;
  p1.uid = {1000, 0, 1000};
  p1.gid = {100, 100, 0};
  p1.supplementary = {3, 7};
  p1.rdfset.insert(4);
  p1.rdfset.insert(5);
  p1.wrfset.insert(4);
  st.procs.push_back(p1);
  ProcObj p2;
  p2.id = 2;
  p2.running = false;  // zombie
  st.procs.push_back(p2);
  st.files.push_back(FileObj{4, {0, 0, os::Mode(04755)}});
  st.dirs.push_back(DirObj{5, {0, 0, os::Mode(0755)}, 17});
  st.socks.push_back(SockObj{6, 1, 8080});
  st.set_name(4, "passwd");
  st.set_name(5, "etc");
  st.set_users({0, 1000});
  st.set_groups({0, 100});
  st.normalize();
  st.set_msgs_remaining(0x8000000000000001ull);
  return st;
}

// --- parse_canonical --------------------------------------------------------

TEST_F(SpillTest, ParseCanonicalRoundTripsARichState) {
  const State st = rich_state();
  std::optional<State> back = parse_canonical(st.canonical(), st.world());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->canonical(), st.canonical());
  EXPECT_EQ(back->full_hash(), st.full_hash());
  EXPECT_EQ(back->msgs_remaining(), st.msgs_remaining());
  // The skeleton is adopted, not rebuilt: same shared object.
  EXPECT_EQ(back->world().get(), st.world().get());
  EXPECT_EQ(back->name_of(4), "passwd");
}

TEST_F(SpillTest, ParseCanonicalRejectsMalformedInput) {
  const State st = rich_state();
  const std::string good = st.canonical();
  ASSERT_TRUE(parse_canonical(good, st.world()).has_value());

  for (const std::string& bad : {
           std::string(""),                       // empty
           std::string("Z0,"),                    // wrong leading tag
           std::string("M5"),                     // missing comma
           std::string("Mx,"),                    // not a number
           std::string("M99999999999999999999,"), // overflow
           std::string("M0,P1,"),                 // truncated proc
           std::string("M0,F1,0,0,99999,"),       // mode out of range
           good + "garbage",                      // trailing junk
           good.substr(0, good.size() / 2),       // truncated mid-object
       }) {
    EXPECT_FALSE(parse_canonical(bad, st.world()).has_value())
        << "accepted: " << bad;
  }

  // Corrupting the run flag of a proc must not parse.
  std::string flipped = good;
  const std::size_t rpos = flipped.find('r');
  ASSERT_NE(rpos, std::string::npos);
  flipped[rpos] = 'q';
  EXPECT_FALSE(parse_canonical(flipped, st.world()).has_value());
}

// --- SpillStore / SpillReader mechanics -------------------------------------

TEST_F(SpillTest, StoreWritesChunksAtomicallyAndReaderLoadsAcrossChunks) {
  std::vector<State> states;
  for (int i = 0; i < 3; ++i) {
    State st = rich_state();
    st.set_msgs_remaining(static_cast<std::uint64_t>(i));
    states.push_back(std::move(st));
  }

  SpillStore store(root_);
  EXPECT_NE(store.dir().find("rosa-spill-"), std::string::npos);
  std::vector<SpillStore::Ref> refs;
  for (const State& st : states) refs.push_back(store.append(st, st.hash()));
  // Nothing is visible until flush publishes the chunk.
  EXPECT_EQ(store.chunks_written(), 0u);
  EXPECT_FALSE(fs::exists(store.chunk_path(0)));
  store.flush();
  ASSERT_EQ(store.chunks_written(), 1u);
  ASSERT_TRUE(fs::exists(store.chunk_path(0)));
  EXPECT_EQ(store.spilled_states(), 3u);
  EXPECT_GT(store.spill_bytes(), 0u);

  // A second round lands in a second chunk file.
  SpillStore::Ref late = store.append(states[0], states[0].hash());
  store.flush();
  ASSERT_EQ(store.chunks_written(), 2u);
  EXPECT_EQ(late.chunk, 1u);

  // No temp files linger after publishing.
  for (const fs::directory_entry& e : fs::directory_iterator(store.dir()))
    EXPECT_EQ(e.path().extension(), ".spill") << e.path();

  // The chunk opens with the versioned header line.
  std::ifstream in(store.chunk_path(0));
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, spill_header_line());

  // Point reads across chunks, in an order that forces chunk switching.
  SpillReader reader(store);
  EXPECT_EQ(reader.load(refs[2], states[2].world()).canonical(),
            states[2].canonical());
  EXPECT_EQ(reader.load(late, states[0].world()).canonical(),
            states[0].canonical());
  EXPECT_EQ(reader.load(refs[0], states[0].world()).canonical(),
            states[0].canonical());
  EXPECT_EQ(reader.load(refs[1], states[1].world()).canonical(),
            states[1].canonical());
}

TEST_F(SpillTest, ReaderRejectsCorruptTamperedStaleAndMissingChunks) {
  const State st = rich_state();
  SpillStore store(root_);
  const SpillStore::Ref ref = store.append(st, st.hash());
  store.flush();
  const std::string path = store.chunk_path(0);

  auto read_file = [&] {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  auto write_file = [&](const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  };
  const std::string pristine = read_file();

  auto expect_load_fails = [&](support::DiagCode code) {
    SpillReader reader(store);
    try {
      reader.load(ref, st.world());
      FAIL() << "load succeeded on a damaged chunk";
    } catch (const support::StageError& e) {
      EXPECT_EQ(e.diagnostic().stage, support::Stage::Rosa);
      EXPECT_EQ(e.diagnostic().code, code);
    }
  };

  // Stale format version.
  write_file(std::string("privanalyzer-rosa-spill v0 model=stale\n") +
             pristine.substr(pristine.find('\n') + 1));
  expect_load_fails(support::DiagCode::BadFieldValue);

  // Truncated mid-frame.
  write_file(pristine.substr(0, pristine.size() - 10));
  expect_load_fails(support::DiagCode::BadFieldValue);

  // Same-length payload tamper: the stored digest no longer matches.
  std::string tampered = pristine;
  const std::size_t mpos = tampered.rfind("M");
  ASSERT_NE(mpos, std::string::npos);
  tampered[mpos + 1] = tampered[mpos + 1] == '9' ? '8' : '9';
  write_file(tampered);
  expect_load_fails(support::DiagCode::BadFieldValue);

  // Intact again: loads fine (the reader holds no poisoned cache).
  write_file(pristine);
  EXPECT_EQ(SpillReader(store).load(ref, st.world()).canonical(),
            st.canonical());

  // Missing chunk file.
  fs::remove(path);
  expect_load_fails(support::DiagCode::FileNotFound);
}

TEST_F(SpillTest, StoreRemovesItsDirectoryOnEveryExitPath) {
  // Normal lifetime.
  std::string dir;
  {
    SpillStore store(root_);
    dir = store.dir();
    store.append(rich_state(), rich_state().hash());
    store.flush();
    ASSERT_TRUE(fs::exists(dir));
  }
  EXPECT_FALSE(fs::exists(dir));

  // Injected I/O fault at flush time: the directory still disappears with
  // the store (hit 1 = the constructor's eager directory creation).
  {
    fp::arm("rosa.spill_io", 2);
    SpillStore store(root_);
    dir = store.dir();
    store.append(rich_state(), rich_state().hash());
    EXPECT_THROW(store.flush(), support::FaultInjected);
    ASSERT_TRUE(fs::exists(dir));
  }
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_TRUE(leftover_dirs().empty());
}

// --- End-to-end spill-forced searches ---------------------------------------

TEST_F(SpillTest, StoreServesFramesOfTheOpenChunkBeforeFlush) {
  const State st = rich_state();
  SpillStore store(root_);
  const SpillStore::Ref ref = store.append(st, st.hash());
  ASSERT_EQ(ref.chunk, store.chunks_written());  // still unpublished
  SpillReader reader(store);
  EXPECT_EQ(reader.load(ref, st.world()).canonical(), st.canonical());
  // Publishing moves the frame to disk at the same ref.
  store.flush();
  EXPECT_EQ(reader.load(ref, st.world()).canonical(), st.canonical());
}

TEST_F(SpillTest, SpilledSearchesMatchInMemoryRuns) {
  // Unreachable goal: the full 256-state space is explored, so a small byte
  // budget forces spilling over many layers (about one chunk per layer: a
  // multi-round spill).
  const Query q = rosa_test::unreachable_query(8);
  const SearchResult full = search(q, {});
  ASSERT_EQ(full.verdict, Verdict::Unreachable);

  SearchLimits lim;
  lim.max_bytes = full.stats.peak_bytes / 8;
  ASSERT_GT(lim.max_bytes, 0u);
  lim.spill_dir = root_;
  const SearchResult spilled = search(q, lim);
  EXPECT_EQ(spilled.verdict, full.verdict);
  EXPECT_EQ(spilled.stats.states, full.stats.states);
  EXPECT_EQ(spilled.stats.transitions, full.stats.transitions);
  EXPECT_EQ(spilled.stats.dedup_hits, full.stats.dedup_hits);
  EXPECT_EQ(spilled.stats.peak_frontier, full.stats.peak_frontier);
  EXPECT_EQ(spilled.stats.state_bytes, full.stats.state_bytes);
  EXPECT_GT(spilled.stats.spilled_states, 0u);
  EXPECT_GT(spilled.stats.spill_bytes, 0u);
  // Every per-search spill directory was cleaned up.
  EXPECT_TRUE(leftover_dirs().empty());
}

TEST_F(SpillTest, PopsAndChainWalksReachFramesAppendedSinceTheLastFlush) {
  // Every state is evicted from the first layer on, so each BFS layer's
  // first pop reaches a frame appended since the last flush. Equal states
  // consume equally many messages, so every dedup probe (two orders of
  // opening the same files) walks to a frame of the layer under
  // construction, still unflushed; the constant hash_override run puts
  // every state on one chain, so every probe walks through such frames.
  Query q = rosa_test::open_query(8, 0600, goal_proc_terminated(1));
  q.goal = [](const State& st) { return st.procs[0].rdfset.size() == 8; };
  for (bool one_chain : {false, true}) {
    SCOPED_TRACE(one_chain ? "constant hash" : "state hash");
    SearchLimits mem;
    if (one_chain) mem.hash_override = [](const State&) { return 1ull; };
    const SearchResult full = search(q, mem);
    ASSERT_EQ(full.verdict, Verdict::Reachable);
    ASSERT_GT(full.stats.dedup_hits, 0u);

    SearchLimits lim = mem;
    lim.max_bytes = 1;
    lim.spill_dir = root_;
    const SearchResult spilled = search(q, lim);
    // Verdict, witness and every counter but the spill figures and wall
    // time match. peak_bytes is the resident footprint, which eviction
    // exists to shrink, so it is only bounded here.
    rosa_test::expect_same_work(full, spilled);
    EXPECT_EQ(spilled.stats.state_bytes, full.stats.state_bytes);
    EXPECT_EQ(spilled.stats.decisive_states, full.stats.decisive_states);
    EXPECT_EQ(spilled.stats.fused_group_size, 0u);
    EXPECT_EQ(spilled.stats.fused_searches_saved, 0u);
    EXPECT_EQ(spilled.stats.fused_world_states, 0u);
    EXPECT_EQ(spilled.stats.cache_hits + spilled.stats.cache_misses +
                  spilled.stats.cache_joins,
              0u);
    EXPECT_LT(spilled.stats.peak_bytes, full.stats.peak_bytes);
    EXPECT_EQ(spilled.stats.spilled_states, full.stats.states - 2)
        << "everything after the root and the first child is evicted";
  }
  EXPECT_TRUE(leftover_dirs().empty());
}

TEST_F(SpillTest, SpilledWitnessMatchesInMemoryWitness) {
  // A goal deep in the space — all 8 files open — so the witness crosses
  // every spilled layer.
  Query q = rosa_test::open_query(8, 0600, goal_proc_terminated(1));
  q.goal = [](const State& st) { return st.procs[0].rdfset.size() == 8; };
  const SearchResult full = search(q, {});
  ASSERT_EQ(full.verdict, Verdict::Reachable);
  ASSERT_EQ(full.witness.size(), 8u);

  SearchLimits lim;
  lim.max_bytes = full.stats.peak_bytes / 8;
  ASSERT_GT(lim.max_bytes, 0u);
  lim.spill_dir = root_;
  const SearchResult spilled = search(q, lim);
  ASSERT_EQ(spilled.verdict, Verdict::Reachable);
  EXPECT_GT(spilled.stats.spilled_states, 0u);
  ASSERT_EQ(spilled.witness.size(), full.witness.size());
  for (std::size_t i = 0; i < full.witness.size(); ++i)
    EXPECT_EQ(spilled.witness[i].to_string(), full.witness[i].to_string());
}

TEST_F(SpillTest, HashOverrideDoesNotPoisonSpilledDigests) {
  // Frames store the real digest even when dedup runs under a
  // hash_override, so loads verify against full_hash() and still pass.
  const Query q = rosa_test::unreachable_query(6);
  SearchLimits mem;
  mem.hash_override = [](const State&) { return std::uint64_t{7}; };
  const SearchResult full = search(q, mem);
  ASSERT_EQ(full.verdict, Verdict::Unreachable);

  SearchLimits lim = mem;
  lim.max_bytes = full.stats.peak_bytes / 4;
  ASSERT_GT(lim.max_bytes, 0u);
  lim.spill_dir = root_;
  const SearchResult spilled = search(q, lim);
  EXPECT_EQ(spilled.verdict, full.verdict);
  EXPECT_EQ(spilled.stats.states, full.stats.states);
  EXPECT_EQ(spilled.stats.hash_collisions, full.stats.hash_collisions);
  EXPECT_GT(spilled.stats.spilled_states, 0u);
}

TEST_F(SpillTest, CancelledSpillingSearchCleansUpItsDirectory) {
  const Query q = rosa_test::unreachable_query(8);
  std::atomic<bool> stop{true};
  SearchLimits lim;
  lim.max_bytes = 1;
  lim.spill_dir = root_;
  lim.cancel = &stop;
  const SearchResult r = search(q, lim);
  EXPECT_EQ(r.verdict, Verdict::ResourceLimit);
  EXPECT_TRUE(leftover_dirs().empty());
}

TEST_F(SpillTest, SpillIoFaultDuringSearchSurfacesAndCleansUp) {
  const Query q = rosa_test::unreachable_query(8);
  SearchLimits lim;
  lim.max_bytes = 1;
  lim.spill_dir = root_;
  fp::arm("rosa.spill_io", 3);  // survive ctor + first flush, then fail
  EXPECT_THROW(search(q, lim), support::FaultInjected);
  EXPECT_TRUE(leftover_dirs().empty());
}

}  // namespace
}  // namespace pa::rosa
