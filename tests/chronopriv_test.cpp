// Tests for ChronoPriv: epoch tracking, merging, ordering, reports.
#include <gtest/gtest.h>

#include "chronopriv/instrument.h"
#include "ir/builder.h"

namespace {
// A dummy function handle for driving the tracker directly.
const pa::ir::Function& dummy_fn() {
  static pa::ir::Function f("dummy", 0);
  return f;
}
}  // namespace

namespace pa::chronopriv {
namespace {

using ir::IRBuilder;
using B = IRBuilder;
using caps::Capability;
using caps::Credentials;

TEST(EpochTrackerTest, SingleEpochForConstantState) {
  os::Kernel k;
  os::Pid p = k.spawn("p", Credentials::of_user(1000, 1000),
                      {Capability::Setuid});
  EpochTracker t;
  t.on_run(k.process(p), dummy_fn(), 0, 0, 5);
  EXPECT_EQ(t.total_instructions(), 5u);
  ASSERT_EQ(t.epochs().size(), 1u);
  EXPECT_EQ(t.epochs()[0].instructions, 5u);
  EXPECT_EQ(t.epochs()[0].key.permitted, caps::CapSet{Capability::Setuid});
}

TEST(EpochTrackerTest, PermittedChangeStartsNewEpoch) {
  os::Kernel k;
  os::Pid p = k.spawn("p", Credentials::of_user(1000, 1000),
                      {Capability::Setuid, Capability::Chown});
  EpochTracker t;
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  k.priv_remove(p, {Capability::Chown});
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  ASSERT_EQ(t.epochs().size(), 2u);
  EXPECT_EQ(t.epochs()[1].key.permitted, caps::CapSet{Capability::Setuid});
}

TEST(EpochTrackerTest, RaiseLowerDoesNotSplitEpochs) {
  os::Kernel k;
  os::Pid p = k.spawn("p", Credentials::of_user(1000, 1000),
                      {Capability::Setuid});
  EpochTracker t;
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  k.priv_raise(p, {Capability::Setuid});
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  k.priv_lower(p, {Capability::Setuid});
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  EXPECT_EQ(t.epochs().size(), 1u);  // permitted set never changed
}

TEST(EpochTrackerTest, CredChangeStartsNewEpochAndRecurringKeysMerge) {
  os::Kernel k;
  os::Pid p = k.spawn("p", Credentials::of_user(1000, 1000), {});
  EpochTracker t;
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  k.process(p).creds.uid = {0, 0, 0};
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  k.process(p).creds.uid = {1000, 1000, 1000};  // back to the first key
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  ASSERT_EQ(t.epochs().size(), 2u);
  EXPECT_EQ(t.epochs()[0].instructions, 2u);  // merged
  EXPECT_EQ(t.epochs()[1].instructions, 1u);
}

TEST(EpochTrackerTest, SupplementaryGroupsDoNotSplit) {
  os::Kernel k;
  os::Pid p = k.spawn("p", Credentials::of_user(1000, 1000), {});
  EpochTracker t;
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  k.process(p).creds.set_supplementary({4, 24});
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  EXPECT_EQ(t.epochs().size(), 1u);
}

TEST(EpochTrackerTest, ResetClears) {
  os::Kernel k;
  os::Pid p = k.spawn("p", Credentials::of_user(1000, 1000), {});
  EpochTracker t;
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);
  t.reset();
  EXPECT_EQ(t.total_instructions(), 0u);
  EXPECT_TRUE(t.epochs().empty());
}

TEST(ReportTest, RowsNamedAndFractionsSumToOne) {
  os::Kernel k;
  os::Pid p = k.spawn("p", Credentials::of_user(1000, 1000),
                      {Capability::Setuid});
  EpochTracker t;
  t.on_run(k.process(p), dummy_fn(), 0, 0, 3);
  k.priv_remove(p, {Capability::Setuid});
  t.on_run(k.process(p), dummy_fn(), 0, 0, 1);

  ChronoReport r = make_report("prog", t);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].name, "prog_priv1");
  EXPECT_EQ(r.rows[1].name, "prog_priv2");
  double sum = 0;
  for (const auto& row : r.rows) sum += row.fraction;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NE(r.to_string().find("prog_priv1"), std::string::npos);
}

TEST(RunInstrumentedTest, EndToEndCountsMatchInterpreter) {
  os::Kernel k;
  ir::Module m("tiny");
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.nop(10);
  b.priv_remove({Capability::Setuid});
  b.nop(5);
  b.exit(B::i(0));
  b.end_function();

  os::Pid p = k.spawn("tiny", Credentials::of_user(1000, 1000),
                      {Capability::Setuid});
  long rc = -1;
  ChronoReport r = run_instrumented(k, m, p, {}, "main", &rc);
  EXPECT_EQ(rc, 0);
  // 10 nops + remove + 5 nops + exit = 17 instructions in 2 epochs.
  EXPECT_EQ(r.total_instructions, 17u);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].instructions, 11u);  // remove itself counts in epoch 1
  EXPECT_EQ(r.rows[1].instructions, 6u);
}

TEST(StaticBlockCountsTest, ExcludesUnreachable) {
  ir::Module m("t");
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.nop(4);
  b.unreachable();
  b.end_function();
  auto counts = static_block_counts(m);
  EXPECT_EQ((counts.at({"main", 0})), 4);
}

}  // namespace
}  // namespace pa::chronopriv
