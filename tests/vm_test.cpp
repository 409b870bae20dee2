// Tests for the PrivIR interpreter and its syscall bridge.
#include <gtest/gtest.h>

#include <set>

#include "chronopriv/epoch.h"
#include "ir/builder.h"
#include "support/error.h"
#include "vm/interpreter.h"
#include "vm/syscall_bridge.h"

namespace pa::vm {
namespace {

using ir::IRBuilder;
using B = IRBuilder;
using caps::Capability;
using caps::Credentials;

struct VmFixture : ::testing::Test {
  os::Kernel k;
  ir::Module m{"t"};

  os::Pid spawn(caps::CapSet permitted = {}) {
    return k.spawn("p", Credentials::of_user(1000, 1000), permitted);
  }

  long run(os::Pid pid, std::vector<ir::RtValue> args = {}) {
    Interpreter interp(k, m, pid);
    return interp.run("main", std::move(args));
  }
};

TEST_F(VmFixture, ArithmeticAndReturn) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  int x = b.mov(B::i(6));
  int y = b.mul(B::r(x), B::i(7));
  b.ret(B::r(y));
  b.end_function();
  EXPECT_EQ(run(spawn()), 42);
}

TEST_F(VmFixture, ComparisonsAndBranching) {
  IRBuilder b(m);
  b.begin_function("main", 1);
  int c = b.cmp_lt(B::r(0), B::i(10));
  b.condbr(B::r(c), "small", "big");
  b.at("small");
  b.ret(B::i(1));
  b.at("big");
  b.ret(B::i(2));
  b.end_function();
  EXPECT_EQ(run(spawn(), {std::int64_t{5}}), 1);

  os::Pid p2 = spawn();
  Interpreter i2(k, m, p2);
  EXPECT_EQ(i2.run("main", {std::int64_t{50}}), 2);
}

TEST_F(VmFixture, CallsPassArgsAndReturnValues) {
  IRBuilder b(m);
  b.begin_function("twice", 1);
  int r = b.add(B::r(0), B::r(0));
  b.ret(B::r(r));
  b.end_function();
  b.begin_function("main", 0);
  int v = b.call("twice", {B::i(21)});
  b.ret(B::r(v));
  b.end_function();
  EXPECT_EQ(run(spawn()), 42);
}

TEST_F(VmFixture, IndirectCallThroughFuncRef) {
  IRBuilder b(m);
  b.begin_function("target", 1);
  int r = b.add(B::r(0), B::i(1));
  b.ret(B::r(r));
  b.end_function();
  b.begin_function("main", 0);
  int fp = b.funcaddr("target");
  int v = b.callind(B::r(fp), {B::i(41)});
  b.ret(B::r(v));
  b.end_function();
  m.recompute_address_taken();
  EXPECT_EQ(run(spawn()), 42);
}

TEST_F(VmFixture, ExitShortCircuitsCallStack) {
  IRBuilder b(m);
  b.begin_function("deep", 0);
  b.exit(B::i(7));
  b.end_function();
  b.begin_function("main", 0);
  b.call("deep");
  b.ret(B::i(0));  // never reached
  b.end_function();
  os::Pid p = spawn();
  EXPECT_EQ(run(p), 7);
  EXPECT_FALSE(k.process(p).alive());
  EXPECT_EQ(k.process(p).exit_code, 7);
}

TEST_F(VmFixture, SyscallResultsFollowErrnoConvention) {
  k.vfs().add_file("/f", os::FileMeta{0, 0, os::Mode(0600)}, "x");
  IRBuilder b(m);
  b.begin_function("main", 0);
  int fd = b.syscall("open", {B::s("/f"), B::i(SyscallEncoding::kRead)});
  b.ret(B::r(fd));
  b.end_function();
  long rc = run(spawn());
  EXPECT_EQ(rc, -static_cast<long>(os::Errno::Eacces));
}

TEST_F(VmFixture, PrivOpsDriveKernelState) {
  k.vfs().add_file("/etc/shadow", os::FileMeta{0, 42, os::Mode(0640)}, "s");
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.priv_raise({Capability::DacReadSearch});
  int fd = b.syscall("open", {B::s("/etc/shadow"), B::i(SyscallEncoding::kRead)});
  b.priv_lower({Capability::DacReadSearch});
  b.priv_remove({Capability::DacReadSearch});
  b.ret(B::r(fd));
  b.end_function();
  os::Pid p = spawn({Capability::DacReadSearch});
  EXPECT_GE(run(p), 0);
  EXPECT_TRUE(k.process(p).privs.permitted().empty());
}

TEST_F(VmFixture, RaiseOfNonPermittedCapFaults) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.priv_raise({Capability::Chown});
  b.ret(B::i(0));
  b.end_function();
  EXPECT_THROW(run(spawn({})), Error);
}

TEST_F(VmFixture, UnknownSyscallReturnsEnosys) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  int r = b.syscall("frobnicate", {});
  b.ret(B::r(r));
  b.end_function();
  EXPECT_EQ(run(spawn()), -static_cast<long>(os::Errno::Enosys));
}

TEST_F(VmFixture, ExecutedUnreachableFaults) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.unreachable();
  b.end_function();
  EXPECT_THROW(run(spawn()), Error);
}

TEST_F(VmFixture, InstructionBudgetEnforced) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.br("loop");
  b.at("loop");
  b.nop(1);
  b.br("loop");
  b.end_function();
  os::Pid p = spawn();
  Interpreter interp(k, m, p);
  interp.set_limits({.max_instructions = 1000});
  EXPECT_THROW(interp.run("main"), Error);
}

TEST_F(VmFixture, SignalDeliveryRunsHandler) {
  IRBuilder b(m);
  b.begin_function("on_term", 1);
  // Handler records the signal by exiting with it.
  b.exit(B::r(0));
  b.end_function();
  b.begin_function("main", 0);
  b.syscall("signal", {B::i(os::kSigTerm), B::f("on_term")});
  int self = b.syscall("getpid", {});
  b.syscall("kill", {B::r(self), B::i(os::kSigTerm)});
  b.nop(10);
  b.ret(B::i(0));
  b.end_function();
  EXPECT_EQ(run(spawn()), os::kSigTerm);
}

TEST_F(VmFixture, UnhandledSelfKillReturnsTheSignalExitCode) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  int self = b.syscall("getpid", {});
  b.syscall("kill", {B::r(self), B::i(os::kSigTerm)});
  b.nop(4);
  b.ret(B::i(3));
  b.end_function();
  const os::Pid p = spawn();
  Interpreter interp(k, m, p);
  EXPECT_EQ(interp.run("main"), 128 + os::kSigTerm);
  EXPECT_EQ(interp.exit_code(), 128 + os::kSigTerm);
  EXPECT_EQ(interp.executed(), 2u);  // stopped at the kill
  EXPECT_EQ(k.process(p).exit_code, 128 + os::kSigTerm);
}

TEST_F(VmFixture, ExecutedCountMatchesSmallProgram) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.nop(3);
  b.ret(B::i(0));
  b.end_function();
  os::Pid p = spawn();
  Interpreter interp(k, m, p);
  interp.run("main");
  EXPECT_EQ(interp.executed(), 4u);  // 3 nops + ret
}

// -- Edge cases of run-granular execution ----------------------------------
// The interpreter executes straight-line runs as one unit; these pin the
// points where per-instruction semantics could otherwise move: the budget
// landing inside a run, signals, and filter kills.

// 30 straight-line instructions (10 each of mov, add and nop) then ret.
void emit_straight_line_30(IRBuilder& b) {
  int acc = b.mov(B::i(0));
  for (int i = 0; i < 10; ++i) {
    acc = b.add(B::r(acc), B::i(i));
    b.nop(1);
    if (i < 9) acc = b.mov(B::r(acc));
  }
  b.ret(B::r(acc));
}

TEST_F(VmFixture, BudgetInsideStraightLineRunChargesExactlyTheBudget) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.syscall("getpid", {});
  emit_straight_line_30(b);
  b.end_function();
  ASSERT_EQ(m.function("main").block(0).instructions.size(), 32u);
  for (std::uint64_t budget : {1u, 2u, 17u, 30u, 31u}) {
    os::Kernel kernel;
    const os::Pid p =
        kernel.spawn("p", Credentials::of_user(1000, 1000), {});
    chronopriv::EpochTracker tracker;
    Interpreter interp(kernel, m, p);
    interp.set_tracer(&tracker);
    interp.set_limits({.max_instructions = budget});
    try {
      interp.run("main");
      ADD_FAILURE() << "budget " << budget << " not enforced";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "instruction budget exhausted (" + std::to_string(budget) +
                    ")"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(interp.executed(), budget + 1) << "budget " << budget;
    EXPECT_EQ(tracker.total_instructions(), budget) << "budget " << budget;
    ASSERT_EQ(tracker.timeline().size(), 1u);
    EXPECT_EQ(tracker.timeline()[0].length, budget);
  }
  // A budget of exactly the program's length is not exhausted.
  os::Kernel kernel;
  const os::Pid p = kernel.spawn("p", Credentials::of_user(1000, 1000), {});
  Interpreter interp(kernel, m, p);
  interp.set_limits({.max_instructions = 32});
  EXPECT_EQ(interp.run("main"), 45);
  EXPECT_EQ(interp.executed(), 32u);
}

TEST_F(VmFixture, FaultInsideRunChargesUpToTheFaultingInstruction) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.nop(2);
  int zero = b.mov(B::i(0));
  b.binop(ir::Opcode::Div, B::i(1), B::r(zero));
  b.nop(5);
  b.ret(B::i(0));
  b.end_function();
  chronopriv::EpochTracker tracker;
  Interpreter interp(k, m, spawn());
  interp.set_tracer(&tracker);
  EXPECT_THROW(interp.run("main"), Error);
  EXPECT_EQ(interp.executed(), 4u);
  EXPECT_EQ(tracker.total_instructions(), 4u);
}

TEST_F(VmFixture, SelfKillPushesHandlerFrameRightAfterTheSyscall) {
  IRBuilder b(m);
  b.begin_function("on_term", 1);
  b.priv_remove({Capability::Setuid});
  b.ret(B::i(0));
  b.end_function();
  b.begin_function("main", 0);
  b.syscall("signal", {B::i(os::kSigTerm), B::f("on_term")});
  int self = b.syscall("getpid", {});
  b.syscall("kill", {B::r(self), B::i(os::kSigTerm)});
  b.nop(5);
  b.ret(B::i(3));
  b.end_function();
  const os::Pid p = spawn({Capability::Setuid});
  chronopriv::EpochTracker tracker;
  tracker.set_record_points(true);
  Interpreter interp(k, m, p);
  interp.set_tracer(&tracker);
  EXPECT_EQ(interp.run("main"), 3);
  EXPECT_EQ(interp.executed(), 11u);
  // signal, getpid, kill, then the handler's priv_remove run under
  // {CapSetuid}; the handler's ret, 5 nops and main's ret after it.
  ASSERT_EQ(tracker.epochs().size(), 2u);
  EXPECT_EQ(tracker.epochs()[0].instructions, 4u);
  EXPECT_EQ(tracker.epochs()[1].instructions, 7u);
  using Points = chronopriv::EpochTracker::PointMap;
  const Points first{{{"main", 0}, 0}, {{"on_term", 0}, 0}};
  const Points second{{{"main", 0}, 3}, {{"on_term", 0}, 1}};
  ASSERT_EQ(tracker.epoch_points().size(), 2u);
  EXPECT_EQ(tracker.epoch_points()[0], first);
  EXPECT_EQ(tracker.epoch_points()[1], second);
}

TEST_F(VmFixture, SignalQueuedBeforeRunIsDeliveredAfterTheFirstInstruction) {
  IRBuilder b(m);
  b.begin_function("on_hup", 1);
  b.priv_remove({Capability::Setuid});
  b.ret(B::i(0));
  b.end_function();
  b.begin_function("main", 0);
  b.nop(4);
  b.ret(B::i(0));
  b.end_function();
  const os::Pid p = spawn({Capability::Setuid});
  k.process(p).signal_handlers[os::kSigHup] = "on_hup";
  k.process(p).pending_signals.push_back(os::kSigHup);
  chronopriv::EpochTracker tracker;
  tracker.set_record_points(true);
  Interpreter interp(k, m, p);
  interp.set_tracer(&tracker);
  EXPECT_EQ(interp.run("main"), 0);
  EXPECT_EQ(interp.executed(), 7u);
  EXPECT_TRUE(k.process(p).pending_signals.empty());
  // main's first nop, then the handler's priv_remove under {CapSetuid}.
  ASSERT_EQ(tracker.epochs().size(), 2u);
  EXPECT_EQ(tracker.epochs()[0].instructions, 2u);
  EXPECT_EQ(tracker.epochs()[1].instructions, 5u);
  using Points = chronopriv::EpochTracker::PointMap;
  const Points second{{{"main", 0}, 1}, {{"on_hup", 0}, 1}};
  ASSERT_EQ(tracker.epoch_points().size(), 2u);
  EXPECT_EQ(tracker.epoch_points()[1], second);
}

TEST_F(VmFixture, FilterKillStopsTheProcessAtTheDeniedSyscall) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.syscall("getpid", {});
  int x = b.mov(B::i(1));
  b.syscall("getuid", {});
  b.nop(8);
  b.exit(B::r(x));
  b.end_function();
  const os::Pid p = spawn();
  os::FilterStack stack;
  stack.filters.push_back(os::SyscallFilter{"main_priv1", {"getpid"}});
  stack.action = os::FilterAction::Kill;
  k.install_filters(p, stack);
  chronopriv::EpochTracker tracker;
  Interpreter interp(k, m, p);
  interp.set_tracer(&tracker);
  EXPECT_EQ(interp.run("main"), 128 + 31);
  EXPECT_EQ(interp.exit_code(), 128 + 31);
  EXPECT_EQ(interp.executed(), 3u);
  EXPECT_EQ(tracker.total_instructions(), 3u);
  EXPECT_FALSE(k.process(p).alive());
  EXPECT_EQ(k.process(p).exit_code, 128 + 31);
  ASSERT_EQ(k.filter_violations().size(), 1u);
  EXPECT_EQ(k.filter_violations()[0].syscall, "getuid");
}

TEST(SyscallBridgeTest, KnownSyscallsNonEmptyAndUnique) {
  auto names = known_syscalls();
  EXPECT_GT(names.size(), 25u);
  std::set<std::string> set(names.begin(), names.end());
  EXPECT_EQ(set.size(), names.size());
  EXPECT_TRUE(set.contains("open"));
  EXPECT_TRUE(set.contains("setresuid"));
  EXPECT_TRUE(set.contains("bind"));
}

}  // namespace
}  // namespace pa::vm
