// Tests for the multi-process scheduler: interleaving, cross-process
// signals, and a real privilege-separated monitor/worker pair.
#include <gtest/gtest.h>

#include "chronopriv/epoch.h"
#include "ir/builder.h"
#include "vm/scheduler.h"

namespace pa::vm {
namespace {

using ir::IRBuilder;
using B = IRBuilder;
using caps::Capability;
using caps::Credentials;

TEST(SchedulerTest, TwoProcessesBothFinish) {
  ir::Module m("t");
  IRBuilder b(m);
  b.begin_function("main", 1);
  b.nop(50);
  b.ret(B::r(0));
  b.end_function();

  os::Kernel k;
  os::Pid p1 = k.spawn("a", Credentials::of_user(1000, 1000), {});
  os::Pid p2 = k.spawn("b", Credentials::of_user(1001, 1001), {});
  Scheduler sched(k);
  sched.add(m, p1, "main", {std::int64_t{7}});
  sched.add(m, p2, "main", {std::int64_t{8}});
  std::uint64_t total = sched.run_all(/*quantum=*/10);

  EXPECT_EQ(sched.exit_code(0), 7);
  EXPECT_EQ(sched.exit_code(1), 8);
  EXPECT_FALSE(k.process(p1).alive());
  EXPECT_FALSE(k.process(p2).alive());
  EXPECT_GE(total, 102u);
}

TEST(SchedulerTest, CrossProcessSignalDelivery) {
  // Process A registers a SIGTERM handler and loops; process B kills A.
  // A's handler exits with a recognizable code.
  ir::Module ma("a");
  {
    IRBuilder b(ma);
    b.begin_function("on_term", 1);
    b.exit(B::i(99));
    b.end_function();
    b.begin_function("main", 0);
    b.syscall("signal", {B::i(os::kSigTerm), B::f("on_term")});
    b.br("loop");
    b.at("loop");
    b.nop(3);
    b.br("loop");  // spins until signalled
    b.end_function();
  }
  ir::Module mb("b");
  os::Kernel k;
  os::Pid pa_ = k.spawn("A", Credentials::of_user(1000, 1000), {});
  os::Pid pb = k.spawn("B", Credentials::of_user(1000, 1000), {});
  {
    IRBuilder b(mb);
    b.begin_function("main", 0);
    b.nop(40);  // let A get going
    b.syscall("kill", {B::i(pa_), B::i(os::kSigTerm)});
    b.ret(B::i(0));
    b.end_function();
  }

  Scheduler sched(k);
  sched.add(ma, pa_);
  sched.add(mb, pb);
  sched.run_all(/*quantum=*/8);

  EXPECT_EQ(sched.exit_code(0), 99);  // handler ran
  EXPECT_EQ(sched.exit_code(1), 0);
}

TEST(SchedulerTest, SigkillTerminatesVictimMidRun) {
  ir::Module victim("v");
  {
    IRBuilder b(victim);
    b.begin_function("main", 0);
    b.br("loop");
    b.at("loop");
    b.nop(2);
    b.br("loop");
    b.end_function();
  }
  ir::Module killer("k");
  os::Kernel k;
  os::Pid pv = k.spawn("v", Credentials::of_user(109, 109), {});
  os::Pid pk = k.spawn("k", Credentials::of_user(1000, 1000),
                       {Capability::Kill});
  {
    IRBuilder b(killer);
    b.begin_function("main", 0);
    b.priv_raise({Capability::Kill});
    b.syscall("kill", {B::i(pv), B::i(os::kSigKill)});
    b.priv_lower({Capability::Kill});
    b.ret(B::i(0));
    b.end_function();
  }

  Scheduler sched(k);
  sched.add(victim, pv);
  sched.add(killer, pk);
  sched.run_all();
  EXPECT_FALSE(k.process(pv).alive());
  EXPECT_EQ(k.process(pv).exit_code, 128 + os::kSigKill);
  EXPECT_EQ(sched.exit_code(0), 128 + os::kSigKill);
}

TEST(SchedulerTest, PrivilegeSeparatedPair) {
  // The real privilege-separation shape: a monitor keeps CAP_NET_BIND_SERVICE
  // and binds the privileged port; the worker (a separate process with an
  // EMPTY permitted set) does the long-running request work. ChronoPriv on
  // the worker shows zero capability exposure regardless of how long it runs.
  ir::Module monitor("monitor");
  {
    IRBuilder b(monitor);
    b.begin_function("main", 0);
    int s = b.syscall("socket", {B::i(0)});
    b.priv_raise({Capability::NetBindService});
    b.syscall("bind", {B::r(s), B::i(22)});
    b.priv_lower({Capability::NetBindService});
    b.nop(10);
    b.exit(B::i(0));
    b.end_function();
  }
  ir::Module worker("worker");
  {
    IRBuilder b(worker);
    b.begin_function("main", 0);
    b.nop(400);  // request handling
    b.exit(B::i(0));
    b.end_function();
  }

  os::Kernel k;
  os::Pid pm = k.spawn("monitor", Credentials::of_user(1000, 1000),
                       {Capability::NetBindService});
  os::Pid pw = k.spawn("worker", Credentials::of_user(1000, 1000), {});

  chronopriv::EpochTracker worker_epochs;
  Scheduler sched(k);
  sched.add(monitor, pm);
  Interpreter& wi = sched.add(worker, pw);
  wi.set_tracer(&worker_epochs);
  sched.run_all();

  EXPECT_EQ(k.net().port_owner(22), pm);  // the monitor bound the port
  ASSERT_EQ(worker_epochs.epochs().size(), 1u);
  EXPECT_TRUE(worker_epochs.epochs()[0].key.permitted.empty());
  EXPECT_GT(worker_epochs.total_instructions(), 400u);
}

TEST(SchedulerTest, StepRoundReportsLiveness) {
  ir::Module m("t");
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.nop(5);
  b.ret(B::i(0));
  b.end_function();

  os::Kernel k;
  os::Pid p = k.spawn("p", Credentials::of_user(1000, 1000), {});
  Scheduler sched(k);
  sched.add(m, p);
  EXPECT_TRUE(sched.step_round(/*quantum=*/2));   // 2 of 6 instructions
  EXPECT_TRUE(sched.step_round(2));
  EXPECT_FALSE(sched.step_round(100));            // finishes here
  EXPECT_FALSE(sched.step_round(100));            // idempotent when done
}

}  // namespace
}  // namespace pa::vm
