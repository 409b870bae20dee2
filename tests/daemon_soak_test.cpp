// The daemon soak test: arm every registered fault point, one at a time,
// while N concurrent clients hammer a live privanalyzerd with Table-II
// programs. The robustness contract under each injected fault:
//
//   * every submitted job reaches a terminal status (done / failed /
//     cancelled / timeout / rejected) — nothing is silently lost;
//   * the server never crashes and never hangs (run() returns from the
//     final drain; ctest's timeout is the backstop);
//   * after the fault, a fresh client's ping and a fresh job succeed.
//
// The fault registry is process-global and single-shot, so an armed
// daemon.read / daemon.write point may just as well fire inside one of OUR
// client sockets as inside the server — exactly one call anywhere is
// disturbed per point. Client workers therefore treat any exception as a
// recoverable event: reconnect and retry the submit, or (once a job id is
// known) poll its status over fresh connections until it turns terminal —
// which is itself the reconnect-after-connection-loss story the global job
// table exists for.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.h"
#include "daemon/job.h"
#include "daemon/server.h"
#include "support/faultpoint.h"
#include "test_tmpdir.h"

namespace pa::daemon {
namespace {

namespace fp = support::faultpoint;

constexpr int kClients = 4;
constexpr int kJobsPerClient = 2;
const char* kTableII[] = {"passwd", "su", "ping", "thttpd", "sshd"};

bool terminal_name(const std::string& s) {
  return s == "done" || s == "failed" || s == "cancelled" || s == "timeout" ||
         s == "rejected";
}

JobRequest small_job(int salt) {
  JobRequest req;
  req.kind = "builtin";
  req.source = kTableII[salt % (sizeof kTableII / sizeof *kTableII)];
  req.name = req.source;
  req.max_states = 5'000;  // keep 11 points x 8 jobs fast
  return req;
}

/// Poll `job_id` over fresh connections until it reports a terminal state.
/// Used after the worker's own connection was reaped under an injected
/// fault; returns the terminal name or "lost" after ~20s of trying.
std::string poll_until_terminal(const std::string& socket_path,
                                std::uint64_t job_id) {
  for (int i = 0; i < 200; ++i) {
    try {
      Client probe(socket_path);
      std::string state = probe.status(job_id).state;
      if (terminal_name(state)) return state;
    } catch (const std::exception&) {
      // The one injected fault may hit this probe too; just try again.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return "lost";
}

/// Submit one job and ride it to a terminal state, surviving connection
/// loss. Returns the terminal state name, or "undelivered" if three whole
/// submit attempts never got an answer (more disruption than one single-shot
/// fault can cause).
std::string run_one_job(const std::string& socket_path, const JobRequest& req) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::uint64_t job_id = 0;
    try {
      Client client(socket_path);
      SubmitReply reply = client.submit(req);
      if (!reply.accepted) return "rejected";
      job_id = reply.job_id;
      return client.wait_result(job_id).state;
    } catch (const std::exception&) {
      // Admitted but the connection died: the job still runs; poll it.
      if (job_id != 0) return poll_until_terminal(socket_path, job_id);
      // Not admitted yet: reconnect and resubmit.
    }
  }
  return "undelivered";
}

TEST(DaemonSoakTest, EveryFaultPointUnderConcurrentClients) {
  fp::disarm_all();
  const std::vector<std::string> points = fp::registered_points();
  ASSERT_FALSE(points.empty());

  // Socket paths are capped at 108 bytes, too short for a ScopedTestDir
  // path, so sockets get a pid-suffixed name directly under TempDir(); the
  // cache files live in the private directory.
  const test_util::ScopedTestDir dir;
  for (const std::string& point : points) {
    SCOPED_TRACE(point);

    const std::string tag = "soak_" + std::to_string(&point - points.data());
    ServerOptions opts;
    opts.socket_path = ::testing::TempDir() + "/pad_" + tag + "-" +
                       std::to_string(::getpid()) + ".sock";
    std::remove(opts.socket_path.c_str());
    opts.workers = 2;
    opts.max_queue = 32;
    opts.default_deadline_secs = 20.0;
    // A persistent cache with per-job checkpoints keeps the rosa.cache_store
    // retry path in the loop as well.
    opts.cache_file = dir.file(tag + ".cache");
    opts.checkpoint_jobs = 1;

    auto server = std::make_unique<Server>(opts);
    std::thread runner([&] { server->run(); });

    fp::arm(point);

    std::mutex mu;
    std::vector<std::string> outcomes;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int j = 0; j < kJobsPerClient; ++j) {
          std::string state =
              run_one_job(opts.socket_path, small_job(c * kJobsPerClient + j));
          std::lock_guard<std::mutex> lock(mu);
          outcomes.push_back(state);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    // Every job reached a terminal status, under whichever fault was armed.
    ASSERT_EQ(outcomes.size(),
              static_cast<std::size_t>(kClients * kJobsPerClient));
    for (const std::string& state : outcomes)
      EXPECT_TRUE(terminal_name(state)) << "job ended as '" << state << "'";

    // The daemon-side points sit on paths this load certainly exercises
    // (accepts, reads, writes happen constantly), so the armed point must
    // have fired (single-shot arming disarms on fire).
    if (point.starts_with("daemon.")) {
      EXPECT_FALSE(fp::armed(point)) << "point never fired under load";
    }
    fp::disarm_all();

    // Post-fault: the server keeps serving, and new work succeeds.
    {
      Client after(opts.socket_path);
      EXPECT_TRUE(after.ping());
      JobRequest req = small_job(0);
      SubmitReply reply = after.submit(req);
      ASSERT_TRUE(reply.accepted) << reply.reason;
      EXPECT_EQ(after.wait_result(reply.job_id).state, "done");
    }

    // And it still drains cleanly: run() returning is the no-hang proof.
    server->request_shutdown(false);
    runner.join();
    std::remove(opts.socket_path.c_str());
  }
}

}  // namespace
}  // namespace pa::daemon
