#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "daemon/client.h"
#include "daemon/job.h"
#include "daemon/server.h"
#include "pipeline.h"
#include "privanalyzer/export.h"
#include "privanalyzer/render.h"
#include "support/str.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace pz = pa::privanalyzer;
using pa::programs::ProgramSpec;
using pa::str::cat;
using pa::str::fixed;

void Report::fail(std::string why) {
  correct = false;
  if (errors.size() < 5) errors.push_back(std::move(why));
}

namespace {

/// Keeps rendered output observable so the compiler cannot drop it.
volatile std::size_t g_sink = 0;

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Layer figures summed over a run's traced ops, so per-op means add up:
/// the self times of one op sum to its traced latency.
struct LayerTotals {
  std::map<std::string, double> self_ms;  // per span name
  std::map<std::string, int> ops_with;    // traced ops that opened the span
  double enforce_run_ms = 0.0;            // inclusive filters.enforce time
  LayerCounts counts;
  std::size_t ops = 0;

  void add(const Trace& trace, std::size_t first, const LayerCounts& c) {
    ++ops;
    for (const auto& [name, ms] : trace.self_ms(first)) {
      self_ms[name] += ms;
      ++ops_with[name];
    }
    const auto total = trace.total_ms(first);
    if (auto it = total.find("filters.enforce"); it != total.end())
      enforce_run_ms += it->second;
    counts.add(c);
  }
  double per_op(double sum) const { return ops ? sum / ops : 0.0; }
  double self_per_op(const std::string& name) const {
    auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : per_op(it->second);
  }
  /// Mean self time over the ops that ran the stage at all.
  double self_per_op_with(const std::string& name) const {
    auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : it->second / ops_with.at(name);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics every workload reports: means per traced op, and
/// ratios of the summed counters. Layers off a workload's path still report
/// their counts, which read 0 there.
void emit_layer_metrics(Report& rep, const LayerTotals& t,
                        double untraced_mean, double traced_mean,
                        double rejected) {
  const LayerCounts& c = t.counts;
  const pa::rosa::SearchStats& r = c.rosa;
  const double chrono_ms = t.self_per_op("chronopriv");
  const double rosa_ms = t.self_per_op("rosa");
  const double states = static_cast<double>(r.states);
  rep.metrics = {
      {"chronopriv.ms", chrono_ms, "ms"},
      {"chronopriv.instrs", t.per_op(c.chrono_instrs), "count"},
      {"chronopriv.ns_per_instr",
       ratio(chrono_ms * 1e6, t.per_op(c.chrono_instrs)), "ns"},
      {"chronopriv.epochs", t.per_op(c.epochs), "count"},
      {"rosa.matrix_ms", rosa_ms, "ms"},
      {"rosa.queries", t.per_op(c.queries), "count"},
      {"rosa.states", t.per_op(states), "count"},
      {"rosa.transitions", t.per_op(static_cast<double>(r.transitions)),
       "count"},
      {"rosa.states_per_s", ratio(t.per_op(states), rosa_ms / 1e3), "1/s"},
      {"rosa.dedup_ratio",
       ratio(static_cast<double>(r.dedup_hits),
             static_cast<double>(r.transitions)),
       "ratio"},
      {"rosa.fused_searches_saved",
       t.per_op(static_cast<double>(r.fused_searches_saved)), "count"},
      {"rosa.escalations", t.per_op(static_cast<double>(r.escalations)),
       "count"},
      // SearchStats::merge keeps the maximum: the largest single search.
      {"rosa.peak_bytes", static_cast<double>(r.peak_bytes), "bytes"},
      {"rosa.cache_hits", t.per_op(static_cast<double>(r.cache_hits)),
       "count"},
      {"rosa.cache_misses", t.per_op(static_cast<double>(r.cache_misses)),
       "count"},
      {"rosa.cache_hit_ratio",
       ratio(static_cast<double>(r.cache_hits),
             static_cast<double>(r.cache_hits + r.cache_misses)),
       "ratio"},
      {"autopriv.ms", t.self_per_op("autopriv"), "ms"},
      {"autopriv.removes_inserted", t.per_op(c.removes_inserted), "count"},
      {"programs.world_ms", t.self_per_op("programs"), "ms"},
      {"attacks.scenario_ms", t.self_per_op("attacks"), "ms"},
      {"render.ms", t.self_per_op("render"), "ms"},
      {"lint.findings", t.per_op(c.lint_findings), "count"},
      {"filters.reduced_epochs", t.per_op(c.reduced_epochs), "count"},
      {"filters.violations", t.per_op(c.filter_violations), "count"},
      {"daemon.rejected", rejected, "count"},
      {"trace.overhead_ratio", ratio(traced_mean, untraced_mean), "ratio"},
  };
}

/// The self-time table of a traced run: one row per layer (mean per op),
/// its share, and how the sum compares with the untraced latency.
void self_time_lines(Report& rep, const LayerTotals& t, double untraced_mean,
                     double untraced_p50, double traced_mean) {
  std::vector<std::pair<double, std::string>> rows;
  double sum = 0.0;
  for (const auto& [name, total] : t.self_ms) {
    rows.emplace_back(t.per_op(total), name == "op" ? "(bench glue)" : name);
    sum += t.per_op(total);
  }
  std::sort(rows.rbegin(), rows.rend());
  rep.lines.push_back(
      cat("self time per op, mean of ", t.ops, " traced ops:"));
  for (const auto& [ms, layer] : rows)
    rep.lines.push_back(cat("  ", pa::str::pad_right(layer, 18),
                            pa::str::pad_left(fixed(ms, 4), 12), " ms ",
                            pa::str::pad_left(fixed(100.0 * ratio(ms, sum), 2),
                                              7),
                            " %"));
  rep.lines.push_back(cat("  sum ", fixed(sum, 4), " ms (traced mean ",
                          fixed(traced_mean, 4), " ms); untraced mean ",
                          fixed(untraced_mean, 4), " ms, p50 ",
                          fixed(untraced_p50, 4), " ms; sum/untraced mean ",
                          fixed(ratio(sum, untraced_mean), 4)));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void write_trace(Report& rep, const Trace& trace, const Options& opts) {
  const std::string path = cat(opts.work_dir, "/trace-", opts.workload,
                               "-seed", opts.seed, ".json");
  fs::create_directories(opts.work_dir);
  if (trace.write_json(path))
    rep.lines.push_back(cat("spans: ", trace.size(), " written to ", path));
  else
    rep.lines.push_back(cat("spans: ", trace.size(), " (could not write ",
                            path, ")"));
}

/// End-to-end metrics shared by every workload's untraced run.
void emit_end_to_end(Report& rep, const std::vector<double>& latencies,
                     double throughput, double cpu_ms_per_op,
                     const std::vector<double>& setups) {
  const Tail tail = tail_of(latencies);
  const double setup_s = median(setups);
  rep.metrics = {
      {"latency_ms_p50", median(latencies), "ms"},
      {"latency_ms_tail", tail.value, "ms"},
      {"throughput_per_s", throughput, "1/s"},
      {"cpu_ms_per_op", cpu_ms_per_op, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
  const double failed_ratio =
      rep.attempted ? static_cast<double>(rep.failed) /
                          static_cast<double>(rep.attempted)
                    : 0.0;
  rep.lines.push_back(cat("latency_ms_tail is the median over ", tail.windows,
                          " window(s) of each window's p",
                          fixed(tail.percentile, 1), "; ", tail.samples,
                          " timed ops"));
  std::vector<double> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  std::string spread = "latency_ms percentiles over the whole run:";
  for (int q : {0, 10, 25, 50, 75, 90, 95, 99, 100})
    if (!sorted.empty())
      spread += cat(" p", q, "=",
                    fixed(sorted[std::min(sorted.size() - 1,
                                          sorted.size() * q / 100)],
                          3));
  rep.lines.push_back(spread);
  rep.lines.push_back(cat("failed_ratio ", json_number(failed_ratio), " (",
                          rep.failed, " of ", rep.attempted, " ops)"));
}

// ---------------------------------------------------------------------------
// Batch workloads: table3 and table5.

struct Batch {
  std::vector<ProgramSpec> specs;
  std::string title;
};

Batch make_batch(const std::string& workload) {
  if (workload == "table3")
    return {pa::programs::all_baseline_programs(), "Table III"};
  return {{pa::programs::make_passwd_refactored(),
           pa::programs::make_su_refactored()},
          "Table V"};
}

pz::PipelineOptions batch_options() {
  pz::PipelineOptions opts;
  opts.rosa_limits.max_states = 1'000'000;
  opts.rosa_threads = kBatchRosaThreads;
  opts.run_lint = true;
  opts.filters = pz::FilterMode::Off;
  return opts;
}

std::vector<pz::ProgramAnalysis> batch_pass(const Batch& b,
                                            const pz::PipelineOptions& opts) {
  std::vector<pz::ProgramAnalysis> analyses;
  analyses.reserve(b.specs.size());
  for (const ProgramSpec& spec : b.specs)
    analyses.push_back(pz::analyze_program(spec, opts));
  g_sink = g_sink + pz::render_efficacy_table(analyses, b.title).size() +
           pz::efficacy_to_csv(analyses).size();
  return analyses;
}

std::vector<pz::ProgramAnalysis> traced_batch_pass(
    const Batch& b, const pz::PipelineOptions& opts, Trace& trace,
    LayerCounts& counts, const std::string& workload) {
  Trace::Scope root(trace, "op", workload);
  std::vector<pz::ProgramAnalysis> analyses;
  analyses.reserve(b.specs.size());
  for (const ProgramSpec& spec : b.specs)
    analyses.push_back(traced_analyze(spec, opts, trace, counts));
  Trace::Scope span(trace, "render", workload);
  g_sink = g_sink + pz::render_efficacy_table(analyses, b.title).size() +
           pz::efficacy_to_csv(analyses).size();
  return analyses;
}

std::string load_reference(const Options& opts) {
  const std::string dir = opts.reference_dir.empty()
                              ? opts.bench_dir + "/reference"
                              : opts.reference_dir;
  std::istringstream in(read_file(cat(dir, "/", opts.workload, ".txt")));
  std::string out, line;
  while (std::getline(in, line))
    if (!line.empty() && line[0] != '#') out += line + "\n";
  return out;
}

/// Check one pass against the reference matrix and replay its witnesses,
/// adding the number replayed to `replays`. Returns false (and records why)
/// on any mismatch.
bool check_pass(Report& rep, const Batch& b,
                const std::vector<pz::ProgramAnalysis>& analyses,
                const std::string& reference, int& replays) {
  bool ok = true;
  for (const pz::ProgramAnalysis& a : analyses)
    if (!a.ok()) {
      rep.fail(cat(a.program, " analysis failed: ",
                   pz::render_analysis_diagnostics(a)));
      ok = false;
    }
  const std::string got = matrix_reference(analyses);
  if (got != reference) {
    rep.fail("verdict matrix or vulnerable fractions differ from the "
             "reference:\n" + got);
    ok = false;
  }
  for (std::size_t i = 0; i < analyses.size() && i < b.specs.size(); ++i) {
    std::string diag;
    if (replay_witnesses(b.specs[i], analyses[i], &replays, &diag) > 0) {
      rep.fail(diag);
      ok = false;
    }
  }
  return ok;
}

Report run_batch(const Options& opts) {
  Report rep;
  const std::string reference = load_reference(opts);

  // Set-up is timed kSetupRepeats times before the first timed op and once
  // more after every timed op, outside its timing: one set-up takes well
  // under a millisecond, so repeats taken at a single moment all share the
  // host's state at that moment, and the median over the whole run is
  // steadier from run to run.
  std::vector<double> setups;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    Batch b = make_batch(opts.workload);
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
    return b;
  };
  Batch batch;
  for (int i = 0; i < kSetupRepeats; ++i) batch = set_up();
  const pz::PipelineOptions popts = batch_options();
  const double programs = static_cast<double>(batch.specs.size());

  // Warm-up pass: fills lazy state, and is checked like every other pass.
  int replays = 0;
  std::vector<pz::ProgramAnalysis> first = batch_pass(batch, popts);
  ++rep.attempted;
  if (!check_pass(rep, batch, first, reference, replays)) ++rep.failed;
  const std::string expected_render = render_batch(first);
  first.clear();

  std::vector<double> latencies, traced_latencies;
  double cpu_ms = 0.0;
  Trace trace(opts.workload);
  LayerTotals totals;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  auto untraced_pass = [&] {
    const double c0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    std::vector<pz::ProgramAnalysis> analyses = batch_pass(batch, popts);
    latencies.push_back(ms_between(t0, Clock::now()));
    cpu_ms += process_cpu_ms() - c0;
    ++rep.attempted;
    if (!check_pass(rep, batch, analyses, reference, replays)) ++rep.failed;
  };
  auto traced_pass = [&] {
    trace.begin_op();
    const std::size_t first_span = trace.size();
    LayerCounts counts;
    const Clock::time_point t0 = Clock::now();
    std::vector<pz::ProgramAnalysis> traced =
        traced_batch_pass(batch, popts, trace, counts, opts.workload);
    traced_latencies.push_back(ms_between(t0, Clock::now()));
    totals.add(trace, first_span, counts);
    ++rep.attempted;
    bool ok = check_pass(rep, batch, traced, reference, replays);
    if (render_batch(traced) != expected_render) {
      rep.fail("traced pipeline output differs from analyze_program's");
      ok = false;
    }
    if (!ok) ++rep.failed;
  };
  // A traced run pairs each untraced pass with a traced pass of the same
  // programs, alternating which goes first, so both sides see the same host
  // conditions and neither always follows the other.
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    const bool traced_first = opts.trace && i % 2 == 1;
    if (traced_first) traced_pass();
    untraced_pass();
    if (opts.trace && !traced_first) traced_pass();
    set_up();
  }
  rep.lines.push_back(cat("checked ", rep.attempted,
                          " passes against the reference; replayed ",
                          replays, " witnesses on SimOS"));

  if (!opts.trace) {
    double total_ms = 0.0;
    for (double l : latencies) total_ms += l;
    emit_end_to_end(rep, latencies,
                    total_ms > 0 ? programs * latencies.size() /
                                       (total_ms / 1e3)
                                 : 0.0,
                    latencies.empty() ? 0.0 : cpu_ms / latencies.size(),
                    setups);
    return rep;
  }
  emit_layer_metrics(rep, totals, mean(latencies), mean(traced_latencies),
                     0.0);
  rep.lines.push_back(
      cat("lint.ms ", fixed(totals.self_per_op("lint"), 4), " per pass"));
  self_time_lines(rep, totals, mean(latencies), median(latencies),
                  mean(traced_latencies));
  write_trace(rep, trace, opts);
  return rep;
}

// ---------------------------------------------------------------------------
// daemon_mix: closed-loop clients against an in-process daemon.

struct JobKind {
  const char* label;
  pa::daemon::JobRequest request;
  unsigned weight;  // relative frequency in the seeded order
};

std::vector<JobKind> make_jobs(const std::string& bench_dir) {
  auto text = [&](const char* kind, const char* file, const char* filters) {
    pa::daemon::JobRequest r;
    r.kind = kind;
    r.source = read_file(cat(bench_dir, "/jobs/", file));
    r.filters = filters;
    return r;
  };
  auto builtin = [](const char* name) {
    pa::daemon::JobRequest r;
    r.kind = "builtin";
    r.source = name;
    return r;
  };
  // Job latencies form one cluster per job, with gaps between them. The
  // weights put the median inside the su cluster (30% of draws lie below
  // it, 30% above) and the tail inside the su.pc+enforce cluster, the
  // slowest. Under equal weights half the draws are faster than su, so the
  // median would sit in the 2 ms gap between ping and su and cross it
  // whenever a run drew a few more fast jobs than slow ones.
  std::vector<JobKind> jobs = {
      {"passwd", builtin("passwd"), 1},
      {"su", builtin("su"), 4},
      {"ping", builtin("ping"), 1},
      {"tinyd.pir", text("pir", "tinyd.pir", "off"), 1},
      {"filesrv.pc", text("pc", "filesrv.pc", "off"), 1},
      {"su.pc+enforce", text("pc", "su.pc", "enforce"), 2},
  };
  for (JobKind& j : jobs) j.request.rosa_threads = kJobRosaThreads;
  return jobs;
}

/// splitmix64: the seeded job-order generator (same seed, same order).
std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The next job of a seeded order: a draw weighted by JobKind::weight.
std::size_t next_job(std::uint64_t& state, const std::vector<JobKind>& jobs) {
  unsigned total = 0;
  for (const JobKind& j : jobs) total += j.weight;
  std::uint64_t r = next_random(state) % total;
  std::size_t k = 0;
  while (r >= jobs[k].weight) r -= jobs[k++].weight;
  return k;
}

std::uint64_t client_stream(std::uint64_t seed, unsigned client) {
  return seed * 0x100000001B3ull + client + 1;
}

constexpr double kJobDeadlineSecs = 30.0;  // daemon default job budget

/// A daemon serving on its own thread; stop() drains it and joins.
struct DaemonHandle {
  std::unique_ptr<pa::daemon::Server> server;
  std::thread runner;

  DaemonHandle() = default;
  DaemonHandle(const DaemonHandle&) = delete;
  DaemonHandle& operator=(const DaemonHandle&) = delete;

  void start(const std::string& socket_path) {
    pa::daemon::ServerOptions so;
    so.socket_path = socket_path;
    so.workers = kDaemonWorkers;
    so.default_deadline_secs = kJobDeadlineSecs;
    server = std::make_unique<pa::daemon::Server>(so);
    runner = std::thread([s = server.get()] { s->run(); });
  }
  void stop() {
    if (server) server->request_shutdown(false);
    if (runner.joinable()) runner.join();
    server.reset();
  }
  ~DaemonHandle() { stop(); }
};

struct JobSample {
  std::size_t kind = 0;
  double latency_ms = 0.0;
  double queue_ms = -1.0;  // submit -> state:running event
  double run_ms = -1.0;    // state:running event -> Result
  Clock::time_point done;  // when the Result (or rejection) arrived
  bool ok = false;
  bool rejected = false;
};

/// One closed-loop client: submit, wait for the Result, repeat until
/// `end`. Every Result body is compared with the one-shot reference.
std::vector<JobSample> client_loop(const std::string& socket_path,
                                   const std::vector<JobKind>& jobs,
                                   const std::vector<std::string>& expected,
                                   std::uint64_t stream, Clock::time_point end,
                                   std::vector<std::string>& errors) {
  std::vector<JobSample> out;
  try {
    // Declared before the client, whose event callback refers to it.
    std::map<std::uint64_t, Clock::time_point> running_at;
    pa::daemon::Client client(socket_path);
    client.on_event([&running_at](const pa::daemon::EventMsg& e) {
      if (e.kind == "state" && e.text == "running")
        running_at[e.job_id] = Clock::now();
    });
    while (Clock::now() < end) {
      JobSample s;
      s.kind = next_job(stream, jobs);
      const Clock::time_point t0 = Clock::now();
      pa::daemon::SubmitReply reply = client.submit(jobs[s.kind].request);
      if (!reply.accepted) {
        s.rejected = true;
        s.done = Clock::now();
        s.latency_ms = ms_between(t0, s.done);
        out.push_back(s);
        continue;
      }
      pa::daemon::ResultMsg result = client.wait_result(reply.job_id);
      const Clock::time_point t1 = Clock::now();
      s.done = t1;
      s.latency_ms = ms_between(t0, t1);
      if (auto it = running_at.find(reply.job_id); it != running_at.end()) {
        s.queue_ms = ms_between(t0, it->second);
        s.run_ms = ms_between(it->second, t1);
        running_at.erase(it);
      }
      s.ok = result.state == "done" && result.body == expected[s.kind];
      if (!s.ok && errors.size() < 5)
        errors.push_back(cat("daemon job ", jobs[s.kind].label, " ended ",
                             result.state, " with a body that differs from "
                             "the one-shot run"));
      out.push_back(s);
    }
  } catch (const std::exception& e) {
    errors.push_back(cat("daemon client: ", e.what()));
    JobSample failed;  // the op in flight
    failed.done = Clock::now();
    out.push_back(failed);
  }
  return out;
}

/// Run the closed loop with kDaemonClients clients until `seconds` pass.
std::vector<JobSample> closed_loop(const std::string& socket_path,
                                   const std::vector<JobKind>& jobs,
                                   const std::vector<std::string>& expected,
                                   std::uint64_t seed, double seconds,
                                   const std::function<void()>& every_second,
                                   Report& rep, double* window_s) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::vector<JobSample>> per_client(kDaemonClients);
  std::vector<std::vector<std::string>> errors(kDaemonClients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kDaemonClients; ++c)
    threads.emplace_back([&, c] {
      per_client[c] = client_loop(socket_path, jobs, expected,
                                  client_stream(seed, c), end, errors[c]);
    });
  for (Clock::time_point next = t0 + std::chrono::seconds(1); next < end;
       next += std::chrono::seconds(1)) {
    std::this_thread::sleep_until(next);
    try {
      every_second();
    } catch (const std::exception& e) {
      rep.fail(cat("during the closed loop: ", e.what()));
    }
  }
  for (std::thread& t : threads) t.join();
  *window_s = ms_between(t0, Clock::now()) / 1e3;
  std::vector<JobSample> all;
  for (unsigned c = 0; c < kDaemonClients; ++c) {
    all.insert(all.end(), per_client[c].begin(), per_client[c].end());
    for (std::string& e : errors[c]) rep.fail(std::move(e));
  }
  // Both clients' jobs in the order they finished, so tail windows are
  // stretches of time.
  std::stable_sort(all.begin(), all.end(),
                   [](const JobSample& a, const JobSample& b) {
                     return a.done < b.done;
                   });
  for (const JobSample& s : all) {
    ++rep.attempted;
    if (!s.ok) {
      ++rep.failed;
      rep.correct = false;
    }
  }
  return all;
}

Report run_daemon_mix(const Options& opts) {
  Report rep;
  const std::string run_dir = cat(opts.work_dir, "/daemon-", ::getpid());
  fs::create_directories(run_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{run_dir};
  const std::string socket_path = run_dir + "/d.sock";

  // The oracle: each request's body from a one-shot run, outside any timing.
  const std::vector<JobKind> reference_jobs = make_jobs(opts.bench_dir);
  std::vector<std::string> expected;
  for (const JobKind& j : reference_jobs) {
    pa::daemon::JobOutcome o =
        pa::daemon::run_job(j.request, nullptr, nullptr, kJobDeadlineSecs);
    if (o.state != pa::daemon::JobState::Done)
      rep.fail(cat("one-shot ", j.label, " ended ",
                   pa::daemon::job_state_name(o.state)));
    expected.push_back(std::move(o.body));
  }

  // Set-up: read and parse the job sources, start the daemon, and wait
  // until it answers. Timed kSetupRepeats times before the closed loop (the
  // last daemon stays up for the run) and once a second during it, on a
  // second socket. One set-up takes about a millisecond, mostly thread
  // wake-ups, whose cost depends on the host's state: back-to-back repeats
  // before the loop read either about 0.6 or about 0.9 ms from one run to
  // the next. The median of all set-ups, most of them spread through the
  // loop, is steadier.
  std::vector<double> setups;
  auto set_up = [&](DaemonHandle& d, const std::string& path) {
    d.stop();
    const Clock::time_point t0 = Clock::now();
    std::vector<JobKind> parsed = make_jobs(opts.bench_dir);
    for (const JobKind& j : parsed)
      g_sink = g_sink + pa::daemon::resolve_program(j.request).name.size();
    d.start(path);
    pa::daemon::Client probe(path);
    if (!probe.ping()) throw std::runtime_error("daemon did not answer ping");
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
    return parsed;
  };
  std::vector<JobKind> jobs;
  DaemonHandle daemon;
  for (int i = 0; i < kSetupRepeats; ++i) jobs = set_up(daemon, socket_path);
  const auto set_up_again = [&, setup_socket = run_dir + "/setup.sock"] {
    DaemonHandle extra;
    set_up(extra, setup_socket);
  };

  // Warm-up: every job once, so the resident cache holds the verdicts the
  // timed loop will reuse.
  {
    pa::daemon::Client client(socket_path);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      ++rep.attempted;
      pa::daemon::SubmitReply reply = client.submit(jobs[k].request);
      const bool ok =
          reply.accepted &&
          client.wait_result(reply.job_id).body == expected[k];
      if (!ok) {
        ++rep.failed;
        rep.fail(cat("warm-up job ", jobs[k].label, " failed"));
      }
    }
  }

  const double loop_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::size_t setups_before_loop = setups.size();
  const double c0 = process_cpu_ms();
  double window_s = 0.0;
  const std::vector<JobSample> all = closed_loop(
      socket_path, jobs, expected, opts.seed, loop_seconds, set_up_again, rep,
      &window_s);
  const double cpu_ms = process_cpu_ms() - c0;
  daemon.stop();
  const auto loop_setups =
      setups.begin() + static_cast<std::ptrdiff_t>(setups_before_loop);
  rep.lines.push_back(
      cat("set-ups: ", setups_before_loop, " before the closed loop, median ",
          fixed(1e3 * median({setups.begin(), loop_setups}), 4), " ms; ",
          setups.end() - loop_setups, " during it, median ",
          fixed(1e3 * median({loop_setups, setups.end()}), 4), " ms"));

  std::vector<double> latencies;
  std::size_t completed = 0, rejected = 0;
  for (const JobSample& s : all) {
    if (s.rejected) {
      ++rejected;
    } else if (s.latency_ms > 0) {
      ++completed;
      latencies.push_back(s.latency_ms);
    }
  }

  std::vector<std::vector<double>> by_kind(jobs.size());
  for (const JobSample& s : all)
    if (!s.rejected && s.latency_ms > 0)
      by_kind[s.kind].push_back(s.latency_ms);
  for (std::size_t k = 0; k < jobs.size(); ++k)
    rep.lines.push_back(cat("job ", pa::str::pad_right(jobs[k].label, 14),
                            " n=", by_kind[k].size(), " p50 ",
                            fixed(median(by_kind[k]), 4), " ms, tail ",
                            fixed(tail_of(by_kind[k]).value, 4), " ms"));

  if (!opts.trace) {
    emit_end_to_end(rep, latencies,
                    window_s > 0 ? static_cast<double>(completed) / window_s
                                 : 0.0,
                    all.empty() ? 0.0 : cpu_ms / all.size(), setups);
    return rep;
  }

  // Traced half: the same requests in process, one at a time, against one
  // shared cache like the daemon's resident one. Each job runs untraced
  // through daemon::run_job and traced through the rebuilt pipeline,
  // alternating which goes first.
  auto cache = std::make_shared<pa::rosa::QueryCache>();
  for (const JobKind& j : jobs)
    pa::daemon::run_job(j.request, cache, nullptr, kJobDeadlineSecs);
  std::vector<std::vector<double>> run_job_ms(jobs.size());
  std::vector<double> untraced, traced;
  Trace trace(opts.workload);
  LayerTotals totals;
  auto untraced_job = [&](std::size_t k) {
    const Clock::time_point t0 = Clock::now();
    pa::daemon::JobOutcome o =
        pa::daemon::run_job(jobs[k].request, cache, nullptr, kJobDeadlineSecs);
    const double ms = ms_between(t0, Clock::now());
    untraced.push_back(ms);
    run_job_ms[k].push_back(ms);
    ++rep.attempted;
    if (o.body != expected[k]) {
      ++rep.failed;
      rep.fail(cat("in-process ", jobs[k].label, " differs from one-shot"));
    }
  };
  auto traced_job = [&](std::size_t k) {
    const pa::daemon::JobRequest& req = jobs[k].request;
    trace.begin_op();
    const std::size_t first_span = trace.size();
    LayerCounts counts;
    std::string body;
    const Clock::time_point t0 = Clock::now();
    {
      Trace::Scope root(trace, "op", jobs[k].label);
      try {
        ProgramSpec spec;
        {
          Trace::Scope span(trace, "loader", jobs[k].label);
          spec = pa::daemon::resolve_program(req);
        }
        const pz::PipelineOptions popts = pa::daemon::make_pipeline_options(
            req, cache, nullptr, kJobDeadlineSecs);
        pz::ProgramAnalysis a = traced_analyze(spec, popts, trace, counts);
        Trace::Scope span(trace, "render", jobs[k].label);
        body = pa::daemon::render_job_result(a);
      } catch (const std::exception& e) {
        body = cat("traced job threw: ", e.what());
      }
    }
    traced.push_back(ms_between(t0, Clock::now()));
    totals.add(trace, first_span, counts);
    ++rep.attempted;
    if (body != expected[k]) {
      ++rep.failed;
      rep.fail(cat("traced pipeline output for ", jobs[k].label,
                   " differs from the one-shot run"));
    }
  };
  std::uint64_t stream = client_stream(opts.seed, 0);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds / 2));
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    const std::size_t k = next_job(stream, jobs);
    if (i % 2 == 1) traced_job(k);
    untraced_job(k);
    if (i % 2 == 0) traced_job(k);
  }

  // Daemon overhead: client-observed latency minus the in-process run_job
  // time of the same request.
  std::vector<double> queue, run, overhead;
  for (const JobSample& s : all) {
    if (!s.ok) continue;
    if (s.queue_ms >= 0) queue.push_back(s.queue_ms);
    if (s.run_ms >= 0) run.push_back(s.run_ms);
    if (!run_job_ms[s.kind].empty())
      overhead.push_back(s.latency_ms - median(run_job_ms[s.kind]));
  }
  emit_layer_metrics(rep, totals, mean(untraced), mean(traced),
                     static_cast<double>(rejected));
  rep.lines.push_back(cat(
      "daemon (client side, ", all.size(), " jobs): queue_wait_ms_p50 ",
      fixed(median(queue), 4), ", run_ms_p50 ", fixed(median(run), 4),
      ", overhead_ms_p50 ", fixed(median(overhead), 4), ", rejected ",
      rejected));
  rep.lines.push_back(cat(
      "loader.ms ", fixed(totals.self_per_op("loader"), 4),
      " per job; on su.pc+enforce jobs: filters.synth_ms ",
      fixed(totals.self_per_op_with("filters"), 4),
      ", filters.enforce_run_ms ",
      fixed(ratio(totals.enforce_run_ms,
                  totals.ops_with.count("filters.enforce")
                      ? totals.ops_with.at("filters.enforce")
                      : 0),
            4)));
  self_time_lines(rep, totals, mean(untraced), median(untraced),
                  mean(traced));
  write_trace(rep, trace, opts);
  return rep;
}

}  // namespace

Report run_workload(const Options& opts) {
  if (opts.workload == "table3" || opts.workload == "table5")
    return run_batch(opts);
  if (opts.workload == "daemon_mix") return run_daemon_mix(opts);
  throw std::runtime_error("unknown workload '" + opts.workload + "'");
}

std::string generate_reference(const Options& opts) {
  if (opts.workload != "table3" && opts.workload != "table5")
    throw std::runtime_error("only table3 and table5 have reference files");
  const Batch batch = make_batch(opts.workload);
  return matrix_reference(batch_pass(batch, batch_options()));
}

}  // namespace perfbench
