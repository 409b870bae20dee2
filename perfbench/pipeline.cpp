#include "pipeline.h"

#include <chrono>

#include "attacks/attacks.h"
#include "daemon/job.h"
#include "ir/transforms.h"
#include "privanalyzer/export.h"
#include "privanalyzer/render.h"
#include "rosa/replay.h"
#include "support/str.h"

namespace perfbench {

namespace pz = pa::privanalyzer;
using pa::str::cat;

void LayerCounts::add(const LayerCounts& o) {
  chrono_instrs += o.chrono_instrs;
  epochs += o.epochs;
  queries += o.queries;
  removes_inserted += o.removes_inserted;
  lint_findings += o.lint_findings;
  reduced_epochs += o.reduced_epochs;
  filter_violations += o.filter_violations;
  rosa.merge(o.rosa);
}

namespace {

void count_matrix(const std::vector<pa::attacks::EpochVerdicts>& matrix,
                  LayerCounts& counts) {
  for (const pa::attacks::EpochVerdicts& ev : matrix)
    for (const pa::rosa::SearchResult& r : ev.results) {
      counts.rosa.merge(r.stats);
      ++counts.queries;
    }
}

}  // namespace

pz::ProgramAnalysis traced_analyze(const pa::programs::ProgramSpec& spec,
                                   const pz::PipelineOptions& options,
                                   Trace& trace, LayerCounts& counts) {
  pz::ProgramAnalysis out;
  out.program = spec.name;
  const std::string& prog = spec.name;

  if (options.run_lint) {
    Trace::Scope span(trace, "lint", prog);
    pa::lint::LintReport report = pa::lint::run_lints(spec, options.lint);
    counts.lint_findings += static_cast<double>(report.findings.size());
    for (pa::support::Diagnostic& d : report.to_diagnostics())
      out.diagnostics.push_back(std::move(d));
  }

  pa::ir::Module module;
  {
    Trace::Scope span(trace, "autopriv", prog);
    module = spec.module;
    out.autopriv_report =
        pa::autopriv::run_autopriv(module, "main", options.autopriv);
    if (options.simplify_after_autopriv) pa::ir::simplify(module);
  }
  counts.removes_inserted += out.autopriv_report.stats.removes_inserted;

  auto make_world = [&options, &spec]() {
    return options.world_factory
               ? options.world_factory()
               : (spec.refactored_world ? pa::programs::make_refactored_world()
                                        : pa::programs::make_standard_world());
  };
  auto spawn = [&](pa::os::Kernel& kernel) {
    Trace::Scope span(trace, "programs", prog);
    kernel = make_world();
    return pa::programs::spawn_program(kernel, spec);
  };

  pa::os::Kernel kernel;
  const pa::os::Pid pid = spawn(kernel);
  if (options.filters == pz::FilterMode::Off) {
    Trace::Scope span(trace, "chronopriv", prog);
    out.chrono = pa::chronopriv::run_instrumented(kernel, module, pid,
                                                  spec.args, "main",
                                                  &out.exit_code);
    counts.chrono_instrs += static_cast<double>(out.chrono.total_instructions);
  } else {
    pa::chronopriv::EpochTracker tracker;
    tracker.set_record_points(true);
    {
      Trace::Scope span(trace, "chronopriv", prog);
      out.chrono = pa::chronopriv::run_instrumented_with(
          kernel, module, pid, tracker, spec.args, "main", &out.exit_code);
    }
    counts.chrono_instrs += static_cast<double>(out.chrono.total_instructions);
    {
      Trace::Scope span(trace, "filters", prog);
      out.filter_report = pa::filters::synthesize_filters(
          module, out.chrono, tracker.epoch_points());
    }
    counts.reduced_epochs += out.filter_report.reduced_epochs();

    if (options.filters == pz::FilterMode::Enforce) {
      Trace::Scope enforce_span(trace, "filters.enforce", prog);
      pa::os::Kernel enforced_kernel;
      const pa::os::Pid enforced_pid = spawn(enforced_kernel);
      enforced_kernel.install_filters(
          enforced_pid, pa::filters::to_filter_stack(out.filter_report,
                                                     options.filter_action));
      pa::chronopriv::EpochTracker enforced_tracker;
      enforced_tracker.set_epoch_change_hook(
          [&enforced_kernel, enforced_pid](std::size_t epoch) {
            enforced_kernel.set_filter_epoch(enforced_pid, epoch);
          });
      long enforced_exit = 0;
      pa::chronopriv::ChronoReport enforced;
      {
        Trace::Scope span(trace, "chronopriv", prog);
        enforced = pa::chronopriv::run_instrumented_with(
            enforced_kernel, module, enforced_pid, enforced_tracker,
            spec.args, "main", &enforced_exit);
      }
      counts.chrono_instrs += static_cast<double>(enforced.total_instructions);
      out.filter_violations =
          static_cast<int>(enforced_kernel.filter_violations().size());
      counts.filter_violations += out.filter_violations;
      if (out.filter_violations > 0) {
        const pa::os::FilterViolation& v =
            enforced_kernel.filter_violations().front();
        out.diagnostics.push_back(pa::support::Diagnostic{
            pa::support::Stage::ChronoPriv, pa::support::Severity::Warning,
            pa::support::DiagCode::FilterViolation, spec.name,
            cat("enforced epoch filter denied ", out.filter_violations,
                " syscall(s); first: ", v.syscall, " in epoch ", v.epoch,
                " — the conservative closure should be sound, so this "
                "indicates nondeterminism or a reachability bug")});
      }
      out.chrono = std::move(enforced);
      out.exit_code = enforced_exit;
    }
  }
  counts.epochs += static_cast<double>(out.chrono.rows.size());

  if (!options.run_rosa) return out;

  pa::rosa::SearchLimits limits = options.rosa_limits;
  if (options.max_total_seconds > 0)
    limits.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.max_total_seconds));
  const pa::rosa::EscalationPolicy escalation{options.rosa_escalation_rounds,
                                              2.0};
  std::shared_ptr<pa::rosa::QueryCache> cache = options.rosa_cache_instance;
  if (!cache && options.rosa_cache)
    cache = std::make_shared<pa::rosa::QueryCache>();

  const std::vector<std::string> syscalls = spec.syscalls_used();
  auto scenarios = [&](auto allowed_for) {
    Trace::Scope span(trace, "attacks", prog);
    std::vector<pa::attacks::ScenarioInput> inputs;
    inputs.reserve(out.chrono.rows.size());
    for (std::size_t i = 0; i < out.chrono.rows.size(); ++i)
      inputs.push_back(pa::attacks::scenario_from_epoch(
          out.chrono.rows[i], allowed_for(i), spec.scenario_extra_users,
          spec.scenario_extra_groups));
    return inputs;
  };
  auto matrix = [&](const std::vector<pa::attacks::ScenarioInput>& inputs) {
    Trace::Scope span(trace, "rosa", prog);
    return pa::attacks::analyze_epochs(out.chrono.rows, inputs, limits,
                                       options.rosa_threads, escalation,
                                       cache.get());
  };

  out.verdicts = matrix(scenarios([&](std::size_t) { return syscalls; }));
  count_matrix(out.verdicts, counts);

  if (options.filters != pz::FilterMode::Off && !out.filter_report.empty()) {
    out.filtered_verdicts = matrix(scenarios([&](std::size_t i) {
      std::vector<std::string> allowed;
      if (i < out.filter_report.epochs.size())
        for (const std::string& s : syscalls)
          if (out.filter_report.epochs[i].conservative.contains(s))
            allowed.push_back(s);
      return allowed;
    }));
    count_matrix(out.filtered_verdicts, counts);
  }

  if (limits.has_deadline() && Clock::now() >= limits.deadline)
    out.diagnostics.push_back(pa::support::Diagnostic{
        pa::support::Stage::Rosa, pa::support::Severity::Warning,
        pa::support::DiagCode::DeadlineExceeded, spec.name,
        cat("pipeline deadline of ",
            pa::str::fixed(options.max_total_seconds, 3),
            "s expired during the query matrix; unfinished cells report as "
            "Timeout (presumed invulnerable)")});
  return out;
}

std::string render_batch(const std::vector<pz::ProgramAnalysis>& analyses) {
  std::string out = pz::render_efficacy_table(analyses, "efficacy");
  out += pz::efficacy_to_csv(analyses);
  for (const pz::ProgramAnalysis& a : analyses)
    out += pa::daemon::render_job_result(a);
  return out;
}

std::string matrix_reference(
    const std::vector<pz::ProgramAnalysis>& analyses) {
  std::string out;
  for (const pz::ProgramAnalysis& a : analyses) {
    out += cat("program ", a.program, " status ",
               pz::analysis_status_name(a.status), "\n");
    for (std::size_t i = 0; i < a.chrono.rows.size(); ++i) {
      out += cat("epoch ", a.chrono.rows[i].name, " instructions ",
                 a.chrono.rows[i].instructions, " verdicts ");
      if (i < a.verdicts.size())
        for (pa::attacks::CellVerdict v : a.verdicts[i].verdicts)
          out.push_back(pa::attacks::cell_symbol(v));
      out.push_back('\n');
    }
    for (std::size_t k = 0; k < pa::attacks::modeled_attacks().size(); ++k)
      out += cat("vulnerable ", a.program, " attack", k + 1, " ",
                 pa::str::fixed(a.vulnerable_fraction(k), 6), "\n");
  }
  return out;
}

int replay_witnesses(const pa::programs::ProgramSpec& spec,
                     const pz::ProgramAnalysis& analysis, int* replayed,
                     std::string* diag) {
  using pa::attacks::AttackId;
  int failed = 0;
  const std::vector<std::string> syscalls = spec.syscalls_used();
  for (std::size_t i = 0;
       i < analysis.verdicts.size() && i < analysis.chrono.rows.size(); ++i) {
    const pa::attacks::ScenarioInput input = pa::attacks::scenario_from_epoch(
        analysis.chrono.rows[i], syscalls, spec.scenario_extra_users,
        spec.scenario_extra_groups);
    for (std::size_t k = 0; k < analysis.verdicts[i].results.size(); ++k) {
      const pa::rosa::SearchResult& r = analysis.verdicts[i].results[k];
      if (r.verdict != pa::rosa::Verdict::Reachable) continue;
      ++*replayed;
      const auto attack = static_cast<AttackId>(k + 1);
      const pa::rosa::Query q = pa::attacks::build_attack_query(attack, input);
      pa::rosa::Materialized world(q.initial);
      std::string why;
      bool ok = world.replay(r.witness, &why);
      if (ok) {
        switch (attack) {
          case AttackId::ReadDevMem:
            ok = world.holds_open(pa::attacks::kVictimProc,
                                  pa::attacks::kDevMemFile, false);
            break;
          case AttackId::WriteDevMem:
            ok = world.holds_open(pa::attacks::kVictimProc,
                                  pa::attacks::kDevMemFile, true);
            break;
          case AttackId::BindPrivilegedPort:
            ok = world.has_privileged_bind(pa::attacks::kVictimProc);
            break;
          case AttackId::KillServer:
            ok = world.is_terminated(pa::attacks::kServerProc);
            break;
        }
        if (!ok) why = "goal does not hold after the replay";
      }
      if (!ok) {
        ++failed;
        if (diag && diag->empty())
          *diag = cat("witness of ", analysis.chrono.rows[i].name, " attack",
                      k + 1, " does not replay: ", why);
      }
    }
  }
  return failed;
}

}  // namespace perfbench
