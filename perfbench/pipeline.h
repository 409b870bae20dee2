// The pipeline rebuilt from its public stage calls, with a span around each
// call, plus the correctness oracles the workloads share.
#pragma once

#include <string>
#include <vector>

#include "measure.h"
#include "privanalyzer/pipeline.h"

namespace perfbench {

/// Work counters recorded at the same boundaries as the spans.
struct LayerCounts {
  double chrono_instrs = 0;  // PrivIR instructions interpreted (every run)
  double epochs = 0;         // epoch rows measured
  double queries = 0;        // ROSA queries posed (matrix cells)
  double removes_inserted = 0;
  double lint_findings = 0;
  double reduced_epochs = 0;
  double filter_violations = 0;
  pa::rosa::SearchStats rosa;  // merged over every query

  void add(const LayerCounts& o);
};

/// analyze_program rebuilt stage by stage: lint, autopriv, programs (world
/// and spawn), chronopriv, filters (synthesis and the enforced re-run),
/// attacks (scenarios) and rosa (the matrix), each inside a span of that
/// name. The analysis must render byte for byte like analyze_program's; the
/// workloads check that on every traced op. A persistent cache file is not
/// supported (the workloads never set one).
pa::privanalyzer::ProgramAnalysis traced_analyze(
    const pa::programs::ProgramSpec& spec,
    const pa::privanalyzer::PipelineOptions& options, Trace& trace,
    LayerCounts& counts);

/// Everything analysis-relevant about a batch, as text: the efficacy
/// table, its CSV, and each program's daemon result body (which carries
/// diagnostics and witnesses).
std::string render_batch(
    const std::vector<pa::privanalyzer::ProgramAnalysis>& analyses);

/// The reference-file form of a batch: per program, each epoch's
/// instruction count and verdict row, then the per-attack vulnerable
/// fractions.
std::string matrix_reference(
    const std::vector<pa::privanalyzer::ProgramAnalysis>& analyses);

/// Replay every Reachable witness of `analysis` on a SimOS kernel
/// materialized from the attack's initial state, and check the attack's
/// goal holds afterwards. Returns the number of witnesses that failed;
/// `replayed` counts the witnesses tried.
int replay_witnesses(const pa::programs::ProgramSpec& spec,
                     const pa::privanalyzer::ProgramAnalysis& analysis,
                     int* replayed, std::string* diag);

}  // namespace perfbench
