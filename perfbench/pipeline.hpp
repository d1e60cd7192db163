// The solve job, two ways.
//
//   untraced_job  — the public one-call API: compute_efms(compressed) then
//                   efms_to_csv.  End-to-end metrics time this.
//   layered_job   — the same computation replayed through the per-layer
//                   entry points compute_efms is built from (to_problem +
//                   solve_efms / solve_combined, columns_to_bigint,
//                   CompressedProblem::expand, canonicalize_modes,
//                   efms_to_csv), each call wrapped in a span.  Per-layer
//                   times come from this replay; its mode-set hash is
//                   checked against the untraced result so the replay cannot
//                   drift from the library's own composition.
#pragma once

#include <string>

#include "core/api.hpp"
#include "spans.hpp"

namespace perfbench {

struct JobResult {
  elmo::EfmResult efm;
  std::size_t csv_bytes = 0;
  double seconds = 0.0;       // wall time of the whole job
  double cpu_seconds = 0.0;   // process user+system CPU time over the job
  double csv_seconds = 0.0;
};

/// Solver configuration of a workload.
struct SolveConfig {
  elmo::Algorithm algorithm = elmo::Algorithm::kSerial;
  int num_ranks = 1;
  std::size_t qsub = 2;

  [[nodiscard]] elmo::EfmOptions options() const;
};

JobResult untraced_job(const elmo::CompressedProblem& compressed,
                       const std::vector<bool>& reversibility,
                       const SolveConfig& config);

/// The layered replay; opens one "bench"/"job" root span with a child span
/// per layer call.  Returns the root span id in `root_span`.
JobResult layered_job(const elmo::Network& network,
                      const elmo::CompressedProblem& compressed,
                      const SolveConfig& config, Tracer& tracer,
                      int& root_span);

/// Process user+system CPU seconds so far (getrusage).
double process_cpu_seconds();

}  // namespace perfbench
