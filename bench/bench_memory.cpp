// SIV.B (memory scalability): the combinatorial parallel algorithm
// replicates the whole nullspace matrix on every rank, so its per-rank peak
// is the problem's peak; divide-and-conquer subsets each fit a smaller
// matrix ("fits the larger problem to the available architecture") while
// the CUMULATIVE memory over all subsets stays comparable.
//
// Prints: unsplit per-rank peak; per-subset peaks under qsub = 1..3; the
// max (what a node must fit) and the sum (cumulative) per qsub.  Also
// replays the budgeted recovery path — a per-rank budget derived from the
// qsub=2 peak, with adaptive re-splits and a retry policy — and emits the
// whole run as BENCH_memory.json for dashboards/regression tracking.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "core/combined.hpp"
#include "core/partitioned_parallel.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/problem.hpp"

int main(int argc, char** argv) {
  using namespace elmo;
  const bool full = bench::full_scale(argc, argv);
  bench::print_scale_banner(full,
                            "Figure (SIV.B): per-rank memory, split vs "
                            "unsplit");

  Network network = bench::network_1(full);
  auto compressed = compress(network);

  EfmOptions unsplit;
  unsplit.algorithm = Algorithm::kCombinatorialParallel;
  unsplit.num_ranks = 2;
  auto baseline = compute_efms(compressed, network.reversibility(), unsplit);
  std::printf("Algorithm 2 per-rank peak matrix memory: %s (peak %s "
              "columns)\n\n",
              bytes_str(baseline.peak_rank_memory).c_str(),
              with_commas(baseline.stats.peak_columns).c_str());

  Table table({"qsub", "largest subset peak", "sum over subsets",
               "vs unsplit (largest)", "# EFM"});
  auto problem = to_problem<CheckedI64>(compressed);
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"memory\",\n"
       << "  \"algorithm2_peak_rank_bytes\": " << baseline.peak_rank_memory
       << ",\n  \"qsub_sweep\": [";
  std::size_t qsub2_largest = 0;
  for (std::size_t qsub = 1; qsub <= 3; ++qsub) {
    CombinedOptions combined;
    combined.qsub = qsub;
    combined.num_ranks = 1;
    auto detailed = solve_combined<CheckedI64, DynBitset>(problem, combined);
    std::size_t largest = 0;
    std::size_t sum = 0;
    for (const auto& subset : detailed.subsets) {
      largest = std::max(largest, subset.stats.peak_matrix_bytes);
      sum += subset.stats.peak_matrix_bytes;
    }
    char ratio_text[32];
    std::snprintf(ratio_text, sizeof ratio_text, "%.2fx",
                  static_cast<double>(largest) /
                      static_cast<double>(baseline.peak_rank_memory));
    // Canonical mode count (raw columns can contain one +/- orientation
    // duplicate per fully reversible cycle).
    auto modes = columns_to_bigint(detailed.columns);
    canonicalize_modes(modes, problem.reversible);
    table.add_row({std::to_string(qsub), bytes_str(largest), bytes_str(sum),
                   ratio_text, with_commas(modes.size())});
    if (qsub == 2) qsub2_largest = largest;
    json << (qsub == 1 ? "" : ",") << "\n    {\"qsub\": " << qsub
         << ", \"largest_subset_peak_bytes\": " << largest
         << ", \"sum_subset_peak_bytes\": " << sum
         << ", \"num_efms\": " << modes.size() << "}";
  }
  json << "\n  ],\n";
  std::fputs(table.render("Algorithm 3 subsets").c_str(), stdout);

  // Budgeted recovery: squeeze the per-rank budget below the qsub=2 peak
  // so the oversized subsets must re-split (paper Table IV) and, when the
  // re-split allowance runs out, fall back to the serial final attempt.
  {
    CombinedOptions budgeted;
    budgeted.qsub = 2;
    budgeted.num_ranks = 2;
    budgeted.memory_budget_per_rank = qsub2_largest * 3 / 4;
    budgeted.max_extra_splits = 2;
    budgeted.retry.max_attempts = 2;
    budgeted.retry.serial_final_attempt = true;
    auto recovered =
        solve_combined<CheckedI64, DynBitset>(problem, budgeted);
    std::size_t resplit_subsets = 0;
    std::size_t extra_splits = 0;
    std::size_t retried_subsets = 0;
    std::size_t peak = 0;
    for (const auto& subset : recovered.subsets) {
      if (subset.extra_splits > 0) ++resplit_subsets;
      extra_splits += subset.extra_splits;
      if (subset.attempts > 1) ++retried_subsets;
      peak = std::max(peak, subset.ranks.max_memory_peak());
    }
    std::printf("\nBudgeted recovery (budget %s = 3/4 of qsub=2 peak): "
                "%zu subsets, %zu re-split (%zu extra splits), %zu retried "
                "(%zu attempts re-queued), per-rank peak %s\n",
                bytes_str(budgeted.memory_budget_per_rank).c_str(),
                recovered.subsets.size(), resplit_subsets, extra_splits,
                retried_subsets, recovered.total_retries,
                bytes_str(peak).c_str());
    json << "  \"budgeted_recovery\": {\n"
         << "    \"budget_bytes\": " << budgeted.memory_budget_per_rank
         << ",\n    \"num_subsets\": " << recovered.subsets.size()
         << ",\n    \"resplit_subsets\": " << resplit_subsets
         << ",\n    \"total_extra_splits\": " << extra_splits
         << ",\n    \"retried_subsets\": " << retried_subsets
         << ",\n    \"total_retries\": " << recovered.total_retries
         << ",\n    \"peak_rank_bytes\": " << peak << "\n  },\n";
  }

  // Algorithm 4 — the paper's future-work item #1 implemented: partition
  // the matrix itself across ranks instead of replicating it.
  Table a4({"# ranks", "per-rank peak (shard + positives)", "vs Alg. 2",
            "message bytes"});
  json << "  \"algorithm4\": [";
  bool first_a4 = true;
  for (int ranks : {2, 4, 8}) {
    ParallelOptions options;
    options.num_ranks = ranks;
    auto result =
        solve_partitioned_parallel<CheckedI64, DynBitset>(problem, options);
    const std::size_t peak_rank_bytes = result.ranks.max_memory_peak();
    char ratio_text[32];
    std::snprintf(ratio_text, sizeof ratio_text, "%.2fx",
                  static_cast<double>(peak_rank_bytes) /
                      static_cast<double>(baseline.peak_rank_memory));
    a4.add_row({std::to_string(ranks), bytes_str(peak_rank_bytes),
                ratio_text,
                with_commas(result.ranks.total_bytes_sent())});
    json << (first_a4 ? "" : ",") << "\n    {\"ranks\": " << ranks
         << ", \"peak_rank_bytes\": " << peak_rank_bytes
         << ", \"message_bytes\": " << result.ranks.total_bytes_sent()
         << "}";
    first_a4 = false;
  }
  json << "\n  ]\n}\n";
  {
    std::ofstream out("BENCH_memory.json");
    out << json.str();
  }
  std::printf("\nwrote BENCH_memory.json\n");
  std::fputs(
      ("\n" + a4.render("Algorithm 4 (matrix-partitioned, future-work #1)"))
          .c_str(),
      stdout);

  std::printf("\npaper: divide-and-conquer fits each subproblem into node "
              "memory; cumulative requirements stay the same order.\n"
              "Algorithm 4 removes the replica entirely at the cost of "
              "gathering the positive side each iteration.\n");
  return 0;
}
