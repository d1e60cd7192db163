// elmo_analyze — driver: option parsing, file discovery, pass dispatch.
//
// The analyzer is self-contained C++17 (no libclang, no third-party
// dependencies) so it can be bootstrapped with a bare `g++ -std=c++17`
// before the CMake tree exists — scripts/lint.sh does exactly that.
//
// Passes (select with --pass=LIST, default all):
//   include   module layering DAG, facade enforcement for obs/check,
//             include cycles, #pragma once, IWYU-lite unused/missing
//             includes, Graphviz module-graph dump (--dot)
//   lock      static mutex acquisition graph: nested-guard edges with
//             enclosing-function attribution, one-level interprocedural
//             propagation, cycle detection, locks held across blocking
//             calls, and a diff against a runtime lockdep edge dump
//             (--lockdep-edges, format: one "A -> B" per line as printed
//             by elmo::check::LockOrderGraph::edges())
//   overflow  raw * / + / << on int64_t-typed expressions inside
//             src/nullspace, src/linalg, src/core that bypass the
//             bigint/checked.hpp helpers
//   lint      the historical elmo_lint rules (naked-new, no-rand,
//             catch-all, reinterpret-cast)
//   shared    interprocedural shared-state concurrency pass: globals /
//             statics / members / ref-captured locals mutated inside
//             parallel_for_dynamic / ThreadPool::submit / std::thread
//             bodies without a guard, an atomic type, or an
//             `// analyze:shared-ok` annotation; --tsan-log=FILE
//             cross-checks a ThreadSanitizer report against the static
//             findings (rule shared-unseen)
//   errpath   pairs manual acquire/release idioms (trace spans, spill
//             blocks, leases) across one call level and verifies every
//             throw of a typed error (ResourceError, CancelledError,
//             DeadlineExceededError) reaches a catch on some caller path
//   determinism  unordered-container iteration, pointer-keyed ordering
//             and wall-clock/thread-id use inside the solver-output
//             modules (nullspace, core, linalg, compress)
//   protocol  per-role communication skeletons extracted from mpsim call
//             sites: send/recv peer+tag compatibility, collectives under
//             rank-divergent guards, static send-before-recv deadlock
//             candidates; --flow-log=FILE cross-checks a runtime Chrome
//             trace's flow events against the skeleton (rule flow-unseen)
//   typestate declarative object-protocol machines for SpillFile,
//             MemoryLease, Watchdog tokens, checkpoint repair-before-
//             resume and SparseRankTester warm iterations, with
//             branch-merge and one-level interprocedural propagation
//
// `shared`, `errpath`, `protocol`, `typestate` and the call graph they
// share live on top of callgraph.hpp; see that header for the
// symbol-table model.
#pragma once

#include <string>
#include <vector>

#include "analyze/findings.hpp"
#include "analyze/source.hpp"

namespace elmo_analyze {

struct Options {
  std::string root = ".";
  bool pass_include = true;
  bool pass_lock = true;
  bool pass_overflow = true;
  bool pass_lint = true;
  bool pass_shared = true;
  bool pass_errpath = true;
  bool pass_determinism = true;
  bool pass_protocol = true;
  bool pass_typestate = true;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string json_path;
  std::string dot_path;
  std::string lockdep_edges_path;
  std::string tsan_log_path;       // shared pass: TSan report cross-check
  std::string flow_log_path;       // protocol pass: trace flow cross-check
  std::string format = "text";     // text | sarif (SARIF 2.1.0 on stdout)
  std::vector<std::string> files;  // explicit file arguments, if any
  bool lint_compat = false;        // elmo_lint-shim output format
  std::string tool_name = "elmo_analyze";
};

struct Project {
  std::vector<SourceFile> files;

  /// Index into `files` by root-relative path, or npos.
  [[nodiscard]] std::size_t find(const std::string& path) const;
};

/// Load the project: explicit files when given, otherwise every
/// *.hpp/*.cpp under <root>/src plus — when the directories exist —
/// <root>/tools, <root>/bench and <root>/examples (tests/ stays out: the
/// analyze fixtures under it deliberately violate rules).  Returns false
/// on IO failure (missing file, unreadable root).
bool load_project(const Options& opts, Project& project,
                  std::string& error);

void pass_include(const Project& project, const Options& opts,
                  std::vector<Finding>& findings);
void pass_lock(const Project& project, const Options& opts,
               std::vector<Finding>& findings);
void pass_overflow(const Project& project, const Options& opts,
                   std::vector<Finding>& findings);
void pass_lint(const Project& project, const Options& opts,
               std::vector<Finding>& findings);
void pass_shared(const Project& project, const Options& opts,
                 std::vector<Finding>& findings);
void pass_errpath(const Project& project, const Options& opts,
                  std::vector<Finding>& findings);
void pass_determinism(const Project& project, const Options& opts,
                      std::vector<Finding>& findings);
void pass_protocol(const Project& project, const Options& opts,
                   std::vector<Finding>& findings);
void pass_typestate(const Project& project, const Options& opts,
                    std::vector<Finding>& findings);

/// Full CLI: parse argv, run passes, emit reports.
/// Exit codes: 0 clean, 1 non-baselined findings, 2 usage/IO error.
int run_cli(int argc, char** argv);

}  // namespace elmo_analyze
