// End-to-end crash-safe shutdown through the real CLI binary: SIGTERM lands
// mid-solve, the process flushes its subset checkpoint and a partial report,
// exits with the distinct resumable code (75), and a `--resume` rerun
// completes the run with byte-identical output to an uninterrupted one.
//
// The interrupt is inherently racy (a fast machine can finish before the
// signal lands), so the scenario polls the checkpoint file and signals as
// soon as the first subset commits, and retries a few times if the run
// still wins the race.  A run that completes cleanly is verified against
// the baseline instead, so every outcome is checked.  The same harness
// checks that integer flags reject values a C int cannot hold and that the
// a-priori estimate resolves --partition names the way the solver does.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "obs/json.hpp"
#include "resource/shutdown.hpp"

namespace elmo {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<std::size_t>(in.tellg());
}

/// Run CLI_BIN with `args`; if `signal_when_checkpointed` names a file, poll
/// it and deliver SIGTERM as soon as it holds at least one committed record.
/// Returns the child's exit status (or -1 on harness failure).
int run_cli(const std::vector<std::string>& args,
            const std::string& signal_when_checkpointed = std::string()) {
  std::vector<char*> argv;
  static const std::string bin = CLI_BIN;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // Child: silence the CLI's stderr progress chatter.
    std::freopen("/dev/null", "w", stderr);
    std::freopen("/dev/null", "w", stdout);
    execv(bin.c_str(), argv.data());
    _exit(127);
  }

  if (!signal_when_checkpointed.empty()) {
    // A checkpoint file holds the 8-byte magic plus at least one frame once
    // the first subset commits; signal the moment that happens.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (file_size(signal_when_checkpointed) > 16) {
        kill(pid, SIGTERM);
        break;
      }
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        // Finished before any checkpoint grew large enough.
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ShutdownCli, SigtermFlushesCheckpointAndResumeIsBitIdentical) {
  const std::string dir = ::testing::TempDir();
  const std::string base_csv = dir + "elmo_sig_base.csv";
  const std::string int_csv = dir + "elmo_sig_int.csv";
  const std::string int_json = dir + "elmo_sig_int.json";
  const std::string resumed_csv = dir + "elmo_sig_resumed.csv";
  const std::string ckpt = dir + "elmo_sig_ck.bin";
  for (const auto& p : {base_csv, int_csv, int_json, resumed_csv, ckpt})
    std::remove(p.c_str());

  // Many small subsets stretch the run and give the checkpoint frequent
  // commit points to interrupt between.
  const std::vector<std::string> common = {"--builtin",   "ecoli",
                                           "--algorithm", "combined",
                                           "--qsub",      "5"};

  auto base_args = common;
  base_args.insert(base_args.end(), {"--output", base_csv});
  ASSERT_EQ(run_cli(base_args), 0);
  const std::string baseline = slurp(base_csv);
  ASSERT_FALSE(baseline.empty());

  bool interrupted = false;
  for (int attempt = 0; attempt < 3 && !interrupted; ++attempt) {
    std::remove(ckpt.c_str());
    std::remove(int_csv.c_str());
    std::remove(int_json.c_str());
    auto args = common;
    args.insert(args.end(), {"--checkpoint", ckpt, "--output", int_csv,
                             "--report", int_json});
    const int code = run_cli(args, /*signal_when_checkpointed=*/ckpt);
    if (code == resource::kResumableExitCode) {
      interrupted = true;
      break;
    }
    // The run won the race and completed; its output must still match.
    ASSERT_EQ(code, 0) << "unexpected CLI exit code";
    EXPECT_EQ(slurp(int_csv), baseline);
  }

  if (!interrupted) {
    GTEST_SKIP() << "machine too fast to interrupt a 32-subset ecoli solve "
                    "in 3 attempts; clean-completion outputs verified";
  }

  // The cancelled run must have left a usable checkpoint covering SOME but
  // not all of the 2^5 subsets, and a partial report marked cancelled.
  auto committed = load_checkpoint(ckpt);
  ASSERT_GE(committed.size(), 1u);
  ASSERT_LT(committed.size(), 32u);
  const std::string report = slurp(int_json);
  ASSERT_FALSE(report.empty()) << "cancelled run must still flush a report";
  EXPECT_NE(report.find("cancelled"), std::string::npos);

  // Resume: skip the committed subsets, finish the rest, byte-identical.
  auto resume_args = common;
  resume_args.insert(resume_args.end(), {"--resume", ckpt, "--checkpoint",
                                         ckpt, "--output", resumed_csv});
  ASSERT_EQ(run_cli(resume_args), 0);
  EXPECT_EQ(slurp(resumed_csv), baseline);
  // The finished checkpoint now covers every subset.
  EXPECT_EQ(load_checkpoint(ckpt).size(), 32u);
}

TEST(ShutdownCli, IntegerFlagsAboveIntMaxAreRejected) {
  // 2^32 + 2 must not wrap to 2: the CLI rejects it like a negative value.
  EXPECT_EQ(run_cli({"--builtin", "toy", "--algorithm", "parallel",
                     "--ranks", "4294967298"}),
            2);
  EXPECT_EQ(run_cli({"--builtin", "toy", "--algorithm", "combined",
                     "--ranks", "2", "--retries", "4294967298"}),
            2);
  // INT_MAX itself is a valid attempt count; toy never needs a retry.
  EXPECT_EQ(run_cli({"--builtin", "toy", "--algorithm", "combined",
                     "--ranks", "2", "--retries", "2147483647"}),
            0);
}

TEST(CliEstimate, MergedPartitionReactionEstimatesLikeItsRepresentative) {
  // Compression merges ecoli's TPI into FBA, so --partition TPI splits the
  // solve on FBA's reduced column.  The a-priori estimate behind the
  // report's flow accounting and the progress ETA must split on that same
  // column, not fall back to the whole-problem estimate.
  struct Estimate {
    double pairs = 0.0;
    std::uint64_t total_iterations = 0;
  };
  const std::string dir = ::testing::TempDir();
  auto estimate_for = [&dir](const std::string& reaction) {
    const std::string report = dir + "elmo_est_" + reaction + ".json";
    const std::string heartbeat = dir + "elmo_est_" + reaction + ".jsonl";
    std::remove(report.c_str());
    std::remove(heartbeat.c_str());
    Estimate out;
    EXPECT_EQ(run_cli({"--builtin", "ecoli", "--algorithm", "combined",
                       "--ranks", "2", "--partition", reaction, "--report",
                       report, "--heartbeat", heartbeat, "-o", "/dev/null"}),
              0);
    std::string error;
    const obs::JsonValue doc = obs::parse_json(slurp(report), &error);
    EXPECT_TRUE(error.empty()) << error;
    const obs::JsonValue* flow = doc.find("flow");
    const obs::JsonValue* estimate =
        flow != nullptr ? flow->find("estimate") : nullptr;
    const obs::JsonValue* pairs =
        estimate != nullptr ? estimate->find("estimated_pairs") : nullptr;
    EXPECT_NE(pairs, nullptr) << "no flow.estimate.estimated_pairs";
    if (pairs != nullptr) out.pairs = pairs->as_double();
    std::istringstream lines(slurp(heartbeat));
    std::string line;
    while (std::getline(lines, line)) {
      const obs::JsonValue record = obs::parse_json(line);
      if (const obs::JsonValue* total = record.find("total_iterations"))
        out.total_iterations = total->as_uint();
    }
    return out;
  };
  const Estimate merged = estimate_for("TPI");
  const Estimate representative = estimate_for("FBA");
  EXPECT_GT(representative.pairs, 0.0);
  EXPECT_GT(representative.total_iterations, 0u);
  EXPECT_EQ(merged.pairs, representative.pairs);
  EXPECT_EQ(merged.total_iterations, representative.total_iterations);
}

TEST(ShutdownCli, ResumableExitCodeIsStable) {
  // Exit code 75 (EX_TEMPFAIL) is part of the CLI contract supervisors
  // script against; moving it is a breaking change.
  EXPECT_EQ(resource::kResumableExitCode, 75);
}

}  // namespace
}  // namespace elmo
