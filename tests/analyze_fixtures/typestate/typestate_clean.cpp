// Clean counterpart for the typestate pass.  Every machine driven
// through its legal protocol — including the vector-of-testers shape the
// combinatorial driver uses (range-for alias staging, subscripted warm
// tests) — plus one deliberate lint:allow escape.  Must stay silent.
// Never compiled — only analyzed.
#include <vector>

namespace fixture_ts_clean {

struct SpillFile {
  explicit SpillFile(const char* directory);
  void append_block(int block);
  void for_each_block(int sink);
};

struct MemoryLease {
  void set(unsigned long bytes);
  unsigned long charged() const;
  void release();
};

struct SparseRankTester {
  void begin_iteration(int common_rows);
  bool is_elementary(int support) const;
};

struct Token {};
struct Watchdog {
  static Watchdog& global();
  Token arm(const char* what, int budget_ms);
};

int load_checkpoint(const char* path);
void repair_checkpoint(const char* path);

// Writes staged before the read-back starts.
inline void staged_spill(int block) {
  SpillFile spill("/tmp/elmo-fixture");
  spill.append_block(block);
  spill.append_block(block);
  spill.for_each_block(block);
}

// Charged while active on every path; released exactly once at the end.
inline void balanced_lease(unsigned long bytes) {
  MemoryLease lease;
  lease.set(bytes);
  if (lease.charged() > 0) lease.set(bytes + 1);
  lease.release();
}

// The iteration is staged before the warm test.
inline bool warm_test(int support) {
  SparseRankTester tester;
  tester.begin_iteration(7);
  return tester.is_elementary(support);
}

// The combinatorial driver's shape: a vector of testers staged through a
// range-for alias, then tested through a subscripted receiver.
inline bool lane_tests(int support, int common_rows) {
  std::vector<SparseRankTester> testers;
  for (auto& tester : testers) tester.begin_iteration(common_rows);
  return testers[0].is_elementary(support);
}

// The solver drivers' shape: the per-candidate lambda is defined before
// the row loop and runs only after each iteration is staged.
inline int staged_driver(int rows, int support) {
  SparseRankTester tester;
  auto test = [&](int candidate) { return tester.is_elementary(candidate); };
  int accepted = 0;
  for (int row = 0; row < rows; ++row) {
    tester.begin_iteration(row);
    accepted += test(support + row);
  }
  return accepted;
}

// The Token is bound, so the watchdog stays armed for the span.
inline void supervised() {
  auto token = Watchdog::global().arm("merge", 500);
  (void)token;
}

// A deliberate fire-and-forget probe arm, reviewed and escaped.
inline void probe_arm() {
  // lint:allow(discarded-token)
  Watchdog::global().arm("probe", 10);
}

// Repair trims the damaged tail before the resume set is read.
inline int resume_repaired(const char* path) {
  repair_checkpoint(path);
  return load_checkpoint(path);
}

}  // namespace fixture_ts_clean
