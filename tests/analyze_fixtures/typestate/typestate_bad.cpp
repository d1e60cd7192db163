// Seeded violations for the typestate pass.  Never compiled — only
// analyzed.  The type names match the tracked machines (SpillFile,
// MemoryLease, SparseRankTester, Watchdog, the checkpoint free functions);
// the bodies walk each machine into a bad state.
namespace fixture_ts {

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

bool risky();
int load_checkpoint(const char* path);
void repair_checkpoint(const char* path);

// spill-write-after-read: a block appended after the file started
// streaming back breaks the open -> write* -> read* -> close protocol.
inline void write_after_read(int block) {
  SpillFile spill("/tmp/elmo-fixture");
  spill.append_block(block);
  spill.for_each_block(block);
  spill.append_block(block);
}

// use-after-release on a merged path: the error branch releases early,
// then both paths reach the charge.
inline void early_release(unsigned long bytes) {
  MemoryLease lease;
  lease.set(bytes);
  if (risky()) lease.release();
  lease.set(bytes + 1);
}

// warm-test-before-begin: no path stages an iteration before the warm
// elementarity test.
inline bool cold_test(int support) {
  SparseRankTester tester;
  return tester.is_elementary(support);
}

// warm-test-before-begin in the drivers' shape: the per-candidate lambda
// runs after a row loop that never stages an iteration.
inline int unstaged_driver(int rows, int support) {
  SparseRankTester tester;
  auto test = [&](int candidate) { return tester.is_elementary(candidate); };
  int accepted = 0;
  for (int row = 0; row < rows; ++row) accepted += test(support + row);
  return accepted;
}

// discarded-token: the temporary Token disarms in its own destructor
// before the supervised work starts.
inline void unsupervised() {
  Watchdog::global().arm("merge", 500);
}

// repair-before-resume: a damaged tail makes this load stop silently
// early; nothing trimmed the file first.
inline int resume_unrepaired(const char* path) {
  return load_checkpoint(path);
}

}  // namespace fixture_ts
