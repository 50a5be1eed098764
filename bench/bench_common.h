#ifndef RMA_BENCH_BENCH_COMMON_H_
#define RMA_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "util/timer.h"

namespace rma::bench {

/// Scale factor for all row counts, from the RMA_BENCH_SCALE environment
/// variable (default 1.0 — sizes tuned so the full suite runs in minutes;
/// the paper's original sizes are noted per bench).
double ScaleFactor();

/// rows scaled by RMA_BENCH_SCALE (at least 16).
int64_t Scaled(int64_t rows);

/// Times one invocation of `fn` in seconds.
double TimeIt(const std::function<void()>& fn);

/// Minimum over `reps` timed invocations — sheds scheduler noise, which a
/// single TimeIt cannot (the perf gate diffs these numbers across runs).
double TimeBest(int reps, const std::function<void()>& fn);

/// Repetition count for best-of-N measurements: RMA_BENCH_REPS when set to
/// a positive integer, else `default_reps`. Baseline regeneration exports a
/// higher count to tighten the noise floor without slowing ordinary runs.
int BenchReps(int default_reps);

/// Formats seconds as "1.23" (fixed, seconds) — paper tables are in sec.
std::string Secs(double s);

/// Formats a percentage as "83".
std::string Pct(double fraction);

/// Machine-readable benchmark output for the CI perf gate. When enabled
/// (`--json` on the bench command line, or env RMA_BENCH_JSON=1), every
/// Record() call collects one entry and the process writes
/// `BENCH_<bench>.json` to the working directory at Flush() / exit:
///
///   {"bench": "bench_batch", "scale": 1.0, "simd": "avx2x4",
///    "hardware_threads": 4, "entries": [
///     {"name": "...", "op": "...", "shape": "RxC", "ns": 1.2e6,
///      "bytes": 0, "kernel": "auto", "regime": "l3"}, ...]}
///
/// `simd` records the vector ISA the numbers were measured under (rma::simd,
/// including the RMA_NO_SIMD override) and `hardware_threads` the machine's
/// std::thread::hardware_concurrency(), so a baseline diff can flag
/// apples-to-oranges comparisons. `regime` classifies each entry's touched
/// bytes against the machine's L2/L3 sizes ("l2"/"l3"/"dram"; "" when bytes
/// is unknown), so entries that cross a cache level are easy to spot.
///
/// `scripts/bench_compare.py` diffs two such files with a noise threshold;
/// `bench/baselines/*.json` holds the checked-in references.
class BenchJson {
 public:
  /// Strips a `--json` flag out of argv (so benches can forward the rest,
  /// e.g. to google-benchmark) and arms the recorder. Also armed by
  /// RMA_BENCH_JSON=1 without the flag. `bench_name` names the output file.
  static void Init(const std::string& bench_name, int* argc, char** argv);

  static bool enabled();

  /// Records one measurement: `op` is the operation or phase measured,
  /// `shape` a free-form size ("60000x24"), `seconds` wall time (stored as
  /// ns), `bytes` the touched payload (0 = unknown), `kernel` the kernel
  /// family or policy chosen ("" = n/a), `shards` the shard count the run
  /// executed under (0 = not a sharded measurement; 1 = explicitly
  /// unsharded, so baseline diffs can pair the two variants).
  static void Record(const std::string& name, const std::string& op,
                     const std::string& shape, double seconds, int64_t bytes,
                     const std::string& kernel, int shards = 0);

  /// Writes BENCH_<bench>.json if armed and entries exist. Registered via
  /// atexit by Init; calling it twice is harmless (second write is
  /// identical).
  static void Flush();
};

/// Aligned paper-style table printer: one instance per table/figure.
class PaperTable {
 public:
  PaperTable(std::string title, std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Appends a free-text note printed under the table.
  void AddNote(std::string note);

  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
};

}  // namespace rma::bench

#endif  // RMA_BENCH_BENCH_COMMON_H_
