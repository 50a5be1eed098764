#ifndef RMA_E2E_REPORT_H_
#define RMA_E2E_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace rma::e2e {

/// Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// The machine a result was measured on, recorded beside every result so
/// two result sets from different machines are never compared.
struct Machine {
  int hardware_threads = 0;  ///< std::thread::hardware_concurrency()
  int affinity_cpus = 0;     ///< CPUs this process may run on (taskset)
  std::string cpu_model;     ///< /proc/cpuinfo "model name"
  std::string simd;          ///< rma::simd::Describe()
};
Machine DescribeMachine();

/// Machine-wide CPU time from /proc/stat, in clock ticks. On a virtual
/// machine `steal` is time the hypervisor ran something else on our vCPUs;
/// its share of `total` over a run says how much a noisy host slowed it.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Steal time between two readings, as a percentage of all CPU time.
double StealPct(const CpuTicks& before, const CpuTicks& after);

/// JSON rendering helpers: numbers keep every significant digit.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// Per-layer numbers of one traced job, keyed by per-layer metric name.
using LayerSample = std::map<std::string, double>;

/// In-memory span log of a traced run, written out once at exit.
///
/// A span covers [start_ms, end_ms] (milliseconds since the log was
/// created) and names its parent: job -> statement -> parse / execute /
/// save. Stage records hang under a statement and carry only a duration:
/// the engine reports stage time as per-statement sums, not intervals.
/// Thread-safe; clients of a multi-client workload share one log.
class TraceLog {
 public:
  TraceLog();

  double NowMs() const;

  /// Opens a span starting now; returns its id (-1 is "no parent").
  int64_t Open(int64_t parent, int64_t job, int stmt, const std::string& tag,
               const std::string& name);
  /// Ends span `id` now.
  void Close(int64_t id);
  /// Appends a span with explicit bounds.
  int64_t Add(int64_t parent, int64_t job, int stmt, const std::string& tag,
              const std::string& name, double start_ms, double end_ms);
  /// Appends a stage record of `ms` milliseconds under `parent`.
  void AddStage(int64_t parent, int64_t job, int stmt, const std::string& tag,
                const std::string& name, double ms);

  /// Writes {"workload": ..., "seed": ..., "spans": [...]} to `path`.
  Status Write(const std::string& path, const std::string& workload,
               uint64_t seed) const;

 private:
  struct Span {
    int64_t parent;
    int64_t job;
    int stmt;
    std::string tag;
    std::string name;
    double start_ms;
    double end_ms;
    bool stage;
  };

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace rma::e2e

#endif  // RMA_E2E_REPORT_H_
