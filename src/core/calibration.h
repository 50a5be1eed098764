#ifndef RMA_CORE_CALIBRATION_H_
#define RMA_CORE_CALIBRATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rma {

/// The kernel families the planner prices (core/planner.cc). Each family
/// gets one probe and one refinable cost entry; the planner's analytic
/// constants are the seed values when no calibration ran.
enum class CostKernel : int {
  kBatStream = 0,   ///< element-wise streaming over BAT columns (add/sub/emu)
  kBatAxpy,         ///< vectorized axpy column combines (mmu)
  kBatDecomp,       ///< column-at-a-time decompositions (inv/qqr/rqr/det/sol)
  kBatTranspose,    ///< element-at-a-time scatter (tra)
  kBatFetch,        ///< per-element virtual BUNfetch (cpd)
  kDenseFlop,       ///< contiguous dense kernel inner loops
  kGather,          ///< BATs -> contiguous strided copy (transform in)
  kScatter,         ///< contiguous -> BATs copy (transform out)
  kSort,            ///< order-schema argsort / key alignment
  kCount_,          ///< sentinel
};
constexpr int kNumCostKernels = static_cast<int>(CostKernel::kCount_);

const char* CostKernelName(CostKernel k);
/// Inverse of CostKernelName; returns false for unknown names.
bool CostKernelFromName(const std::string& name, CostKernel* out);

/// How a kernel family's cost entry was derived, in increasing order of
/// trust: the planner's analytic constants, a startup micro-probe, or
/// online refinement from measured per-op RmaStats.
enum class CostSource : int {
  kAnalytic = 0,
  kProbed = 1,
  kRefined = 2,
};

const char* CostSourceName(CostSource s);

/// Cost of one kernel family: a fixed per-operation overhead plus a
/// per-element rate. Under the analytic profile the rate is the planner's
/// dimensionless penalty constant and the overhead is zero, so cost ratios
/// reproduce the pre-calibration model exactly; probed/refined profiles
/// measure both in seconds.
///
/// Piecewise extension: a single rate is a poor fit across cache levels —
/// streaming kernels run several times faster L2-resident than from DRAM,
/// which skews BAT-vs-dense choices whenever the probe size and the actual
/// working set land in different regimes. When `rates` is non-empty the
/// entry is piecewise-linear: regime r covers element counts up to
/// breakpoints[r] (the last regime is unbounded), each with its own
/// per-element rate. `breakpoints.size() == rates.size() - 1`, breakpoints
/// strictly ascending. Empty `rates` keeps the legacy single-rate model and
/// `per_element` stays authoritative; with regimes, `per_element` mirrors
/// rates[0] so code that ignores regimes still sees a sane rate.
struct KernelCost {
  double per_element = 1.0;
  double fixed = 0.0;
  CostSource source = CostSource::kAnalytic;
  int64_t refinements = 0;  ///< EWMA updates applied to this entry
  std::vector<int64_t> breakpoints;  ///< regime upper bounds, in elements
  std::vector<double> rates;         ///< per-regime per-element rates

  /// Number of pricing regimes (1 for the legacy single-rate model).
  int NumRegimes() const {
    return rates.empty() ? 1 : static_cast<int>(rates.size());
  }
  /// The regime pricing `elements`: first r with elements <= breakpoints[r],
  /// else the last (unbounded) regime. Always 0 for single-rate entries.
  int RegimeOf(double elements) const {
    if (rates.empty()) return 0;
    for (size_t r = 0; r < breakpoints.size(); ++r) {
      if (elements <= static_cast<double>(breakpoints[r])) {
        return static_cast<int>(r);
      }
    }
    return static_cast<int>(rates.size()) - 1;
  }
  /// The per-element rate applied to `elements` under this entry.
  double RateFor(double elements) const {
    return rates.empty() ? per_element : rates[RegimeOf(elements)];
  }
};

/// Human-readable label for regime `regime` of an entry with `num_regimes`
/// regimes: "linear" for single-rate entries, "l2"/"l3"/"dram" for the
/// canonical three-regime cache split, "r<N>" otherwise.
std::string CostRegimeLabel(int regime, int num_regimes);

/// Per-machine cost profile of the planner's kernel families. Thread-safe:
/// concurrent statements price plans while the execution feedback loop
/// refines entries (one mutex, same discipline as ExecContext/QueryCache).
///
/// Lifecycle: Analytic() seeds the model with the planner's constants;
/// Probe() (core/calibration.cc) measures the families at a few sizes and
/// fits {fixed, per_element}; Save/Load round-trip the profile through JSON
/// so probes run once per machine (RmaOptions::calibration_path, env
/// RMA_CALIBRATION); ExecContext::EndOp feeds measured per-op stats back via
/// Refine() so repeated workloads converge toward observed costs.
class CostProfile {
 public:
  CostProfile();

  /// The planner's pre-calibration analytic constants (see planner.cc):
  /// dimensionless element-operation units, zero fixed overhead.
  static CostProfile Analytic();

  KernelCost Get(CostKernel k) const;
  void Set(CostKernel k, const KernelCost& cost);

  /// Estimated cost of processing `elements` elements with family `k`:
  /// fixed + elements * rate, where the rate is the regime's rate for
  /// piecewise entries (KernelCost::RateFor) and per_element otherwise.
  /// Units are seconds for probed/refined profiles and element-operation
  /// units for the analytic profile — only ratios between families matter
  /// to the planner.
  double Cost(CostKernel k, double elements) const;

  /// The largest NumRegimes() across entries: 1 means the profile is purely
  /// single-rate (analytic or legacy v1), >1 means cache breakpoints were
  /// probed or loaded.
  int MaxRegimes() const;

  /// Online refinement from one measured execution: `seconds` observed for
  /// `elements` elements. Folds the observation into the rate of the regime
  /// containing `elements` (per_element for single-rate entries) with an
  /// EWMA (alpha = kRefineAlpha) and marks the entry kRefined. No-ops when
  /// refinement is disabled (the shared analytic default must stay
  /// deterministic) or the observation is too small to be signal.
  void Refine(CostKernel k, double elements, double seconds);

  /// Whether Refine() applies. Off for Analytic() (and the process-wide
  /// default profile), on for probed/loaded profiles.
  bool refinable() const;
  void set_refinable(bool on);

  /// The dominant source across entries (refined > probed > analytic):
  /// EXPLAIN reports which model priced each op.
  CostSource Source() const;

  /// Fingerprint over quantized per-element rates (eighth-of-an-octave
  /// resolution), including every regime rate and breakpoint of piecewise
  /// entries. Plan caches mix it into their options fingerprint, so a
  /// materially changed profile invalidates cached plans while per-op EWMA
  /// jitter does not churn the cache.
  uint64_t Fingerprint() const;

  /// Serializes to the calibration JSON document (version 2: top-level
  /// "simd" records the ISA the rates were measured under; piecewise
  /// entries carry "breakpoints"/"rates" arrays).
  std::string ToJson() const;
  /// Parses a calibration JSON document, version 1 (single-rate) or 2
  /// (piecewise). Unknown kernel names are ignored; malformed documents
  /// return Invalid (callers fall back to Analytic()). A "simd" field that
  /// does not match the running binary's ISA warns to stderr — the rates
  /// still load, but a re-probe would be more faithful.
  static Result<CostProfile> FromJson(const std::string& json);

  Status SaveFile(const std::string& path) const;
  static Result<CostProfile> LoadFile(const std::string& path);

  CostProfile(const CostProfile& other);
  CostProfile& operator=(const CostProfile& other);

  static constexpr double kRefineAlpha = 0.2;

 private:
  mutable Mutex mu_;
  KernelCost costs_[kNumCostKernels] RMA_GUARDED_BY(mu_);
  bool refinable_ RMA_GUARDED_BY(mu_) = false;
};

using CostProfilePtr = std::shared_ptr<CostProfile>;

/// L2/L3 data-cache sizes in bytes, from sysconf where the platform exposes
/// them, with 1 MiB / 8 MiB fallbacks so breakpoints always exist.
struct CacheSizes {
  int64_t l2_bytes;
  int64_t l3_bytes;
};
CacheSizes DetectCacheSizes();

/// Options for the startup micro-probes.
struct ProbeOptions {
  /// Element counts each family is timed at; {fixed, per_element} are fitted
  /// by least squares over the sizes. Small by design: the whole probe pass
  /// stays well under a second.
  int64_t small_elements = 1 << 12;
  int64_t large_elements = 1 << 16;
  int repetitions = 3;  ///< best-of-N to shed scheduler noise
  /// Ceiling on any single probe's element count. Regimes whose sizes lie
  /// entirely above it inherit the previous regime's rate instead of being
  /// probed (keeps the probe pass bounded on machines with huge L3).
  int64_t max_probe_elements = 1 << 22;
};

/// Times the planner's kernel families (BAT streaming/axpy/decomposition/
/// fetch, dense flops, gather/scatter strided copies, argsort) at two sizes
/// and fits a KernelCost per family, then times sizes past the L2/L3
/// boundaries and fits per-regime rates (KernelCost::rates). The result is
/// refinable.
CostProfile ProbeCostProfile(const ProbeOptions& opts = ProbeOptions());

/// The process-wide default profile consulted when RmaOptions carries no
/// explicit cost_profile. Resolved once, from the RMA_CALIBRATION
/// environment variable:
///  - unset: the analytic constants (deterministic, no probes at startup);
///  - set to a readable calibration file: loaded from JSON;
///  - set to a missing/corrupt path: probes run and the result is saved
///    there (a corrupt file warns to stderr and falls back to probing —
///    never a crash).
const CostProfilePtr& DefaultCostProfile();

/// Resolves the profile an options struct denotes: its explicit profile, a
/// profile loaded/probed from its calibration_path, or the process default.
/// Never null. (Implemented in calibration.cc; used by the planner and the
/// options fingerprint.)
struct RmaOptions;
CostProfilePtr ResolveCostProfile(const RmaOptions& opts);

}  // namespace rma

#endif  // RMA_CORE_CALIBRATION_H_
