#include "core/calibration.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "core/kernels.h"
#include "core/options.h"
#include "matrix/simd.h"
#include "storage/bat.h"
#include "storage/bat_ops.h"
#include "util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace rma {

namespace {

struct KernelNameEntry {
  CostKernel kernel;
  const char* name;
};

constexpr KernelNameEntry kKernelNames[] = {
    {CostKernel::kBatStream, "bat_stream"},
    {CostKernel::kBatAxpy, "bat_axpy"},
    {CostKernel::kBatDecomp, "bat_decomp"},
    {CostKernel::kBatTranspose, "bat_transpose"},
    {CostKernel::kBatFetch, "bat_fetch"},
    {CostKernel::kDenseFlop, "dense_flop"},
    {CostKernel::kGather, "gather"},
    {CostKernel::kScatter, "scatter"},
    {CostKernel::kSort, "sort"},
};

/// The planner's pre-calibration constants (see the cost-model comment in
/// planner.cc). Dimensionless element-operation units; fixed overhead zero.
constexpr double kAnalyticPerElement[kNumCostKernels] = {
    /*bat_stream=*/1.0,    /*bat_axpy=*/1.5, /*bat_decomp=*/3.0,
    /*bat_transpose=*/4.0, /*bat_fetch=*/12.0,
    /*dense_flop=*/1.0,    /*gather=*/1.0,   /*scatter=*/1.0,
    /*sort=*/1.0,
};

}  // namespace

const char* CostKernelName(CostKernel k) {
  for (const auto& e : kKernelNames) {
    if (e.kernel == k) return e.name;
  }
  return "?";
}

bool CostKernelFromName(const std::string& name, CostKernel* out) {
  for (const auto& e : kKernelNames) {
    if (name == e.name) {
      *out = e.kernel;
      return true;
    }
  }
  return false;
}

std::string CostRegimeLabel(int regime, int num_regimes) {
  if (num_regimes <= 1) return "linear";
  if (num_regimes == 3) {
    // The canonical cache split the breakpoint probe produces.
    static const char* kNames[3] = {"l2", "l3", "dram"};
    if (regime >= 0 && regime < 3) return kNames[regime];
  }
  return "r" + std::to_string(regime);
}

const char* CostSourceName(CostSource s) {
  switch (s) {
    case CostSource::kAnalytic:
      return "analytic";
    case CostSource::kProbed:
      return "probed";
    case CostSource::kRefined:
      return "refined";
  }
  return "?";
}

CostProfile::CostProfile() {
  for (int i = 0; i < kNumCostKernels; ++i) {
    costs_[i].per_element = kAnalyticPerElement[i];
  }
}

CostProfile CostProfile::Analytic() { return CostProfile(); }

CostProfile::CostProfile(const CostProfile& other) {
  MutexLock lock(other.mu_);
  for (int i = 0; i < kNumCostKernels; ++i) costs_[i] = other.costs_[i];
  refinable_ = other.refinable_;
}

CostProfile& CostProfile::operator=(const CostProfile& other) {
  if (this == &other) return *this;
  KernelCost copy[kNumCostKernels];
  bool refinable;
  {
    MutexLock lock(other.mu_);
    for (int i = 0; i < kNumCostKernels; ++i) copy[i] = other.costs_[i];
    refinable = other.refinable_;
  }
  MutexLock lock(mu_);
  for (int i = 0; i < kNumCostKernels; ++i) costs_[i] = copy[i];
  refinable_ = refinable;
  return *this;
}

KernelCost CostProfile::Get(CostKernel k) const {
  MutexLock lock(mu_);
  return costs_[static_cast<int>(k)];
}

void CostProfile::Set(CostKernel k, const KernelCost& cost) {
  MutexLock lock(mu_);
  costs_[static_cast<int>(k)] = cost;
}

double CostProfile::Cost(CostKernel k, double elements) const {
  MutexLock lock(mu_);
  const KernelCost& c = costs_[static_cast<int>(k)];
  return c.fixed + elements * c.RateFor(elements);
}

int CostProfile::MaxRegimes() const {
  MutexLock lock(mu_);
  int max = 1;
  for (const KernelCost& c : costs_) max = std::max(max, c.NumRegimes());
  return max;
}

void CostProfile::Refine(CostKernel k, double elements, double seconds) {
  // Tiny observations are dominated by timer granularity and per-op
  // bookkeeping, not kernel throughput; folding them in would drag the rate
  // toward noise.
  if (elements < 1024 || seconds <= 0) return;
  MutexLock lock(mu_);
  if (!refinable_) return;
  KernelCost& c = costs_[static_cast<int>(k)];
  const double observed = std::max(0.0, seconds - c.fixed) / elements;
  if (observed <= 0) return;
  if (c.rates.empty()) {
    c.per_element =
        (1.0 - kRefineAlpha) * c.per_element + kRefineAlpha * observed;
  } else {
    // Only the regime the observation actually exercised moves; a DRAM-sized
    // workload says nothing about the L2-resident rate.
    const int r = c.RegimeOf(elements);
    c.rates[static_cast<size_t>(r)] =
        (1.0 - kRefineAlpha) * c.rates[static_cast<size_t>(r)] +
        kRefineAlpha * observed;
    if (r == 0) c.per_element = c.rates[0];
  }
  c.source = CostSource::kRefined;
  ++c.refinements;
}

bool CostProfile::refinable() const {
  MutexLock lock(mu_);
  return refinable_;
}

void CostProfile::set_refinable(bool on) {
  MutexLock lock(mu_);
  refinable_ = on;
}

CostSource CostProfile::Source() const {
  MutexLock lock(mu_);
  CostSource best = CostSource::kAnalytic;
  for (const KernelCost& c : costs_) {
    if (static_cast<int>(c.source) > static_cast<int>(best)) best = c.source;
  }
  return best;
}

uint64_t CostProfile::Fingerprint() const {
  MutexLock lock(mu_);
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  constexpr uint64_t kPrime = 1099511628211ULL;
  // Quantize to eighth-of-an-octave: per-op EWMA jitter keeps the same
  // fingerprint, a materially shifted value (>~9%) changes it. Both the
  // rate and the fixed overhead are priced (Cost = fixed + n*per_element),
  // so both are part of the fingerprint — profiles differing only in fixed
  // costs can flip small-shape kernel choices.
  const auto quantize = [](double v) -> uint64_t {
    if (v <= 0) return 0x9e3779b97f4a7c15ULL;  // sentinel for "absent"
    return static_cast<uint64_t>(std::llround(std::log2(v) * 8.0));
  };
  for (const KernelCost& c : costs_) {
    h = (h ^ quantize(c.per_element)) * kPrime;
    h = (h ^ quantize(c.fixed)) * kPrime;
    // Piecewise structure is part of the model: a regime rate shifting, a
    // breakpoint moving, or regimes appearing at all must invalidate plans.
    h = (h ^ static_cast<uint64_t>(c.rates.size())) * kPrime;
    for (double r : c.rates) h = (h ^ quantize(r)) * kPrime;
    for (int64_t b : c.breakpoints) {
      h = (h ^ static_cast<uint64_t>(b)) * kPrime;
    }
  }
  return h;
}

// --- JSON serialization -----------------------------------------------------
//
// The document is deliberately tiny and self-contained (no third-party JSON
// dependency). Version 2 records the SIMD ISA the rates were measured under
// and, for piecewise entries, the regime breakpoints/rates:
//   {"version": 2, "simd": "avx2x4", "kernels": {"bat_stream":
//       {"per_element": 1e-9, "fixed": 2e-7, "source": "probed",
//        "refinements": 0, "breakpoints": [131072], "rates":
//        [8e-10, 1.9e-9]}, ...}}
// Version 1 documents (no "simd", no arrays) still load as single-rate
// entries.

std::string CostProfile::ToJson() const {
  KernelCost copy[kNumCostKernels];
  {
    MutexLock lock(mu_);
    for (int i = 0; i < kNumCostKernels; ++i) copy[i] = costs_[i];
  }
  std::ostringstream os;
  os << "{\n  \"version\": 2,\n  \"simd\": \"" << simd::Describe()
     << "\",\n  \"kernels\": {\n";
  for (int i = 0; i < kNumCostKernels; ++i) {
    const KernelCost& c = copy[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"per_element\": %.12e, \"fixed\": %.12e, "
                  "\"source\": \"%s\", \"refinements\": %lld",
                  CostKernelName(static_cast<CostKernel>(i)), c.per_element,
                  c.fixed, CostSourceName(c.source),
                  static_cast<long long>(c.refinements));
    os << buf;
    if (!c.rates.empty()) {
      os << ", \"breakpoints\": [";
      for (size_t b = 0; b < c.breakpoints.size(); ++b) {
        os << (b ? ", " : "") << c.breakpoints[b];
      }
      os << "], \"rates\": [";
      for (size_t r = 0; r < c.rates.size(); ++r) {
        std::snprintf(buf, sizeof(buf), "%s%.12e", r ? ", " : "", c.rates[r]);
        os << buf;
      }
      os << "]";
    }
    os << "}" << (i + 1 < kNumCostKernels ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  return os.str();
}

namespace {

/// Minimal recursive-descent scanner for the calibration document. Accepts
/// any whitespace layout; rejects structurally broken input with Invalid.
struct JsonScanner {
  const std::string& s;
  size_t i = 0;

  void SkipSpace() {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool ReadString(std::string* out) {
    SkipSpace();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') return false;  // escapes never appear in our docs
      *out += s[i++];
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool ReadNumber(double* out) {
    SkipSpace();
    const char* begin = s.c_str() + i;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    if (end == begin) return false;
    i += static_cast<size_t>(end - begin);
    return true;
  }
  bool ReadNumberArray(std::vector<double>* out) {
    if (!Consume('[')) return false;
    out->clear();
    if (Consume(']')) return true;  // empty array
    while (true) {
      double v = 0;
      if (!ReadNumber(&v)) return false;
      out->push_back(v);
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return false;
    }
  }
};

}  // namespace

Result<CostProfile> CostProfile::FromJson(const std::string& json) {
  JsonScanner sc{json};
  const auto invalid = [](const char* what) {
    return Status::Invalid(std::string("calibration JSON: ") + what);
  };
  if (!sc.Consume('{')) return invalid("expected top-level object");
  CostProfile profile = CostProfile::Analytic();
  bool saw_kernels = false;
  while (true) {
    std::string key;
    if (!sc.ReadString(&key)) return invalid("expected member name");
    if (!sc.Consume(':')) return invalid("expected ':'");
    if (key == "version") {
      double v = 0;
      if (!sc.ReadNumber(&v)) return invalid("bad version");
      if (v != 1 && v != 2) return invalid("unsupported version");
    } else if (key == "simd") {
      std::string isa;
      if (!sc.ReadString(&isa)) return invalid("bad simd");
      if (isa != simd::Describe()) {
        std::fprintf(stderr,
                     "rma: calibration file was measured under simd=%s but "
                     "this process runs %s; rates may be stale (re-probe by "
                     "deleting the file)\n",
                     isa.c_str(), simd::Describe().c_str());
      }
    } else if (key == "kernels") {
      saw_kernels = true;
      if (!sc.Consume('{')) return invalid("kernels must be an object");
      while (!sc.Consume('}')) {
        std::string name;
        if (!sc.ReadString(&name)) return invalid("expected kernel name");
        if (!sc.Consume(':') || !sc.Consume('{')) {
          return invalid("expected kernel object");
        }
        KernelCost cost;
        while (true) {
          std::string field;
          if (!sc.ReadString(&field)) return invalid("expected field name");
          if (!sc.Consume(':')) return invalid("expected ':'");
          if (field == "per_element") {
            if (!sc.ReadNumber(&cost.per_element)) {
              return invalid("bad per_element");
            }
          } else if (field == "fixed") {
            if (!sc.ReadNumber(&cost.fixed)) return invalid("bad fixed");
          } else if (field == "source") {
            std::string src;
            if (!sc.ReadString(&src)) return invalid("bad source");
            if (src == "probed") {
              cost.source = CostSource::kProbed;
            } else if (src == "refined") {
              cost.source = CostSource::kRefined;
            } else if (src == "analytic") {
              cost.source = CostSource::kAnalytic;
            } else {
              return invalid("unknown source");
            }
          } else if (field == "refinements") {
            double n = 0;
            if (!sc.ReadNumber(&n)) return invalid("bad refinements");
            cost.refinements = static_cast<int64_t>(n);
          } else if (field == "breakpoints") {
            std::vector<double> raw;
            if (!sc.ReadNumberArray(&raw)) return invalid("bad breakpoints");
            cost.breakpoints.clear();
            for (double b : raw) {
              cost.breakpoints.push_back(static_cast<int64_t>(b));
            }
          } else if (field == "rates") {
            if (!sc.ReadNumberArray(&cost.rates)) return invalid("bad rates");
          } else {
            return invalid("unknown kernel field");
          }
          if (sc.Consume(',')) continue;
          if (sc.Consume('}')) break;
          return invalid("expected ',' or '}'");
        }
        if (!(cost.per_element > 0) || !std::isfinite(cost.per_element) ||
            cost.fixed < 0 || !std::isfinite(cost.fixed)) {
          return invalid("non-positive or non-finite cost");
        }
        if (!cost.rates.empty()) {
          if (cost.breakpoints.size() + 1 != cost.rates.size()) {
            return invalid("breakpoints/rates size mismatch");
          }
          for (double r : cost.rates) {
            if (!(r > 0) || !std::isfinite(r)) {
              return invalid("non-positive or non-finite regime rate");
            }
          }
          for (size_t b = 0; b < cost.breakpoints.size(); ++b) {
            if (cost.breakpoints[b] <= 0 ||
                (b > 0 && cost.breakpoints[b] <= cost.breakpoints[b - 1])) {
              return invalid("breakpoints must be positive and ascending");
            }
          }
        } else if (!cost.breakpoints.empty()) {
          return invalid("breakpoints without rates");
        }
        CostKernel k;
        if (CostKernelFromName(name, &k)) profile.Set(k, cost);
        // Unknown kernel names are ignored: older binaries read newer files.
        if (sc.Consume(',')) continue;
        if (sc.Consume('}')) break;
        return invalid("expected ',' or '}'");
      }
    } else {
      return invalid("unknown top-level member");
    }
    if (sc.Consume(',')) continue;
    if (sc.Consume('}')) break;
    return invalid("expected ',' or '}'");
  }
  if (!saw_kernels) return invalid("missing kernels object");
  profile.set_refinable(true);
  return profile;
}

Status CostProfile::SaveFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write calibration file: " + path);
  out << ToJson();
  out.flush();
  if (!out) return Status::IoError("failed writing calibration file: " + path);
  return Status::OK();
}

Result<CostProfile> CostProfile::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read calibration file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromJson(buf.str());
}

// --- startup micro-probes ---------------------------------------------------

namespace {

/// Best-of-N wall time of `fn` in seconds.
double BestOf(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.Seconds());
  }
  return best;
}

/// Fits {fixed, per_element} from two (elements, seconds) samples. Falls
/// back to a pure rate when the slope comes out non-positive (noise).
KernelCost FitCost(int64_t n1, double t1, int64_t n2, double t2) {
  KernelCost c;
  c.source = CostSource::kProbed;
  const double slope =
      (t2 - t1) / static_cast<double>(std::max<int64_t>(1, n2 - n1));
  if (slope > 0) {
    c.per_element = slope;
    c.fixed = std::max(0.0, t1 - slope * static_cast<double>(n1));
  } else {
    c.per_element =
        std::max({t1 / static_cast<double>(n1), t2 / static_cast<double>(n2),
                  1e-12});
    c.fixed = 0.0;
  }
  return c;
}

std::vector<double> ProbeVector(int64_t n, uint64_t seed) {
  std::vector<double> v(static_cast<size_t>(n));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (double& x : v) x = dist(rng);
  return v;
}

std::vector<int64_t> ShuffledPerm(int64_t n, uint64_t seed) {
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(seed));
  return perm;
}

/// One timed pass of family `k` over `elements` elements. The loop bodies
/// mirror what the priced stages actually execute: bat_ops primitives for
/// the BAT families and the strided copies, a register-blocked product loop
/// for dense flops, argsort for the sort stage.
double ProbeOnce(CostKernel k, int64_t elements, int reps) {
  volatile double sink = 0;  // defeat dead-code elimination
  switch (k) {
    case CostKernel::kBatStream: {
      const std::vector<double> a = ProbeVector(elements, 1);
      const std::vector<double> b = ProbeVector(elements, 2);
      return BestOf(reps, [&] { sink += bat_ops::AddDense(a, b).back(); });
    }
    case CostKernel::kBatAxpy: {
      const std::vector<double> x = ProbeVector(elements, 3);
      std::vector<double> y = ProbeVector(elements, 4);
      return BestOf(reps, [&] {
        bat_ops::Axpy(1.000001, x, &y);
        sink += y.back();
      });
    }
    case CostKernel::kBatDecomp: {
      // elements models flops (2nk^2): invert to a row count for k=8 cols.
      const int64_t cols = 8;
      const int64_t rows =
          std::max<int64_t>(cols, elements / (2 * cols * cols));
      kernel::Columns a(static_cast<size_t>(cols));
      for (int64_t j = 0; j < cols; ++j) {
        a[static_cast<size_t>(j)] = ProbeVector(rows, 10 + j);
      }
      return BestOf(reps, [&] {
        kernel::Columns q, r;
        kernel::BatQr(a, &q, &r).Abort();
        sink += q[0][0];
      });
    }
    case CostKernel::kBatTranspose: {
      const std::vector<double> a = ProbeVector(elements, 5);
      std::vector<double> out(a.size());
      const int64_t rows = std::max<int64_t>(1, elements / 64);
      return BestOf(reps, [&] {
        for (int64_t i = 0; i < elements; ++i) {
          out[static_cast<size_t>((i % rows) * 64 + i / rows) % a.size()] =
              a[static_cast<size_t>(i)];
        }
        sink += out.back();
      });
    }
    case CostKernel::kBatFetch: {
      const BatPtr col = MakeDoubleBat(ProbeVector(elements, 6));
      return BestOf(reps, [&] {
        double acc = 0;
        for (int64_t i = 0; i < elements; ++i) acc += col->GetDouble(i);
        sink += acc;
      });
    }
    case CostKernel::kDenseFlop: {
      // GEMM-style register-blocked inner product: elements counts flops.
      const int64_t n = std::max<int64_t>(64, elements / 2);
      const std::vector<double> a = ProbeVector(n, 7);
      const std::vector<double> b = ProbeVector(n, 8);
      return BestOf(reps, [&] { sink += bat_ops::Dot(a, b); });
    }
    case CostKernel::kGather: {
      const BatPtr col = MakeDoubleBat(ProbeVector(elements, 9));
      const std::vector<int64_t> perm = ShuffledPerm(elements, 11);
      std::vector<double> dst(static_cast<size_t>(elements));
      return BestOf(reps, [&] {
        bat_ops::GatherColumnToStrided(*col, perm, dst.data(), 1);
        sink += dst.back();
      });
    }
    case CostKernel::kScatter: {
      const std::vector<double> src = ProbeVector(elements, 12);
      std::vector<double> dst(static_cast<size_t>(elements));
      return BestOf(reps, [&] {
        bat_ops::CopyDenseToStrided(src.data(), elements, dst.data(), 1);
        sink += dst.back();
      });
    }
    case CostKernel::kSort: {
      std::vector<int64_t> keys(static_cast<size_t>(elements));
      std::iota(keys.begin(), keys.end(), 0);
      std::shuffle(keys.begin(), keys.end(), std::mt19937_64(13));
      const BatPtr col = MakeInt64Bat(std::move(keys));
      return BestOf(reps, [&] {
        sink += static_cast<double>(bat_ops::ArgSort({col}).back());
      });
    }
    case CostKernel::kCount_:
      break;
  }
  return 0;
}

}  // namespace

CacheSizes DetectCacheSizes() {
  CacheSizes sizes;
  sizes.l2_bytes = int64_t{1} << 20;
  sizes.l3_bytes = int64_t{8} << 20;
#if defined(_SC_LEVEL2_CACHE_SIZE)
  if (const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE); l2 > 0) {
    sizes.l2_bytes = l2;
  }
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
  if (const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE); l3 > 0) {
    sizes.l3_bytes = l3;
  }
#endif
  if (sizes.l3_bytes <= sizes.l2_bytes) sizes.l3_bytes = 8 * sizes.l2_bytes;
  return sizes;
}

CostProfile ProbeCostProfile(const ProbeOptions& opts) {
  CostProfile profile = CostProfile::Analytic();
  const int64_t n1 = std::max<int64_t>(1024, opts.small_elements);
  int64_t n2 = std::max<int64_t>(2 * n1, opts.large_elements);
  const int reps = std::max(1, opts.repetitions);

  // Regime boundaries in elements. The streaming probes touch roughly two
  // double streams per element (~16 bytes), so a family leaves cache level
  // c once 16n exceeds its capacity. This is approximate for the
  // flop-counted families (dense_flop, bat_decomp), where elements model
  // arithmetic rather than footprint — the breakpoints still separate
  // "small" from "streaming" shapes, which is what the planner needs.
  std::vector<int64_t> breakpoints;
  const CacheSizes caches = DetectCacheSizes();
  for (int64_t bytes : {caches.l2_bytes, caches.l3_bytes}) {
    const int64_t bp = bytes / 16;
    if (bp > n1 && (breakpoints.empty() || bp > breakpoints.back())) {
      breakpoints.push_back(bp);
    }
  }
  // Keep the base two-point fit inside the first regime so rates[0] is
  // genuinely the cache-resident rate.
  if (!breakpoints.empty()) {
    n2 = std::max(2 * n1, std::min(n2, breakpoints.front()));
  }

  for (int i = 0; i < kNumCostKernels; ++i) {
    const CostKernel k = static_cast<CostKernel>(i);
    const double t1 = ProbeOnce(k, n1, reps);
    const double t2 = ProbeOnce(k, n2, reps);
    KernelCost cost = FitCost(n1, t1, n2, t2);
    if (!breakpoints.empty()) {
      // Super-linear families stay bounded: a multi-megabyte argsort or QR
      // probe would dominate the whole pass for little planning signal.
      const bool super_linear =
          k == CostKernel::kSort || k == CostKernel::kBatDecomp;
      const int64_t cap = super_linear
                              ? std::min(opts.max_probe_elements, int64_t{1}
                                                                      << 18)
                              : opts.max_probe_elements;
      cost.breakpoints = breakpoints;
      cost.rates.assign(breakpoints.size() + 1, cost.per_element);
      for (size_t r = 1; r < cost.rates.size(); ++r) {
        const int64_t lower = breakpoints[r - 1];
        const int64_t upper =
            r < breakpoints.size() ? breakpoints[r] : 4 * lower;
        const int64_t n = std::min(cap, std::min(4 * lower, upper));
        if (n <= lower) {
          // The regime starts beyond the probe ceiling: inherit the deepest
          // measured rate rather than extrapolating.
          cost.rates[r] = cost.rates[r - 1];
          continue;
        }
        const double t = ProbeOnce(k, n, reps);
        double rate = std::max(0.0, t - cost.fixed) / static_cast<double>(n);
        // Deeper memory levels cannot be cheaper per element; letting a
        // noisy inversion through would teach the planner to prefer huge
        // working sets.
        rate = std::max({rate, cost.rates[r - 1], 1e-12});
        cost.rates[r] = rate;
      }
      cost.per_element = cost.rates[0];
    }
    profile.Set(k, cost);
  }
  profile.set_refinable(true);
  return profile;
}

// --- default profile resolution ---------------------------------------------

namespace {

/// Loads `path`; probes and saves there when the file is missing (the
/// probes-run-once-per-machine flow). A *corrupt* file warns and falls back
/// to the analytic constants — never a crash, and the broken file is left
/// in place for inspection rather than silently overwritten.
CostProfilePtr LoadOrProbe(const std::string& path) {
  Result<CostProfile> loaded = CostProfile::LoadFile(path);
  if (loaded.ok()) {
    return std::make_shared<CostProfile>(std::move(*loaded));
  }
  if (!loaded.status().IsIoError()) {
    std::fprintf(
        stderr,
        "rma: calibration file %s is corrupt (%s); falling back to the "
        "analytic cost model\n",
        path.c_str(), loaded.status().ToString().c_str());
    return std::make_shared<CostProfile>(CostProfile::Analytic());
  }
  auto probed = std::make_shared<CostProfile>(ProbeCostProfile());
  if (Status s = probed->SaveFile(path); !s.ok()) {
    std::fprintf(stderr, "rma: %s; calibration will re-probe next start\n",
                 s.ToString().c_str());
  }
  return probed;
}

}  // namespace

const CostProfilePtr& DefaultCostProfile() {
  static const CostProfilePtr profile = [] {
    const char* env = std::getenv("RMA_CALIBRATION");
    if (env == nullptr || env[0] == '\0') {
      // Deterministic default: the analytic constants, non-refinable (the
      // process-wide profile must not drift under test workloads).
      return std::make_shared<CostProfile>(CostProfile::Analytic());
    }
    return LoadOrProbe(env);
  }();
  return profile;
}

namespace {

/// Per-path profile memo: resolution runs on every PlanOp, the file work
/// must happen once per calibration path. File-scope (not function-local
/// statics) so the guarded_by relation is visible to the analysis.
Mutex g_profile_memo_mu;
std::map<std::string, CostProfilePtr>& ProfileMemo()
    RMA_REQUIRES(g_profile_memo_mu) {
  static std::map<std::string, CostProfilePtr>* memo =
      new std::map<std::string, CostProfilePtr>();
  return *memo;
}

}  // namespace

CostProfilePtr ResolveCostProfile(const RmaOptions& opts) {
  if (opts.cost_profile != nullptr) return opts.cost_profile;
  if (!opts.calibration_path.empty()) {
    MutexLock lock(g_profile_memo_mu);
    std::map<std::string, CostProfilePtr>& by_path = ProfileMemo();
    auto it = by_path.find(opts.calibration_path);
    if (it != by_path.end()) return it->second;
    CostProfilePtr p = LoadOrProbe(opts.calibration_path);
    by_path.emplace(opts.calibration_path, p);
    return p;
  }
  return DefaultCostProfile();
}

}  // namespace rma
