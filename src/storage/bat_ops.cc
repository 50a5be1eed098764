#include "storage/bat_ops.h"

#include "matrix/simd.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "storage/sparse_bat.h"

namespace rma {
namespace bat_ops {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define RMA_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 1)
#define RMA_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1, 1)
#else
#define RMA_PREFETCH_READ(addr) ((void)0)
#define RMA_PREFETCH_WRITE(addr) ((void)0)
#endif

// Software-prefetch lookahead (in elements) for the strided gathers below.
// The permuted gather is the case that matters: its loads are data-dependent
// (v[p[i]]), so the hardware prefetcher sees a random stream and every miss
// stalls the 4x-unrolled loop. Requesting the line ~8 iterations (32 doubles
// = 4 unrolled groups) ahead gives an L2 hit time to complete before the
// loop arrives; much further and lines are evicted again on large gathers,
// much nearer and latency isn't covered. 32 measured best on the bench_batch
// gather scenarios on both the AVX2 and NEON boxes (16/64 within noise,
// both slower).
constexpr int64_t kPrefetchDistance = 32;

// --- ordering --------------------------------------------------------------

/// The row-at-a-time comparison, kept for key lists the typed core below
/// does not take (NaN-bearing, sparse or paged keys).
int CompareRows(const std::vector<BatPtr>& keys,
                const std::vector<bool>& descending, int64_t i, int64_t j) {
  for (size_t c = 0; c < keys.size(); ++c) {
    const int r = keys[c]->Compare(i, *keys[c], j);
    if (r != 0) return descending.empty() || !descending[c] ? r : -r;
  }
  return 0;
}

bool HasNaN(const double* v, int64_t n) {
  bool nan = false;
  for (int64_t i = 0; i < n; ++i) nan |= v[i] != v[i];
  return nan;
}

/// `keys` as typed views, or false when some key is read through its
/// accessors (kBat) or is a double column holding a NaN. Without NaN, `<` is
/// a strict weak order on every typed column, so the stable lexicographic
/// permutation is unique and the refine sort below reproduces the
/// row-at-a-time sort exactly.
bool TypedKeys(const std::vector<BatPtr>& keys,
               std::vector<ColumnView>* out) {
  for (const BatPtr& k : keys) {
    const ColumnView v(*k);
    if (v.kind == ColumnView::Kind::kBat ||
        (v.kind == ColumnView::Kind::kDouble && HasNaN(v.f64, k->size()))) {
      return false;
    }
    out->push_back(v);
  }
  return true;
}

/// Positions [begin, end) of the permutation whose rows tie on every key
/// column refined so far.
struct Run {
  int64_t begin;
  int64_t end;
};

/// "Row a orders strictly before row b" on one typed column. A descending
/// key reverses the test, so its ties are the same as ascending.
template <typename T, bool kDescending>
struct Before {
  const T* v;
  bool operator()(int64_t a, int64_t b) const {
    return kDescending ? v[b] < v[a] : v[a] < v[b];
  }
};

/// Appends the runs of tied rows (two or more) within `run` to `out`; false
/// when `run` is out of order, in which case `out` may hold partial runs.
/// A run already in order thus costs one scan.
template <typename Cmp>
bool SplitRun(const Cmp& before, const int64_t* p, Run run,
              std::vector<Run>* out) {
  int64_t start = run.begin;
  for (int64_t i = run.begin + 1; i < run.end; ++i) {
    if (before(p[i - 1], p[i])) {
      if (i - start > 1) out->push_back({start, i});
      start = i;
    } else if (before(p[i], p[i - 1])) {
      return false;
    }
  }
  if (run.end - start > 1) out->push_back({start, run.end});
  return true;
}

/// Refines `*runs` by one column: each run is split into its runs of tied
/// rows, after a stable sort on the column if it is out of order.
template <typename Cmp>
void RefineColumn(const Cmp& before, std::vector<int64_t>* perm,
                  std::vector<Run>* runs, std::vector<Run>* next) {
  int64_t* p = perm->data();
  next->clear();
  for (const Run& run : *runs) {
    const size_t mark = next->size();
    if (SplitRun(before, p, run, next)) continue;
    next->resize(mark);
    std::stable_sort(p + run.begin, p + run.end, before);
    SplitRun(before, p, run, next);
  }
  runs->swap(*next);
}

template <typename T>
void RefineTyped(const T* v, bool descending, std::vector<int64_t>* perm,
                 std::vector<Run>* runs, std::vector<Run>* next) {
  if (descending) {
    RefineColumn(Before<T, true>{v}, perm, runs, next);
  } else {
    RefineColumn(Before<T, false>{v}, perm, runs, next);
  }
}

/// The typed ordering core. Refines `perm`, the identity on entry, into the
/// stable lexicographic order of `keys` (TypedKeys views), one column at a
/// time, and returns whether all key rows are distinct: no run of tied rows
/// is left after the last column.
bool Refine(const std::vector<ColumnView>& keys,
            const std::vector<bool>& descending, std::vector<int64_t>* perm) {
  std::vector<Run> runs;
  std::vector<Run> next;
  const auto n = static_cast<int64_t>(perm->size());
  if (n > 1) runs.push_back({0, n});
  for (size_t c = 0; c < keys.size() && !runs.empty(); ++c) {
    const bool desc = !descending.empty() && descending[c];
    switch (keys[c].kind) {
      case ColumnView::Kind::kInt64:
        RefineTyped(keys[c].i64, desc, perm, &runs, &next);
        break;
      case ColumnView::Kind::kDouble:
        RefineTyped(keys[c].f64, desc, perm, &runs, &next);
        break;
      case ColumnView::Kind::kString:
        RefineTyped(keys[c].str, desc, perm, &runs, &next);
        break;
      case ColumnView::Kind::kBat:
        break;  // TypedKeys admits none
    }
  }
  return runs.empty();
}

/// ArgSort, and with non-null `unique`, whether all key rows are distinct.
std::vector<int64_t> Sort(const std::vector<BatPtr>& keys,
                          const std::vector<bool>& descending, bool* unique) {
  RMA_CHECK(!keys.empty());
  RMA_CHECK(descending.empty() || descending.size() == keys.size());
  std::vector<int64_t> perm(static_cast<size_t>(keys[0]->size()));
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<ColumnView> typed;
  if (TypedKeys(keys, &typed)) {
    const bool distinct = Refine(typed, descending, &perm);
    if (unique != nullptr) *unique = distinct;
    return perm;
  }
  std::stable_sort(perm.begin(), perm.end(), [&](int64_t a, int64_t b) {
    return CompareRows(keys, descending, a, b) < 0;
  });
  if (unique != nullptr) {
    *unique = true;
    for (size_t i = 1; i < perm.size(); ++i) {
      if (CompareRows(keys, descending, perm[i - 1], perm[i]) == 0) {
        *unique = false;
        break;
      }
    }
  }
  return perm;
}

}  // namespace

std::vector<int64_t> ArgSort(const std::vector<BatPtr>& keys,
                             const std::vector<bool>& descending) {
  return Sort(keys, descending, /*unique=*/nullptr);
}

std::vector<int64_t> ArgSortUnique(const std::vector<BatPtr>& keys,
                                   bool* unique) {
  return Sort(keys, {}, unique);
}

namespace {

// The row-at-a-time helper's seed (tests/rel/row_oracle.h keeps it).
constexpr uint64_t kHashSeed = 1469598103934665603ULL;

inline void MixHash(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9e3779b97f4a7c15ULL + (*h << 6) + (*h >> 2);
}

template <typename T>
void MixColumn(const T* v, std::vector<uint64_t>* hashes) {
  const std::hash<T> hash;
  uint64_t* h = hashes->data();
  const size_t n = hashes->size();
  for (size_t i = 0; i < n; ++i) MixHash(&h[i], hash(v[i]));
}

}  // namespace

const double* StableDoubles(const Bat& col) {
  return col.StableData() ? col.ContiguousDoubleData() : nullptr;
}

ColumnView::ColumnView(const Bat& col) : bat(&col) {
  if (const auto* b = dynamic_cast<const Int64Bat*>(&col)) {
    kind = Kind::kInt64;
    i64 = b->data().data();
  } else if (const auto* b = dynamic_cast<const StringBat*>(&col)) {
    kind = Kind::kString;
    str = b->data().data();
  } else {
    f64 = StableDoubles(col);
    if (f64 != nullptr) kind = Kind::kDouble;
  }
}

std::vector<uint64_t> HashKeys(const std::vector<BatPtr>& keys) {
  const int64_t n = keys.empty() ? 0 : keys[0]->size();
  std::vector<uint64_t> h(static_cast<size_t>(n), kHashSeed);
  for (const BatPtr& k : keys) {
    const ColumnView v(*k);
    switch (v.kind) {
      case ColumnView::Kind::kInt64:
        MixColumn(v.i64, &h);
        break;
      case ColumnView::Kind::kDouble:
        MixColumn(v.f64, &h);
        break;
      case ColumnView::Kind::kString:
        MixColumn(v.str, &h);
        break;
      case ColumnView::Kind::kBat:
        for (int64_t i = 0; i < n; ++i) {
          MixHash(&h[static_cast<size_t>(i)], k->Hash(i));
        }
        break;
    }
  }
  return h;
}

KeyEquals::KeyEquals(const std::vector<BatPtr>& a,
                     const std::vector<BatPtr>& b) {
  RMA_CHECK(a.size() == b.size());
  pairs_.reserve(a.size());
  for (size_t c = 0; c < a.size(); ++c) {
    const ColumnView va(*a[c]);
    const ColumnView vb(*b[c]);
    pairs_.push_back(
        {va, vb, va.kind == vb.kind ? va.kind : ColumnView::Kind::kBat});
  }
}

HashChains::HashChains(int64_t rows, int64_t expected_hashes)
    : next_(static_cast<size_t>(rows), -1) {
  size_t cap = 16;
  while (cap < static_cast<size_t>(expected_hashes) * 2) cap <<= 1;
  slots_.resize(cap);
  mask_ = cap - 1;
}

void HashChains::Insert(uint64_t h, int64_t row) {
  Slot& s = slots_[Probe(h)];
  if (s.head >= 0) {
    next_[static_cast<size_t>(s.tail)] = row;
    s.tail = row;
    return;
  }
  s = Slot{h, row, row};
  if (++used_ * 2 <= slots_.size()) return;
  // Grow: chains live in next_, so only the slots move.
  const std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& o : old) {
    if (o.head >= 0) slots_[Probe(o.hash)] = o;
  }
}

bool IsKey(const std::vector<BatPtr>& keys) {
  if (keys.empty()) return true;
  const int64_t n = keys[0]->size();
  // One O(n) hash pass instead of a sort (this backs the key validation on
  // the sort-avoiding paths).
  const std::vector<uint64_t> h = HashKeys(keys);
  const KeyEquals eq(keys, keys);
  HashChains table(n, n);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t hi = h[static_cast<size_t>(i)];
    for (int64_t c = table.Find(hi); c >= 0; c = table.Next(c)) {
      if (eq(c, i)) return false;
    }
    table.Insert(hi, i);
  }
  return true;
}

Result<std::vector<int64_t>> AlignByKey(const std::vector<BatPtr>& build,
                                        const std::vector<BatPtr>& probe) {
  RMA_CHECK(!build.empty() && build.size() == probe.size());
  const int64_t n = probe[0]->size();
  if (build[0]->size() != n) {
    return Status::Invalid("AlignByKey: relations differ in cardinality");
  }
  // A flat table with one allocation per array instead of one bucket vector
  // per distinct key is what makes hash alignment cheaper than two
  // multi-column sorts.
  const std::vector<uint64_t> bh = HashKeys(build);
  const KeyEquals build_eq(build, build);
  HashChains table(n, n);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = bh[static_cast<size_t>(i)];
    for (int64_t c = table.Find(h); c >= 0; c = table.Next(c)) {
      if (build_eq(c, i)) {
        // Duplicate build key: the order schema is not a key. The sorting
        // fallback re-detects this and reports the user-facing error.
        return Status::KeyError("AlignByKey: build keys are not unique");
      }
    }
    table.Insert(h, i);
  }
  const std::vector<uint64_t> ph = HashKeys(probe);
  const KeyEquals eq(build, probe);
  std::vector<int64_t> out(static_cast<size_t>(n), -1);
  std::vector<uint8_t> consumed(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    int64_t match = -1;
    for (int64_t c = table.Find(ph[static_cast<size_t>(i)]); c >= 0;
         c = table.Next(c)) {
      if (eq(c, i)) {
        match = c;
        break;
      }
    }
    if (match < 0) {
      return Status::KeyError("AlignByKey: probe row has no matching key");
    }
    if (consumed[static_cast<size_t>(match)] != 0) {
      return Status::KeyError("AlignByKey: probe keys are not unique");
    }
    consumed[static_cast<size_t>(match)] = 1;
    out[static_cast<size_t>(i)] = match;
  }
  // Every build row was consumed exactly once: the match is a bijection, so
  // both key sets are provably unique — callers need no separate key check.
  return out;
}

namespace {

const SparseDoubleBat* AsSparse(const BatPtr& b) {
  return dynamic_cast<const SparseDoubleBat*>(b.get());
}

std::vector<double> DenseOf(const BatPtr& b) {
  if (const auto* s = AsSparse(b)) return s->ToDense();
  return ToDoubleVector(*b);
}

}  // namespace

BatPtr AddColumns(const BatPtr& a, const BatPtr& b) {
  RMA_DCHECK(a->size() == b->size());
  const auto* sa = AsSparse(a);
  const auto* sb = AsSparse(b);
  if (sa != nullptr && sb != nullptr) return SparseAdd(*sa, *sb);
  std::vector<double> x = DenseOf(a);
  const std::vector<double> y = DenseOf(b);
  simd::Add(x.data(), y.data(), x.data(), static_cast<int64_t>(x.size()));
  return MakeDoubleBat(std::move(x));
}

BatPtr SubColumns(const BatPtr& a, const BatPtr& b) {
  RMA_DCHECK(a->size() == b->size());
  std::vector<double> x = DenseOf(a);
  const std::vector<double> y = DenseOf(b);
  simd::Sub(x.data(), y.data(), x.data(), static_cast<int64_t>(x.size()));
  return MakeDoubleBat(std::move(x));
}

BatPtr MulColumns(const BatPtr& a, const BatPtr& b) {
  RMA_DCHECK(a->size() == b->size());
  std::vector<double> x = DenseOf(a);
  const std::vector<double> y = DenseOf(b);
  simd::Mul(x.data(), y.data(), x.data(), static_cast<int64_t>(x.size()));
  return MakeDoubleBat(std::move(x));
}

void CopyDenseToStrided(const double* src, int64_t n, double* dst,
                        int64_t stride) {
  if (stride == 1) {
    std::copy(src, src + n, dst);
    return;
  }
  // No vector scatter on AVX2/NEON: unroll 4x so the independent strided
  // stores overlap. Order-preserving, so bit-identical to the plain loop.
  // The strided destination touches a new cache line per store; a write
  // prefetch one lookahead group down hides the read-for-ownership latency.
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double* d = dst + i * stride;
    if (i + kPrefetchDistance < n) {
      RMA_PREFETCH_WRITE(dst + (i + kPrefetchDistance) * stride);
    }
    d[0] = src[i];
    d[stride] = src[i + 1];
    d[2 * stride] = src[i + 2];
    d[3 * stride] = src[i + 3];
  }
  for (; i < n; ++i) dst[i * stride] = src[i];
}

void GatherColumnToStrided(const Bat& col, const std::vector<int64_t>& perm,
                           double* dst, int64_t stride) {
  const int64_t n = perm.empty() ? col.size()
                                 : static_cast<int64_t>(perm.size());
  if (perm.empty()) {
    if (const double* v = col.ContiguousDoubleData()) {
      CopyDenseToStrided(v, n, dst, stride);
      return;
    }
    for (int64_t i = 0; i < n; ++i) dst[i * stride] = col.GetDouble(i);
    return;
  }
  if (const double* v = col.ContiguousDoubleData()) {
    // Data-dependent loads (v[p[i]]) defeat the hardware prefetcher; request
    // the lines a fixed distance ahead through the (sequentially readable)
    // permutation. Prefetching is a hint — results are bit-identical.
    const int64_t* p = perm.data();
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      double* out = dst + i * stride;
      if (i + kPrefetchDistance + 3 < n) {
        RMA_PREFETCH_READ(v + p[i + kPrefetchDistance]);
        RMA_PREFETCH_READ(v + p[i + kPrefetchDistance + 1]);
        RMA_PREFETCH_READ(v + p[i + kPrefetchDistance + 2]);
        RMA_PREFETCH_READ(v + p[i + kPrefetchDistance + 3]);
      }
      out[0] = v[p[i]];
      out[stride] = v[p[i + 1]];
      out[2 * stride] = v[p[i + 2]];
      out[3 * stride] = v[p[i + 3]];
    }
    for (; i < n; ++i) dst[i * stride] = v[p[i]];
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    dst[i * stride] = col.GetDouble(perm[static_cast<size_t>(i)]);
  }
}

namespace {

// Tile shape for the row-major <-> columnar transposes: 64 rows x 16 columns
// keeps the strided side of a tile within ~8KB, so its cache lines are
// finished while still resident instead of being swept once per column.
constexpr int64_t kTileRows = 64;
constexpr int64_t kTileCols = 16;

}  // namespace

void PackColumnsRowMajor(const double* const* cols, int64_t k,
                         const int64_t* perm, int64_t n, double* dst) {
  if (k == 1) {
    if (perm == nullptr) {
      std::copy(cols[0], cols[0] + n, dst);
    } else {
      const double* v = cols[0];
      for (int64_t i = 0; i < n; ++i) dst[i] = v[perm[i]];
    }
    return;
  }
  for (int64_t i0 = 0; i0 < n; i0 += kTileRows) {
    const int64_t i1 = std::min(n, i0 + kTileRows);
    for (int64_t j0 = 0; j0 < k; j0 += kTileCols) {
      const int64_t j1 = std::min(k, j0 + kTileCols);
      int64_t j = j0;
      if (perm == nullptr) {
        // 4-column groups go through the in-register 4x4 transpose, which
        // turns the strided stores into full-width vector stores.
        for (; j + 4 <= j1; j += 4) {
          simd::Pack4(cols[j] + i0, cols[j + 1] + i0, cols[j + 2] + i0,
                      cols[j + 3] + i0, dst + i0 * k + j, k, i1 - i0);
        }
      }
      for (; j < j1; ++j) {
        const double* v = cols[j];
        double* d = dst + i0 * k + j;
        if (perm == nullptr) {
          for (int64_t i = i0; i < i1; ++i, d += k) *d = v[i];
        } else {
          for (int64_t i = i0; i < i1; ++i, d += k) *d = v[perm[i]];
        }
      }
    }
  }
}

void UnpackRowMajorToColumns(const double* src, int64_t n, int64_t k,
                             double* const* cols) {
  if (k == 1) {
    std::copy(src, src + n, cols[0]);
    return;
  }
  for (int64_t i0 = 0; i0 < n; i0 += kTileRows) {
    const int64_t i1 = std::min(n, i0 + kTileRows);
    for (int64_t j0 = 0; j0 < k; j0 += kTileCols) {
      const int64_t j1 = std::min(k, j0 + kTileCols);
      int64_t j = j0;
      for (; j + 4 <= j1; j += 4) {
        simd::Unpack4(src + i0 * k + j, k, i1 - i0, cols[j] + i0,
                      cols[j + 1] + i0, cols[j + 2] + i0, cols[j + 3] + i0);
      }
      for (; j < j1; ++j) {
        double* v = cols[j];
        const double* s = src + i0 * k + j;
        for (int64_t i = i0; i < i1; ++i, s += k) v[i] = *s;
      }
    }
  }
}

void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y) {
  RMA_DCHECK(x.size() == y->size());
  simd::Axpy(alpha, x.data(), y->data(), static_cast<int64_t>(x.size()));
}

void Scale(double alpha, std::vector<double>* x) {
  simd::Scale(alpha, x->data(), static_cast<int64_t>(x->size()));
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  RMA_DCHECK(a.size() == b.size());
  return simd::Dot(a.data(), b.data(), static_cast<int64_t>(a.size()));
}

namespace {

template <typename T, typename Cmp>
void ScanTyped(const std::vector<T>& data, Cmp cmp, double threshold,
               std::vector<int64_t>* out) {
  for (size_t i = 0; i < data.size(); ++i) {
    if (cmp(static_cast<double>(data[i]), threshold)) {
      out->push_back(static_cast<int64_t>(i));
    }
  }
}

template <typename T>
void ScanOp(const std::vector<T>& data, const std::string& op, double t,
            std::vector<int64_t>* out) {
  if (op == "<") {
    ScanTyped(data, std::less<double>(), t, out);
  } else if (op == "<=") {
    ScanTyped(data, std::less_equal<double>(), t, out);
  } else if (op == ">") {
    ScanTyped(data, std::greater<double>(), t, out);
  } else if (op == ">=") {
    ScanTyped(data, std::greater_equal<double>(), t, out);
  } else if (op == "==") {
    ScanTyped(data, std::equal_to<double>(), t, out);
  } else if (op == "!=") {
    ScanTyped(data, std::not_equal_to<double>(), t, out);
  } else {
    RMA_CHECK(false && "unknown comparison op");
  }
}

}  // namespace

std::vector<int64_t> SelectNumeric(const Bat& bat, const std::string& op,
                                   double threshold) {
  std::vector<int64_t> out;
  if (bat.type() == DataType::kDouble) {
    if (const auto* d = dynamic_cast<const DoubleBat*>(&bat)) {
      ScanOp(d->data(), op, threshold, &out);
      return out;
    }
  }
  if (bat.type() == DataType::kInt64) {
    if (const auto* d = dynamic_cast<const Int64Bat*>(&bat)) {
      ScanOp(d->data(), op, threshold, &out);
      return out;
    }
  }
  // Generic fallback (sparse columns, ...).
  const int64_t n = bat.size();
  for (int64_t i = 0; i < n; ++i) {
    const double v = bat.GetDouble(i);
    bool keep = false;
    if (op == "<") keep = v < threshold;
    else if (op == "<=") keep = v <= threshold;
    else if (op == ">") keep = v > threshold;
    else if (op == ">=") keep = v >= threshold;
    else if (op == "==") keep = v == threshold;
    else if (op == "!=") keep = v != threshold;
    if (keep) out.push_back(i);
  }
  return out;
}

}  // namespace bat_ops
}  // namespace rma
