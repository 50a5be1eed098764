#ifndef RMA_STORAGE_BAT_OPS_H_
#define RMA_STORAGE_BAT_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/bat.h"
#include "util/result.h"

namespace rma {

/// Vectorized BAT-level operations (the MonetDB kernel surface).
///
/// Relational operators and the BAT-resident matrix kernels are written in
/// terms of these primitives: multi-column stable argsort, gather
/// (leftfetchjoin), predicated selection producing candidate lists,
/// column-wise key hashing, and double-column arithmetic.
namespace bat_ops {

/// Stable argsort of rows under the lexicographic order of `keys`
/// (all BATs must have equal length). Returns the permutation `perm` such
/// that row `perm[0]` is smallest.
std::vector<int64_t> ArgSort(const std::vector<BatPtr>& keys);

/// Like ArgSort but also reports via `*unique` whether all key rows are
/// distinct (the paper requires order schemas to form a key).
std::vector<int64_t> ArgSortUnique(const std::vector<BatPtr>& keys,
                                   bool* unique);

/// True if rows are already sorted (non-strictly) under `keys`.
bool IsSorted(const std::vector<BatPtr>& keys);

/// True if all key rows are pairwise distinct. O(n) extra space.
bool IsKey(const std::vector<BatPtr>& keys);

/// The contiguous doubles of `col` when that pointer stays valid without a
/// pin (dense double columns and their slice views), else nullptr. A paged
/// column's frame pointer is only valid under its caller's pin, so the
/// typed loops below read paged columns through their accessors instead.
const double* StableDoubles(const Bat& col);

/// Row hashes of `keys` (all BATs of equal length), one typed pass per key
/// column: `out[i]` folds `std::hash` of each cell of row `i`, in column
/// order, into an FNV-seeded accumulator, so NaN and ±0.0 bucket exactly as
/// `std::hash` puts them. Int64Bat, StringBat and StableDoubles columns are
/// read as arrays; any other representation goes through Bat::Hash.
std::vector<uint64_t> HashKeys(const std::vector<BatPtr>& keys);

/// Typed row equality between two equally wide key lists: `(*this)(i, j)`
/// is true when row `i` of `a` equals row `j` of `b` in every column under
/// Bat::Compare's test — `<` in neither direction, so NaN equals
/// everything. Column pairs that are both Int64Bat, both StringBat or both
/// StableDoubles compare as arrays; any other pair calls Bat::Compare.
/// Holds raw pointers: the key BATs must outlive it.
class KeyEquals {
 public:
  KeyEquals(const std::vector<BatPtr>& a, const std::vector<BatPtr>& b);

  bool operator()(int64_t i, int64_t j) const {
    for (const Pair& p : pairs_) {
      switch (p.kind) {
        case Kind::kInt64:
          // int64 and string orders are total: `!=` is the `<` test.
          if (p.ia[i] != p.ib[j]) return false;
          break;
        case Kind::kDouble: {
          const double x = p.da[i];
          const double y = p.db[j];
          if (x < y || y < x) return false;
          break;
        }
        case Kind::kString:
          if (p.sa[i] != p.sb[j]) return false;
          break;
        case Kind::kBat:
          if (p.ba->Compare(i, *p.bb, j) != 0) return false;
          break;
      }
    }
    return true;
  }

 private:
  enum class Kind { kInt64, kDouble, kString, kBat };
  struct Pair {
    Kind kind = Kind::kBat;
    const int64_t* ia = nullptr;
    const int64_t* ib = nullptr;
    const double* da = nullptr;
    const double* db = nullptr;
    const std::string* sa = nullptr;
    const std::string* sb = nullptr;
    const Bat* ba = nullptr;
    const Bat* bb = nullptr;
  };
  std::vector<Pair> pairs_;
};

/// Flat open-addressing table (linear probing, power-of-two capacity, load
/// at most 1/2) from a row hash to the rows inserted under it, chained in
/// insertion order. One slot per distinct hash plus one link per row,
/// instead of a bucket vector per key. Callers walk a chain with Find/Next
/// and test each row with KeyEquals, so rows whose keys compare equal but
/// hash apart (NaN against a number) never meet, exactly as with a hash map.
class HashChains {
 public:
  /// Row ids passed to Insert must lie in [0, rows). The table starts with
  /// room for `expected_hashes` distinct hashes (callers that insert every
  /// row pass `rows`; group-by and distinct, which cannot know, pass 0)
  /// and doubles when half full.
  HashChains(int64_t rows, int64_t expected_hashes);

  /// First row inserted under `h`, or -1.
  int64_t Find(uint64_t h) const { return slots_[Probe(h)].head; }

  /// The row inserted under the same hash after `row`, or -1.
  int64_t Next(int64_t row) const { return next_[static_cast<size_t>(row)]; }

  /// Appends `row` to the chain of `h`.
  void Insert(uint64_t h, int64_t row);

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t head = -1;  ///< -1: empty
    int64_t tail = -1;
  };

  /// The slot holding `h`, or the empty slot where it belongs.
  size_t Probe(uint64_t h) const {
    size_t pos = static_cast<size_t>(h) & mask_;
    while (slots_[pos].head >= 0 && slots_[pos].hash != h) {
      pos = (pos + 1) & mask_;
    }
    return pos;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t used_ = 0;
  std::vector<int64_t> next_;
};

/// For each row of `probe` keys, finds the index of the matching row in
/// `build` keys. Returns KeyError if some probe row has no match or either
/// side contains duplicate keys — callers fall back to rank alignment
/// (which reports the user-facing uniqueness error). On success the match
/// is a bijection, which proves both key sets unique: no separate key
/// validation is needed. This is the "relative sorting" optimization of
/// Sec. 8.1.
Result<std::vector<int64_t>> AlignByKey(const std::vector<BatPtr>& build,
                                        const std::vector<BatPtr>& probe);

// --- double-column arithmetic (element-wise, equal lengths) ---------------

/// out[i] = a[i] + b[i]; uses the sparse fast path when both are compressed.
BatPtr AddColumns(const BatPtr& a, const BatPtr& b);
BatPtr SubColumns(const BatPtr& a, const BatPtr& b);
BatPtr MulColumns(const BatPtr& a, const BatPtr& b);

std::vector<double> AddDense(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Copies `n` doubles from `src` into `dst[0], dst[stride], ...` (stride in
/// elements). The strided-write building block of the BATs -> contiguous
/// matrix gather.
void CopyDenseToStrided(const double* src, int64_t n, double* dst,
                        int64_t stride);

/// Copies `col[perm[i]]` (or `col[i]` when `perm` is empty) into
/// `dst[i*stride]` for i in [0, n). Dense double columns take a direct
/// array walk instead of per-element virtual fetches — the shared fast path
/// of the matrix gather and the column-to-matrix kernel conversion.
void GatherColumnToStrided(const Bat& col, const std::vector<int64_t>& perm,
                           double* dst, int64_t stride);

/// Packs `k` equal-length column arrays into the row-major `dst` (n×k):
/// dst[i*k + j] = cols[j][perm ? perm[i] : i]. Row/column tiled so each
/// destination cache line is completed while resident instead of being
/// refetched once per column — the cache-aware form of k calls to
/// GatherColumnToStrided.
void PackColumnsRowMajor(const double* const* cols, int64_t k,
                         const int64_t* perm, int64_t n, double* dst);

/// Inverse of PackColumnsRowMajor (identity perm): cols[j][i] = src[i*k + j],
/// with the same tiling applied to the strided reads.
void UnpackRowMajorToColumns(const double* src, int64_t n, int64_t k,
                             double* const* cols);

/// y[i] += alpha * x[i]
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y);
/// x[i] *= alpha
void Scale(double alpha, std::vector<double>* x);
double Dot(const std::vector<double>& a, const std::vector<double>& b);
double Sum(const std::vector<double>& a);

// --- predicated selection (candidate lists) --------------------------------

/// Row indices where the double value compares `op` against `threshold`;
/// op is one of "<", "<=", ">", ">=", "==", "!=". Fast path for doubles/ints.
std::vector<int64_t> SelectNumeric(const Bat& bat, const std::string& op,
                                   double threshold);

}  // namespace bat_ops
}  // namespace rma

#endif  // RMA_STORAGE_BAT_OPS_H_
