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

/// Stable argsort of rows under the lexicographic order of `keys` (at
/// least one BAT, all of equal length): row `perm[0]` is smallest.
/// `descending` is empty (every key ascending) or holds one flag per key; a
/// descending key orders its column from largest to smallest. Ties keep
/// their input order.
///
/// Keys that are all Int64Bat, StringBat or StableDoubles columns, with no
/// NaN in a double key, sort by refinement, as MonetDB does: a stable sort
/// on the first column, then on each next column a re-sort of only the runs
/// of rows still tied, skipping a run already in order and stopping once no
/// run is left. Rows already in key order cost one typed scan per column
/// the runs reach. `<` is a strict weak order on such columns, so this is
/// the one stable permutation. Any other key list (NaN, sparse or paged
/// keys) sorts row at a time through Bat::Compare, under which NaN ties
/// with everything.
std::vector<int64_t> ArgSort(const std::vector<BatPtr>& keys,
                             const std::vector<bool>& descending = {});

/// Like ArgSort (ascending) but also reports via `*unique` whether all key
/// rows are distinct (the paper requires order schemas to form a key). The
/// refine sort reads it off the runs of tied rows left after the last
/// column.
std::vector<int64_t> ArgSortUnique(const std::vector<BatPtr>& keys,
                                   bool* unique);

/// True if all key rows are pairwise distinct. O(n) extra space.
bool IsKey(const std::vector<BatPtr>& keys);

/// The contiguous doubles of `col` when that pointer stays valid without a
/// pin (dense double columns), else nullptr. A paged column's frame pointer
/// is only valid under its caller's pin, so the typed loops below read
/// paged columns through their accessors instead.
const double* StableDoubles(const Bat& col);

/// One column as the typed loops of the ordering core, HashKeys and
/// KeyEquals read it: the array of an Int64Bat, a StringBat or a
/// StableDoubles column, or kBat for any other representation (sparse,
/// paged), which they read through its accessors. Holds raw pointers: the
/// column must outlive it.
struct ColumnView {
  enum class Kind { kInt64, kDouble, kString, kBat };

  explicit ColumnView(const Bat& col);

  Kind kind = Kind::kBat;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const std::string* str = nullptr;
  const Bat* bat = nullptr;
};

/// Row hashes of `keys` (all BATs of equal length), one typed pass per key
/// column: `out[i]` folds `std::hash` of each cell of row `i`, in column
/// order, into a seeded hash-combine accumulator, so NaN and ±0.0 bucket
/// exactly as `std::hash` puts them. Typed columns (ColumnView) are read as
/// arrays; any other representation goes through Bat::Hash.
std::vector<uint64_t> HashKeys(const std::vector<BatPtr>& keys);

/// Typed row equality between two equally wide key lists: `(*this)(i, j)`
/// is true when row `i` of `a` equals row `j` of `b` in every column under
/// Bat::Compare's test — `<` in neither direction, so NaN equals
/// everything. Column pairs whose ColumnView kinds agree compare as arrays;
/// any other pair calls Bat::Compare. Holds raw pointers: the key BATs must
/// outlive it.
class KeyEquals {
 public:
  KeyEquals(const std::vector<BatPtr>& a, const std::vector<BatPtr>& b);

  bool operator()(int64_t i, int64_t j) const {
    for (const Pair& p : pairs_) {
      switch (p.kind) {
        case ColumnView::Kind::kInt64:
          // int64 and string orders are total: `!=` is the `<` test.
          if (p.a.i64[i] != p.b.i64[j]) return false;
          break;
        case ColumnView::Kind::kDouble: {
          const double x = p.a.f64[i];
          const double y = p.b.f64[j];
          if (x < y || y < x) return false;
          break;
        }
        case ColumnView::Kind::kString:
          if (p.a.str[i] != p.b.str[j]) return false;
          break;
        case ColumnView::Kind::kBat:
          if (p.a.bat->Compare(i, *p.b.bat, j) != 0) return false;
          break;
      }
    }
    return true;
  }

 private:
  struct Pair {
    ColumnView a;
    ColumnView b;
    ColumnView::Kind kind;  ///< the kind of `a` and `b` if equal, else kBat
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

// --- predicated selection (candidate lists) --------------------------------

/// Row indices where the double value compares `op` against `threshold`;
/// op is one of "<", "<=", ">", ">=", "==", "!=". Fast path for doubles/ints.
std::vector<int64_t> SelectNumeric(const Bat& bat, const std::string& op,
                                   double threshold);

}  // namespace bat_ops
}  // namespace rma

#endif  // RMA_STORAGE_BAT_OPS_H_
