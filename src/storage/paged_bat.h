#ifndef RMA_STORAGE_PAGED_BAT_H_
#define RMA_STORAGE_PAGED_BAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/bat.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/relation.h"
#include "util/mutex.h"

namespace rma {

/// An out-of-core numeric column: the tail lives in one extent of a page
/// file and is resident only while pinned through the buffer pool.
///
/// The residency contract mirrors MonetDB's BAT heaps: `PinData` faults the
/// whole extent into one contiguous frame, `ContiguousDoubleData` returns
/// that frame only between Pin/Unpin (so the SIMD gather/pack fast paths
/// work unchanged on pinned paged columns, and a sharded operation's
/// workers read their row ranges of the pinned frame in place), and
/// `StableData() == false` tells caches that the pointer dies with the pin.
///
/// Per-element virtual accessors pin transiently, so row-at-a-time layers
/// remain correct without brackets — but the intended use is the staged
/// executor's relation-level bracket (core/dispatch.cc) and bind-time
/// materialization in the SQL layer, where pin failures (torn pages) can
/// propagate as Status instead of being swallowed by a void accessor.
///
/// Planner-visible properties (ByteSize, Hash, Compare, GetString) match
/// TypedBat<T> exactly: a paged column must plan and execute bit-identically
/// to its malloc twin.
template <typename T>
class PagedBat final : public Bat {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, int64_t>,
                "paged columns hold fixed-width numeric tails");

 public:
  PagedBat(std::shared_ptr<Pager> pager, std::shared_ptr<BufferPool> pool,
           uint64_t first_page, uint64_t n_pages, int64_t rows);
  ~PagedBat() override;

  DataType type() const override;
  int64_t size() const override { return rows_; }

  Status PinData() const override;
  void UnpinData() const override;
  bool StableData() const override { return false; }
  const double* ContiguousDoubleData() const override;

  Value GetValue(int64_t i) const override { return Value(ValueAt(i)); }
  double GetDouble(int64_t i) const override {
    return static_cast<double>(ValueAt(i));
  }
  std::string GetString(int64_t i) const override;
  BatPtr Take(const std::vector<int64_t>& indices) const override;
  int Compare(int64_t i, const Bat& other, int64_t j) const override;
  uint64_t Hash(int64_t i) const override {
    return std::hash<T>{}(ValueAt(i));
  }
  int64_t ByteSize() const override {
    return rows_ * static_cast<int64_t>(sizeof(T));
  }

  /// A malloc TypedBat<T> copy of the whole column, read from the pinned
  /// extent in one pass. Fails with the pin's status when the extent cannot
  /// fault in (a corrupt page).
  Result<BatPtr> Materialize() const;

 private:
  /// Reads one element, pinning transiently when no bracket pin is active.
  /// I/O failure here (corrupt page outside any Status-bearing seam) warns
  /// once and yields 0 — the seams (PinColumns / MaterializeUnstable)
  /// exist precisely so real queries fail loudly before reaching this.
  T ValueAt(int64_t i) const;

  const T* ValuesLocked() const RMA_REQUIRES(mu_) {
    return reinterpret_cast<const T*>(extent_.data());
  }

  const std::shared_ptr<Pager> pager_;
  const std::shared_ptr<BufferPool> pool_;
  const uint64_t first_page_;
  const uint64_t n_pages_;
  const int64_t rows_;

  mutable Mutex mu_;
  mutable PinnedExtent extent_ RMA_GUARDED_BY(mu_);
  mutable int64_t pins_ RMA_GUARDED_BY(mu_) = 0;
};

using PagedDoubleBat = PagedBat<double>;
using PagedInt64Bat = PagedBat<int64_t>;

/// RAII residency bracket over whole relations: pins every column of every
/// relation passed to Pin, unpinning all of them on destruction. The staged
/// executor wraps each operation's arguments in one of these (gather in
/// core/prepare.cc through scatter in core/assemble.cc run inside the
/// bracket), so paged columns are contiguous and fault-free for the whole
/// stage chain and pin failures surface as Status at the operation boundary.
class PinnedRelations {
 public:
  PinnedRelations() = default;
  ~PinnedRelations();
  PinnedRelations(const PinnedRelations&) = delete;
  PinnedRelations& operator=(const PinnedRelations&) = delete;

  Status Pin(const Relation& r);

 private:
  std::vector<BatPtr> pinned_;
};

/// Returns `r` unchanged when every column's data pointers are stable
/// (malloc-backed); otherwise a malloc-backed copy of the unstable columns
/// (same schema and name, fresh identity). The SQL layer calls this at
/// table-bind time so the relational operators and streamed results only
/// ever touch resident data, and torn-page checksum failures become
/// statement errors instead of accessor-level surprises.
Result<Relation> MaterializeUnstable(const Relation& r);

}  // namespace rma

#endif  // RMA_STORAGE_PAGED_BAT_H_
