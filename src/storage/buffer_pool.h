#ifndef RMA_STORAGE_BUFFER_POOL_H_
#define RMA_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>

#include "storage/pager.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"

namespace rma {

/// Counters surfaced through ExecContext / EXPLAIN ANALYZE. Snapshot
/// semantics: callers diff two stats() calls to attribute activity to one
/// statement.
struct BufferPoolStats {
  int64_t hits = 0;        ///< Pin found the extent resident.
  int64_t misses = 0;      ///< Pin had to read the extent from its pager.
  int64_t evictions = 0;   ///< Frames dropped to make room.
  int64_t writebacks = 0;  ///< Dirty frames written back (evict or flush).
  int64_t resident_bytes = 0;  ///< Current bytes held in frames.
  int64_t overcommits = 0;     ///< Pins granted past capacity (all pinned).
};

class BufferPool;

/// RAII pin over one resident column extent. While valid(), data() points at
/// the extent's contiguous payload and the frame cannot be evicted.
/// Movable, not copyable; destruction (or Release) unpins.
class PinnedExtent {
 public:
  PinnedExtent() = default;
  ~PinnedExtent();
  PinnedExtent(PinnedExtent&& other) noexcept;
  PinnedExtent& operator=(PinnedExtent&& other) noexcept;
  PinnedExtent(const PinnedExtent&) = delete;
  PinnedExtent& operator=(const PinnedExtent&) = delete;

  bool valid() const { return frame_ != nullptr; }
  /// Contiguous payload of the pinned extent (logical bytes, then padding
  /// up to whole pages).
  const char* data() const;
  /// Writable view for bulk-load write-through; pair with MarkDirty().
  char* mutable_data() const;
  /// Logical payload bytes (the column tail, excluding page padding).
  int64_t bytes() const;
  /// Flags the frame for writeback on eviction/flush.
  void MarkDirty();
  void Release();

 private:
  friend class BufferPool;
  PinnedExtent(BufferPool* pool, void* frame) : pool_(pool), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  void* frame_ = nullptr;  // BufferPool::Frame*, opaque to callers
};

/// Byte-budgeted cache of column extents with LRU eviction.
///
/// The unit of residency is a whole column extent, not a single page:
/// pinning a column yields one contiguous buffer (MonetDB loads whole BAT
/// heaps the same way), which is what keeps ContiguousDoubleData() and the
/// SIMD gather/pack fast paths valid over paged columns. Pages remain the
/// I/O and checksum unit underneath.
///
/// Eviction is strict LRU over unpinned frames; pinned frames are never
/// evicted. When every frame is pinned and the budget is exhausted the pool
/// overcommits (and counts it) rather than failing the query — the cap is a
/// working-set target, not a hard allocation limit.
///
/// Thread safety: one mutex guards the frame table, the LRU list and the
/// stats; miss I/O currently runs under it (single-threaded disk, documented
/// simplification — the kernels the pool feeds dominate runtime, and the
/// fix, a per-frame "loading" latch, slots in behind the same interface).
class BufferPool {
 public:
  explicit BufferPool(int64_t capacity_bytes);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins pages [first_page, first_page + n_pages) of `pager` as one frame,
  /// reading + checksum-verifying them on a miss (one vectored read per
  /// extent into a frame that is not zero-filled first). `bytes` is the
  /// logical payload size (<= n_pages * payload). The frame keeps the pager
  /// alive.
  Result<PinnedExtent> Pin(const std::shared_ptr<Pager>& pager,
                           uint64_t first_page, uint64_t n_pages,
                           int64_t bytes);

  /// Allocates a resident, dirty, pinned frame for a freshly allocated
  /// extent without reading it (bulk-load write-through). Only the
  /// page-padding tail [bytes, n_pages * payload) is zeroed: the caller must
  /// write every byte of [0, bytes) through mutable_data() before the frame
  /// is written back.
  Result<PinnedExtent> Create(const std::shared_ptr<Pager>& pager,
                              uint64_t first_page, uint64_t n_pages,
                              int64_t bytes);

  /// Writes back every dirty frame belonging to `pager` (pinned or not),
  /// then pager->Sync(). The bulk-load commit point.
  Status Flush(const std::shared_ptr<Pager>& pager);

  /// Drops every unpinned frame belonging to pager `pager_id`, discarding
  /// dirty data (used on DropTable; still-pinned frames of concurrent
  /// readers stay resident and age out through the LRU).
  void Forget(uint64_t pager_id);

  BufferPoolStats stats() const;
  int64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  friend class PinnedExtent;
  struct Frame;
  using FrameKey = std::pair<uint64_t, uint64_t>;  // (pager id, first page)

  void Unpin(Frame* f);
  void MarkDirty(Frame* f);
  /// Evicts LRU frames until `need` more bytes fit (or nothing is evictable).
  Status EvictForLocked(int64_t need) RMA_REQUIRES(mu_);
  Status WritebackLocked(Frame* f) RMA_REQUIRES(mu_);

  const int64_t capacity_bytes_;
  mutable Mutex mu_;
  std::map<FrameKey, std::unique_ptr<Frame>> frames_ RMA_GUARDED_BY(mu_);
  /// Unpinned frames only, most-recently-used at the back.
  std::list<Frame*> lru_ RMA_GUARDED_BY(mu_);
  BufferPoolStats stats_ RMA_GUARDED_BY(mu_);
};

}  // namespace rma

#endif  // RMA_STORAGE_BUFFER_POOL_H_
