#ifndef RMA_STORAGE_PAGER_H_
#define RMA_STORAGE_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"

namespace rma {

/// XXH64 (Yann Collet's xxHash, 64-bit), seeded. The storage tier's checksum
/// primitive: four independent multiply-rotate lanes over 8-byte words, so
/// it runs at about memory speed, and good enough to detect torn writes (the
/// threat model is a crash mid-write, not an adversary). Words are read in
/// native order; data directories are little-endian only, where this is the
/// published XXH64.
uint64_t StorageChecksum(const void* data, size_t n, uint64_t seed = 0);

/// A fixed-size-page column file.
///
/// On-disk layout (all integers little-endian, native — we do not support
/// cross-endian data directories):
///
///   page 0          file header: magic, format version, page size, page
///                   count, header checksum. Rewritten (and fsynced last)
///                   whenever the extent map grows, so a crash between data
///                   writes and the header write leaves the old, valid
///                   header in place.
///   page 1..N      data pages: [u64 checksum][u64 page id][payload]. The
///                   checksum is XXH64 of the payload seeded by the page id,
///                   so a page written for one slot can never be mistaken
///                   for another (detects misdirected writes as well as torn
///                   ones).
///
/// Pages are allocated in contiguous *extents* (one extent per column tail)
/// so a pinned column is one contiguous buffer-pool frame and the SIMD fast
/// paths keep their raw pointers. There is no free list: column files are
/// immutable once written (Register replaces the whole file), so the only
/// allocation pattern is append.
///
/// Page I/O is vectored: a run of pages moves between the caller's buffer
/// and the file in one positional preadv/pwritev per up to IOV_MAX / 2 (512)
/// pages, each page as two iovecs (its 16-byte header from a local array,
/// its payload in place), so no page is copied through a bounce buffer.
///
/// Thread safety: reads use positional preadv and may run concurrently;
/// allocation and header writes are serialized by `mu_`.
class Pager {
 public:
  static constexpr int64_t kDefaultPageBytes = 64 * 1024;
  static constexpr int64_t kMinPageBytes = 512;
  static constexpr int64_t kPageHeaderBytes = 16;  // checksum + page id
  static constexpr uint64_t kMagic = 0x3152504741'4d52ull;  // "RMAGPR1" tag

  /// Creates (truncating) a page file with the given page size.
  static Result<std::shared_ptr<Pager>> Create(const std::string& path,
                                               int64_t page_bytes);

  /// Opens an existing page file, verifying its magic, format version (a
  /// file of another version fails by it) and header checksum. Data-page
  /// checksums are verified lazily on ReadPages.
  static Result<std::shared_ptr<Pager>> Open(const std::string& path);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  const std::string& path() const { return path_; }
  int64_t page_bytes() const { return page_bytes_; }
  /// Payload capacity of one data page.
  int64_t payload_bytes() const { return page_bytes_ - kPageHeaderBytes; }
  /// Number of allocated data pages (page ids are 1-based; 0 is the header).
  uint64_t page_count() const;
  /// Process-unique id; the buffer pool keys frames on it so a recycled
  /// Pager* can never alias a dead file's cached pages.
  uint64_t id() const { return id_; }

  /// Reserves `n_pages` contiguous data pages; returns the first page id.
  /// Persists the new page count (data region is extended and the header
  /// rewritten + fsynced by the next Sync()).
  Result<uint64_t> AllocateExtent(uint64_t n_pages);

  /// Reads the payloads of data pages [first, first + n) into `payload`
  /// (n * payload_bytes() contiguous bytes, every one overwritten),
  /// verifying each page's stored checksum and page id; a mismatch is the
  /// torn- or misdirected-page signal and comes back as IoError mentioning
  /// "checksum". A short read is an IoError.
  Status ReadPages(uint64_t first, uint64_t n, void* payload) const;

  /// Writes data pages [first, first + n) from `payload` (n *
  /// payload_bytes() contiguous bytes), stamping [checksum][page id] ahead
  /// of each page's payload. Durable only after Sync().
  Status WritePages(uint64_t first, uint64_t n, const void* payload);

  /// fsyncs data pages, then rewrites + fsyncs the header. Ordering matters:
  /// the header's page count is the commit record for AllocateExtent.
  Status Sync();

 private:
  Pager(std::string path, int fd, int64_t page_bytes, uint64_t page_count);

  Status WriteHeaderLocked() RMA_REQUIRES(mu_);
  /// OutOfRange unless [first, first + n) lies within the committed pages.
  Status CheckRange(const char* what, uint64_t first, uint64_t n) const;

  const std::string path_;
  const int fd_;
  const int64_t page_bytes_;
  const uint64_t id_;
  mutable Mutex mu_;
  uint64_t page_count_ RMA_GUARDED_BY(mu_);
};

}  // namespace rma

#endif  // RMA_STORAGE_PAGER_H_
