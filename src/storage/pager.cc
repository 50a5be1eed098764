#include "storage/pager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>

namespace rma {

namespace {

constexpr uint64_t kFormatVersion = 2;
constexpr size_t kHeaderFields = 4;  // magic, version, page_bytes, page_count
constexpr size_t kHeaderBytes = (kHeaderFields + 1) * sizeof(uint64_t);
// Each page is two iovecs: its [checksum][page id] header and its payload.
constexpr uint64_t kPagesPerCall = IOV_MAX / 2;

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// Moves every byte `iov[0, count)` describes between memory and `fd` at
/// `off` (pwritev when `write`, else preadv), resuming after partial
/// transfers. Reaching end of file first is an IoError.
Status Transfer(bool write, int fd, iovec* iov, int count, int64_t off,
                const std::string& path) {
  const char* what = write ? "write" : "read";
  while (count > 0) {
    const ssize_t r = write ? ::pwritev(fd, iov, count, static_cast<off_t>(off))
                            : ::preadv(fd, iov, count, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno(what, path));
    }
    if (r == 0) {
      return Status::IoError(std::string(what) + " " + path +
                             ": unexpected end of file");
    }
    off += r;
    auto done = static_cast<size_t>(r);
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return Status::OK();
}

uint64_t NextPagerId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// XXH64's published constants, round and merge steps.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t Load64(const unsigned char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  return Rotl(acc + input * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

uint64_t StorageChecksum(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  size_t left = n;
  uint64_t h = 0;
  if (left >= 32) {
    // Four independent lanes over 32-byte stripes.
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    for (; left >= 32; p += 32, left -= 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += n;
  for (; left >= 8; p += 8, left -= 8) {
    h = Rotl(h ^ Round(0, Load64(p)), 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    uint32_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    h = Rotl(h ^ (word * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h = Rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  }
  // Avalanche.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

Pager::Pager(std::string path, int fd, int64_t page_bytes, uint64_t page_count)
    : path_(std::move(path)),
      fd_(fd),
      page_bytes_(page_bytes),
      id_(NextPagerId()),
      page_count_(page_count) {}

Pager::~Pager() { ::close(fd_); }

uint64_t Pager::page_count() const {
  MutexLock lock(mu_);
  return page_count_;
}

Result<std::shared_ptr<Pager>> Pager::Create(const std::string& path,
                                             int64_t page_bytes) {
  if (page_bytes < kMinPageBytes) {
    return Status::Invalid("page size " + std::to_string(page_bytes) +
                           " below the minimum of " +
                           std::to_string(kMinPageBytes));
  }
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError(Errno("create", path));
  std::shared_ptr<Pager> pager(new Pager(path, fd, page_bytes, 0));
  {
    MutexLock lock(pager->mu_);
    RMA_RETURN_NOT_OK(pager->WriteHeaderLocked());
  }
  return pager;
}

Result<std::shared_ptr<Pager>> Pager::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return Status::IoError(Errno("open", path));
  uint64_t header[kHeaderFields + 1];
  iovec iov{header, kHeaderBytes};
  Status st = Transfer(/*write=*/false, fd, &iov, 1, 0, path);
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  // The version decides the checksum, so it is checked first: a page file
  // of another version fails by its version, not as a checksum mismatch.
  if (header[0] != kMagic) {
    ::close(fd);
    return Status::IoError("open " + path + ": not an rma page file");
  }
  if (header[1] != kFormatVersion) {
    ::close(fd);
    return Status::IoError("open " + path + ": unsupported format version " +
                           std::to_string(header[1]));
  }
  const uint64_t sum =
      StorageChecksum(header, kHeaderFields * sizeof(uint64_t));
  if (header[kHeaderFields] != sum) {
    ::close(fd);
    return Status::IoError("open " + path + ": header checksum mismatch");
  }
  const auto page_bytes = static_cast<int64_t>(header[2]);
  if (page_bytes < kMinPageBytes) {
    ::close(fd);
    return Status::IoError("open " + path + ": corrupt page size");
  }
  // Every page the header commits must exist in full: a SIGKILL between
  // data writes and Sync leaves the previous header (fine), but external
  // truncation would otherwise only surface on first read.
  struct stat file_info {};
  if (::fstat(fd, &file_info) != 0) {
    const Status es = Status::IoError(Errno("stat", path));
    ::close(fd);
    return es;
  }
  // Divided rather than multiplied, so no page count can overflow it.
  if (header[3] >= static_cast<uint64_t>(file_info.st_size) /
                       static_cast<uint64_t>(page_bytes)) {
    ::close(fd);
    return Status::IoError("open " + path +
                           ": file shorter than committed page count "
                           "(truncated write)");
  }
  return std::shared_ptr<Pager>(new Pager(path, fd, page_bytes, header[3]));
}

Status Pager::WriteHeaderLocked() {
  uint64_t header[kHeaderFields + 1];
  header[0] = kMagic;
  header[1] = kFormatVersion;
  header[2] = static_cast<uint64_t>(page_bytes_);
  header[3] = page_count_;
  header[kHeaderFields] =
      StorageChecksum(header, kHeaderFields * sizeof(uint64_t));
  iovec iov{header, kHeaderBytes};
  return Transfer(/*write=*/true, fd_, &iov, 1, 0, path_);
}

Result<uint64_t> Pager::AllocateExtent(uint64_t n_pages) {
  if (n_pages == 0) return Status::Invalid("empty extent");
  MutexLock lock(mu_);
  const uint64_t first = page_count_ + 1;
  page_count_ += n_pages;
  return first;
}

Status Pager::CheckRange(const char* what, uint64_t first,
                         uint64_t n) const {
  MutexLock lock(mu_);
  if (first == 0 || n > page_count_ || first - 1 > page_count_ - n) {
    return Status::OutOfRange(std::string(what) + " " + path_ + ": " +
                              std::to_string(n) + " pages from page " +
                              std::to_string(first) + " of " +
                              std::to_string(page_count_));
  }
  return Status::OK();
}

Status Pager::ReadPages(uint64_t first, uint64_t n, void* payload) const {
  RMA_RETURN_NOT_OK(CheckRange("read", first, n));
  const auto payload_len = static_cast<size_t>(payload_bytes());
  char* out = static_cast<char*>(payload);
  uint64_t headers[kPagesPerCall][2];  // [checksum][page id] per page
  iovec iov[2 * kPagesPerCall];
  for (uint64_t done = 0; done < n;) {
    const uint64_t batch = std::min(n - done, kPagesPerCall);
    for (uint64_t i = 0; i < batch; ++i) {
      iov[2 * i] = {headers[i], kPageHeaderBytes};
      iov[2 * i + 1] = {out + (done + i) * payload_len, payload_len};
    }
    RMA_RETURN_NOT_OK(Transfer(/*write=*/false, fd_, iov,
                               static_cast<int>(2 * batch),
                               static_cast<int64_t>(first + done) * page_bytes_,
                               path_));
    for (uint64_t i = 0; i < batch; ++i) {
      const uint64_t page = first + done + i;
      if (headers[i][1] != page ||
          headers[i][0] != StorageChecksum(out + (done + i) * payload_len,
                                           payload_len, page)) {
        return Status::IoError("read " + path_ + ": page " +
                               std::to_string(page) +
                               " checksum mismatch (torn or misdirected "
                               "write)");
      }
    }
    done += batch;
  }
  return Status::OK();
}

Status Pager::WritePages(uint64_t first, uint64_t n, const void* payload) {
  RMA_RETURN_NOT_OK(CheckRange("write", first, n));
  const auto payload_len = static_cast<size_t>(payload_bytes());
  // pwritev only reads the iovecs' memory; iov_base is merely non-const.
  char* in = const_cast<char*>(static_cast<const char*>(payload));
  uint64_t headers[kPagesPerCall][2];
  iovec iov[2 * kPagesPerCall];
  for (uint64_t done = 0; done < n;) {
    const uint64_t batch = std::min(n - done, kPagesPerCall);
    for (uint64_t i = 0; i < batch; ++i) {
      const uint64_t page = first + done + i;
      char* page_payload = in + (done + i) * payload_len;
      headers[i][0] = StorageChecksum(page_payload, payload_len, page);
      headers[i][1] = page;
      iov[2 * i] = {headers[i], kPageHeaderBytes};
      iov[2 * i + 1] = {page_payload, payload_len};
    }
    RMA_RETURN_NOT_OK(Transfer(/*write=*/true, fd_, iov,
                               static_cast<int>(2 * batch),
                               static_cast<int64_t>(first + done) * page_bytes_,
                               path_));
    done += batch;
  }
  return Status::OK();
}

Status Pager::Sync() {
  // Data first, then the header whose page count commits the allocation:
  // a crash between the two leaves the old header describing only pages
  // that were fully written and synced.
  if (::fdatasync(fd_) != 0) return Status::IoError(Errno("fsync", path_));
  MutexLock lock(mu_);
  RMA_RETURN_NOT_OK(WriteHeaderLocked());
  if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync", path_));
  return Status::OK();
}

}  // namespace rma
