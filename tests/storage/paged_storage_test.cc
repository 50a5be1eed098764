// Out-of-core storage tier: pager checksums, buffer-pool eviction, durable
// catalog recovery, and paged-vs-malloc result parity.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/exec_context.h"
#include "core/query_cache.h"
#include "core/rma.h"
#include "rel/operators.h"
#include "sql/database.h"
#include "storage/bat_ops.h"
#include "storage/buffer_pool.h"
#include "storage/paged_bat.h"
#include "storage/paged_store.h"
#include "storage/pager.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace rma {
namespace {

/// Fresh scratch directory per test (removed by the next run's mkdtemp
/// collisions being impossible; /tmp is tmpfs in CI).
std::string TempDir() {
  char tmpl[] = "/tmp/rma_paged_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// Flips one byte at `offset` of `path` (simulates a torn or bit-rotted
/// write that fsync ordering cannot prevent).
void CorruptByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

std::string ReadFileBytes(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Recomputes a manifest's trailing checksum line over its (edited) body, so
/// Open parses the body instead of refusing the checksum.
std::string RestampManifest(const std::string& text) {
  const std::string body = text.substr(0, text.rfind("checksum "));
  char line[32];
  std::snprintf(line, sizeof(line), "checksum %016llx\n",
                static_cast<unsigned long long>(
                    StorageChecksum(body.data(), body.size())));
  return body + line;
}

/// Recomputes the checksum of data page `page` of a column file's bytes over
/// its (edited) payload, so the page verifies and its decoder runs.
void RestampPage(std::string* file, uint64_t page, int64_t page_bytes) {
  char* at = &(*file)[static_cast<size_t>(page) * page_bytes];
  const uint64_t sum =
      StorageChecksum(at + Pager::kPageHeaderBytes,
                      static_cast<size_t>(page_bytes - Pager::kPageHeaderBytes),
                      page);
  std::memcpy(at, &sum, sizeof(sum));
}

/// `rows` trips with an int64, a double and a string column. No column name
/// starts with a hex digit, so a '%' written over a name's first letter is
/// a bad escape.
Relation TripsRelation(int64_t rows) {
  std::vector<int64_t> qty;
  std::vector<double> price;
  std::vector<std::string> label;
  for (int64_t i = 0; i < rows; ++i) {
    qty.push_back(i);
    price.push_back(0.5 * static_cast<double>(i));
    label.push_back("t" + std::to_string(i % 97));
  }
  return Relation::Make(Schema::Make({{"qty", DataType::kInt64},
                                      {"price", DataType::kDouble},
                                      {"label", DataType::kString}})
                            .ValueOrDie(),
                        {MakeInt64Bat(std::move(qty)),
                         MakeDoubleBat(std::move(price)),
                         MakeStringBat(std::move(label))},
                        "trips")
      .ValueOrDie();
}

TEST(Pager, RoundTripAndReopen) {
  const std::string dir = TempDir();
  const std::string path = dir + "/t.col";
  const int64_t page_bytes = 4096;
  uint64_t first = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                         Pager::Create(path, page_bytes));
    EXPECT_EQ(pager->page_count(), 0u);
    ASSERT_OK_AND_ASSIGN(first, pager->AllocateExtent(3));
    std::vector<char> page(static_cast<size_t>(pager->payload_bytes()));
    for (uint64_t p = 0; p < 3; ++p) {
      std::memset(page.data(), static_cast<int>('a' + p), page.size());
      ASSERT_OK(pager->WritePages(first + p, 1, page.data()));
    }
    ASSERT_OK(pager->Sync());
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager, Pager::Open(path));
  EXPECT_EQ(pager->page_bytes(), page_bytes);
  EXPECT_EQ(pager->page_count(), 3u);
  std::vector<char> page(static_cast<size_t>(pager->payload_bytes()));
  ASSERT_OK(pager->ReadPages(first + 1, 1, page.data()));
  EXPECT_EQ(page[0], 'b');
  EXPECT_EQ(page[page.size() - 1], 'b');
}

TEST(Pager, ChecksumRejectsCorruptPage) {
  const std::string dir = TempDir();
  const std::string path = dir + "/t.col";
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                       Pager::Create(path, 1024));
  ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(1));
  std::vector<char> page(static_cast<size_t>(pager->payload_bytes()), 'x');
  ASSERT_OK(pager->WritePages(first, 1, page.data()));
  ASSERT_OK(pager->Sync());
  // Corrupt one payload byte in the middle of the (only) data page; the
  // file layout is [header page][data page...].
  CorruptByte(path, 1024 + 512);
  const Status st = pager->ReadPages(first, 1, page.data());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();
}

TEST(Pager, OpenRejectsTruncatedFile) {
  const std::string dir = TempDir();
  const std::string path = dir + "/t.col";
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                         Pager::Create(path, 1024));
    ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(4));
    std::vector<char> page(static_cast<size_t>(pager->payload_bytes()), 'y');
    for (uint64_t p = 0; p < 4; ++p) {
      ASSERT_OK(pager->WritePages(first + p, 1, page.data()));
    }
    ASSERT_OK(pager->Sync());
  }
  // A kill mid-write can leave the header's committed page count pointing
  // past the file end; Open must refuse rather than serve short reads.
  ASSERT_EQ(truncate(path.c_str(), 3 * 1024), 0);
  const auto reopened = Pager::Open(path);
  EXPECT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("truncated"), std::string::npos)
      << reopened.status().ToString();
}

/// Published XXH64 vectors at seed 0. The 39- and 43-byte ones run the
/// four-lane stripe loop and, between them, every tail step (8-, 4- and
/// 1-byte).
TEST(Pager, ChecksumIsXxh64) {
  EXPECT_EQ(StorageChecksum("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(StorageChecksum("a", 1), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(StorageChecksum("abc", 3), 0x44bc2cf5ad770999ull);
  const std::string spam = "Nobody inspects the spammish repetition";
  EXPECT_EQ(StorageChecksum(spam.data(), spam.size()), 0xfbcea83c8a378bf1ull);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(StorageChecksum(fox.data(), fox.size()), 0x0b242d361fda71bcull);
}

/// A data page's checksum is seeded by its page id: page 1's bytes copied
/// into page 2's slot fail verification there, and still do after the
/// stored page id is rewritten to 2.
TEST(Pager, MisdirectedPageFailsChecksum) {
  const std::string dir = TempDir();
  const std::string path = dir + "/t.col";
  const int64_t page_bytes = 1024;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                       Pager::Create(path, page_bytes));
  ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(2));
  ASSERT_EQ(first, 1u);
  const auto payload = static_cast<size_t>(pager->payload_bytes());
  std::vector<char> pages(2 * payload, 'p');
  std::fill(pages.begin() + static_cast<std::ptrdiff_t>(payload), pages.end(),
            'q');
  ASSERT_OK(pager->WritePages(1, 2, pages.data()));
  ASSERT_OK(pager->Sync());

  std::string bytes = ReadFileBytes(path);
  bytes.replace(2 * page_bytes, page_bytes, bytes, page_bytes, page_bytes);
  WriteFileBytes(path, bytes);
  std::vector<char> page(payload);
  ASSERT_OK(pager->ReadPages(1, 1, page.data()));
  Status st = pager->ReadPages(2, 1, page.data());
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.ToString();

  const uint64_t slot = 2;
  bytes.replace(2 * page_bytes + sizeof(uint64_t), sizeof(slot),
                reinterpret_cast<const char*>(&slot), sizeof(slot));
  WriteFileBytes(path, bytes);
  st = pager->ReadPages(2, 1, page.data());
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.ToString();
}

/// 1,100 pages go out and come back in one call each, which takes three
/// vectored calls of at most 512 pages; sub-ranges across a call boundary
/// read back too, and a page torn in the last call fails the whole read.
TEST(Pager, VectoredRoundTripAcrossBatches) {
  const std::string dir = TempDir();
  const std::string path = dir + "/t.col";
  const uint64_t n = 1100;
  std::vector<char> want;
  uint64_t first = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                         Pager::Create(path, Pager::kMinPageBytes));
    ASSERT_OK_AND_ASSIGN(first, pager->AllocateExtent(n));
    want.resize(n * static_cast<size_t>(pager->payload_bytes()));
    for (size_t i = 0; i < want.size(); ++i) {
      want[i] = static_cast<char>((i * 131) >> 7);
    }
    ASSERT_OK(pager->WritePages(first, n, want.data()));
    ASSERT_OK(pager->Sync());
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager, Pager::Open(path));
  ASSERT_EQ(pager->page_count(), n);
  const auto payload = static_cast<size_t>(pager->payload_bytes());
  std::vector<char> got(want.size());
  ASSERT_OK(pager->ReadPages(first, n, got.data()));
  EXPECT_EQ(got, want);

  const uint64_t from = first + 500;  // pages 501..530 straddle page 512
  std::vector<char> part(30 * payload);
  ASSERT_OK(pager->ReadPages(from, 30, part.data()));
  EXPECT_TRUE(std::equal(part.begin(), part.end(),
                         want.begin() + static_cast<std::ptrdiff_t>(
                                            (from - first) * payload)));
  EXPECT_TRUE(pager->ReadPages(first + 1, n, got.data()).IsOutOfRange());

  CorruptByte(path, static_cast<long>(1050 * Pager::kMinPageBytes + 100));
  const Status st = pager->ReadPages(first, n, got.data());
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_NE(st.message().find("page 1050 checksum"), std::string::npos)
      << st.ToString();
}

TEST(BufferPool, HitMissEvictionStats) {
  const std::string dir = TempDir();
  const int64_t page_bytes = 1024;
  const int64_t payload = page_bytes - Pager::kPageHeaderBytes;
  // Pool holds exactly two one-page frames.
  BufferPool pool(2 * page_bytes);
  std::vector<std::shared_ptr<Pager>> pagers;
  std::vector<uint64_t> firsts;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(
        std::shared_ptr<Pager> pager,
        Pager::Create(dir + "/p" + std::to_string(i) + ".col", page_bytes));
    ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(1));
    std::vector<char> page(static_cast<size_t>(payload),
                           static_cast<char>('0' + i));
    ASSERT_OK(pager->WritePages(first, 1, page.data()));
    ASSERT_OK(pager->Sync());
    pagers.push_back(std::move(pager));
    firsts.push_back(first);
  }
  {
    ASSERT_OK_AND_ASSIGN(PinnedExtent a,
                         pool.Pin(pagers[0], firsts[0], 1, payload));
    EXPECT_EQ(a.data()[0], '0');
  }
  {
    // Re-pin: resident, counts a hit.
    ASSERT_OK_AND_ASSIGN(PinnedExtent a,
                         pool.Pin(pagers[0], firsts[0], 1, payload));
    ASSERT_OK_AND_ASSIGN(PinnedExtent b,
                         pool.Pin(pagers[1], firsts[1], 1, payload));
    // Third frame exceeds the budget; `a` and `b` are pinned, so the pool
    // overcommits rather than evicting them.
    ASSERT_OK_AND_ASSIGN(PinnedExtent c,
                         pool.Pin(pagers[2], firsts[2], 1, payload));
    EXPECT_EQ(c.data()[0], '2');
    const BufferPoolStats mid = pool.stats();
    EXPECT_EQ(mid.hits, 1);
    EXPECT_EQ(mid.misses, 3);
    EXPECT_GE(mid.overcommits, 1);
    EXPECT_EQ(mid.evictions, 0);
  }
  // All unpinned now; a fresh extent misses and evicts LRU frames down to
  // capacity.
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<Pager> extra,
      Pager::Create(dir + "/p3.col", page_bytes));
  ASSERT_OK_AND_ASSIGN(const uint64_t extra_first, extra->AllocateExtent(1));
  std::vector<char> page(static_cast<size_t>(payload), '3');
  ASSERT_OK(extra->WritePages(extra_first, 1, page.data()));
  ASSERT_OK(extra->Sync());
  {
    ASSERT_OK_AND_ASSIGN(PinnedExtent d,
                         pool.Pin(extra, extra_first, 1, payload));
    EXPECT_EQ(d.data()[0], '3');
  }
  const BufferPoolStats end = pool.stats();
  EXPECT_GT(end.evictions, 0);
  EXPECT_LE(end.resident_bytes, pool.capacity_bytes());
  // An evicted extent re-reads correctly.
  ASSERT_OK_AND_ASSIGN(PinnedExtent again,
                       pool.Pin(pagers[2], firsts[2], 1, payload));
  EXPECT_EQ(again.data()[0], '2');
}

/// Create zeroes only the page-padding tail of a fresh frame, and does zero
/// it: the first frame fills every byte with 0xcd and is freed, so the
/// second frame (same size) likely reuses its memory, and the tail of its
/// last page still reads back as zeros after a flush and reopen.
TEST(BufferPool, CreateZeroesOnlyThePaddingTail) {
  const std::string dir = TempDir();
  const std::string path = dir + "/t.col";
  const int64_t page_bytes = 1024;
  const int64_t payload = page_bytes - Pager::kPageHeaderBytes;
  const int64_t bytes = 2 * payload + 100;  // not a whole number of pages
  const int64_t frame_bytes = 3 * payload;
  uint64_t second = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                         Pager::Create(path, page_bytes));
    BufferPool pool(1 << 20);
    ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(3));
    {
      ASSERT_OK_AND_ASSIGN(PinnedExtent full,
                           pool.Create(pager, first, 3, frame_bytes));
      std::memset(full.mutable_data(), 0xcd, static_cast<size_t>(frame_bytes));
      full.MarkDirty();
    }
    ASSERT_OK(pool.Flush(pager));
    pool.Forget(pager->id());
    ASSERT_OK_AND_ASSIGN(second, pager->AllocateExtent(3));
    {
      ASSERT_OK_AND_ASSIGN(PinnedExtent part,
                           pool.Create(pager, second, 3, bytes));
      std::memset(part.mutable_data(), 0xab, static_cast<size_t>(bytes));
      part.MarkDirty();
    }
    ASSERT_OK(pool.Flush(pager));
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager, Pager::Open(path));
  std::vector<char> got(static_cast<size_t>(frame_bytes));
  ASSERT_OK(pager->ReadPages(second, 3, got.data()));
  EXPECT_EQ(std::count(got.begin(), got.begin() + bytes, '\xab'), bytes);
  EXPECT_EQ(std::count(got.begin() + bytes, got.end(), '\0'),
            frame_bytes - bytes);
}

TEST(PagedStore, SaveReopenRoundTrip) {
  const std::string dir = TempDir();
  const Relation r = workload::UniformRelation(500, 3, 11, 0.0, 100.0,
                                               /*sorted=*/false, "m");
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir));
    ASSERT_OK_AND_ASSIGN(const Relation stored, store->SaveTable("m", r));
    EXPECT_TRUE(RelationsEqualOrdered(r, stored, 0.0));
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir));
  ASSERT_EQ(store->recovered().size(), 1u);
  EXPECT_EQ(store->recovered()[0].first, "m");
  const Relation& back = store->recovered()[0].second;
  EXPECT_TRUE(RelationsEqualOrdered(r, back, 0.0));
  // Numeric columns come back paged: unstable until pinned.
  EXPECT_FALSE(back.column(1)->StableData());
}

TEST(PagedStore, RecoveryDiscardsTableWithMissingFile) {
  const std::string dir = TempDir();
  std::string victim_file;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir));
    ASSERT_OK(store
                  ->SaveTable("keep", workload::UniformRelation(
                                          50, 1, 3, 0.0, 1.0, false, "keep"))
                  .status());
    ASSERT_OK(store
                  ->SaveTable("lose", workload::UniformRelation(
                                          50, 1, 4, 0.0, 1.0, false, "lose"))
                  .status());
  }
  // Delete one of the second table's column files: recovery must discard
  // exactly that table and keep the other.
  ASSERT_EQ(std::remove((dir + "/c3.col").c_str()), 0);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir));
  ASSERT_EQ(store->recovered().size(), 1u);
  EXPECT_EQ(store->recovered()[0].first, "keep");
}

/// A data directory of the previous format (v1 manifest, v1 page file) is
/// refused by its version, before any checksum, and Open leaves every file
/// as it was: there is no v1 reader, and discarding would delete the data.
TEST(PagedStore, OpenRefusesV1DirectoryIntact) {
  const std::string dir = TempDir();
  const int64_t page_bytes = 1024;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                         Pager::Create(dir + "/c1.col", page_bytes));
    ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(1));
    std::vector<char> page(static_cast<size_t>(pager->payload_bytes()), 0);
    ASSERT_OK(pager->WritePages(first, 1, page.data()));
    ASSERT_OK(pager->Sync());
  }
  // Mark the page file's header as version 1; its checksum, whatever it
  // holds, is never reached.
  std::string col = ReadFileBytes(dir + "/c1.col");
  const uint64_t v1 = 1;
  col.replace(sizeof(uint64_t), sizeof(v1), reinterpret_cast<const char*>(&v1),
              sizeof(v1));
  WriteFileBytes(dir + "/c1.col", col);
  // The manifest as v1 wrote it; its checksum line is never reached.
  const std::string manifest =
      "rma-manifest v1\n"
      "next-file-id 2\n"
      "table old name old rows 4\n"
      "col x DOUBLE c1.col 1 1 32\n"
      "endtable\n"
      "checksum 0123456789abcdef\n";
  WriteFileBytes(dir + "/manifest", manifest);

  const auto store = PagedStore::Open(dir);
  EXPECT_STATUS(kIoError, store);
  EXPECT_NE(store.status().message().find("rma-manifest v1"),
            std::string::npos)
      << store.status().ToString();
  EXPECT_EQ(store.status().message().find("checksum"), std::string::npos)
      << store.status().ToString();
  EXPECT_EQ(ReadFileBytes(dir + "/manifest"), manifest);
  EXPECT_EQ(ReadFileBytes(dir + "/c1.col"), col);
  const auto pager = Pager::Open(dir + "/c1.col");
  EXPECT_STATUS(kIoError, pager);
  EXPECT_NE(pager.status().message().find("version 1"), std::string::npos)
      << pager.status().ToString();
}

/// Crafted bytes under intact checksums come back as IoErrors, never as a
/// thrown exception or an oversized allocation: a manifest name with a bad
/// %-escape fails Open; a string page whose value length runs past the
/// column, or whose value count (equal to the manifest's row count) exceeds
/// what its bytes can hold, discards its table.
TEST(PagedStore, CraftedManifestAndStringPageFailWithIoError) {
  const std::string dir = TempDir();
  PagedStoreOptions opts;
  opts.page_bytes = 1024;
  const Relation labels = TripsRelation(50).SelectColumns({2});
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir, opts));
    ASSERT_OK(store->SaveTable("trips", labels).status());
  }
  const std::string manifest = ReadFileBytes(dir + "/manifest");
  const std::string col = ReadFileBytes(dir + "/c1.col");

  std::string bad = manifest;
  bad.replace(bad.find("label"), 5, "%zz");
  WriteFileBytes(dir + "/manifest", RestampManifest(bad));
  const auto refused = PagedStore::Open(dir, opts);
  EXPECT_STATUS(kIoError, refused);
  EXPECT_NE(refused.status().message().find("bad escape"), std::string::npos)
      << refused.status().ToString();

  // Page 1's payload: [u64 count][u64 len]["t0"]...
  auto discarded = [&](const std::string& manifest_text, std::string page) {
    WriteFileBytes(dir + "/manifest", RestampManifest(manifest_text));
    RestampPage(&page, 1, opts.page_bytes);
    WriteFileBytes(dir + "/c1.col", page);
    ::testing::internal::CaptureStderr();
    const auto store = PagedStore::Open(dir, opts);
    const std::string log = ::testing::internal::GetCapturedStderr();
    ASSERT_OK(store.status());
    EXPECT_TRUE((*store)->recovered().empty());
    EXPECT_NE(log.find("string column truncated"), std::string::npos) << log;
  };
  const auto body =
      static_cast<size_t>(opts.page_bytes + Pager::kPageHeaderBytes);
  std::string wrap = col;
  const uint64_t len = ~uint64_t{0} - 8;
  wrap.replace(body + 8, sizeof(len), reinterpret_cast<const char*>(&len),
               sizeof(len));
  discarded(manifest, wrap);

  std::string huge = col;
  const uint64_t count = uint64_t{1} << 40;
  huge.replace(body, sizeof(count), reinterpret_cast<const char*>(&count),
               sizeof(count));
  std::string rows = manifest;
  rows.replace(rows.find("rows 50"), 7, "rows " + std::to_string(count));
  discarded(rows, huge);
}

/// Seeded mutation of the bytes a data directory's parser and decoders
/// read. Each iteration overwrites a short run of a saved table's manifest
/// body or of one page of one of its column files, with one byte that
/// steers the parsers into edge cases or with random bytes, and re-stamps
/// that file's checksum so the bytes get past it. Opening the store and
/// pinning every column must then return OK or a Status, never abort or
/// throw, and never allocate more than the directory's files hold.
TEST(PagedStore, MutatedBytesFailWithStatus) {
  const std::string dir = TempDir();
  PagedStoreOptions opts;
  opts.page_bytes = 1024;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir, opts));
    ASSERT_OK(store->SaveTable("trips", TripsRelation(300)).status());
  }
  const std::vector<std::string> files = {"manifest", "c1.col", "c2.col",
                                          "c3.col"};
  std::vector<std::string> pristine;
  int64_t dir_bytes = 0;
  for (const std::string& name : files) {
    pristine.push_back(ReadFileBytes(dir + "/" + name));
    dir_bytes += static_cast<int64_t>(pristine.back().size());
  }
  // Escape, separators, sign, digit, NUL and all-ones length bytes.
  const unsigned char kSteering[] = {'%', ' ', '\n', '-', '9', 0x00, 0xff};
  Rng rng(23);
  int refused = 0;
  int discarded = 0;
  int kept = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    for (size_t f = 0; f < files.size(); ++f) {
      WriteFileBytes(dir + "/" + files[f], pristine[f]);
    }
    const auto f =
        static_cast<size_t>(rng.Bernoulli(0.5) ? 0 : rng.UniformInt(1, 3));
    std::string bytes = pristine[f];
    int64_t lo = 0;
    auto hi = static_cast<int64_t>(bytes.rfind("checksum "));
    uint64_t page = 0;
    if (f > 0) {
      const auto pages = static_cast<int64_t>(bytes.size()) / opts.page_bytes;
      page = static_cast<uint64_t>(rng.UniformInt(1, pages - 1));
      lo = static_cast<int64_t>(page) * opts.page_bytes +
           Pager::kPageHeaderBytes;
      hi = lo + opts.page_bytes - Pager::kPageHeaderBytes;
    }
    const int64_t at = rng.UniformInt(lo, hi - 1);
    const int64_t end = std::min(hi, at + rng.UniformInt(1, 8));
    const bool steer = rng.Bernoulli(0.5);
    const unsigned char fill =
        kSteering[rng.UniformInt(0, sizeof(kSteering) - 1)];
    for (int64_t i = at; i < end; ++i) {
      bytes[static_cast<size_t>(i)] =
          static_cast<char>(steer ? fill : rng.UniformInt(0, 255));
    }
    if (f == 0) {
      bytes = RestampManifest(bytes);
    } else {
      RestampPage(&bytes, page, opts.page_bytes);
    }
    WriteFileBytes(dir + "/" + files[f], bytes);

    const auto store = PagedStore::Open(dir, opts);
    if (!store.ok()) {
      ++refused;
      continue;
    }
    if ((*store)->recovered().empty()) {
      ++discarded;
      continue;
    }
    ++kept;
    for (const auto& [name, rel] : (*store)->recovered()) {
      for (int c = 0; c < rel.num_columns(); ++c) {
        if (rel.column(c)->PinData().ok()) rel.column(c)->UnpinData();
      }
    }
    EXPECT_LE((*store)->pool()->stats().resident_bytes, dir_bytes)
        << "iteration " << iter;
  }
  // Every outcome occurs, so the mutations reach the parser and decoders.
  EXPECT_GT(refused, 0);
  EXPECT_GT(discarded, 0);
  EXPECT_GT(kept, 0);
}

/// A manifest whose next-file-id lags its own col lines must not hand a
/// live column file to the next save, which would truncate it under intact
/// checksums: the store takes one past the largest file the manifest names,
/// and refuses an id so large that the counter would wrap onto c1.col.
TEST(PagedStore, StaleNextFileIdNeverReusesALiveFile) {
  const std::string dir = TempDir();
  const Relation a = workload::UniformRelation(1000, 2, 51, 0.0, 1.0,
                                               /*sorted=*/false, "a");
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir));
    ASSERT_OK(store->SaveTable("a", a).status());
  }
  const std::string manifest = ReadFileBytes(dir + "/manifest");
  const size_t at = manifest.find("next-file-id ");
  ASSERT_NE(at, std::string::npos) << manifest;
  auto with_next_id = [&](const std::string& id) {
    std::string text = manifest;
    text.replace(at, text.find('\n', at) - at, "next-file-id " + id);
    WriteFileBytes(dir + "/manifest", RestampManifest(text));
  };
  with_next_id("18446744073709551615");
  EXPECT_STATUS(kIoError, PagedStore::Open(dir));
  with_next_id("1");
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir));
    ASSERT_EQ(store->recovered().size(), 1u);
    ASSERT_OK(store
                  ->SaveTable("b", workload::UniformRelation(
                                       10, 2, 52, 0.0, 1.0, false, "b"))
                  .status());
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir));
  ASSERT_EQ(store->recovered().size(), 2u);
  for (const auto& [name, rel] : store->recovered()) {
    if (name == "a") EXPECT_TRUE(RelationsEqualOrdered(a, rel, 0.0));
  }
}

TEST(Database, DurableCatalogSurvivesReopen) {
  const std::string dir = TempDir();
  const Relation m = workload::UniformRelation(300, 2, 21, 0.0, 10.0,
                                               /*sorted=*/false, "m");
  {
    ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
    ASSERT_OK(db.Register("m", m));
    ASSERT_OK(db.Register("gone", testing::WeatherRelation()));
    ASSERT_OK(db.Drop("gone"));
  }
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
  EXPECT_FALSE(db.Has("gone"));
  ASSERT_OK_AND_ASSIGN(const Relation back, db.Get("m"));
  EXPECT_TRUE(RelationsEqualOrdered(m, back, 0.0));
  // SQL over the recovered (paged) table matches SQL over the original.
  sql::Database mem;
  ASSERT_OK(mem.Register("m", m));
  ASSERT_OK_AND_ASSIGN(const Relation paged_q,
                       db.Query("SELECT * FROM m WHERE a0 > 5"));
  ASSERT_OK_AND_ASSIGN(const Relation mem_q,
                       mem.Query("SELECT * FROM m WHERE a0 > 5"));
  EXPECT_TRUE(RelationsEqualOrdered(mem_q, paged_q, 0.0));
}

TEST(Database, CorruptPageSurfacesAsIoError) {
  const std::string dir = TempDir();
  {
    ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
    ASSERT_OK(db.Register("m", workload::UniformRelation(2000, 1, 5, 0.0, 1.0,
                                                         false, "m")));
  }
  // Corrupt a payload byte of the double column (file c2.col: id is c1).
  // The page checksum catches it at pin time and the statement fails with
  // IoError instead of returning wrong data.
  CorruptByte(dir + "/c2.col", Pager::kDefaultPageBytes + 256);
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
  const auto q = db.Query("SELECT * FROM m");
  EXPECT_STATUS(kIoError, q);
  EXPECT_NE(q.status().message().find("checksum"), std::string::npos)
      << q.status().ToString();
}

/// A SELECT binds only the columns it names, and only those fault in from
/// the store: a corrupt page in a column the statement does not name is
/// never read, while a statement that names that column still fails with
/// the I/O error. COUNT(*) binds the first column alone (int64 here).
TEST(Database, PrunedBindReadsOnlyNamedPagedColumns) {
  const std::string dir = TempDir();
  const Relation m =
      workload::UniformRelation(2000, 2, 5, 0.0, 1.0, false, "m");
  sql::Database mem;
  ASSERT_OK(mem.Register("m", m));
  const std::vector<std::string> queries = {
      "SELECT COUNT(*) AS n FROM m",
      "SELECT COUNT(*) AS n, SUM(a1) AS s FROM m WHERE id < 1000",
      "SELECT id, a1 * 2 AS y FROM m WHERE a1 > 0.5"};
  {
    ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
    ASSERT_OK(db.Register("m", m));
    for (const std::string& q : queries) {
      ASSERT_OK_AND_ASSIGN(const Relation paged, db.Query(q));
      ASSERT_OK_AND_ASSIGN(const Relation malloc_twin, mem.Query(q));
      EXPECT_TRUE(testing::BitIdentical(paged, malloc_twin)) << q;
    }
  }
  // Corrupt a payload byte of a0 (file c2.col: id is c1, a1 is c3).
  CorruptByte(dir + "/c2.col", Pager::kDefaultPageBytes + 256);
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
  for (const std::string& q : queries) {
    ASSERT_OK_AND_ASSIGN(const Relation paged, db.Query(q));
    ASSERT_OK_AND_ASSIGN(const Relation malloc_twin, mem.Query(q));
    EXPECT_TRUE(testing::BitIdentical(paged, malloc_twin)) << q;
  }
  const auto named = db.Query("SELECT SUM(a0) AS s FROM m");
  EXPECT_STATUS(kIoError, named);
  EXPECT_NE(named.status().message().find("checksum"), std::string::npos)
      << named.status().ToString();
}

/// The relational operators called directly on store-backed columns read
/// them through their accessors (a raw frame pointer is only valid under
/// the caller's pin) and match the malloc-backed results bit for bit.
TEST(Database, RelOperatorsOverPagedColumnsMatchMalloc) {
  const std::string dir = TempDir();
  Rng rng(17);
  const Relation m = testing::RandomKeyedRelation(3000, 2, &rng);
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
  ASSERT_OK(db.Register("m", m));
  ASSERT_OK_AND_ASSIGN(const Relation paged, db.Get("m"));
  ASSERT_FALSE(paged.column(1)->StableData());
  const rel::ExprPtr pred = rel::Expr::Binary(
      ">", rel::Expr::Column("a0"), rel::Expr::Column("a1"));
  const rel::ExprPtr sum = rel::Expr::Binary("+", rel::Expr::Column("id"),
                                             rel::Expr::Column("a0"));
  const std::vector<rel::AggSpec> aggs = {{"SUM", "a0", "s"},
                                          {"MAX", "id", "x"}};
  ASSERT_OK_AND_ASSIGN(const Relation sel, rel::Select(paged, pred));
  ASSERT_OK_AND_ASSIGN(const Relation base_sel, rel::Select(m, pred));
  EXPECT_TRUE(testing::BitIdentical(sel, base_sel));
  ASSERT_OK_AND_ASSIGN(const Relation proj, rel::Project(paged, {{sum, "s"}}));
  ASSERT_OK_AND_ASSIGN(const Relation base_proj, rel::Project(m, {{sum, "s"}}));
  EXPECT_TRUE(testing::BitIdentical(proj, base_proj));
  ASSERT_OK_AND_ASSIGN(const Relation agg, rel::Aggregate(paged, {}, aggs));
  ASSERT_OK_AND_ASSIGN(const Relation base_agg, rel::Aggregate(m, {}, aggs));
  EXPECT_TRUE(testing::BitIdentical(agg, base_agg));
  ASSERT_OK_AND_ASSIGN(const Relation join,
                       rel::HashJoin(paged, m, {"a1"}, {"a1"}));
  ASSERT_OK_AND_ASSIGN(const Relation base_join,
                       rel::HashJoin(m, m, {"a1"}, {"a1"}));
  EXPECT_TRUE(testing::BitIdentical(join, base_join));
  EXPECT_TRUE(bat_ops::IsKey({paged.column(1)}));
}

/// Fig. 13-shaped parity check: `add` and `qqr` over a dataset about twice
/// the pool budget must run eviction traffic and still produce bit-identical
/// results to the malloc-backed baseline.
TEST(Database, PagedVsMallocBitIdenticalUnderEviction) {
  const std::string dir = TempDir();
  const int64_t rows = 20000;
  const Relation r =
      workload::ManyOrderColumnsRelation(rows, 3, 7, 11, "r");
  std::vector<std::string> order;
  for (int c = 0; c < 3; ++c) order.push_back("o" + std::to_string(c));

  // Budget ~half the table bytes so pin traffic must evict.
  PagedStoreOptions opts;
  opts.pool_bytes = r.ByteSize() / 2;
  opts.page_bytes = 16 * 1024;
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir, opts));
  ASSERT_OK(db.Register("r", r));
  ASSERT_OK_AND_ASSIGN(const Relation paged, db.Get("r"));
  EXPECT_FALSE(paged.column(3)->StableData());

  // `add` needs disjoint order-schema names; alias the second operand.
  const std::vector<std::string> renamed = {"p0", "p1", "p2", "val"};
  std::vector<std::string> order_s(renamed.begin(), renamed.end() - 1);
  ASSERT_OK_AND_ASSIGN(const Relation s, rel::RenameAll(r, renamed));
  ASSERT_OK_AND_ASSIGN(const Relation paged_s,
                       rel::RenameAll(paged, renamed));
  ASSERT_OK_AND_ASSIGN(const Relation base_add, Add(r, order, s, order_s));
  ASSERT_OK_AND_ASSIGN(const Relation paged_add,
                       Add(paged, order, paged_s, order_s));
  EXPECT_TRUE(RelationsEqualOrdered(base_add, paged_add, 0.0));

  ASSERT_OK_AND_ASSIGN(const Relation base_qqr, Qqr(r, order));
  ASSERT_OK_AND_ASSIGN(const Relation paged_qqr, Qqr(paged, order));
  EXPECT_TRUE(RelationsEqualOrdered(base_qqr, paged_qqr, 0.0));

  const BufferPoolStats stats = db.paged_store()->pool()->stats();
  EXPECT_GT(stats.evictions, 0) << "pool never evicted; shrink pool_bytes";
  EXPECT_GT(stats.misses, 0);
}

/// Repeated statements over a paged database under eviction keep their cache
/// hits: after the first run every statement is served from the plan cache
/// and every argument from the prepared cache. Nothing execution does may
/// move a plan key; rma_e2e's paged_cov_add relies on these hit ratios.
TEST(Database, PagedRepeatedStatementsHitPlanAndPreparedCaches) {
  const std::string dir = TempDir();
  const Relation r = workload::ManyOrderColumnsRelation(20000, 3, 7, 11, "r");
  ASSERT_OK_AND_ASSIGN(const Relation s,
                       rel::RenameAll(r, {"p0", "p1", "p2", "val"}));
  // Budget ~half of one table so the statements must evict.
  PagedStoreOptions opts;
  opts.pool_bytes = r.ByteSize() / 2;
  opts.page_bytes = 16 * 1024;
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir, opts));
  ASSERT_OK(db.Register("r", r));
  ASSERT_OK(db.Register("s", s));
  const std::vector<std::string> statements = {
      "SELECT * FROM ADD(r BY (o0, o1, o2), s BY (p0, p1, p2))",
      "SELECT * FROM CPD(r BY (o0, o1, o2), s BY (p0, p1, p2))"};
  const std::shared_ptr<BufferPool>& pool = db.paged_store()->pool();
  const int64_t evictions = pool->stats().evictions;
  for (int run = 0; run < 4; ++run) {
    for (const std::string& sql : statements) {
      const QueryCache::Counters before = db.query_cache()->counters();
      ASSERT_OK(db.Execute(sql).status());
      const QueryCache::Counters after = db.query_cache()->counters();
      if (run == 0) continue;
      EXPECT_EQ(after.plan_hits - before.plan_hits, 1) << run << ": " << sql;
      EXPECT_EQ(after.plan_misses, before.plan_misses) << run << ": " << sql;
      EXPECT_EQ(after.prepared_hits - before.prepared_hits, 2)
          << run << ": " << sql;
      EXPECT_EQ(after.prepared_misses, before.prepared_misses)
          << run << ": " << sql;
    }
  }
  EXPECT_GT(pool->stats().evictions, evictions)
      << "the statements never evicted; shrink pool_bytes";
}

std::string PlanText(const Relation& plan) {
  std::string text;
  for (int64_t i = 0; i < plan.num_rows(); ++i) {
    text += plan.column(0)->GetString(i);
    text += '\n';
  }
  return text;
}

/// A self cross product over a store-backed table materializes the table
/// once for both arguments, so the second argument reuses the first's
/// prepare and the planner picks SYRK, as over the same table in memory,
/// with the same bits.
TEST(Database, PagedSelfCrossProductPlansSyrk) {
  const std::string dir = TempDir();
  Rng rng(41);
  const Relation x = testing::RandomKeyedRelation(20000, 6, &rng, -10, 10, "x");
  sql::Database mem;
  ASSERT_OK(mem.Register("x", x));
  ASSERT_OK_AND_ASSIGN(sql::Database paged,
                       sql::Database::Open(dir, PagedStoreOptions{}));
  ASSERT_OK(paged.Register("x", x));
  const std::string q = "SELECT * FROM CPD(x BY id, x BY id)";
  for (sql::Database* db : {&mem, &paged}) {
    ASSERT_OK_AND_ASSIGN(const Relation plan,
                         db->Execute("EXPLAIN ANALYZE " + q));
    const std::string text = PlanText(plan);
    EXPECT_NE(text.find("op 1: cpd kernel=dense-syrk "), std::string::npos)
        << text;
    // The second argument is served by the first one's prepare.
    EXPECT_NE(text.find(" prepared: 1 hit, 1 miss"), std::string::npos)
        << text;
  }
  ASSERT_OK_AND_ASSIGN(const Relation want, mem.Execute(q));
  ASSERT_OK_AND_ASSIGN(const Relation got, paged.Execute(q));
  EXPECT_TRUE(testing::BitIdentical(got, want));
}

/// Plain EXPLAIN reads only shapes: on a store reopened cold it faults in
/// no page, and it prints what the same EXPLAIN prints over a malloc-backed
/// twin, shard count included (a paged double column is contiguous once
/// execution pins it).
TEST(Database, PagedPlainExplainReadsNoPages) {
  const std::string dir = TempDir();
  Rng rng(43);
  const Relation x =
      testing::RandomKeyedRelation(100000, 7, &rng, -10, 10, "x");
  {
    ASSERT_OK_AND_ASSIGN(sql::Database saved,
                         sql::Database::Open(dir, PagedStoreOptions{}));
    ASSERT_OK(saved.Register("x", x));
  }
  PagedStoreOptions cold;
  cold.pool_bytes = 1 << 20;  // smaller than one column of x
  ASSERT_OK_AND_ASSIGN(sql::Database paged, sql::Database::Open(dir, cold));
  sql::Database mem;
  ASSERT_OK(mem.Register("x", x));
  for (sql::Database* db : {&mem, &paged}) db->rma_options.max_threads = 4;

  const std::string q = "EXPLAIN SELECT * FROM CPD(x BY id, x BY id)";
  const BufferPoolStats before = paged.paged_store()->pool()->stats();
  ASSERT_OK_AND_ASSIGN(const Relation got, paged.Execute(q));
  const BufferPoolStats after = paged.paged_store()->pool()->stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  ASSERT_OK_AND_ASSIGN(const Relation want, mem.Execute(q));
  EXPECT_NE(PlanText(want).find(" shards="), std::string::npos)
      << PlanText(want);
  EXPECT_EQ(PlanText(got), PlanText(want));
}

/// The order-part memo holds malloc-backed columns only: over a paged
/// relation, two ops served by one cached argument each gather their own
/// order part, so the cache never holds RAM outside the pool's budget.
TEST(Database, PagedOrderPartGatheredPerOp) {
  const std::string dir = TempDir();
  Rng rng(31);
  const Relation r = testing::RandomKeyedRelation(5000, 3, &rng);  // shuffled
  ASSERT_OK_AND_ASSIGN(sql::Database db,
                       sql::Database::Open(dir, PagedStoreOptions{}));
  ASSERT_OK(db.Register("r", r));
  ASSERT_OK_AND_ASSIGN(const Relation paged, db.Get("r"));
  ASSERT_FALSE(paged.column(0)->StableData());

  ExecContext ctx(RmaOptions{}, db.query_cache());
  ASSERT_OK_AND_ASSIGN(const Relation first,
                       RmaUnary(&ctx, MatrixOp::kQqr, paged, {"id"}));
  RmaStats warm;
  ctx.mutable_options().stats = &warm;
  ASSERT_OK_AND_ASSIGN(const Relation second,
                       RmaUnary(&ctx, MatrixOp::kQqr, paged, {"id"}));
  EXPECT_EQ(warm.prepared_cache_hits, 1);
  EXPECT_NE(first.column(0).get(), second.column(0).get());

  ASSERT_OK_AND_ASSIGN(const Relation base, Qqr(r, {"id"}));
  EXPECT_TRUE(testing::BitIdentical(first, base));
  EXPECT_TRUE(testing::BitIdentical(second, base));
}

/// Eviction stress with concurrent readers over one store-backed table:
/// transient pins from row accessors race with whole-column pins while the
/// pool thrashes. Run under TSan in the nightly job.
TEST(BufferPool, ConcurrentReadsUnderEvictionPressure) {
  const std::string dir = TempDir();
  const int64_t rows = 8000;
  const Relation r =
      workload::UniformRelation(rows, 4, 17, 0.0, 1.0, false, "m");
  PagedStoreOptions opts;
  opts.pool_bytes = r.ByteSize() / 3;
  opts.page_bytes = 8 * 1024;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir, opts));
  ASSERT_OK_AND_ASSIGN(const Relation paged, store->SaveTable("m", r));

  std::vector<std::thread> threads;
  std::vector<double> pinned_sums(4, 0.0);
  std::vector<double> transient_sums(4, 0.0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Each thread scans one column twice: once via the pin bracket
      // (contiguous), once via transient per-row pins.
      const BatPtr& col = paged.column(t + 1);
      double sum = 0;
      if (col->PinData().ok()) {
        const double* d = col->ContiguousDoubleData();
        for (int64_t i = 0; i < rows; ++i) sum += d[i];
        col->UnpinData();
      }
      pinned_sums[static_cast<size_t>(t)] = sum;
      sum = 0;
      for (int64_t i = 0; i < rows; ++i) sum += col->GetDouble(i);
      transient_sums[static_cast<size_t>(t)] = sum;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    double expect = 0;
    const double* base = r.column(t + 1)->ContiguousDoubleData();
    for (int64_t i = 0; i < rows; ++i) expect += base[i];
    EXPECT_EQ(pinned_sums[static_cast<size_t>(t)], expect);
    EXPECT_EQ(transient_sums[static_cast<size_t>(t)], expect);
  }
  EXPECT_GT(store->pool()->stats().evictions, 0);
}

/// Sharded operations read their row ranges of paged arguments in place,
/// inside the frames RmaBinary's residency bracket pins: a concat-merged
/// ADD and a tree-reduced self CPD over two store-backed tables with
/// sorted keys (identity permutations, so nothing is gathered), in a pool
/// that holds half their bytes, shard exactly as over their malloc twins
/// and give the same bits. Runs under TSan in the nightly "Shard" step.
TEST(Database, PagedShardedOpsMatchMalloc) {
  const std::string dir = TempDir();
  const int64_t rows = 100000;
  const Relation r =
      workload::UniformRelation(rows, 7, 61, 0.0, 10000.0, true, "r");
  ASSERT_OK_AND_ASSIGN(
      const Relation s,
      workload::UniformRelation(rows, 7, 62, 0.0, 10000.0, true, "s")
          .RenameColumn(0, "sid"));
  PagedStoreOptions store_opts;
  store_opts.pool_bytes = (r.ByteSize() + s.ByteSize()) / 2;
  ASSERT_OK_AND_ASSIGN(sql::Database db,
                       sql::Database::Open(dir, store_opts));
  ASSERT_OK(db.Register("r", r));
  ASSERT_OK(db.Register("s", s));
  ASSERT_OK_AND_ASSIGN(const Relation paged_r, db.Get("r"));
  ASSERT_OK_AND_ASSIGN(const Relation paged_s, db.Get("s"));
  ASSERT_FALSE(paged_r.column(1)->StableData());

  // Explicit, so a one-thread host plans the same shards.
  RmaOptions opts;
  opts.max_threads = 4;
  // One op on a fresh context: its result, and its shard count in *shards.
  auto run = [&](MatrixOp op, const Relation& left, const std::string& lk,
                 const Relation& right, const std::string& rk,
                 int* shards) -> Result<Relation> {
    ExecContext ctx(opts);
    RMA_ASSIGN_OR_RETURN(Relation out,
                         RmaBinary(&ctx, op, left, {lk}, right, {rk}));
    *shards = ctx.plans().at(0).shards;
    return out;
  };
  const std::shared_ptr<BufferPool>& pool = db.paged_store()->pool();
  const int64_t evictions = pool->stats().evictions;
  int want = 0;
  int got = 0;

  // Concat-merged ADD.
  ASSERT_OK_AND_ASSIGN(const Relation want_add,
                       run(MatrixOp::kAdd, r, "id", s, "sid", &want));
  ASSERT_OK_AND_ASSIGN(
      const Relation got_add,
      run(MatrixOp::kAdd, paged_r, "id", paged_s, "sid", &got));
  EXPECT_GT(want, 1);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(testing::BitIdentical(got_add, want_add));

  // Tree-reduced self cross product (SYRK partials).
  ASSERT_OK_AND_ASSIGN(const Relation want_cpd,
                       run(MatrixOp::kCpd, r, "id", r, "id", &want));
  ASSERT_OK_AND_ASSIGN(
      const Relation got_cpd,
      run(MatrixOp::kCpd, paged_r, "id", paged_r, "id", &got));
  EXPECT_GT(want, 1);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(testing::BitIdentical(got_cpd, want_cpd));

  EXPECT_GT(pool->stats().evictions, evictions)
      << "the operations never evicted; shrink pool_bytes";
}

}  // namespace
}  // namespace rma
