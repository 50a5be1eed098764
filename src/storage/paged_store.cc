#include "storage/paged_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>

#include "storage/paged_bat.h"
#include "util/string_util.h"

namespace rma {

namespace {

constexpr char kManifestName[] = "manifest";
constexpr char kManifestTmpName[] = "manifest.tmp";
constexpr char kManifestHeader[] = "rma-manifest v2";

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// %XX-escapes whitespace and '%' so names survive the space-separated
/// manifest line format; a lone "%" encodes the empty string.
std::string Escape(const std::string& s) {
  if (s.empty()) return "%";
  std::string out;
  for (const char c : s) {
    if (c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Value of one hex digit, or -1.
int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

Result<std::string> Unescape(const std::string& s) {
  if (s == "%") return std::string();
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    const int hi = i + 2 < s.size() ? HexDigit(s[i + 1]) : -1;
    const int lo = hi >= 0 ? HexDigit(s[i + 2]) : -1;
    if (lo < 0) return Status::IoError("manifest: bad escape in '" + s + "'");
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

/// Column files are "c<N>.col" directly inside the data directory. A
/// manifest may name nothing else, since recovery unlinks the files of a
/// table it discards.
bool IsColumnFileName(const std::string& name) {
  return name.size() > 5 && name[0] == 'c' &&
         name.compare(name.size() - 4, 4, ".col") == 0 &&
         name.find('/') == std::string::npos;
}

/// Column file ids stay below this bound (18 digits), so the next-file-id
/// counter never wraps onto a live file.
constexpr uint64_t kMaxFileId = 1000000000000000000ULL;

/// The N of a column file named "c<N>.col", or 0 for any other name that
/// IsColumnFileName accepts.
uint64_t ColumnFileId(const std::string& name) {
  const std::string digits = name.substr(1, name.size() - 5);
  if (digits.empty() || digits.size() > 18) return 0;
  uint64_t id = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return 0;
    id = id * 10 + static_cast<uint64_t>(ch - '0');
  }
  return id;
}

const char* TypeName(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "?";
}

Result<DataType> TypeFromName(const std::string& s) {
  if (s == "INT64") return DataType::kInt64;
  if (s == "DOUBLE") return DataType::kDouble;
  if (s == "STRING") return DataType::kString;
  return Status::IoError("manifest: unknown column type '" + s + "'");
}

Status WriteFileDurably(const std::string& path, const std::string& content) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError(Errno("create", path));
  const char* p = content.data();
  size_t n = content.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      const Status st = Status::IoError(Errno("write", path));
      ::close(fd);
      return st;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    const Status st = Status::IoError(Errno("fsync", path));
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IoError(Errno("open", dir));
  // Some filesystems reject fsync on directories; the rename is still
  // ordered on the ones we target, so treat EINVAL as success.
  if (::fsync(fd) != 0 && errno != EINVAL) {
    const Status st = Status::IoError(Errno("fsync", dir));
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

/// Reads an entire file; NotFound when it does not exist.
Result<std::string> ReadFileFully(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path);
    return Status::IoError(Errno("open", path));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status st = Status::IoError(Errno("read", path));
      ::close(fd);
      return st;
    }
    if (r == 0) break;
    out.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return out;
}

uint64_t PagesFor(int64_t bytes, int64_t payload) {
  if (bytes <= 0) return 1;  // every column owns at least one page
  return static_cast<uint64_t>((bytes + payload - 1) / payload);
}

}  // namespace

PagedStore::PagedStore(std::string dir, const PagedStoreOptions& opts)
    : dir_(std::move(dir)),
      opts_(opts),
      pool_(std::make_shared<BufferPool>(opts.pool_bytes)) {}

Result<std::shared_ptr<PagedStore>> PagedStore::Open(
    const std::string& dir, const PagedStoreOptions& opts) {
  if (opts.pool_bytes <= 0) {
    return Status::Invalid("buffer-pool budget must be positive");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError(Errno("mkdir", dir));
  }
  std::shared_ptr<PagedStore> store(new PagedStore(dir, opts));

  Result<std::string> manifest = ReadFileFully(dir + "/" + kManifestName);
  MutexLock lock(store->mu_);
  if (manifest.ok()) {
    RMA_RETURN_NOT_OK(store->LoadManifestLocked(*manifest));
  } else if (!manifest.status().IsNotFound()) {
    return manifest.status();
  }

  // Recovery: admit only the tables whose files check out; a torn or
  // missing column discards its whole table (the manifest swing was the
  // commit point, so this only happens under bit rot or manual tampering —
  // never from a clean crash).
  bool dropped = false;
  for (auto it = store->tables_.begin(); it != store->tables_.end();) {
    Result<Relation> rel = store->LoadTable(it->second);
    if (rel.ok()) {
      store->recovered_.emplace_back(it->second.display_name, *rel);
      ++it;
    } else {
      std::fprintf(stderr, "rma: discarding table '%s': %s\n",
                   it->second.display_name.c_str(),
                   rel.status().ToString().c_str());
      store->RemoveFilesOf(it->second);
      it = store->tables_.erase(it);
      dropped = true;
    }
  }
  if (dropped) RMA_RETURN_NOT_OK(store->WriteManifestLocked());
  store->CollectGarbageLocked();
  return store;
}

std::string PagedStore::ManifestTextLocked() const {
  std::ostringstream out;
  out << kManifestHeader << "\n";
  out << "next-file-id " << next_file_id_ << "\n";
  for (const auto& [key, meta] : tables_) {
    out << "table " << Escape(key) << " name " << Escape(meta.display_name)
        << " rows " << meta.rows << "\n";
    for (const ColumnMeta& c : meta.cols) {
      out << "col " << Escape(c.attr) << " " << TypeName(c.type) << " "
          << c.file << " " << c.first_page << " " << c.n_pages << " "
          << c.bytes << "\n";
    }
    out << "endtable\n";
  }
  return out.str();
}

Status PagedStore::WriteManifestLocked() {
  std::string text = ManifestTextLocked();
  char sum[32];
  std::snprintf(sum, sizeof(sum), "checksum %016llx\n",
                static_cast<unsigned long long>(
                    StorageChecksum(text.data(), text.size())));
  text += sum;
  const std::string tmp = dir_ + "/" + kManifestTmpName;
  const std::string final_path = dir_ + "/" + kManifestName;
  RMA_RETURN_NOT_OK(WriteFileDurably(tmp, text));
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Status::IoError(Errno("rename", tmp));
  }
  return SyncDir(dir_);
}

Status PagedStore::LoadManifestLocked(const std::string& text) {
  // The header line is checked before the checksum, so a manifest of
  // another format version fails Open by its version and nothing is
  // discarded: this build has no reader for other versions.
  const std::string header = text.substr(0, text.find('\n'));
  if (header != kManifestHeader) {
    return Status::IoError("manifest: unsupported header line '" + header +
                           "' (this build reads '" + kManifestHeader +
                           "'; reload older data directories from their "
                           "source)");
  }
  const size_t sum_pos = text.rfind("checksum ");
  if (sum_pos == std::string::npos ||
      (sum_pos != 0 && text[sum_pos - 1] != '\n')) {
    return Status::IoError("manifest: missing checksum line");
  }
  const std::string body = text.substr(0, sum_pos);
  unsigned long long stored = 0;
  if (std::sscanf(text.c_str() + sum_pos, "checksum %llx", &stored) != 1 ||
      stored != StorageChecksum(body.data(), body.size())) {
    return Status::IoError("manifest: checksum mismatch");
  }

  std::istringstream in(body);
  std::string line;
  std::getline(in, line);  // the header, checked above
  unsigned long long next_id = 0;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "next-file-id %llu", &next_id) != 1 ||
      next_id >= kMaxFileId) {
    return Status::IoError("manifest: bad next-file-id line");
  }
  // A stale next-file-id must never name a live column file, which the
  // next save would truncate: the col lines below raise it past every file
  // they name.
  next_file_id_ = next_id;

  std::string key;
  TableMeta meta;
  bool in_table = false;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string tag;
    words >> tag;
    if (tag == "table") {
      if (in_table) return Status::IoError("manifest: nested table record");
      std::string ekey, kw_name, ename, kw_rows;
      words >> ekey >> kw_name >> ename >> kw_rows >> meta.rows;
      if (!words || kw_name != "name" || kw_rows != "rows" || meta.rows < 0) {
        return Status::IoError("manifest: bad table line '" + line + "'");
      }
      RMA_ASSIGN_OR_RETURN(key, Unescape(ekey));
      RMA_ASSIGN_OR_RETURN(meta.display_name, Unescape(ename));
      meta.cols.clear();
      in_table = true;
    } else if (tag == "col") {
      if (!in_table) return Status::IoError("manifest: col outside table");
      std::string eattr, tname;
      ColumnMeta c;
      words >> eattr >> tname >> c.file >> c.first_page >> c.n_pages >>
          c.bytes;
      if (!words || !IsColumnFileName(c.file)) {
        return Status::IoError("manifest: bad col line '" + line + "'");
      }
      RMA_ASSIGN_OR_RETURN(c.attr, Unescape(eattr));
      RMA_ASSIGN_OR_RETURN(c.type, TypeFromName(tname));
      next_file_id_ = std::max(next_file_id_, ColumnFileId(c.file) + 1);
      meta.cols.push_back(std::move(c));
    } else if (tag == "endtable") {
      if (!in_table) return Status::IoError("manifest: stray endtable");
      tables_[key] = std::move(meta);
      meta = TableMeta();
      in_table = false;
    } else if (tag.empty()) {
      continue;
    } else {
      return Status::IoError("manifest: unknown record '" + tag + "'");
    }
  }
  if (in_table) return Status::IoError("manifest: unterminated table record");
  return Status::OK();
}

Result<Relation> PagedStore::LoadTable(const TableMeta& meta) {
  std::vector<Attribute> attrs;
  std::vector<BatPtr> cols;
  for (const ColumnMeta& c : meta.cols) {
    const std::string path = dir_ + "/" + c.file;
    RMA_ASSIGN_OR_RETURN(std::shared_ptr<Pager> pager, Pager::Open(path));
    // Pager::Open checked that the file holds every committed page, so an
    // extent within them bounds each allocation below by the file's size.
    // Compared without sums or products that manifest values could wrap.
    const uint64_t committed = pager->page_count();
    if (c.first_page == 0 || c.n_pages == 0 || c.n_pages > committed ||
        c.first_page - 1 > committed - c.n_pages) {
      return Status::IoError(path + ": extent exceeds committed page count");
    }
    const int64_t capacity =
        static_cast<int64_t>(c.n_pages) * pager->payload_bytes();
    const bool fits =
        (c.type == DataType::kString)
            ? c.bytes <= capacity
            : meta.rows <= capacity / static_cast<int64_t>(sizeof(double));
    if (!fits) {
      return Status::IoError(path + ": extent smaller than the column");
    }
    switch (c.type) {
      case DataType::kDouble:
        cols.push_back(std::make_shared<PagedDoubleBat>(
            pager, pool_, c.first_page, c.n_pages, meta.rows));
        break;
      case DataType::kInt64:
        cols.push_back(std::make_shared<PagedInt64Bat>(
            pager, pool_, c.first_page, c.n_pages, meta.rows));
        break;
      case DataType::kString: {
        // Strings load eagerly (varlen tails have no fixed-stride frame for
        // the kernels to exploit); page checksums verify on this read.
        std::vector<char> raw(static_cast<size_t>(capacity));
        RMA_RETURN_NOT_OK(
            pager->ReadPages(c.first_page, c.n_pages, raw.data()));
        if (c.bytes < static_cast<int64_t>(sizeof(uint64_t))) {
          return Status::IoError(path + ": string column too short");
        }
        const char* p = raw.data();
        const char* const end = raw.data() + c.bytes;
        uint64_t count = 0;
        std::memcpy(&count, p, sizeof(uint64_t));
        p += sizeof(uint64_t);
        if (count != static_cast<uint64_t>(meta.rows)) {
          return Status::IoError(path + ": string column row-count mismatch");
        }
        // Every value carries an 8-byte length, which bounds the count
        // before it sizes the reservation.
        if (count > static_cast<uint64_t>(end - p) / sizeof(uint64_t)) {
          return Status::IoError(path + ": string column truncated");
        }
        std::vector<std::string> values;
        values.reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t len = 0;
          if (static_cast<uint64_t>(end - p) < sizeof(uint64_t)) {
            return Status::IoError(path + ": string column truncated");
          }
          std::memcpy(&len, p, sizeof(uint64_t));
          p += sizeof(uint64_t);
          if (len > static_cast<uint64_t>(end - p)) {
            return Status::IoError(path + ": string column truncated");
          }
          values.emplace_back(p, len);
          p += len;
        }
        cols.push_back(MakeStringBat(std::move(values)));
        break;
      }
    }
    attrs.push_back({c.attr, c.type});
  }
  RMA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  RMA_ASSIGN_OR_RETURN(
      Relation rel,
      Relation::Make(std::move(schema), std::move(cols), meta.display_name));
  return rel;
}

Result<PagedStore::ColumnMeta> PagedStore::WriteColumnLocked(
    const std::string& attr, const Bat& col) {
  ColumnMeta cm;
  cm.attr = attr;
  cm.type = col.type();
  cm.file = "c" + std::to_string(next_file_id_++) + ".col";
  const std::string path = dir_ + "/" + cm.file;
  RMA_ASSIGN_OR_RETURN(std::shared_ptr<Pager> pager,
                       Pager::Create(path, opts_.page_bytes));
  const int64_t payload = pager->payload_bytes();
  const int64_t n = col.size();

  if (cm.type == DataType::kString) {
    // Varlen serialization: [u64 count] then per value [u64 len][bytes].
    std::string buf;
    uint64_t count = static_cast<uint64_t>(n);
    buf.append(reinterpret_cast<const char*>(&count), sizeof(count));
    for (int64_t i = 0; i < n; ++i) {
      const std::string v = col.GetString(i);
      const uint64_t len = v.size();
      buf.append(reinterpret_cast<const char*>(&len), sizeof(len));
      buf.append(v);
    }
    cm.bytes = static_cast<int64_t>(buf.size());
    cm.n_pages = PagesFor(cm.bytes, payload);
    RMA_ASSIGN_OR_RETURN(cm.first_page, pager->AllocateExtent(cm.n_pages));
    // Zero-padded to whole pages, so the extent goes out in one call.
    buf.resize(static_cast<size_t>(cm.n_pages) * static_cast<size_t>(payload));
    RMA_RETURN_NOT_OK(pager->WritePages(cm.first_page, cm.n_pages, buf.data()));
    RMA_RETURN_NOT_OK(pager->Sync());
    return cm;
  }

  // Fixed-width numeric tail, written through the buffer pool so bulk load
  // exercises dirty frames + writeback (and eviction under pressure behaves
  // exactly as at query time). Flush is the durability point.
  cm.bytes = n * static_cast<int64_t>(sizeof(double));
  cm.n_pages = PagesFor(cm.bytes, payload);
  RMA_ASSIGN_OR_RETURN(cm.first_page, pager->AllocateExtent(cm.n_pages));
  {
    RMA_ASSIGN_OR_RETURN(
        PinnedExtent frame,
        pool_->Create(pager, cm.first_page, cm.n_pages, cm.bytes));
    if (cm.type == DataType::kDouble) {
      auto* out = reinterpret_cast<double*>(frame.mutable_data());
      if (const double* d = col.ContiguousDoubleData()) {
        std::memcpy(out, d, static_cast<size_t>(cm.bytes));
      } else {
        for (int64_t i = 0; i < n; ++i) out[i] = col.GetDouble(i);
      }
    } else {
      auto* out = reinterpret_cast<int64_t*>(frame.mutable_data());
      const auto* i64 = dynamic_cast<const Int64Bat*>(&col);
      // An empty column's data() may be null, which memcpy must not see.
      if (i64 != nullptr && n > 0) {
        std::memcpy(out, i64->data().data(), static_cast<size_t>(cm.bytes));
      } else {
        for (int64_t i = 0; i < n; ++i) {
          out[i] = std::get<int64_t>(col.GetValue(i));
        }
      }
    }
    frame.MarkDirty();
  }
  RMA_RETURN_NOT_OK(pool_->Flush(pager));
  return cm;
}

Result<Relation> PagedStore::SaveTable(const std::string& name,
                                       const Relation& rel) {
  // Keep source columns resident across the whole write: re-registering a
  // store-backed relation reads through the same pool it writes to.
  PinnedRelations src;
  RMA_RETURN_NOT_OK(src.Pin(rel));

  const std::string key = ToLower(name);
  MutexLock lock(mu_);
  TableMeta meta;
  meta.display_name = name;
  meta.rows = rel.num_rows();
  Status st;
  for (int i = 0; i < rel.num_columns(); ++i) {
    auto cm = WriteColumnLocked(rel.schema().attribute(i).name,
                                *rel.column(i));
    if (!cm.ok()) {
      st = cm.status();
      break;
    }
    meta.cols.push_back(std::move(*cm));
    if (opts_.sleep_ms_between_columns > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.sleep_ms_between_columns));
    }
  }
  if (!st.ok()) {
    RemoveFilesOf(meta);
    return st;
  }

  TableMeta old;
  bool had_old = false;
  if (auto it = tables_.find(key); it != tables_.end()) {
    old = std::move(it->second);
    had_old = true;
  }
  tables_[key] = meta;
  const Status mst = WriteManifestLocked();
  if (!mst.ok()) {
    // Roll back: the durable catalog still describes the old state.
    if (had_old) {
      tables_[key] = std::move(old);
    } else {
      tables_.erase(key);
    }
    RemoveFilesOf(meta);
    return mst;
  }
  if (had_old) RemoveFilesOf(old);
  return LoadTable(meta);
}

Status PagedStore::DropTable(const std::string& name) {
  MutexLock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  TableMeta old = std::move(it->second);
  tables_.erase(it);
  const Status st = WriteManifestLocked();
  if (!st.ok()) {
    tables_[ToLower(name)] = std::move(old);
    return st;
  }
  RemoveFilesOf(old);
  return Status::OK();
}

void PagedStore::RemoveFilesOf(const TableMeta& meta) {
  for (const ColumnMeta& c : meta.cols) {
    ::unlink((dir_ + "/" + c.file).c_str());
  }
}

void PagedStore::CollectGarbageLocked() {
  std::set<std::string> referenced;
  for (const auto& [key, meta] : tables_) {
    (void)key;
    for (const ColumnMeta& c : meta.cols) referenced.insert(c.file);
  }
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if ((IsColumnFileName(name) && referenced.count(name) == 0) ||
        name == kManifestTmpName) {
      doomed.push_back(name);
    }
  }
  ::closedir(d);
  for (const std::string& name : doomed) {
    std::fprintf(stderr, "rma: removing orphaned %s/%s\n", dir_.c_str(),
                 name.c_str());
    ::unlink((dir_ + "/" + name).c_str());
  }
}

}  // namespace rma
