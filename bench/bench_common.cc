#include "bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "matrix/simd.h"

namespace rma::bench {

namespace {

struct BenchJsonState {
  std::mutex mu;
  bool enabled = false;
  std::string bench_name;
  struct Entry {
    std::string name;
    std::string op;
    std::string shape;
    double ns = 0;
    int64_t bytes = 0;
    std::string kernel;
    int shards = 0;
  };
  std::vector<Entry> entries;
  size_t flushed_entries = 0;  ///< Flush is a no-op until new entries arrive
};

BenchJsonState& JsonState() {
  static BenchJsonState* state = new BenchJsonState();  // leaked: atexit-safe
  return *state;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// L2/L3 data-cache sizes in bytes, from sysconf where the platform exposes
/// them, with 1 MiB / 8 MiB fallbacks so both bounds always exist.
struct CacheSizes {
  int64_t l2_bytes;
  int64_t l3_bytes;
};

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

/// Cache regime of an entry touching `bytes` bytes, against the machine's
/// detected L2/L3 sizes.
const char* RegimeOfBytes(int64_t bytes) {
  if (bytes <= 0) return "";
  static const CacheSizes caches = DetectCacheSizes();
  if (bytes <= caches.l2_bytes) return "l2";
  if (bytes <= caches.l3_bytes) return "l3";
  return "dram";
}

}  // namespace

void BenchJson::Init(const std::string& bench_name, int* argc, char** argv) {
  BenchJsonState& state = JsonState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.bench_name = bench_name;
  const char* env = std::getenv("RMA_BENCH_JSON");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
    state.enabled = true;
  }
  if (argc != nullptr) {
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        state.enabled = true;
      } else {
        argv[out++] = argv[i];
      }
    }
    for (int i = out; i < *argc; ++i) argv[i] = nullptr;
    *argc = out;
  }
  if (state.enabled) std::atexit(&BenchJson::Flush);
}

bool BenchJson::enabled() {
  BenchJsonState& state = JsonState();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.enabled;
}

void BenchJson::Record(const std::string& name, const std::string& op,
                       const std::string& shape, double seconds, int64_t bytes,
                       const std::string& kernel, int shards) {
  BenchJsonState& state = JsonState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.enabled) return;
  state.entries.push_back(
      {name, op, shape, seconds * 1e9, bytes, kernel, shards});
}

void BenchJson::Flush() {
  BenchJsonState& state = JsonState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.enabled || state.bench_name.empty() || state.entries.empty() ||
      state.entries.size() == state.flushed_entries) {
    return;
  }
  state.flushed_entries = state.entries.size();
  const std::string path = "BENCH_" + state.bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": %g,\n"
               "  \"simd\": \"%s\",\n  \"hardware_threads\": %u,\n"
               "  \"entries\": [\n",
               JsonEscape(state.bench_name).c_str(), ScaleFactor(),
               simd::Describe().c_str(), std::thread::hardware_concurrency());
  for (size_t i = 0; i < state.entries.size(); ++i) {
    const auto& e = state.entries[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"op\": \"%s\", \"shape\": \"%s\", "
                 "\"ns\": %.3f, \"bytes\": %lld, \"kernel\": \"%s\", "
                 "\"regime\": \"%s\", \"shards\": %d}%s\n",
                 JsonEscape(e.name).c_str(), JsonEscape(e.op).c_str(),
                 JsonEscape(e.shape).c_str(), e.ns,
                 static_cast<long long>(e.bytes), JsonEscape(e.kernel).c_str(),
                 RegimeOfBytes(e.bytes), e.shards,
                 i + 1 < state.entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("bench: wrote %s (%zu entries)\n", path.c_str(),
              state.entries.size());
}

double ScaleFactor() {
  const char* env = std::getenv("RMA_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

int64_t Scaled(int64_t rows) {
  return std::max<int64_t>(16, static_cast<int64_t>(rows * ScaleFactor()));
}

double TimeIt(const std::function<void()>& fn) {
  Timer t;
  fn();
  return t.Seconds();
}

double TimeBest(int reps, const std::function<void()>& fn) {
  double best = TimeIt(fn);
  for (int r = 1; r < reps; ++r) best = std::min(best, TimeIt(fn));
  return best;
}

int BenchReps(int default_reps) {
  const char* env = std::getenv("RMA_BENCH_REPS");
  if (env == nullptr || env[0] == '\0') return default_reps;
  const int v = std::atoi(env);
  return v > 0 ? v : default_reps;
}

std::string Secs(double s) {
  char buf[32];
  if (s < 0.01) {
    std::snprintf(buf, sizeof(buf), "%.4f", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", s);
  }
  return buf;
}

std::string Pct(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.0f", fraction * 100.0);
  return buf;
}

PaperTable::PaperTable(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {}

void PaperTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void PaperTable::AddNote(std::string note) {
  notes_.push_back(std::move(note));
}

void PaperTable::Print() const {
  std::printf("\n== %s ==\n", title_.c_str());
  std::vector<size_t> width(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : width) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
  for (const auto& n : notes_) std::printf("note: %s\n", n.c_str());
  std::fflush(stdout);
}

}  // namespace rma::bench
