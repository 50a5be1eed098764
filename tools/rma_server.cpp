// rma_server: multi-client SQL server front-end over the RMA database.
//
//   ./build/tools/rma_server --port 7744
//
// Serves the length-prefixed binary protocol of docs/PROTOCOL.md: each
// connection gets a session with its own RmaOptions (SET_OPTION), prepared
// statements, and streamed row-batch results; concurrent statements pass
// through the server's admission gate, which bounds how many execute at
// once and splits the thread budget across them.
//
// The catalog starts with the paper's example tables (u, f, rating,
// weather) plus two synthetic numeric tables for matrix workloads:
//   m: id INT, a0..a<cols-1> DOUBLE   (--rows, --cols)
//   v: id INT, a0 DOUBLE
// so clients can immediately run the Fig. 13 / Fig. 15 statement shapes:
//   SELECT * FROM MMU(TRA(m BY id) BY C, m BY id);
//   SELECT * FROM MMU(INV(CPD(m BY id, m BY id)) BY C,
//                     CPD(m BY id, v BY id) BY C);
//
// Stops cleanly on SIGINT/SIGTERM: stops accepting, refuses newly submitted
// statements, lets in-flight statements finish and stream, then exits with
// a stats summary.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "server/server.h"
#include "sql/database.h"
#include "util/string_util.h"
#include "workload/synthetic.h"

using namespace rma;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void LoadDemoTables(sql::Database& db) {
  // With a durable data dir the catalog survives restarts; only seed the
  // demo tables a previous run has not already persisted.
  if (db.Has("u") && db.Has("f") && db.Has("rating") && db.Has("weather")) {
    return;
  }
  {
    RelationBuilder b(Schema::Make({{"User", DataType::kString},
                                    {"State", DataType::kString},
                                    {"YoB", DataType::kInt64}})
                          .ValueOrDie());
    b.AppendRow({std::string("Ann"), std::string("CA"), int64_t{1980}}).Abort();
    b.AppendRow({std::string("Tom"), std::string("FL"), int64_t{1965}}).Abort();
    b.AppendRow({std::string("Jan"), std::string("CA"), int64_t{1970}}).Abort();
    db.Register("u", b.Finish().ValueOrDie()).Abort();
  }
  {
    RelationBuilder b(Schema::Make({{"Title", DataType::kString},
                                    {"RelY", DataType::kInt64},
                                    {"Director", DataType::kString}})
                          .ValueOrDie());
    b.AppendRow({std::string("Heat"), int64_t{1995}, std::string("Lee")})
        .Abort();
    b.AppendRow({std::string("Balto"), int64_t{1995}, std::string("Lee")})
        .Abort();
    b.AppendRow({std::string("Net"), int64_t{1995}, std::string("Smith")})
        .Abort();
    db.Register("f", b.Finish().ValueOrDie()).Abort();
  }
  {
    RelationBuilder b(Schema::Make({{"User", DataType::kString},
                                    {"Balto", DataType::kDouble},
                                    {"Heat", DataType::kDouble},
                                    {"Net", DataType::kDouble}})
                          .ValueOrDie());
    b.AppendRow({std::string("Ann"), 2.0, 1.5, 0.5}).Abort();
    b.AppendRow({std::string("Tom"), 0.0, 0.0, 1.5}).Abort();
    b.AppendRow({std::string("Jan"), 1.0, 4.0, 1.0}).Abort();
    db.Register("rating", b.Finish().ValueOrDie()).Abort();
  }
  {
    RelationBuilder b(Schema::Make({{"T", DataType::kString},
                                    {"H", DataType::kDouble},
                                    {"W", DataType::kDouble}})
                          .ValueOrDie());
    b.AppendRow({std::string("5am"), 1.0, 3.0}).Abort();
    b.AppendRow({std::string("8am"), 8.0, 5.0}).Abort();
    b.AppendRow({std::string("7am"), 6.0, 7.0}).Abort();
    b.AppendRow({std::string("6am"), 1.0, 4.0}).Abort();
    db.Register("weather", b.Finish().ValueOrDie()).Abort();
  }
}

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host HOST        bind address (default 127.0.0.1)\n"
      "  --port PORT        listen port; 0 picks an ephemeral port "
      "(default 7744)\n"
      "  --max-sessions N   concurrent session cap (default 64)\n"
      "  --admission N      max concurrently executing statements\n"
      "                     (default: the thread budget)\n"
      "  --batch-rows N     rows per streamed ROW_BATCH frame (default 256)\n"
      "  --drain-timeout MS grace for in-flight statements on shutdown "
      "before\n"
      "                     stalled connections are forcibly closed "
      "(default 5000)\n"
      "  --rows N           rows in the synthetic tables m and v "
      "(default 10000)\n"
      "  --cols N           application columns in m (default 4)\n"
      "  --data-dir DIR     durable storage directory: the catalog is\n"
      "                     recovered from DIR's manifest at startup and\n"
      "                     every Register/Drop/CTAS persists atomically;\n"
      "                     table columns read through the buffer pool\n"
      "                     (default: in-memory; env RMA_DATA_DIR)\n"
      "  --pool-mb N        buffer-pool capacity in MiB for --data-dir\n"
      "                     (default 256; env RMA_POOL_BYTES in bytes)\n",
      argv0);
  return 2;
}

/// A numeric flag or variable whose value ParseInt refused: names it and
/// the reason, then answers with the usage error.
int BadValue(const char* argv0, const std::string& name, const Status& st) {
  std::fprintf(stderr, "error: %s: %s\n", name.c_str(),
               st.message().c_str());
  return Usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions opts;
  opts.port = 7744;
  int64_t rows = 10000;
  int cols = 4;
  // Flags override the environment, which overrides the in-memory default.
  std::string data_dir;
  PagedStoreOptions store_opts;
  if (const char* env = std::getenv("RMA_DATA_DIR")) data_dir = env;
  if (const char* env = std::getenv("RMA_POOL_BYTES")) {
    const Status st = ParseInt(env, 0, kMaxInt64, &store_opts.pool_bytes);
    if (!st.ok()) return BadValue(argv[0], "RMA_POOL_BYTES", st);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    // Integer values outside a flag's range are refused, never narrowed.
    Status st;
    if (arg == "--host" && has_next) {
      opts.host = argv[++i];
    } else if (arg == "--port" && has_next) {
      st = ParseInt(argv[++i], 0, 65535, &opts.port);
    } else if (arg == "--max-sessions" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt, &opts.max_sessions);
    } else if (arg == "--admission" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt, &opts.max_inflight_statements);
    } else if (arg == "--batch-rows" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt64, &opts.row_batch_rows);
    } else if (arg == "--drain-timeout" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt, &opts.drain_timeout_ms);
    } else if (arg == "--rows" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt64, &rows);
    } else if (arg == "--cols" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt, &cols);
    } else if (arg == "--data-dir" && has_next) {
      data_dir = argv[++i];
    } else if (arg == "--pool-mb" && has_next) {
      // MiB, bounded so the byte count cannot overflow.
      st = ParseInt(argv[++i], 0, kMaxInt64 >> 20, &store_opts.pool_bytes);
      store_opts.pool_bytes <<= 20;
    } else {
      return Usage(argv[0]);
    }
    if (!st.ok()) return BadValue(argv[0], arg, st);
  }

  sql::Database db;
  if (!data_dir.empty()) {
    Result<sql::Database> opened = sql::Database::Open(data_dir, store_opts);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: opening %s: %s\n", data_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(*opened);
    std::printf("data dir: %s (%lld recovered tables, pool %lld MiB)\n",
                data_dir.c_str(),
                static_cast<long long>(db.TableNames().size()),
                static_cast<long long>(store_opts.pool_bytes >> 20));
  }
  LoadDemoTables(db);
  if (!db.Has("m")) {
    db.Register("m", workload::UniformRelation(rows, cols, /*seed=*/42, 0.0,
                                               10000.0, /*sorted=*/false, "m"))
        .Abort();
  }
  if (!db.Has("v")) {
    db.Register("v", workload::UniformRelation(rows, 1, /*seed=*/7, 0.0,
                                               10000.0, /*sorted=*/false, "v"))
        .Abort();
  }

  server::Server server(&db, opts);
  const Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // The smoke script and tests parse this exact line for the bound port.
  std::printf("rma_server listening on %s:%u\n", opts.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::printf("tables: u, f, rating, weather, m(%lld x %d), v(%lld x 1)\n",
              static_cast<long long>(rows), cols, static_cast<long long>(rows));
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("shutting down: draining in-flight statements...\n");
  std::fflush(stdout);
  server.Stop();
  const server::ServerStats stats = server.stats();
  std::printf(
      "sessions: %lld accepted, %lld refused\n"
      "statements: %lld executed (%lld failed), %lld refused during drain\n"
      "streamed: %lld rows in %lld batches\n"
      "admission: %d peak in flight, %lld waits\n",
      static_cast<long long>(stats.sessions_accepted),
      static_cast<long long>(stats.sessions_refused),
      static_cast<long long>(stats.statements_executed),
      static_cast<long long>(stats.statements_failed),
      static_cast<long long>(stats.statements_refused),
      static_cast<long long>(stats.rows_streamed),
      static_cast<long long>(stats.batches_streamed), stats.peak_in_flight,
      static_cast<long long>(stats.admission_waits));
  return 0;
}
