// Server front-end under concurrent load: N clients over loopback running
// the mixed Fig. 13 (Gram matrix / QR) + Fig. 15 (OLS) statement shapes
// against one rma server, versus the same statements executed in-process.
//
// What the numbers mean: "in-process" is Database::Execute called N*reps
// times serially from one thread — pure engine time, no protocol. The
// server column adds framing, socket hops, session bookkeeping, and the
// admission gate; with an admission budget below the client count it also
// shows queuing (admission waits > 0). The bench asserts the two paths
// return identical row counts and that the admission high-water mark never
// exceeds the configured budget — the demo of ISSUE 9's acceptance bar.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "client/client.h"
#include "matrix/parallel.h"
#include "server/server.h"
#include "sql/database.h"
#include "workload/synthetic.h"

namespace rma::bench {
namespace {

/// The mixed workload every client runs: Gram-matrix shapes over m (the
/// Fig. 13 micro-benchmark family) and the OLS normal-equations plan over
/// m and v (Fig. 15). Expected result row counts ride along so the bench
/// can assert streamed results without re-running the engine.
struct Statement {
  std::string sql;
  int64_t rows;
};

std::vector<Statement> MixedWorkload(int app_cols, int64_t tuples) {
  return {
      {"SELECT * FROM MMU(TRA(m BY id) BY C, m BY id);", app_cols},
      {"SELECT * FROM CPD(m BY id, m BY id);", app_cols},
      {"SELECT * FROM QQR(m BY id);", tuples},
      {"SELECT * FROM MMU(INV(CPD(m BY id, m BY id) BY C) BY C,"
       " CPD(m BY id, v BY id) BY C);",
       app_cols},
  };
}

sql::Database MakeDatabase(int64_t tuples, int app_cols) {
  sql::Database db;
  db.Register("m", workload::UniformRelation(tuples, app_cols, /*seed=*/42,
                                             0.0, 10000.0, /*sorted=*/false,
                                             "m"))
      .Abort();
  db.Register("v", workload::UniformRelation(tuples, 1, /*seed=*/7, 0.0,
                                             10000.0, /*sorted=*/false, "v"))
      .Abort();
  return db;
}

double RunInProcess(sql::Database& db, const std::vector<Statement>& work,
                    int clients, int reps, std::atomic<int64_t>* mismatches) {
  return TimeIt([&] {
    for (int c = 0; c < clients; ++c) {
      for (int rep = 0; rep < reps; ++rep) {
        for (const Statement& stmt : work) {
          auto result = db.Execute(stmt.sql);
          if (!result.ok() || result->num_rows() != stmt.rows) {
            ++*mismatches;
          }
        }
      }
    }
  });
}

double RunViaServer(server::Server& server, const std::vector<Statement>& work,
                    int clients, int reps, std::atomic<int64_t>* mismatches) {
  return TimeIt([&] {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto conn = client::Client::Connect("127.0.0.1", server.port());
        if (!conn.ok()) {
          ++*mismatches;
          return;
        }
        client::Client cl = std::move(*conn);
        // Half the clients replay through prepared handles, half through
        // one-shot EXECUTE — both paths share the server's plan cache.
        std::vector<uint64_t> handles;
        if (c % 2 == 0) {
          for (const Statement& stmt : work) {
            auto h = cl.Prepare(stmt.sql);
            if (!h.ok()) {
              ++*mismatches;
              return;
            }
            handles.push_back(*h);
          }
        }
        for (int rep = 0; rep < reps; ++rep) {
          for (size_t s = 0; s < work.size(); ++s) {
            auto result = handles.empty() ? cl.Execute(work[s].sql)
                                          : cl.ExecutePrepared(handles[s]);
            if (!result.ok() ||
                result->rows != static_cast<uint64_t>(work[s].rows)) {
              ++*mismatches;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  });
}

void RunServerBench(int64_t tuples, int app_cols, int clients, int reps) {
  PaperTable table(
      "Concurrent clients through the server front-end vs. in-process "
      "execution (mixed Fig. 13 + Fig. 15 statements, " +
          std::to_string(clients) + " clients x " + std::to_string(reps) +
          " reps)",
      {"admission budget", "in-process", "server", "peak in-flight",
       "admission waits", "rows streamed"});
  const std::vector<Statement> work = MixedWorkload(app_cols, tuples);
  const std::string shape =
      std::to_string(tuples) + "x" + std::to_string(app_cols);
  std::atomic<int64_t> mismatches{0};
  for (int budget : {0, 2, 4}) {  // 0 = thread budget (default)
    sql::Database db = MakeDatabase(tuples, app_cols);
    const double in_process =
        RunInProcess(db, work, clients, reps, &mismatches);

    server::ServerOptions opts;
    opts.port = 0;
    opts.max_inflight_statements = budget;
    opts.max_sessions = clients + 4;
    server::Server server(&db, opts);
    server.Start().Abort();
    const double via_server =
        RunViaServer(server, work, clients, reps, &mismatches);
    server.Stop();
    const server::ServerStats stats = server.stats();

    // Resolved as Server::Start does: 0 derives the admission bound from
    // the database's thread budget.
    const int capacity =
        budget > 0 ? budget
                   : (db.rma_options.max_threads > 0
                          ? db.rma_options.max_threads
                          : DefaultThreadCount());
    if (stats.peak_in_flight > capacity) {
      std::fprintf(stderr,
                   "FAIL: admission peak %d exceeded the budget %d\n",
                   stats.peak_in_flight, capacity);
      std::exit(1);
    }
    const std::string label =
        budget > 0 ? std::to_string(budget) : "thread budget";
    table.AddRow({label, Secs(in_process), Secs(via_server),
                  std::to_string(stats.peak_in_flight),
                  std::to_string(stats.admission_waits),
                  std::to_string(stats.rows_streamed)});
    BenchJson::Record("server_mixed_budget_" + label, "server", shape,
                      via_server, 0, "", 0);
    BenchJson::Record("server_mixed_inprocess_budget_" + label, "execute",
                      shape, in_process, 0, "", 0);
  }
  if (mismatches.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %lld statements returned wrong results or errors\n",
                 static_cast<long long>(mismatches.load()));
    std::exit(1);
  }
  table.AddNote(
      "server column includes framing, loopback sockets, session "
      "bookkeeping, and admission queuing; identical results asserted "
      "against the in-process path.");
  table.Print();
}

}  // namespace
}  // namespace rma::bench

int main(int argc, char** argv) {
  rma::bench::BenchJson::Init("bench_server", &argc, argv);
  const int64_t tuples = rma::bench::Scaled(20000);
  rma::bench::RunServerBench(tuples, /*app_cols=*/8, /*clients=*/8,
                             /*reps=*/3);
  return 0;
}
