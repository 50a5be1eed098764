// Batched statement execution: Database::ExecuteBatch versus one-at-a-time
// Execute.
//
// Independent statements (QQR/CPD over disjoint relations) run concurrently
// over one shared ExecContext and query cache; the thread budget is split
// across in-flight statements. The expected shape: at thread budget >= 4 on
// a multi-core machine the batched wall clock approaches serial / cores;
// on a single hardware thread the two columns converge (the scheduler adds
// only task-dispatch overhead). The mixed-script scenario interleaves
// CTAS/DROP with analytic SELECTs: per-statement effect analysis schedules
// the dependency DAG, so DDL overlaps the SELECTs that don't touch its
// table instead of serializing the whole script.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/query_cache.h"
#include "matrix/parallel.h"
#include "sql/database.h"
#include "workload/synthetic.h"

namespace rma::bench {
namespace {

sql::Database MakeDatabase(int64_t tuples, int relations, int app_cols,
                           int max_threads) {
  sql::Database db;
  db.rma_options.max_threads = max_threads;
  for (int i = 0; i < relations; ++i) {
    const std::string name = "t" + std::to_string(i);
    db.Register(name,
                workload::UniformRelation(tuples, app_cols,
                                          /*seed=*/11 + i, -10.0, 10.0,
                                          /*sorted=*/false, name))
        .Abort();
  }
  return db;
}

std::vector<std::string> MakeStatements(int relations) {
  std::vector<std::string> out;
  for (int i = 0; i < relations; ++i) {
    const std::string t = "t" + std::to_string(i);
    out.push_back("SELECT * FROM QQR(" + t + " BY id)");
    out.push_back("SELECT * FROM CPD(" + t + " BY id, " + t + " BY id)");
  }
  return out;
}

void RunBatchVsSerial(int64_t tuples, int relations, int app_cols) {
  PaperTable table(
      "Batched independent statements vs. serial execution "
      "(Database::ExecuteBatch, shared query cache)",
      {"thread budget", "serial", "batched", "speedup", "plan hit/miss"});
  const std::string shape =
      std::to_string(tuples) + "x" + std::to_string(app_cols);
  const int64_t bytes = tuples * app_cols * static_cast<int64_t>(sizeof(double));
  for (int budget : {1, 2, 4}) {
    const std::vector<std::string> statements = MakeStatements(relations);
    // Best of 3 cold runs (fresh databases each repetition, so every run
    // plans from scratch): single wall-clock samples of millisecond
    // workloads swing too much for the CI perf gate to diff. RMA_BENCH_REPS
    // raises the count when regenerating baselines.
    const int kReps = BenchReps(3);
    double serial = 0;
    double batched = 0;
    QueryCache::Counters c;
    for (int rep = 0; rep < kReps; ++rep) {
      sql::Database serial_db =
          MakeDatabase(tuples, relations, app_cols, budget);
      sql::Database batch_db =
          MakeDatabase(tuples, relations, app_cols, budget);
      const double s = TimeIt([&] {
        for (const std::string& stmt : statements) {
          serial_db.Execute(stmt).ValueOrDie();
        }
      });
      const double b = TimeIt([&] {
        for (auto& r : batch_db.ExecuteBatch(statements)) {
          r.ValueOrDie();
        }
      });
      if (rep == 0 || s < serial) serial = s;
      if (rep == 0 || b < batched) batched = b;
      c = batch_db.query_cache()->counters();  // cold-cache hit/miss split
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  batched > 0 ? serial / batched : 0.0);
    table.AddRow({std::to_string(budget), Secs(serial), Secs(batched), speedup,
                  std::to_string(c.plan_hits) + "/" +
                      std::to_string(c.plan_misses)});
    const std::string b = std::to_string(budget);
    BenchJson::Record("batch/threads=" + b + "/serial", "qqr+cpd", shape,
                      serial, bytes, "auto");
    BenchJson::Record("batch/threads=" + b + "/batched", "qqr+cpd", shape,
                      batched, bytes, "auto");
  }
  table.AddNote("hardware threads on this machine: " +
                std::to_string(DefaultThreadCount()) +
                "; the batched column wins once the budget and the cores "
                "allow real overlap");
  table.Print();
}

void RunMixedScript(int64_t tuples, int relations, int app_cols) {
  // Mixed DDL+SELECT script: `relations` disjoint chains of
  // CTAS(QQR(t_i)) → SELECT over the created table, with an analytic
  // SELECT over another base table between them. Barrier-serial execution
  // (one statement at a time, the old ExecuteBatch semantics for DDL) is
  // the baseline; the dependency scheduler overlaps each CTAS with the
  // SELECTs that don't touch its table, and a statement launches when its
  // own dependencies finish, so one slow CTAS holds back only its own
  // chain's consumer.
  PaperTable table(
      "Mixed DDL+SELECT script: barrier-serial vs. readiness-scheduled "
      "(per-statement effect analysis, Database::ExecuteBatch)",
      {"thread budget", "barrier-serial", "readiness", "speedup",
       "invalidations"});
  const std::string shape =
      std::to_string(tuples) + "x" + std::to_string(app_cols);
  const int64_t bytes = tuples * app_cols * static_cast<int64_t>(sizeof(double));
  std::vector<std::string> statements;
  for (int i = 0; i < relations; ++i) {
    const std::string t = "t" + std::to_string(i);
    const std::string other = "t" + std::to_string((i + 1) % relations);
    statements.push_back("CREATE TABLE c" + std::to_string(i) +
                         " AS SELECT * FROM QQR(" + t + " BY id)");
    statements.push_back("SELECT * FROM CPD(" + other + " BY id, " + other +
                         " BY id)");
    statements.push_back("SELECT * FROM c" + std::to_string(i));
    statements.push_back("DROP TABLE c" + std::to_string(i));
  }
  for (int budget : {1, 2, 4}) {
    const int kReps = BenchReps(3);
    double serial = 0;
    double scheduled = 0;
    QueryCache::Counters c;
    for (int rep = 0; rep < kReps; ++rep) {
      sql::Database serial_db =
          MakeDatabase(tuples, relations, app_cols, budget);
      sql::Database batch_db =
          MakeDatabase(tuples, relations, app_cols, budget);
      const double s = TimeIt([&] {
        for (const std::string& stmt : statements) {
          serial_db.Execute(stmt).ValueOrDie();
        }
      });
      const double b = TimeIt([&] {
        for (auto& r : batch_db.ExecuteBatch(statements)) {
          r.ValueOrDie();
        }
      });
      if (rep == 0 || s < serial) serial = s;
      if (rep == 0 || b < scheduled) scheduled = b;
      c = batch_db.query_cache()->counters();
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  scheduled > 0 ? serial / scheduled : 0.0);
    table.AddRow({std::to_string(budget), Secs(serial), Secs(scheduled),
                  speedup, std::to_string(c.plan_invalidations)});
    const std::string b = std::to_string(budget);
    BenchJson::Record("mixed/threads=" + b + "/serial", "ctas+cpd+select",
                      shape, serial, bytes, "auto");
    // "scheduled" keeps its historical name (baseline continuity); it
    // measures the readiness schedule.
    BenchJson::Record("mixed/threads=" + b + "/scheduled", "ctas+cpd+select",
                      shape, scheduled, bytes, "auto");
  }
  table.AddNote(
      "per-table plan invalidation keeps the invalidations column at the "
      "count of plans actually reading a mutated table (the per-chain "
      "SELECT over each dropped c_i), never the whole cache");
  table.Print();
}

}  // namespace
}  // namespace rma::bench

int main(int argc, char** argv) {
  using namespace rma::bench;
  BenchJson::Init("bench_batch", &argc, argv);
  RunBatchVsSerial(Scaled(60000), /*relations=*/4, /*app_cols=*/24);
  RunMixedScript(Scaled(60000), /*relations=*/3, /*app_cols=*/24);
  BenchJson::Flush();
  return 0;
}
