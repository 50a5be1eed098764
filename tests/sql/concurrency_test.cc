// Concurrency tests for the SQL layer: the batched entry points
// (ExecuteBatch / ExecuteScript), and a stress test driving one Database
// from many threads while the catalog is mutated underneath (plan
// invalidations + prepared-argument evictions racing cached statements).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/query_cache.h"
#include "sql/database.h"
#include "sql/effects.h"
#include "sql/parser.h"
#include "test_util.h"
#include "util/random.h"

namespace rma::sql {
namespace {

using rma::testing::RandomKeyedRelation;
using rma::testing::RatingsRelation;

Database MakeDb(int max_threads = 4) {
  Database db;
  db.rma_options.max_threads = max_threads;
  Rng rng(7);
  db.Register("r", RandomKeyedRelation(500, 4, &rng, -10.0, 10.0, "r"))
      .Abort();
  db.Register("s", RandomKeyedRelation(500, 4, &rng, -10.0, 10.0, "s"))
      .Abort();
  db.Register("rating", RatingsRelation()).Abort();
  return db;
}

// --- SplitStatements ---------------------------------------------------------

TEST(SplitStatementsTest, SplitsOnTopLevelSemicolons) {
  auto parts = SplitStatements(
      "SELECT * FROM r; SELECT * FROM s ;\n SELECT id FROM r");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  ASSERT_EQ(parts->size(), 3u);
  EXPECT_EQ((*parts)[0], "SELECT * FROM r");
  EXPECT_EQ((*parts)[2], "\n SELECT id FROM r");
}

TEST(SplitStatementsTest, RespectsStringLiterals) {
  auto parts = SplitStatements(
      "SELECT * FROM rating WHERE User = 'a;b'; SELECT * FROM rating");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  ASSERT_EQ(parts->size(), 2u);
  EXPECT_EQ((*parts)[0], "SELECT * FROM rating WHERE User = 'a;b'");
}

TEST(SplitStatementsTest, DropsEmptyStatements) {
  auto parts = SplitStatements(";;SELECT * FROM r;; ;");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  ASSERT_EQ(parts->size(), 1u);
}

TEST(SplitStatementsTest, SemicolonsInsideCommentsDoNotSplit) {
  auto parts = SplitStatements(
      "SELECT * FROM r -- not a boundary: ;\n"
      "WHERE id > 0; SELECT /* nor this one: ; */ * FROM s");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  ASSERT_EQ(parts->size(), 2u);
  EXPECT_NE((*parts)[0].find("-- not a boundary"), std::string::npos);
  EXPECT_NE((*parts)[1].find("/* nor this one"), std::string::npos);
}

TEST(SplitStatementsTest, CommentOnlyScriptIsEmpty) {
  auto parts = SplitStatements("-- nothing here\n/* or here; */ ;");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_TRUE(parts->empty());
}

TEST(SplitStatementsTest, ReportsLexErrors) {
  EXPECT_FALSE(SplitStatements("SELECT 'unterminated").ok());
  EXPECT_FALSE(SplitStatements("SELECT * FROM r /* unterminated").ok());
}

// --- statement effects and dependency scheduling -----------------------------

std::vector<StatementEffects> EffectsOf(
    const std::vector<std::string>& statements) {
  std::vector<StatementEffects> out;
  for (const std::string& sql : statements) {
    out.push_back(AnalyzeEffects(Parse(sql).ValueOrDie()));
  }
  return out;
}

TEST(StatementEffectsTest, ExtractsReadAndWriteSets) {
  const StatementEffects select = AnalyzeEffects(
      Parse("SELECT * FROM INV(CPD(R BY id, s BY id) BY C), s "
            "JOIN (SELECT id FROM q) sub ON s.id = sub.id")
          .ValueOrDie());
  EXPECT_EQ(select.reads, (std::vector<std::string>{"q", "r", "s"}));
  EXPECT_TRUE(select.writes.empty());

  const StatementEffects ctas = AnalyzeEffects(
      Parse("CREATE TABLE Out AS SELECT * FROM r").ValueOrDie());
  EXPECT_EQ(ctas.reads, (std::vector<std::string>{"r"}));
  EXPECT_EQ(ctas.writes, (std::vector<std::string>{"out"}));

  const StatementEffects drop =
      AnalyzeEffects(Parse("DROP TABLE r").ValueOrDie());
  EXPECT_TRUE(drop.reads.empty());
  EXPECT_EQ(drop.writes, (std::vector<std::string>{"r"}));

  // Plain EXPLAIN executes nothing — pure read, even over a CTAS; only
  // EXPLAIN ANALYZE of a CTAS registers its result.
  const StatementEffects explain = AnalyzeEffects(
      Parse("EXPLAIN CREATE TABLE t2 AS SELECT * FROM r").ValueOrDie());
  EXPECT_EQ(explain.reads, (std::vector<std::string>{"r"}));
  EXPECT_TRUE(explain.writes.empty());
  const StatementEffects analyze = AnalyzeEffects(
      Parse("EXPLAIN ANALYZE CREATE TABLE t2 AS SELECT * FROM r")
          .ValueOrDie());
  EXPECT_EQ(analyze.writes, (std::vector<std::string>{"t2"}));
}

TEST(EffectsConflictTest, CtasFencesOnlyStatementsTouchingItsTable) {
  // The t1-SELECT is independent of the CTAS (they touch disjoint tables),
  // while the t2-SELECT waits for its producer.
  const std::vector<StatementEffects> e = EffectsOf({
      "CREATE TABLE t2 AS SELECT * FROM QQR(t0 BY id)",
      "SELECT * FROM t1",
      "SELECT * FROM t2",
  });
  EXPECT_FALSE(EffectsConflict(e[0], e[1]));
  EXPECT_TRUE(EffectsConflict(e[0], e[2]));  // read-after-write on t2
  EXPECT_FALSE(EffectsConflict(e[1], e[2]));
}

TEST(EffectsConflictTest, ExplainIsNotABarrier) {
  // Regression: EXPLAIN used to serialize the whole batch. Read-only
  // statements never fence each other.
  const std::vector<StatementEffects> e = EffectsOf({
      "SELECT * FROM t1",
      "EXPLAIN SELECT * FROM t1",
      "EXPLAIN ANALYZE SELECT * FROM t1",
      "SELECT * FROM t1",
  });
  for (size_t j = 0; j < e.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      EXPECT_FALSE(EffectsConflict(e[i], e[j])) << i << " -> " << j;
    }
  }
}

TEST(EffectsConflictTest, DropRecreateSelectChainsSequentially) {
  // WAW (drop after create), then WAR/RAW ordering around the re-create:
  // every step on one table conflicts with every other, while an unrelated
  // SELECT conflicts with none of them.
  const std::vector<StatementEffects> e = EffectsOf({
      "CREATE TABLE t AS SELECT * FROM src",
      "DROP TABLE t",
      "CREATE TABLE t AS SELECT * FROM other_src",
      "SELECT * FROM t",
      "SELECT * FROM unrelated",
  });
  for (size_t j = 1; j < 4; ++j) {
    for (size_t i = 0; i < j; ++i) {
      EXPECT_TRUE(EffectsConflict(e[i], e[j])) << i << " -> " << j;
    }
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(EffectsConflict(e[i], e[4])) << i << " -> 4";
  }
}

TEST(EffectsConflictTest, DisjointChainsOverlap) {
  // Two CTAS+SELECT chains over disjoint tables: each consumer waits for its
  // own producer, and no statement of one chain waits for the other chain.
  const std::vector<StatementEffects> e = EffectsOf({
      "CREATE TABLE ca AS SELECT * FROM QQR(a BY id)",
      "SELECT * FROM ca",
      "CREATE TABLE cb AS SELECT * FROM QQR(b BY id)",
      "SELECT * FROM cb",
  });
  EXPECT_TRUE(EffectsConflict(e[0], e[1]));
  EXPECT_TRUE(EffectsConflict(e[2], e[3]));
  for (size_t i : {0, 1}) {
    for (size_t j : {2, 3}) {
      EXPECT_FALSE(EffectsConflict(e[i], e[j])) << i << " -> " << j;
    }
  }
}

TEST(EffectsConflictTest, WriteAfterReadWaits) {
  // A DROP must wait for earlier readers of its table (they are entitled to
  // the pre-drop catalog); dropping another table does not.
  const std::vector<StatementEffects> e = EffectsOf({
      "SELECT * FROM t",
      "DROP TABLE t",
      "DROP TABLE u",
  });
  EXPECT_TRUE(EffectsConflict(e[0], e[1]));
  EXPECT_FALSE(EffectsConflict(e[0], e[2]));
  EXPECT_FALSE(EffectsConflict(e[1], e[2]));
}

// --- ExecuteBatch ------------------------------------------------------------

TEST(ExecuteBatchTest, MatchesSerialExecution) {
  // Every statement kind runs through the one runner, batched or not.
  const std::vector<std::string> statements = {
      "SELECT * FROM QQR(r BY id)",
      "SELECT * FROM QQR(s BY id)",
      "SELECT * FROM INV(CPD(r BY id, r BY id) BY C)",
      "SELECT COUNT(*) AS n FROM r",
      "CREATE TABLE q AS SELECT * FROM QQR(s BY id)",
      "SELECT COUNT(*) AS n FROM q",
      "DROP TABLE q",
      "EXPLAIN ANALYZE SELECT * FROM CPD(s BY id, s BY id)",
  };
  Database serial_db = MakeDb(/*max_threads=*/1);
  Database batch_db = MakeDb(/*max_threads=*/4);

  std::vector<Result<Relation>> batched = batch_db.ExecuteBatch(statements);
  ASSERT_EQ(batched.size(), statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    ASSERT_TRUE(batched[i].ok())
        << statements[i] << ": " << batched[i].status().ToString();
    auto expected = serial_db.Execute(statements[i]);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(batched[i]->num_rows(), expected->num_rows()) << statements[i];
    EXPECT_EQ(batched[i]->num_columns(), expected->num_columns())
        << statements[i];
  }
  EXPECT_EQ(ValueToDouble(batched[5]->Get(0, 0)), 500.0);
  EXPECT_FALSE(batch_db.Has("q"));
}

/// Runs `statements` twice as a batch on a cold cache. Concurrent duplicates
/// of the first batch may each miss and plan (every statement consults the
/// cache once either way); they return identical results and leave one plan
/// entry per distinct text, which the whole second batch hits.
void ExpectBatchSharesOnePlanPerText(const std::vector<std::string>& statements,
                                     size_t distinct) {
  Database db = MakeDb();
  const int64_t n = static_cast<int64_t>(statements.size());
  std::vector<Result<Relation>> cold = db.ExecuteBatch(statements);
  for (size_t i = 0; i < cold.size(); ++i) {
    ASSERT_TRUE(cold[i].ok()) << cold[i].status().ToString();
    EXPECT_EQ(cold[i]->num_rows(), 500);
    for (size_t j = 0; j < i; ++j) {
      if (statements[j] == statements[i]) {
        EXPECT_TRUE(testing::BitIdentical(*cold[j], *cold[i])) << i;
      }
    }
  }
  const QueryCache::Counters c = db.query_cache()->counters();
  EXPECT_EQ(c.plan_hits + c.plan_misses, n);
  EXPECT_GE(c.plan_misses, static_cast<int64_t>(distinct));
  EXPECT_EQ(db.query_cache()->plan_entries(), distinct);

  std::vector<Result<Relation>> warm = db.ExecuteBatch(statements);
  for (size_t i = 0; i < warm.size(); ++i) {
    ASSERT_TRUE(warm[i].ok()) << warm[i].status().ToString();
    EXPECT_TRUE(testing::BitIdentical(*cold[i], *warm[i])) << i;
  }
  const QueryCache::Counters c2 = db.query_cache()->counters();
  EXPECT_EQ(c2.plan_hits - c.plan_hits, n);  // the warm batch fully hits
  EXPECT_EQ(c2.plan_misses, c.plan_misses);
}

TEST(ExecuteBatchTest, SharedContextSharesThePlanCache) {
  ExpectBatchSharesOnePlanPerText(
      std::vector<std::string>(8, "SELECT * FROM QQR(r BY id)"), 1);
}

TEST(ExecuteBatchTest, MixedDuplicatesPlanOncePerDistinctStatement) {
  std::vector<std::string> statements;
  for (int i = 0; i < 4; ++i) {
    statements.push_back("SELECT * FROM QQR(r BY id)");
    statements.push_back("SELECT * FROM QQR(s BY id)");
  }
  ExpectBatchSharesOnePlanPerText(statements, 2);
}

TEST(ExecuteBatchTest, DdlOrderingIsPreserved) {
  // DDL is no longer a global barrier, but every statement still observes
  // the catalog state its script position implies: the dependency DAG
  // orders producers before consumers and drops after readers.
  Database db = MakeDb();
  const std::vector<std::string> statements = {
      "SELECT * FROM r",
      "CREATE TABLE q AS SELECT * FROM QQR(r BY id)",
      "SELECT * FROM q",          // must see the table created above
      "DROP TABLE q",
      "SELECT * FROM q",          // must fail: dropped above
  };
  std::vector<Result<Relation>> results = db.ExecuteBatch(statements);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  EXPECT_EQ(results[2]->num_rows(), 500);
  EXPECT_TRUE(results[3].ok());
  EXPECT_FALSE(results[4].ok());
  EXPECT_FALSE(db.Has("q"));
}

TEST(ExecuteBatchTest, ExplainDoesNotFenceASelectRun) {
  // Regression for the EXPLAIN barrier: a run of SELECTs with EXPLAINs
  // interleaved has no dependency edges, so every statement of the run
  // executes and the identical SELECTs share one plan entry.
  Database db = MakeDb();
  const std::vector<std::string> statements = {
      "SELECT * FROM QQR(r BY id)",
      "EXPLAIN SELECT * FROM QQR(r BY id)",
      "SELECT * FROM QQR(r BY id)",
      "EXPLAIN SELECT * FROM QQR(r BY id)",
      "SELECT * FROM QQR(r BY id)",
  };
  std::vector<Result<Relation>> results = db.ExecuteBatch(statements);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << statements[i] << ": " << results[i].status().ToString();
  }
  // Plain EXPLAIN renders without consulting the plan cache; each of the
  // three SELECTs consults it once, and they leave one entry.
  const QueryCache::Counters c = db.query_cache()->counters();
  EXPECT_EQ(c.plan_hits + c.plan_misses, 3);
  EXPECT_GE(c.plan_misses, 1);
  EXPECT_EQ(db.query_cache()->plan_entries(), 1u);
}

TEST(ExecuteBatchTest, MutatingOneTableKeepsPlansReadingOthers) {
  // Per-table plan invalidation end-to-end: a batch whose DDL touches only
  // `q` leaves the cached plan over `r` serving hits, and the invalidation
  // counter records only genuinely evicted plans.
  Database db = MakeDb();
  ASSERT_TRUE(db.Query("SELECT * FROM QQR(r BY id)").ok());   // cache r-plan
  ASSERT_TRUE(db.Query("SELECT * FROM QQR(s BY id)").ok());   // cache s-plan
  const QueryCache::Counters before = db.query_cache()->counters();
  EXPECT_EQ(before.plan_invalidations, 0);

  std::vector<Result<Relation>> results = db.ExecuteBatch({
      "CREATE TABLE q AS SELECT * FROM QQR(s BY id)",
      "SELECT * FROM QQR(r BY id)",  // concurrent with the CTAS, still a hit
      "DROP TABLE q",
  });
  for (const auto& res : results) {
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }
  const QueryCache::Counters after = db.query_cache()->counters();
  // The r-SELECT hit its surviving plan across two catalog mutations.
  EXPECT_EQ(after.plan_hits - before.plan_hits, 1);
  // Neither mutation evicted anything: no cached plan *reads* q (the CTAS's
  // own plan reads s), so the precise counter stays at zero.
  EXPECT_EQ(after.plan_invalidations, 0);
  // …and both pre-batch plans still serve.
  ASSERT_TRUE(db.Query("SELECT * FROM QQR(s BY id)").ok());
  EXPECT_EQ(db.query_cache()->counters().plan_hits - after.plan_hits, 1);

  // Dropping a table a plan *does* read evicts exactly that plan.
  ASSERT_OK(db.Drop("s"));
  const QueryCache::Counters dropped = db.query_cache()->counters();
  EXPECT_GE(dropped.plan_invalidations, 1);
  ASSERT_TRUE(db.Query("SELECT * FROM QQR(r BY id)").ok());  // still cached
  EXPECT_EQ(db.query_cache()->counters().plan_hits,
            dropped.plan_hits + 1);
}

TEST(ExecuteBatchTest, DisjointDdlSelectChainsRunConcurrently) {
  // Two CTAS+SELECT chains over disjoint tables plus independent SELECTs:
  // the chains overlap (their independence is asserted deterministically in
  // EffectsConflictTest; here the full execution path runs under TSan in
  // CI) and every result matches its script position.
  Database db = MakeDb(/*max_threads=*/4);
  const std::vector<std::string> statements = {
      "CREATE TABLE ca AS SELECT * FROM QQR(r BY id)",
      "SELECT COUNT(*) AS n FROM ca",
      "CREATE TABLE cb AS SELECT * FROM QQR(s BY id)",
      "SELECT COUNT(*) AS n FROM cb",
      "SELECT * FROM rating",
      "DROP TABLE ca",
      "DROP TABLE cb",
  };
  for (int round = 0; round < 3; ++round) {
    std::vector<Result<Relation>> results = db.ExecuteBatch(statements);
    ASSERT_EQ(results.size(), statements.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << statements[i] << ": " << results[i].status().ToString();
    }
    EXPECT_EQ(ValueToDouble(results[1]->Get(0, 0)), 500.0);
    EXPECT_EQ(ValueToDouble(results[3]->Get(0, 0)), 500.0);
  }
  EXPECT_FALSE(db.Has("ca"));
  EXPECT_FALSE(db.Has("cb"));
}

// --- readiness scheduling -----------------------------------------------------

/// The mixed-script shape from bench_batch: disjoint CTAS → SELECT chains
/// with independent analytic SELECTs between them. Exercises every edge
/// type (RAW on the created table, WAR before the drop, WAW on re-create).
std::vector<std::string> MixedChainScript() {
  return {
      "CREATE TABLE ca AS SELECT * FROM QQR(r BY id)",
      "SELECT * FROM CPD(s BY id, s BY id)",
      "SELECT COUNT(*) AS n FROM ca",
      "DROP TABLE ca",
      "CREATE TABLE cb AS SELECT * FROM QQR(s BY id)",
      "SELECT COUNT(*) AS n FROM cb",
      "DROP TABLE cb",
      "SELECT * FROM rating",
  };
}

TEST(BatchScheduleTest, ReadinessMatchesOneAtATimeExecute) {
  // Same script, batched versus one statement at a time through Execute:
  // slot-by-slot agreement on ok-ness and shape.
  const std::vector<std::string> statements = MixedChainScript();
  Database readiness_db = MakeDb(/*max_threads=*/4);
  Database serial_db = MakeDb(/*max_threads=*/4);

  for (int round = 0; round < 3; ++round) {
    std::vector<Result<Relation>> ready = readiness_db.ExecuteBatch(statements);
    ASSERT_EQ(ready.size(), statements.size());
    for (size_t i = 0; i < statements.size(); ++i) {
      Result<Relation> serial = serial_db.Execute(statements[i]);
      ASSERT_TRUE(ready[i].ok())
          << statements[i] << ": " << ready[i].status().ToString();
      ASSERT_TRUE(serial.ok())
          << statements[i] << ": " << serial.status().ToString();
      EXPECT_EQ(ready[i]->num_rows(), serial->num_rows()) << statements[i];
      EXPECT_EQ(ready[i]->num_columns(), serial->num_columns())
          << statements[i];
    }
    EXPECT_EQ(ValueToDouble(ready[2]->Get(0, 0)), 500.0);
    EXPECT_EQ(ValueToDouble(ready[5]->Get(0, 0)), 500.0);
  }
  EXPECT_FALSE(readiness_db.Has("ca"));
  EXPECT_FALSE(readiness_db.Has("cb"));
}

TEST(BatchScheduleTest, ReadinessHonorsDependentOrdering) {
  // The DdlOrderingIsPreserved contract over a tight chain: a consumer
  // launches only when its own producers finished, a post-drop reader
  // fails, and slots stay aligned with script positions.
  Database db = MakeDb(/*max_threads=*/4);
  const std::vector<std::string> statements = {
      "CREATE TABLE q AS SELECT * FROM QQR(r BY id)",
      "SELECT COUNT(*) AS n FROM q",
      "DROP TABLE q",
      "SELECT * FROM q",
  };
  for (int round = 0; round < 5; ++round) {
    std::vector<Result<Relation>> results = db.ExecuteBatch(statements);
    ASSERT_EQ(results.size(), 4u);
    ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
    ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
    EXPECT_EQ(ValueToDouble(results[1]->Get(0, 0)), 500.0);
    EXPECT_TRUE(results[2].ok());
    EXPECT_FALSE(results[3].ok());  // reads the post-drop catalog
    EXPECT_FALSE(db.Has("q"));
  }
}

TEST(BatchScheduleTest, ReadinessPreservesParseErrorSlots) {
  // Unparseable statements hold their error in place; their slots take no
  // scheduler edges, so surrounding statements still overlap and succeed.
  Database db = MakeDb(/*max_threads=*/4);
  const std::vector<std::string> statements = {
      "SELECT * FROM QQR(r BY id)",
      "SELECT broken syntax here",
      "CREATE TABLE q AS SELECT * FROM QQR(s BY id)",
      "SELECT * FROM no_such_table",
      "SELECT COUNT(*) AS n FROM q",
      "DROP TABLE q",
  };
  std::vector<Result<Relation>> results = db.ExecuteBatch(statements);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());  // parse error, preserved in its slot
  EXPECT_TRUE(results[2].ok());
  EXPECT_FALSE(results[3].ok());  // execution error (unknown table)
  ASSERT_TRUE(results[4].ok()) << results[4].status().ToString();
  EXPECT_EQ(ValueToDouble(results[4]->Get(0, 0)), 500.0);
  EXPECT_TRUE(results[5].ok());
}

TEST(BatchScheduleTest, SingleThreadBudgetFallsBackSafely) {
  // A budget of 1 admits one statement at a time: the batch runs serially
  // in dependency order and the script still honors its ordering.
  Database db = MakeDb(/*max_threads=*/1);
  std::vector<Result<Relation>> results =
      db.ExecuteBatch(MixedChainScript());
  ASSERT_EQ(results.size(), 8u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
  }
  EXPECT_EQ(ValueToDouble(results[2]->Get(0, 0)), 500.0);
  EXPECT_FALSE(db.Has("ca"));
  EXPECT_FALSE(db.Has("cb"));
}

TEST(ExecuteScriptTest, CommentsFlowThroughEndToEnd) {
  // The acceptance path for the comment bugfixes: a script with block
  // comments, apostrophes inside comments, and comment-adjacent semicolons
  // splits, parses, normalizes, and executes.
  Database db = MakeDb();
  std::vector<Result<Relation>> results = db.ExecuteScript(
      "-- don't let this apostrophe desync anything; really\n"
      "CREATE TABLE q AS SELECT * FROM QQR(r BY id); /* q's lifecycle:\n"
      "   created above; dropped below */\n"
      "SELECT COUNT(*) AS n FROM q -- trailing comment with ; inside\n;"
      "DROP TABLE q;");
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ValueToDouble(results[1]->Get(0, 0)), 500.0);
  EXPECT_FALSE(db.Has("q"));

  // Comment-only differences share one plan entry: the normalized key
  // strips comments, so the commented spelling hits the cached plan.
  Database db2 = MakeDb();
  ASSERT_TRUE(db2.Query("SELECT * FROM QQR(r BY id)").ok());
  ASSERT_TRUE(
      db2.Query("SELECT * /* same plan, don't replan */ FROM QQR(r BY id)")
          .ok());
  EXPECT_EQ(db2.query_cache()->counters().plan_hits, 1);
  EXPECT_EQ(db2.query_cache()->counters().plan_misses, 1);
}

TEST(ExecuteBatchTest, FailedStatementDoesNotStopTheBatch) {
  Database db = MakeDb();
  const std::vector<std::string> statements = {
      "SELECT * FROM r",
      "SELECT * FROM no_such_table",
      "SELECT broken syntax here",
      "SELECT * FROM s",
  };
  std::vector<Result<Relation>> results = db.ExecuteBatch(statements);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_TRUE(results[3].ok());
}

TEST(ExecuteBatchTest, EmptyBatch) {
  Database db = MakeDb();
  EXPECT_TRUE(db.ExecuteBatch({}).empty());
}

TEST(ExecuteScriptTest, RunsMultiStatementScripts) {
  Database db = MakeDb();
  std::vector<Result<Relation>> results = db.ExecuteScript(
      "CREATE TABLE q AS SELECT * FROM QQR(r BY id);"
      "SELECT * FROM q; SELECT COUNT(*) AS n FROM q; DROP TABLE q;");
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(results[1]->num_rows(), 500);
}

TEST(ExecuteScriptTest, SplitErrorYieldsSingleErrorResult) {
  Database db = MakeDb();
  std::vector<Result<Relation>> results =
      db.ExecuteScript("SELECT 'unterminated");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
}

// --- stress: concurrent cached statements vs. catalog mutations --------------

TEST(ConcurrencyStressTest, ManyThreadsWithInterleavedInvalidations) {
  Database db = MakeDb(/*max_threads=*/4);
  const std::vector<std::string> queries = {
      "SELECT * FROM QQR(r BY id)",
      "SELECT * FROM RQR(r BY id)",
      "SELECT * FROM QQR(s BY id)",
      "SELECT * FROM CPD(r BY id, r BY id)",
      "SELECT id, a0 FROM r WHERE a0 > 0",
  };
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 12;
  std::atomic<int> failures{0};
  std::atomic<bool> stop_mutator{false};

  // Reader threads hammer the cached statements.
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int k = 0; k < kItersPerThread; ++k) {
        const std::string& q =
            queries[static_cast<size_t>(t + k) % queries.size()];
        auto result = db.Query(q);
        if (!result.ok() || result->num_rows() <= 0) failures.fetch_add(1);
      }
    });
  }

  // Mutator thread: Register/Drop an unrelated table in a loop — every
  // mutation runs per-table invalidation (the readers' plans survive by
  // identity, exercising the hit path against concurrent catalog churn)
  // while readers execute.
  std::thread mutator([&] {
    Rng rng(99);
    int round = 0;
    while (!stop_mutator.load()) {
      const Relation tmp =
          RandomKeyedRelation(64, 2, &rng, -1.0, 1.0, "tmp");
      if (!db.Register("tmp", tmp).ok()) failures.fetch_add(1);
      if (++round % 2 == 0) {
        if (!db.Drop("tmp").ok()) failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  for (auto& th : readers) th.join();
  stop_mutator.store(true);
  mutator.join();

  EXPECT_EQ(failures.load(), 0);
  // The cache stayed coherent: counters add up to the total consults
  // (readers only; the mutator never consults the plan cache).
  const QueryCache::Counters c = db.query_cache()->counters();
  EXPECT_EQ(c.plan_hits + c.plan_misses,
            int64_t{kThreads} * kItersPerThread);
  // Catalog round-trips leave exactly the original tables plus possibly the
  // mutator's last registration.
  EXPECT_TRUE(db.Has("r"));
  EXPECT_TRUE(db.Has("s"));
}

TEST(ConcurrencyStressTest, ConcurrentBatchesShareOneDatabase) {
  Database db = MakeDb(/*max_threads=*/2);
  const std::vector<std::string> statements = {
      "SELECT * FROM QQR(r BY id)",
      "SELECT * FROM QQR(s BY id)",
      "SELECT COUNT(*) AS n FROM r",
  };
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < 4; ++k) {
        std::vector<Result<Relation>> results = db.ExecuteBatch(statements);
        for (const auto& r : results) {
          if (!r.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace rma::sql
