// EXPLAIN: the SQL surface of the physical planner.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "matrix/parallel.h"
#include "matrix/simd.h"
#include "sql/database.h"
#include "test_util.h"

namespace rma::sql {
namespace {

std::string PlanText(const Relation& plan) {
  std::string text;
  for (int64_t i = 0; i < plan.num_rows(); ++i) {
    text += plan.column(0)->GetString(i);
    text += '\n';
  }
  return text;
}

Database MakeDb() {
  Database db;
  db.Register("rating", rma::testing::RatingsRelation()).Abort();
  db.Register("weather", rma::testing::WeatherRelation()).Abort();
  return db;
}

TEST(ExplainTest, PrintsPhysicalPlanWithoutExecuting) {
  Database db = MakeDb();
  auto result = db.Execute("EXPLAIN SELECT * FROM QQR(weather BY T)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_columns(), 1);
  EXPECT_EQ(result->schema().attribute(0).name, "plan");
  const std::string text = PlanText(*result);
  EXPECT_NE(text.find("qqr kernel=dense"), std::string::npos) << text;
  EXPECT_NE(text.find("stages=[prepare gather kernel scatter morph]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("scan weather"), std::string::npos) << text;
}

TEST(ExplainTest, ReportsFiredRewritesAndSyrk) {
  Database db = MakeDb();
  auto result = db.Execute(
      "EXPLAIN SELECT * FROM MMU(TRA(rating BY User) BY C, rating BY User)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = PlanText(*result);
  EXPECT_NE(text.find("rewrites fired: mmu_tra_to_cpd"), std::string::npos)
      << text;
  EXPECT_NE(text.find("cpd kernel=dense"), std::string::npos) << text;
  EXPECT_NE(text.find("prepare cached"), std::string::npos) << text;
}

TEST(ExplainTest, DescribesRelationalPipeline) {
  Database db = MakeDb();
  auto result = db.Execute(
      "EXPLAIN SELECT T FROM TRA(weather BY T) WHERE H > 1 LIMIT 2");
  // TRA's result has no T column; EXPLAIN only binds shapes, so the
  // projection is not resolved — the statement still explains.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = PlanText(*result);
  EXPECT_NE(text.find("project"), std::string::npos);
  EXPECT_NE(text.find("filter (WHERE)"), std::string::npos);
  EXPECT_NE(text.find("limit 2"), std::string::npos);
  EXPECT_NE(text.find("tra kernel="), std::string::npos) << text;
}

TEST(ExplainTest, BatKernelPolicyShowsInPlan) {
  Database db = MakeDb();
  db.rma_options.kernel = KernelPolicy::kBat;
  auto result = db.Execute("EXPLAIN SELECT * FROM QQR(weather BY T)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = PlanText(*result);
  EXPECT_NE(text.find("qqr kernel=bat"), std::string::npos) << text;
  EXPECT_NE(text.find("stages=[prepare kernel morph]"), std::string::npos)
      << text;
}

// --- EXPLAIN for CREATE TABLE AS ---------------------------------------------

TEST(ExplainTest, CreateTableAsIsExplainedWithoutExecuting) {
  Database db = MakeDb();
  auto result = db.Execute(
      "EXPLAIN CREATE TABLE q AS SELECT * FROM QQR(weather BY T)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = PlanText(*result);
  EXPECT_NE(text.find("create table q as [not executed]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("qqr kernel=dense"), std::string::npos) << text;
  EXPECT_FALSE(db.Has("q"));  // plain EXPLAIN must not register the table
}

TEST(ExplainTest, AnalyzeCreateTableAsExecutesAndRegisters) {
  Database db = MakeDb();
  auto result = db.Execute(
      "EXPLAIN ANALYZE CREATE TABLE q AS SELECT * FROM QQR(weather BY T)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = PlanText(*result);
  EXPECT_NE(text.find("create table q as"), std::string::npos) << text;
  EXPECT_NE(text.find("execution:"), std::string::npos) << text;
  EXPECT_NE(text.find("op 1: qqr kernel=dense stages=[prepare gather kernel "
                      "scatter morph] cost(bat)="),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rows: 4"), std::string::npos) << text;
  EXPECT_TRUE(db.Has("q"));  // ANALYZE executes, side effects included
}

// --- kernel-build attribution ------------------------------------------------

TEST(ExplainTest, AnalyzeNamesTheSimdIsa) {
  // EXPLAIN ANALYZE names the active vector ISA, so a pasted plan pins down
  // the kernel build that produced its numbers.
  Database db = MakeDb();
  auto analyzed = db.Execute("EXPLAIN ANALYZE SELECT * FROM QQR(weather BY T)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const std::string text = PlanText(*analyzed);
  EXPECT_NE(text.find("simd: " + simd::Describe() + "\n"), std::string::npos)
      << text;
}

// --- EXPLAIN ANALYZE + the database-level query cache -----------------------

/// Big enough that a cold order-schema sort takes measurable time, so the
/// cached run's sort=0.000000s is meaningful.
Database MakeBigDb() {
  Database db = MakeDb();
  Rng rng(31);
  db.Register("big", rma::testing::RandomKeyedRelation(20000, 6, &rng))
      .Abort();
  return db;
}

TEST(ExplainAnalyzeTest, RepeatedQueryHitsPlanCacheWithZeroSort) {
  Database db = MakeBigDb();
  const std::string q = "EXPLAIN ANALYZE SELECT * FROM QQR(big BY id)";

  auto first = db.Execute(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string cold = PlanText(*first);
  EXPECT_NE(cold.find("rewrites fired: (none)"), std::string::npos) << cold;
  EXPECT_NE(cold.find("op 1: qqr kernel="), std::string::npos) << cold;
  EXPECT_NE(cold.find("plan cache: miss"), std::string::npos) << cold;
  EXPECT_NE(cold.find("prepared: 0 hit, 1 miss"), std::string::npos) << cold;
  EXPECT_EQ(cold.find("sort=0.000000s"), std::string::npos)
      << "cold run should pay a measurable sort:\n"
      << cold;

  auto second = db.Execute(q);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const std::string warm = PlanText(*second);
  EXPECT_NE(warm.find("rewrites fired: (none)"), std::string::npos) << warm;
  EXPECT_NE(warm.find("op 1: qqr kernel="), std::string::npos) << warm;
  EXPECT_NE(warm.find("plan cache: hit"), std::string::npos) << warm;
  EXPECT_NE(warm.find("sort=0.000000s"), std::string::npos)
      << "cached run must skip the sort entirely:\n"
      << warm;
  EXPECT_NE(warm.find("prepared: 1 hit, 0 miss"), std::string::npos) << warm;
}

TEST(ExplainAnalyzeTest, PlainQueryWarmsTheCacheForAnalyze) {
  // Query() and EXPLAIN ANALYZE share one plan entry: the EXPLAIN prefix is
  // stripped from the normalized statement.
  Database db = MakeBigDb();
  ASSERT_TRUE(db.Query("SELECT * FROM QQR(big BY id)").ok());
  auto analyzed =
      db.Execute("EXPLAIN ANALYZE SELECT * FROM QQR(big BY id)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const std::string text = PlanText(*analyzed);
  EXPECT_NE(text.find("plan cache: hit"), std::string::npos) << text;
  EXPECT_NE(text.find("sort=0.000000s"), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, RegisterBetweenRunsForcesMiss) {
  Database db = MakeBigDb();
  const std::string q = "EXPLAIN ANALYZE SELECT * FROM QQR(big BY id)";
  ASSERT_TRUE(db.Execute(q).ok());

  // Any catalog mutation bumps the version: the cached plan must not hit.
  Rng rng(32);
  db.Register("big", rma::testing::RandomKeyedRelation(20000, 6, &rng))
      .Abort();
  auto after_register = db.Execute(q);
  ASSERT_TRUE(after_register.ok()) << after_register.status().ToString();
  const std::string text = PlanText(*after_register);
  EXPECT_NE(text.find("plan cache: miss"), std::string::npos) << text;
  EXPECT_NE(text.find("prepared: 0 hit, 1 miss"), std::string::npos)
      << "re-registered data must re-sort, not serve stale arguments:\n"
      << text;
}

TEST(ExplainAnalyzeTest, DropOfUnrelatedTableKeepsThePlan) {
  // Invalidation is per-table: the cached plan records that it reads only
  // `big`, so dropping an unrelated table (which still bumps the catalog
  // version) must not cost it — the identity snapshot still matches.
  Database db = MakeBigDb();
  const std::string q = "EXPLAIN ANALYZE SELECT * FROM QQR(big BY id)";
  ASSERT_TRUE(db.Execute(q).ok());
  ASSERT_TRUE(db.Execute("DROP TABLE weather").ok());  // unrelated table
  auto after_drop = db.Execute(q);
  ASSERT_TRUE(after_drop.ok()) << after_drop.status().ToString();
  const std::string text = PlanText(*after_drop);
  EXPECT_NE(text.find("plan cache: hit"), std::string::npos) << text;
  EXPECT_NE(text.find("sort=0.000000s"), std::string::npos)
      << "surviving plan must keep its prepared arguments too:\n"
      << text;
}

TEST(ExplainAnalyzeTest, DropOfTheReadTableForcesMiss) {
  Database db = MakeBigDb();
  const std::string q = "EXPLAIN ANALYZE SELECT * FROM QQR(big BY id)";
  ASSERT_TRUE(db.Execute(q).ok());
  EXPECT_EQ(db.query_cache()->counters().plan_invalidations, 0);
  ASSERT_TRUE(db.Execute("DROP TABLE big").ok());
  // Eager per-table eviction: exactly the one plan reading `big` is gone.
  EXPECT_EQ(db.query_cache()->counters().plan_invalidations, 1);
  Rng rng(33);
  db.Register("big", rma::testing::RandomKeyedRelation(20000, 6, &rng))
      .Abort();
  auto after = db.Execute(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const std::string text = PlanText(*after);
  EXPECT_NE(text.find("plan cache: miss"), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, ShardCountIsTheOneThatRan) {
  // Each op line starts with the plan the op ran under. Inside a one-thread
  // budget (a batch or server admission share) the self cross product runs
  // unsharded, so no shard count may appear, although the options alone
  // would price four shards.
  Database db;
  db.rma_options.max_threads = 4;
  Rng rng(37);
  db.Register("x", rma::testing::RandomKeyedRelation(100000, 7, &rng))
      .Abort();
  const std::string q = "EXPLAIN ANALYZE SELECT * FROM CPD(x BY id, x BY id)";
  {
    ScopedThreadBudget one_thread(1);
    auto result = db.Execute(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string text = PlanText(*result);
    EXPECT_NE(text.find("op 1: cpd kernel=dense-syrk stages=["),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("shards="), std::string::npos) << text;
    EXPECT_EQ(text.find("merge="), std::string::npos) << text;
  }
  // Under the options' own budget the op shards: its line names the count
  // and merge that ran, then one wall time per shard.
  auto result = db.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = PlanText(*result);
  EXPECT_NE(text.find("op 1: cpd kernel=dense-syrk stages=["),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(" shards=4 merge=tree-reduce "), std::string::npos)
      << text;
  const size_t walls = text.find("shards=[");
  ASSERT_NE(walls, std::string::npos) << text;
  // "shards=[w1 w2 w3 w4": four walls, three separators.
  const std::string list = text.substr(walls, text.find(']', walls) - walls);
  EXPECT_EQ(std::count(list.begin(), list.end(), ' '), 3) << list;
}

}  // namespace
}  // namespace rma::sql
