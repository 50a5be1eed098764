// End-to-end SQL tests, including the paper's SQL extension (Sec. 7.2).
#include <gtest/gtest.h>

#include "sql/database.h"
#include "test_util.h"

namespace rma {
namespace {

sql::Database ExampleDb() {
  sql::Database db;
  db.Register("u", testing::UsersRelation()).Abort();
  db.Register("f", testing::FilmsRelation()).Abort();
  db.Register("rating", testing::RatingsRelation()).Abort();
  db.Register("r", testing::WeatherRelation()).Abort();
  return db;
}

// The introduction's query: SELECT * FROM INV(rating BY User).
TEST(SqlEndToEnd, IntroInversion) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(Relation v,
                       db.Query("SELECT * FROM INV(rating BY User)"));
  EXPECT_EQ(v.schema().Names(),
            (std::vector<std::string>{"User", "Balto", "Heat", "Net"}));
  ASSERT_EQ(v.num_rows(), 3);
  // Users sorted: Ann, Jan, Tom.
  EXPECT_EQ(ValueToString(v.Get(0, 0)), "Ann");
  EXPECT_EQ(ValueToString(v.Get(1, 0)), "Jan");
  EXPECT_EQ(ValueToString(v.Get(2, 0)), "Tom");
}

TEST(SqlEndToEnd, UnaryAndBinaryRmaCalls) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation id,
      db.Query("SELECT * FROM MMU(INV(rating BY User) BY User, "
               "rating BY User)"));
  // inv(A) * A = I.
  ASSERT_EQ(id.num_rows(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int c = 1; c <= 3; ++c) {
      const double expect = (c - 1 == i) ? 1.0 : 0.0;
      EXPECT_NEAR(ValueToDouble(id.Get(i, c)), expect, 1e-9);
    }
  }
}

TEST(SqlEndToEnd, WhereGroupByAggregates) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation agg,
      db.Query("SELECT State, COUNT(*) AS n, AVG(YoB) AS avg_yob "
               "FROM u GROUP BY State ORDER BY State"));
  ASSERT_EQ(agg.num_rows(), 2);
  EXPECT_EQ(ValueToString(agg.Get(0, 0)), "CA");
  EXPECT_EQ(ValueToDouble(agg.Get(0, 1)), 2.0);
  EXPECT_NEAR(ValueToDouble(agg.Get(0, 2)), 1975.0, 1e-9);
  EXPECT_EQ(ValueToString(agg.Get(1, 0)), "FL");
}

TEST(SqlEndToEnd, JoinOnQualifiedColumns) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation joined,
      db.Query("SELECT u.User, rating.Heat FROM u "
               "JOIN rating ON u.User = rating.User WHERE u.State = 'CA' "
               "ORDER BY u.User"));
  ASSERT_EQ(joined.num_rows(), 2);
  EXPECT_EQ(ValueToString(joined.Get(0, 0)), "Ann");
  EXPECT_NEAR(ValueToDouble(joined.Get(0, 1)), 1.5, 1e-12);
  EXPECT_EQ(ValueToString(joined.Get(1, 0)), "Jan");
}

// The paper's folded expression (Sec. 7.2): MMU + CROSS JOIN of a COUNT
// subquery + arithmetic over the joined columns.
TEST(SqlEndToEnd, PaperFoldedCovarianceQuery) {
  sql::Database db = ExampleDb();
  // Stage the intermediates with CREATE TABLE AS (w1 and w3 from Sec. 5).
  ASSERT_OK_AND_ASSIGN(
      Relation w1,
      db.Execute("CREATE TABLE w1 AS SELECT u.User AS U, Balto AS B, "
                 "Heat AS H, Net AS N FROM u JOIN rating "
                 "ON u.User = rating.User WHERE State = 'CA'"));
  ASSERT_EQ(w1.num_rows(), 2);
  ASSERT_OK_AND_ASSIGN(
      Relation w3,
      db.Execute(
          "CREATE TABLE w3 AS "
          "SELECT w1.U, w1.B - t.B AS B, w1.H - t.H AS H, w1.N - t.N AS N "
          "FROM w1 CROSS JOIN (SELECT AVG(B) AS B, AVG(H) AS H, "
          "AVG(N) AS N FROM w1) AS t"));
  ASSERT_OK_AND_ASSIGN(Relation w4,
                       db.Execute("CREATE TABLE w4 AS "
                                  "SELECT * FROM TRA(w3 BY U)"));
  EXPECT_EQ(w4.schema().Names(), (std::vector<std::string>{"C", "Ann", "Jan"}));
  ASSERT_OK_AND_ASSIGN(
      Relation w7,
      db.Query("SELECT C, B/(M-1) AS B, H/(M-1) AS H, N/(M-1) AS N "
               "FROM MMU(w4 BY C, w3 BY U) AS w5 "
               "CROSS JOIN ( SELECT COUNT(*) AS M FROM w1 ) AS t"));
  ASSERT_EQ(w7.num_rows(), 3);
  // var(B) over {2.0, 1.0} = 0.5 ; cov(B,H) over centered = -1.25.
  EXPECT_EQ(ValueToString(w7.Get(0, 0)), "B");
  EXPECT_NEAR(ValueToDouble(w7.Get(0, 1)), 0.5, 1e-9);
  EXPECT_NEAR(ValueToDouble(w7.Get(0, 2)), -1.25, 1e-9);
}

TEST(SqlEndToEnd, OrderSchemaWithParenthesizedList) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(Relation q,
                       db.Query("SELECT * FROM QQR(r BY (W, T))"));
  EXPECT_EQ(q.schema().Names(), (std::vector<std::string>{"W", "T", "H"}));
}

TEST(SqlEndToEnd, ErrorsArePropagated) {
  sql::Database db = ExampleDb();
  EXPECT_STATUS(kKeyError, db.Query("SELECT * FROM nosuch"));
  EXPECT_STATUS(kParseError, db.Query("SELEC * FROM u"));
  EXPECT_STATUS(kKeyError, db.Query("SELECT nosuch FROM u"));
  // Non-numeric application attribute.
  EXPECT_STATUS(kTypeError, db.Query("SELECT * FROM INV(u BY State)"));
  // Order schema that is not a key (H has a duplicate in the weather data).
  EXPECT_STATUS(
      kInvalidArgument,
      db.Query("SELECT * FROM INV((SELECT H, W FROM r) AS x BY H)"));
}

TEST(SqlEndToEnd, DetCarriesRelationNameOrigin) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(Relation d,
                       db.Query("SELECT * FROM DET(rating BY User)"));
  EXPECT_EQ(d.schema().Names(), (std::vector<std::string>{"C", "det"}));
  EXPECT_EQ(ValueToString(d.Get(0, 0)), "rating");
}

TEST(SqlEndToEnd, ScalarFunctionsInProjection) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      db.Query("SELECT User, SQRT(ABS(Balto - 4)) AS s, POW(Heat, 2) AS p "
               "FROM rating ORDER BY User"));
  ASSERT_EQ(out.num_rows(), 3);
  // Ann: Balto 2.0 -> sqrt(2); Heat 1.5 -> 2.25.
  EXPECT_NEAR(ValueToDouble(out.Get(0, 1)), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(ValueToDouble(out.Get(0, 2)), 2.25, 1e-12);
}

TEST(SqlEndToEnd, OrderByDescWithLimit) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation top,
      db.Query("SELECT User, Heat FROM rating ORDER BY Heat DESC LIMIT 2"));
  ASSERT_EQ(top.num_rows(), 2);
  EXPECT_EQ(ValueToString(top.Get(0, 0)), "Jan");   // 4.0
  EXPECT_EQ(ValueToString(top.Get(1, 0)), "Ann");   // 1.5
}

TEST(SqlEndToEnd, BooleanConnectivesInWhere) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      db.Query("SELECT User FROM rating "
               "WHERE Balto >= 1 AND (Heat > 3 OR Net < 1) ORDER BY User"));
  ASSERT_EQ(out.num_rows(), 2);
  EXPECT_EQ(ValueToString(out.Get(0, 0)), "Ann");  // Net 0.5
  EXPECT_EQ(ValueToString(out.Get(1, 0)), "Jan");  // Heat 4.0
}

TEST(SqlEndToEnd, CreateDropLifecycle) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation t, db.Execute("CREATE TABLE ca AS "
                             "SELECT * FROM u WHERE State = 'CA'"));
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_TRUE(db.Has("ca"));
  ASSERT_OK_AND_ASSIGN(Relation again, db.Query("SELECT COUNT(*) AS n FROM ca"));
  EXPECT_EQ(ValueToDouble(again.Get(0, 0)), 2.0);
  ASSERT_OK_AND_ASSIGN(Relation dropped, db.Execute("DROP TABLE ca"));
  (void)dropped;
  EXPECT_FALSE(db.Has("ca"));
  EXPECT_STATUS(kKeyError, db.Query("SELECT * FROM ca"));
}

TEST(SqlEndToEnd, NestedRmaOverSubqueryAndJoin) {
  // Closure in SQL: an RMA op over a subquery that itself joins two tables.
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation q,
      db.Query("SELECT * FROM QQR((SELECT u.User AS U, Balto, Heat "
               "FROM u JOIN rating ON u.User = rating.User) x BY U)"));
  EXPECT_EQ(q.schema().Names(),
            (std::vector<std::string>{"U", "Balto", "Heat"}));
  ASSERT_EQ(q.num_rows(), 3);
  // Q has orthonormal columns: sum of squares of each app column is 1.
  for (int c = 1; c <= 2; ++c) {
    double ss = 0;
    for (int64_t i = 0; i < q.num_rows(); ++i) {
      const double v = ValueToDouble(q.Get(i, c));
      ss += v * v;
    }
    EXPECT_NEAR(ss, 1.0, 1e-9);
  }
}

TEST(SqlEndToEnd, DropMissingTableIsNotFoundWithName) {
  sql::Database db = ExampleDb();
  const Status direct = db.Drop("nosuch");
  EXPECT_TRUE(direct.IsNotFound()) << direct.ToString();
  EXPECT_NE(direct.message().find("nosuch"), std::string::npos)
      << direct.ToString();
  EXPECT_STATUS(kNotFound, db.Execute("DROP TABLE also_missing"));
}

// Status discipline end-to-end: [[nodiscard]] keeps a Status from being
// dropped at compile time, and this pins the runtime half — a failing DROP
// inside a script must land in its own result slot (not vanish, not abort
// the batch), with the statements around it unaffected.
TEST(SqlEndToEnd, ScriptSurfacesFailedDropInItsSlot) {
  sql::Database db = ExampleDb();
  std::vector<Result<Relation>> results = db.ExecuteScript(
      "CREATE TABLE t AS SELECT * FROM u;"
      "DROP TABLE no_such_table;"
      "SELECT * FROM t");
  ASSERT_EQ(results.size(), 3u);
  ASSERT_OK(results[0].status());
  ASSERT_FALSE(results[1].ok());
  EXPECT_TRUE(results[1].status().IsNotFound())
      << results[1].status().ToString();
  EXPECT_NE(results[1].status().message().find("no_such_table"),
            std::string::npos)
      << results[1].status().ToString();
  ASSERT_OK(results[2].status());
}

// Same discipline on the dependency-ordered path: a failed DROP of a real
// table fences later statements reading it. The drop succeeds, so the
// following SELECT must fail with the table gone — proof the error slot and
// the schedule agree on statement order.
TEST(SqlEndToEnd, ScriptDropFencesLaterReaders) {
  sql::Database db = ExampleDb();
  std::vector<Result<Relation>> results = db.ExecuteScript(
      "DROP TABLE u;"
      "SELECT * FROM u");
  ASSERT_EQ(results.size(), 2u);
  ASSERT_OK(results[0].status());
  // Binding a vanished table in a SELECT is a KeyError (same as
  // CreateDropLifecycle above) — the point here is only that the read runs
  // strictly after the drop.
  EXPECT_STATUS(kKeyError, results[1]);
}

TEST(SqlEndToEnd, CachedQueryDoesNotServeStaleDataAfterReRegister) {
  // The invalidation contract: a cached query re-run after DROP +
  // re-Register with different data must reflect the new data — neither a
  // stale plan (whose leaves embed old relations) nor a stale sort may
  // survive the catalog change.
  sql::Database db;
  db.Register("m", testing::MakeRelation({{"id", DataType::kInt64},
                                          {"a", DataType::kDouble}},
                                         {{int64_t{1}, 2.0}}, "m"))
      .Abort();
  const std::string q = "SELECT * FROM INV(m BY id)";
  ASSERT_OK_AND_ASSIGN(Relation cold, db.Query(q));
  EXPECT_NEAR(ValueToDouble(cold.Get(0, 1)), 0.5, 1e-12);
  ASSERT_OK_AND_ASSIGN(Relation cached, db.Query(q));  // plan-cache hit
  EXPECT_NEAR(ValueToDouble(cached.Get(0, 1)), 0.5, 1e-12);
  EXPECT_GE(db.query_cache()->counters().plan_hits, 1);

  ASSERT_OK(db.Drop("m"));
  db.Register("m", testing::MakeRelation({{"id", DataType::kInt64},
                                          {"a", DataType::kDouble}},
                                         {{int64_t{1}, 4.0}}, "m"))
      .Abort();
  ASSERT_OK_AND_ASSIGN(Relation fresh, db.Query(q));
  EXPECT_NEAR(ValueToDouble(fresh.Get(0, 1)), 0.25, 1e-12);
}

TEST(SqlEndToEnd, CopiedDatabasesDoNotServeEachOthersPlans) {
  // Copies share the QueryCache (shared_ptr) but have independent catalogs;
  // relation identities are process-wide unique, so a plan one copy cached
  // never matches the other copy's read-set snapshot.
  auto table = [](double v) {
    return testing::MakeRelation(
        {{"id", DataType::kInt64}, {"a", DataType::kDouble}},
        {{int64_t{1}, v}}, "m");
  };
  sql::Database db1;
  db1.Register("m", table(2.0)).Abort();
  sql::Database db2 = db1;
  db1.Register("m", table(4.0)).Abort();
  db2.Register("m", table(8.0)).Abort();
  const std::string q = "SELECT * FROM INV(m BY id)";
  ASSERT_OK_AND_ASSIGN(Relation r1, db1.Query(q));
  EXPECT_NEAR(ValueToDouble(r1.Get(0, 1)), 0.25, 1e-12);
  ASSERT_OK_AND_ASSIGN(Relation r2, db2.Query(q));
  EXPECT_NEAR(ValueToDouble(r2.Get(0, 1)), 0.125, 1e-12);
  ASSERT_OK_AND_ASSIGN(Relation r1_again, db1.Query(q));
  EXPECT_NEAR(ValueToDouble(r1_again.Get(0, 1)), 0.25, 1e-12);
}

// INT64_MIN % -1 traps in hardware; the evaluator answers 0, the exact
// value. int64 arithmetic wraps instead of overflowing (clean under UBSan).
TEST(SqlEndToEnd, Int64EdgeArithmeticDoesNotTrap) {
  sql::Database db = ExampleDb();
  ASSERT_OK_AND_ASSIGN(
      Relation m,
      db.Query("SELECT (-9223372036854775807 - 1) % -1 AS m FROM u"));
  ASSERT_EQ(m.num_rows(), 3);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(std::get<int64_t>(m.Get(i, 0)), 0);
  ASSERT_OK_AND_ASSIGN(
      Relation w,
      db.Query("SELECT (-9223372036854775807 - 1) - 1 AS w FROM u"));
  ASSERT_EQ(w.num_rows(), 3);
  EXPECT_EQ(std::get<int64_t>(w.Get(0, 0)), int64_t{9223372036854775807});
  ASSERT_OK_AND_ASSIGN(Relation z,
                       db.Query("SELECT YoB % 0 AS a, YoB / 0 AS b FROM u"));
  EXPECT_EQ(std::get<int64_t>(z.Get(0, 0)), 0);
  EXPECT_EQ(std::get<double>(z.Get(0, 1)), 0.0);
}

// A SELECT binds only the columns it names; what it returns and which
// errors it reports do not change.
TEST(SqlEndToEnd, ColumnPruningKeepsResultsAndErrors) {
  sql::Database db = ExampleDb();
  // State is on both sides of the self-join: still ambiguous.
  const auto ambiguous =
      db.Query("SELECT State FROM u JOIN u AS w ON u.User = w.User");
  EXPECT_STATUS(kKeyError, ambiguous);
  EXPECT_NE(ambiguous.status().message().find("ambiguous"), std::string::npos);
  const auto unknown = db.Query("SELECT u.nope FROM u WHERE YoB > 0");
  EXPECT_STATUS(kKeyError, unknown);
  EXPECT_NE(unknown.status().message().find("unknown column: u.nope"),
            std::string::npos);
  // No column named at all: the row count survives.
  ASSERT_OK_AND_ASSIGN(Relation n, db.Query("SELECT COUNT(*) AS n FROM u"));
  EXPECT_EQ(std::get<int64_t>(n.Get(0, 0)), 3);
  ASSERT_OK_AND_ASSIGN(Relation one, db.Query("SELECT 1 AS one FROM u"));
  EXPECT_EQ(one.num_rows(), 3);
  ASSERT_OK_AND_ASSIGN(
      Relation joined_count,
      db.Query("SELECT COUNT(*) AS n FROM u JOIN rating "
               "ON u.User = rating.User"));
  EXPECT_EQ(std::get<int64_t>(joined_count.Get(0, 0)), 3);
  // SELECT * keeps every column, duplicate names suffixed as before.
  ASSERT_OK_AND_ASSIGN(
      Relation star,
      db.Query("SELECT * FROM u JOIN u AS w ON u.User = w.User"));
  EXPECT_EQ(star.schema().Names(),
            (std::vector<std::string>{"User", "State", "YoB", "User_2",
                                      "State_2", "YoB_2"}));
  // A column named only in ON, WHERE or ORDER BY is still bound.
  ASSERT_OK_AND_ASSIGN(
      Relation filtered,
      db.Query("SELECT w.User FROM u JOIN u AS w ON u.YoB = w.YoB "
               "WHERE u.State = 'CA' ORDER BY User"));
  ASSERT_EQ(filtered.num_rows(), 2);
  EXPECT_EQ(ValueToString(filtered.Get(0, 0)), "Ann");
  // Matrix-operation arguments keep their columns: the matrix is all of
  // them, whatever the outer SELECT names.
  ASSERT_OK_AND_ASSIGN(Relation all,
                       db.Query("SELECT * FROM INV(rating BY User)"));
  ASSERT_OK_AND_ASSIGN(Relation heat,
                       db.Query("SELECT Heat FROM INV(rating BY User)"));
  ASSERT_EQ(heat.num_rows(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ValueToDouble(heat.Get(i, 0)), ValueToDouble(all.Get(i, 2)));
  }
  // A subquery prunes its own FROM clause.
  ASSERT_OK_AND_ASSIGN(
      Relation sub,
      db.Query("SELECT n FROM (SELECT State, COUNT(*) AS n FROM u "
               "GROUP BY State) AS g ORDER BY n"));
  ASSERT_EQ(sub.num_rows(), 2);
  EXPECT_EQ(std::get<int64_t>(sub.Get(1, 0)), 2);
}

}  // namespace
}  // namespace rma
