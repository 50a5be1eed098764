// Relational algebra operators and the expression layer.
#include <gtest/gtest.h>

#include <algorithm>

#include "rel/expression.h"
#include "rel/operators.h"
#include "test_util.h"

namespace rma {
namespace {

using rel::Expr;
using testing::MakeRelation;

Relation People() {
  return MakeRelation({{"name", DataType::kString},
                       {"dept", DataType::kString},
                       {"age", DataType::kInt64},
                       {"salary", DataType::kDouble}},
                      {{std::string("ann"), std::string("db"), int64_t{30}, 100.0},
                       {std::string("bob"), std::string("ml"), int64_t{40}, 120.0},
                       {std::string("cat"), std::string("db"), int64_t{25}, 90.0},
                       {std::string("dan"), std::string("ml"), int64_t{35}, 110.0}},
                      "people");
}

// --- expressions ------------------------------------------------------------

// Row `row` of the expression's evaluated column, as a double.
double ValueAt(const rel::BoundExpr& be, const Relation& r, int64_t row) {
  return be.EvalColumn(r)->GetDouble(row);
}

// Whether the predicate holds on row `row`.
bool HoldsAt(const rel::BoundExpr& be, const Relation& r, int64_t row) {
  const std::vector<int64_t> rows = be.TrueRows(r);
  return std::find(rows.begin(), rows.end(), row) != rows.end();
}

TEST(Expression, ArithmeticAndTypes) {
  const Relation r = People();
  const auto e = Expr::Binary("*", Expr::Column("salary"),
                              Expr::LiteralInt(2));
  const rel::BoundExpr be = Bind(e, r.schema()).ValueOrDie();
  EXPECT_EQ(be.type(), DataType::kDouble);
  EXPECT_EQ(ValueAt(be, r, 0), 200.0);
  // Integer arithmetic stays integral except division.
  const auto ie = Expr::Binary("+", Expr::Column("age"), Expr::LiteralInt(1));
  EXPECT_EQ(Bind(ie, r.schema()).ValueOrDie().type(), DataType::kInt64);
  const auto de = Expr::Binary("/", Expr::Column("age"), Expr::LiteralInt(2));
  EXPECT_EQ(Bind(de, r.schema()).ValueOrDie().type(), DataType::kDouble);
}

TEST(Expression, ComparisonsAndLogic) {
  const Relation r = People();
  const auto e = Expr::Binary(
      "AND",
      Expr::Binary(">", Expr::Column("age"), Expr::LiteralInt(28)),
      Expr::Binary("=", Expr::Column("dept"), Expr::LiteralString("db")));
  const rel::BoundExpr be = Bind(e, r.schema()).ValueOrDie();
  EXPECT_TRUE(HoldsAt(be, r, 0));   // ann: 30, db
  EXPECT_FALSE(HoldsAt(be, r, 1));  // bob: ml
  EXPECT_FALSE(HoldsAt(be, r, 2));  // cat: 25
  const auto ne = Expr::Unary("NOT", e);
  EXPECT_FALSE(HoldsAt(Bind(ne, r.schema()).ValueOrDie(), r, 0));
}

TEST(Expression, Functions) {
  const Relation r = People();
  const auto e = Expr::Call("SQRT", {Expr::Column("salary")});
  EXPECT_NEAR(ValueAt(Bind(e, r.schema()).ValueOrDie(), r, 0), 10.0, 1e-12);
  const auto p = Expr::Call(
      "POW", {Expr::LiteralDouble(2.0), Expr::LiteralDouble(10.0)});
  EXPECT_NEAR(ValueAt(Bind(p, r.schema()).ValueOrDie(), r, 0), 1024.0,
              1e-12);
}

TEST(Expression, BindErrors) {
  const Relation r = People();
  EXPECT_STATUS(kKeyError, Bind(Expr::Column("nope"), r.schema()));
  EXPECT_STATUS(kTypeError,
                Bind(Expr::Binary("+", Expr::Column("name"),
                                  Expr::LiteralInt(1)),
                     r.schema()));
  EXPECT_STATUS(kInvalidArgument,
                Bind(Expr::Call("NOSUCH", {}), r.schema()));
  EXPECT_STATUS(kTypeError,
                Bind(Expr::Call("SQRT", {Expr::Column("name")}), r.schema()));
}

TEST(Expression, PositionalColumnRefs) {
  const Relation r = People();
  const rel::BoundExpr be = Bind(Expr::ColumnAt(2), r.schema()).ValueOrDie();
  EXPECT_EQ(ValueAt(be, r, 1), 40.0);
  EXPECT_STATUS(kKeyError, Bind(Expr::ColumnAt(9), r.schema()));
}

// --- operators -----------------------------------------------------------------

TEST(Operators, SelectFiltersRows) {
  const Relation out =
      rel::Select(People(), Expr::Binary(">=", Expr::Column("salary"),
                                         Expr::LiteralDouble(110)))
          .ValueOrDie();
  EXPECT_EQ(out.num_rows(), 2);
}

TEST(Operators, SelectOnEmptyRelation) {
  const Relation empty = MakeRelation({{"x", DataType::kInt64}}, {});
  const Relation out =
      rel::Select(empty, Expr::Binary(">", Expr::Column("x"),
                                      Expr::LiteralInt(0)))
          .ValueOrDie();
  EXPECT_EQ(out.num_rows(), 0);
}

TEST(Operators, ProjectComputesAndShares) {
  const Relation people = People();
  const Relation out =
      rel::Project(people, {{Expr::Column("name"), "who"},
                            {Expr::Binary("/", Expr::Column("salary"),
                                          Expr::LiteralDouble(10)),
                             "k"}})
          .ValueOrDie();
  EXPECT_EQ(out.schema().Names(), (std::vector<std::string>{"who", "k"}));
  EXPECT_EQ(ValueToDouble(out.Get(1, 1)), 12.0);
  // Bare column projection shares the underlying BAT (no copy).
  EXPECT_EQ(out.column(0).get(), people.column(0).get());
}

TEST(Operators, HashJoinInner) {
  const Relation dept = MakeRelation(
      {{"dept", DataType::kString}, {"floor", DataType::kInt64}},
      {{std::string("db"), int64_t{3}}, {std::string("ml"), int64_t{5}}});
  const Relation out =
      rel::HashJoin(People(), dept, {"dept"}, {"dept"}).ValueOrDie();
  EXPECT_EQ(out.num_rows(), 4);
  // Right-side duplicate name suffixed.
  EXPECT_TRUE(out.schema().Contains("dept_2"));
}

TEST(Operators, HashJoinNumericKeyWidening) {
  const Relation l = MakeRelation({{"k", DataType::kInt64}}, {{int64_t{1}}});
  const Relation r = MakeRelation({{"k2", DataType::kDouble}}, {{1.0}});
  const Relation out = rel::HashJoin(l, r, {"k"}, {"k2"}).ValueOrDie();
  EXPECT_EQ(out.num_rows(), 1);
}

TEST(Operators, HashJoinEmptyResult) {
  const Relation l = MakeRelation({{"k", DataType::kInt64}}, {{int64_t{1}}});
  const Relation r = MakeRelation({{"j", DataType::kInt64}}, {{int64_t{2}}});
  EXPECT_EQ(rel::HashJoin(l, r, {"k"}, {"j"}).ValueOrDie().num_rows(), 0);
}

TEST(Operators, CrossJoin) {
  const Relation l = MakeRelation({{"a", DataType::kInt64}},
                                  {{int64_t{1}}, {int64_t{2}}});
  const Relation r = MakeRelation({{"b", DataType::kInt64}},
                                  {{int64_t{10}}, {int64_t{20}}});
  const Relation out = rel::CrossJoin(l, r).ValueOrDie();
  EXPECT_EQ(out.num_rows(), 4);
}

TEST(Operators, AggregateGrouped) {
  const Relation out =
      rel::Aggregate(People(), {"dept"},
                     {{"COUNT", "", "n"},
                      {"AVG", "salary", "avg_sal"},
                      {"MIN", "age", "min_age"},
                      {"MAX", "age", "max_age"},
                      {"SUM", "salary", "sum_sal"}})
          .ValueOrDie();
  const Relation sorted = rel::SortBy(out, {"dept"}).ValueOrDie();
  ASSERT_EQ(sorted.num_rows(), 2);
  EXPECT_EQ(ValueToString(sorted.Get(0, 0)), "db");
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 1)), 2.0);
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 2)), 95.0);
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 3)), 25.0);
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 4)), 30.0);
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 5)), 190.0);
}

TEST(Operators, AggregateGlobalAndEmpty) {
  const Relation global =
      rel::Aggregate(People(), {}, {{"COUNT", "", "n"}}).ValueOrDie();
  ASSERT_EQ(global.num_rows(), 1);
  EXPECT_EQ(std::get<int64_t>(global.Get(0, 0)), 4);
  const Relation empty = MakeRelation({{"x", DataType::kDouble}}, {});
  const Relation ge =
      rel::Aggregate(empty, {}, {{"COUNT", "", "n"}}).ValueOrDie();
  ASSERT_EQ(ge.num_rows(), 1);
  EXPECT_EQ(std::get<int64_t>(ge.Get(0, 0)), 0);
}

TEST(Operators, AggregateErrors) {
  EXPECT_STATUS(kInvalidArgument,
                rel::Aggregate(People(), {}, {{"AVG", "", "x"}}));
  EXPECT_STATUS(kTypeError,
                rel::Aggregate(People(), {}, {{"AVG", "name", "x"}}));
  EXPECT_STATUS(kInvalidArgument,
                rel::Aggregate(People(), {}, {{"MEDIAN", "age", "x"}}));
}

TEST(Operators, RenameAndRenameAll) {
  const Relation out = rel::Rename(People(), "age", "years").ValueOrDie();
  EXPECT_TRUE(out.schema().Contains("years"));
  EXPECT_FALSE(out.schema().Contains("age"));
  EXPECT_STATUS(kKeyError, rel::Rename(People(), "nope", "x"));
  EXPECT_STATUS(kInvalidArgument, rel::RenameAll(People(), {"just_one"}));
}

TEST(Operators, DistinctRemovesDuplicateRows) {
  const Relation r = MakeRelation(
      {{"a", DataType::kInt64}, {"b", DataType::kString}},
      {{int64_t{1}, std::string("x")},
       {int64_t{1}, std::string("x")},
       {int64_t{1}, std::string("y")}});
  EXPECT_EQ(rel::Distinct(r).ValueOrDie().num_rows(), 2);
}

TEST(Operators, SortByMultipleKeys) {
  const Relation out = rel::SortBy(People(), {"dept", "age"}).ValueOrDie();
  EXPECT_EQ(ValueToString(out.Get(0, 0)), "cat");  // db, 25
  EXPECT_EQ(ValueToString(out.Get(1, 0)), "ann");  // db, 30
  EXPECT_EQ(ValueToString(out.Get(2, 0)), "dan");  // ml, 35
}

TEST(Operators, SortByWithoutKeysIsInvalid) {
  EXPECT_STATUS(kInvalidArgument, rel::SortBy(People(), {}));
}

TEST(Operators, UnionAllAndLimit) {
  const Relation r = People();
  const Relation u = rel::UnionAll(r, r).ValueOrDie();
  EXPECT_EQ(u.num_rows(), 8);
  EXPECT_EQ(rel::Limit(u, 2, 3).ValueOrDie().num_rows(), 3);
  EXPECT_EQ(rel::Limit(u, 7, 5).ValueOrDie().num_rows(), 1);
  const Relation other = MakeRelation({{"z", DataType::kInt64}}, {});
  EXPECT_STATUS(kInvalidArgument, rel::UnionAll(r, other));
}

TEST(Operators, PivotCountBuildsWideTable) {
  const Relation pubs = MakeRelation(
      {{"Author", DataType::kString}, {"Conf", DataType::kString}},
      {{std::string("ann"), std::string("sigmod")},
       {std::string("ann"), std::string("sigmod")},
       {std::string("ann"), std::string("vldb")},
       {std::string("bob"), std::string("vldb")}});
  const Relation wide =
      rel::PivotCount(pubs, "Author", "Conf").ValueOrDie();
  EXPECT_EQ(wide.schema().Names(),
            (std::vector<std::string>{"Author", "sigmod", "vldb"}));
  ASSERT_EQ(wide.num_rows(), 2);
  EXPECT_EQ(ValueToString(wide.Get(0, 0)), "ann");
  EXPECT_EQ(ValueToDouble(wide.Get(0, 1)), 2.0);
  EXPECT_EQ(ValueToDouble(wide.Get(0, 2)), 1.0);
  EXPECT_EQ(ValueToDouble(wide.Get(1, 1)), 0.0);
}

}  // namespace
}  // namespace rma
