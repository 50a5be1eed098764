// Differential tests: the column-at-a-time hash join, group-by, duplicate
// elimination, key check, key alignment and expression evaluator against
// the row-at-a-time oracles they replaced (row_oracle.h). Every result must
// be bit-identical, row order included, over random relations with
// duplicate keys, NaN, ±0.0, mixed int64/double join keys, empty inputs, and
// sparse columns.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rel/expression.h"
#include "rel/operators.h"
#include "rel/row_oracle.h"
#include "storage/bat_ops.h"
#include "storage/sparse_bat.h"
#include "test_util.h"
#include "util/string_util.h"

namespace rma {
namespace {

using rel::Expr;
using rel::ExprPtr;

constexpr int kSeeds = 12;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Bit equality of doubles, except that any two NaNs match. When both
// operands of an addition are NaN, the result carries the sign and payload
// of whichever operand the compiler placed first, so two compilations of
// the same expression can disagree (the unoptimized sanitizer builds do).
bool SameDouble(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// testing::BitIdentical with SameDouble for double cells.
::testing::AssertionResult Identical(const Relation& a, const Relation& b) {
  if (!(a.schema() == b.schema()) || a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure() << "schemas or cardinalities differ";
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const Bat& x = *a.column(c);
    const Bat& y = *b.column(c);
    for (int64_t i = 0; i < a.num_rows(); ++i) {
      const bool same = x.type() == DataType::kDouble
                            ? SameDouble(x.GetDouble(i), y.GetDouble(i))
                            : x.GetString(i) == y.GetString(i);
      if (!same) {
        return ::testing::AssertionFailure()
               << "cell (" << i << ", " << c << ") differs: " << x.GetString(i)
               << " vs " << y.GetString(i);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

template <typename T>
const T& Pick(const std::vector<T>& pool, Rng* rng) {
  return pool[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
}

// Few distinct values each, so keys repeat; the doubles meet every edge of
// Bat::Compare's equality, under which NaN equals everything.
const std::vector<double>& KeyDoubles() {
  static const std::vector<double> pool = {
      0.0,
      -0.0,
      1.0,
      -1.5,
      2.0,
      3.0,
      kNaN,
      kInf,
      -kInf,
  };
  return pool;
}
const std::vector<std::string>& KeyStrings() {
  static const std::vector<std::string> pool = {"", "a", "b", "ab", "B"};
  return pool;
}

Relation MakeRel(std::vector<Attribute> attrs, std::vector<BatPtr> cols) {
  Schema schema = Schema::Make(std::move(attrs)).ValueOrDie();
  return Relation::Make(std::move(schema), std::move(cols)).ValueOrDie();
}

// A double column in one of two representations: DoubleBat or a sparse
// column.
BatPtr DoubleColumn(const std::vector<double>& v, int rep) {
  if (rep == 0) return MakeDoubleBat(v);
  return SparseDoubleBat::FromDense(v);
}

// Columns: i (int64 in [-3, 3]), d (pool doubles), s (pool strings), k
// (int64 in [-2, 3], which meet d's integral values when the two join as
// doubles), x (uniform doubles with some NaN and zeros, for aggregates).
Relation RandomRelation(int64_t n, Rng* rng) {
  std::vector<int64_t> i(static_cast<size_t>(n));
  std::vector<double> d(static_cast<size_t>(n));
  std::vector<std::string> s(static_cast<size_t>(n));
  std::vector<int64_t> k(static_cast<size_t>(n));
  std::vector<double> x(static_cast<size_t>(n));
  for (size_t r = 0; r < static_cast<size_t>(n); ++r) {
    i[r] = rng->UniformInt(-3, 3);
    d[r] = Pick(KeyDoubles(), rng);
    s[r] = Pick(KeyStrings(), rng);
    k[r] = rng->UniformInt(-2, 3);
    const int64_t roll = rng->UniformInt(0, 9);
    x[r] = roll == 0 ? kNaN : roll == 1 ? 0.0 : rng->Uniform(-100.0, 100.0);
  }
  const int rep = static_cast<int>(rng->UniformInt(0, 1));
  std::vector<Attribute> attrs = {
      {"i", DataType::kInt64},
      {"d", DataType::kDouble},
      {"s", DataType::kString},
      {"k", DataType::kInt64},
      {"x", DataType::kDouble},
  };
  std::vector<BatPtr> cols = {
      MakeInt64Bat(std::move(i)),
      DoubleColumn(d, rep),
      MakeStringBat(std::move(s)),
      MakeInt64Bat(std::move(k)),
      DoubleColumn(x, 1 - rep),
  };
  return MakeRel(std::move(attrs), std::move(cols));
}

int64_t RandomSize(Rng* rng) {
  static const std::vector<int64_t> sizes = {0, 1, 2, 7, 40, 150};
  return Pick(sizes, rng);
}

std::string Case(int seed, size_t keys) {
  return "seed " + std::to_string(seed) + ", " + std::to_string(keys) +
         " key columns";
}

std::vector<BatPtr> Columns(const Relation& r, const std::vector<int>& idx) {
  std::vector<BatPtr> out;
  for (int c : idx) out.push_back(r.column(c));
  return out;
}

// --- operators -------------------------------------------------------------

TEST(ColumnVsRow, HashJoinMatchesOracle) {
  // Column positions: i=0, d=1, s=2, k=3, x=4. {k}-{d} and {d}-{k} are mixed
  // int64/double keys; x carries NaN against d's NaN and infinities.
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> keys = {
      {{0}, {0}},
      {{1}, {1}},
      {{2}, {2}},
      {{0, 2}, {0, 2}},
      {{3}, {1}},
      {{1}, {3}},
      {{4}, {1}},
      {{0, 1}, {3, 1}},
      {{2, 0, 1}, {2, 3, 1}},
  };
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 100);
    const Relation l = RandomRelation(RandomSize(&rng), &rng);
    const Relation r = RandomRelation(RandomSize(&rng), &rng);
    for (const auto& [lk, rk] : keys) {
      SCOPED_TRACE(Case(seed, lk.size()));
      ASSERT_OK_AND_ASSIGN(const Relation got, rel::HashJoinAt(l, r, lk, rk));
      ASSERT_OK_AND_ASSIGN(const Relation want,
                           oracle::HashJoinAt(l, r, lk, rk));
      EXPECT_TRUE(Identical(got, want));
    }
  }
}

TEST(ColumnVsRow, HashJoinKeepsDuplicateBuildRowsAscending) {
  // Both sides' keys repeat; the probe side is the larger, so its rows lead
  // and each one's matches follow in build-row order.
  const Relation l = testing::MakeRelation(
      {{"k", DataType::kInt64}, {"tag", DataType::kInt64}},
      {{int64_t{1}, int64_t{0}},
       {int64_t{2}, int64_t{1}},
       {int64_t{1}, int64_t{2}}});
  const Relation r = testing::MakeRelation(
      {{"k", DataType::kInt64}, {"tag", DataType::kInt64}},
      {{int64_t{1}, int64_t{10}},
       {int64_t{1}, int64_t{11}},
       {int64_t{3}, int64_t{12}},
       {int64_t{1}, int64_t{13}}});
  ASSERT_OK_AND_ASSIGN(const Relation got, rel::HashJoinAt(l, r, {0}, {0}));
  ASSERT_OK_AND_ASSIGN(const Relation want, oracle::HashJoinAt(l, r, {0}, {0}));
  EXPECT_TRUE(Identical(got, want));
  ASSERT_EQ(got.num_rows(), 6);
  const std::vector<int64_t> left_tags = {0, 2, 0, 2, 0, 2};
  for (int64_t row = 0; row < got.num_rows(); ++row) {
    EXPECT_EQ(std::get<int64_t>(got.Get(row, 1)),
              left_tags[static_cast<size_t>(row)]);
  }
}

TEST(ColumnVsRow, AggregateMatchesOracle) {
  const std::vector<std::vector<std::string>> groupings = {
      {},
      {"i"},
      {"d"},
      {"s"},
      {"i", "s"},
      {"d", "k"},
      {"s", "d", "i"},
  };
  const std::vector<rel::AggSpec> aggs = {
      {"COUNT", "", "n"},
      {"SUM", "x", "sx"},
      {"AVG", "x", "ax"},
      {"MIN", "d", "mind"},
      {"MAX", "d", "maxd"},
      {"SUM", "i", "si"},
      {"min", "x", "minx"},
      {"MAX", "k", "maxk"},
      {"AVG", "d", "ad"},
  };
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 200);
    const Relation r = RandomRelation(RandomSize(&rng), &rng);
    for (const auto& g : groupings) {
      SCOPED_TRACE(Case(seed, g.size()));
      ASSERT_OK_AND_ASSIGN(const Relation got, rel::Aggregate(r, g, aggs));
      ASSERT_OK_AND_ASSIGN(const Relation want, oracle::Aggregate(r, g, aggs));
      EXPECT_TRUE(Identical(got, want));
    }
  }
}

TEST(ColumnVsRow, DistinctMatchesOracle) {
  const std::vector<std::vector<int>> projections = {
      {0},
      {1},
      {2},
      {0, 2},
      {1, 3},
      {0, 1, 2, 3, 4},
  };
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 300);
    const Relation r = RandomRelation(RandomSize(&rng), &rng);
    for (const auto& p : projections) {
      const Relation in = r.SelectColumns(p);
      ASSERT_OK_AND_ASSIGN(const Relation got, rel::Distinct(in));
      EXPECT_TRUE(Identical(got, oracle::Distinct(in))) << Case(seed, p.size());
    }
  }
}

TEST(ColumnVsRow, IsKeyAndAlignByKeyMatchOracle) {
  const std::vector<std::vector<int>> keys = {
      {0},
      {1},
      {2},
      {0, 2},
      {1, 3},
      {0, 1, 2},
  };
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 400);
    const Relation r = RandomRelation(RandomSize(&rng), &rng);
    // A permutation of r: every key has exactly one partner, duplicates
    // included, so alignment succeeds exactly when the keys are unique.
    std::vector<int64_t> perm(static_cast<size_t>(r.num_rows()));
    for (size_t p = 0; p < perm.size(); ++p) perm[p] = static_cast<int64_t>(p);
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    const Relation shuffled = r.TakeRows(perm);
    // The first distinct rows of r, which often form a key.
    ASSERT_OK_AND_ASSIGN(const Relation unique,
                         rel::Distinct(r.SelectColumns({0, 1, 2})));
    for (const auto& k : keys) {
      SCOPED_TRACE(Case(seed, k.size()));
      EXPECT_EQ(bat_ops::IsKey(Columns(r, k)), oracle::IsKey(Columns(r, k)));
      if (r.num_rows() == 0) continue;
      const auto got = bat_ops::AlignByKey(Columns(r, k), Columns(shuffled, k));
      const auto want = oracle::AlignByKey(Columns(r, k), Columns(shuffled, k));
      ASSERT_EQ(got.ok(), want.ok());
      if (got.ok()) {
        EXPECT_EQ(*got, *want);
      } else {
        EXPECT_EQ(got.status().message(), want.status().message());
      }
      std::vector<int> uk;
      for (int c : k) {
        if (c < 3) uk.push_back(c);
      }
      if (uk.empty() || unique.num_rows() == 0) continue;
      EXPECT_EQ(bat_ops::IsKey(Columns(unique, uk)),
                oracle::IsKey(Columns(unique, uk)));
      // Probe keys the build side mostly lacks.
      const Relation other = RandomRelation(unique.num_rows(), &rng);
      const std::vector<BatPtr> build = Columns(unique, uk);
      const std::vector<BatPtr> probe = Columns(other, uk);
      const auto g2 = bat_ops::AlignByKey(build, probe);
      const auto w2 = oracle::AlignByKey(build, probe);
      ASSERT_EQ(g2.ok(), w2.ok());
      if (g2.ok()) {
        EXPECT_EQ(*g2, *w2);
      } else {
        EXPECT_EQ(g2.status().message(), w2.status().message());
      }
    }
  }
}

// --- expressions -----------------------------------------------------------

/// Checks `e` on `r`: EvalColumn against the oracle on every row,
/// TrueRows against the oracle's predicate, and rel::Select and
/// rel::Project against the relations the oracle implies.
::testing::AssertionResult MatchesOracle(const ExprPtr& e, const Relation& r) {
  auto bound = rel::Bind(e, r.schema());
  if (!bound.ok()) {
    return ::testing::AssertionFailure() << "bind failed: " << e->ToString();
  }
  const oracle::RowExpr row_expr = oracle::BindRow(e, r.schema()).ValueOrDie();
  const BatPtr col = bound->EvalColumn(r);
  if (col->type() != bound->type() || col->size() != r.num_rows()) {
    return ::testing::AssertionFailure()
           << "wrong column shape for " << e->ToString();
  }
  std::vector<int64_t> want_rows;
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    const Value want = oracle::Eval(row_expr, r, i);
    bool same = false;
    switch (bound->type()) {
      case DataType::kInt64:
        same = std::get<int64_t>(col->GetValue(i)) == std::get<int64_t>(want);
        break;
      case DataType::kDouble:
        same = SameDouble(col->GetDouble(i), ValueToDouble(want));
        break;
      case DataType::kString:
        same = col->GetString(i) == ValueToString(want);
        break;
    }
    if (!same) {
      return ::testing::AssertionFailure()
             << e->ToString() << " row " << i << ": " << col->GetString(i)
             << " vs " << ValueToString(want);
    }
    if (oracle::EvalBool(row_expr, r, i)) want_rows.push_back(i);
  }
  if (bound->TrueRows(r) != want_rows) {
    return ::testing::AssertionFailure() << "TrueRows of " << e->ToString();
  }
  const Relation selected = rel::Select(r, e).ValueOrDie();
  if (!Identical(selected, r.TakeRows(want_rows))) {
    return ::testing::AssertionFailure() << "Select by " << e->ToString();
  }
  const Relation projected = rel::Project(r, {{e, "v"}}).ValueOrDie();
  if (!Identical(projected, MakeRel({{"v", bound->type()}}, {col}))) {
    return ::testing::AssertionFailure() << "Project of " << e->ToString();
  }
  return ::testing::AssertionSuccess();
}

// Leaves of every type: columns and literals, with the integer and double
// edge values the evaluator must handle without trapping.
std::vector<ExprPtr> Leaves() {
  return {
      Expr::Column("i"),
      Expr::Column("k"),
      Expr::Column("d"),
      Expr::Column("x"),
      Expr::Column("s"),
      Expr::LiteralInt(0),
      Expr::LiteralInt(-1),
      Expr::LiteralInt(3),
      Expr::LiteralInt(kMin),
      Expr::LiteralInt(kMax),
      Expr::LiteralDouble(0.0),
      Expr::LiteralDouble(-0.0),
      Expr::LiteralDouble(2.5),
      Expr::LiteralDouble(kNaN),
      Expr::LiteralString(""),
      Expr::LiteralString("a"),
  };
}

bool IsNumericLeaf(const ExprPtr& e, const Schema& schema) {
  return IsNumeric(rel::Bind(e, schema).ValueOrDie().type());
}

TEST(ColumnVsRow, EveryOperatorAndFunctionOverEveryOperandPair) {
  Rng rng(7);
  const Relation r = RandomRelation(60, &rng);
  // Extreme integers in a column too, so wrapping and % -1 run vectorized.
  std::vector<Attribute> ext_attrs = {
      {"i", DataType::kInt64},
      {"k", DataType::kInt64},
  };
  std::vector<BatPtr> ext_cols = {
      MakeInt64Bat({kMin, kMax, -1, 0, 7, kMin, -9}),
      MakeInt64Bat({-1, 2, kMin, -1, 0, 1, 4}),
  };
  const Relation ext = MakeRel(std::move(ext_attrs), std::move(ext_cols));
  const std::vector<std::string> binary =
      Split("+ - * / % < <= > >= = == <> != AND OR", ' ');
  const std::vector<ExprPtr> leaves = Leaves();
  int checked = 0;
  for (const Relation* rel : {&r, &ext}) {
    for (const ExprPtr& a : leaves) {
      if (!rel::Bind(a, rel->schema()).ok()) continue;
      const bool an = IsNumericLeaf(a, rel->schema());
      ASSERT_TRUE(MatchesOracle(Expr::Unary("NOT", a), *rel));
      if (an) {
        ASSERT_TRUE(MatchesOracle(Expr::Unary("-", a), *rel));
        for (const char* fn : {"SQRT", "ABS", "LN", "EXP"}) {
          ASSERT_TRUE(MatchesOracle(Expr::Call(fn, {a}), *rel));
        }
      }
      for (const ExprPtr& b : leaves) {
        if (!rel::Bind(b, rel->schema()).ok()) continue;
        const bool bn = IsNumericLeaf(b, rel->schema());
        for (const std::string& op : binary) {
          const ExprPtr e = Expr::Binary(op, a, b);
          if (!rel::Bind(e, rel->schema()).ok()) continue;  // string math
          ASSERT_TRUE(MatchesOracle(e, *rel));
          ++checked;
        }
        if (an && bn) {
          ASSERT_TRUE(MatchesOracle(Expr::Call("POW", {a, b}), *rel));
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

/// A random well-typed expression: `numeric` asks for an int64/double
/// result (an operand of arithmetic or a function), otherwise any type.
ExprPtr RandomExpr(Rng* rng, int depth, bool numeric) {
  static const std::vector<ExprPtr> leaves = Leaves();
  if (depth == 0 || rng->Bernoulli(0.25)) {
    while (true) {
      const ExprPtr& leaf = Pick(leaves, rng);
      const bool is_string =
          leaf->kind() == Expr::Kind::kColumn
              ? leaf->name() == "s"
              : ValueType(leaf->value()) == DataType::kString;
      if (!numeric || !is_string) return leaf;
    }
  }
  static const std::vector<std::string> arith = {"+", "-", "*", "/", "%"};
  static const std::vector<std::string> cmp = Split("< <= > >= = <>", ' ');
  static const std::vector<std::string> fns = {"SQRT", "ABS", "LN", "EXP"};
  // Operands are drawn in a fixed order (locals, braced lists), so a seed
  // builds the same expression whatever order a compiler evaluates
  // function arguments in.
  auto sub = [&](bool num) { return RandomExpr(rng, depth - 1, num); };
  switch (rng->UniformInt(0, 5)) {
    case 0:
    case 1: {
      const std::string op = Pick(arith, rng);
      ExprPtr lhs = sub(true);
      return Expr::Binary(op, std::move(lhs), sub(true));
    }
    case 2: {
      const std::string op = Pick(cmp, rng);
      ExprPtr lhs = sub(false);
      return Expr::Binary(op, std::move(lhs), sub(false));
    }
    case 3: {
      const std::string op = rng->Bernoulli(0.5) ? "AND" : "OR";
      ExprPtr lhs = sub(false);
      return Expr::Binary(op, std::move(lhs), sub(false));
    }
    case 4:
      if (rng->Bernoulli(0.5)) return Expr::Unary("-", sub(true));
      return Expr::Unary("NOT", sub(false));
    default: {
      if (rng->Bernoulli(0.2)) return Expr::Call("POW", {sub(true), sub(true)});
      const std::string fn = Pick(fns, rng);
      return Expr::Call(fn, {sub(true)});
    }
  }
}

TEST(ColumnVsRow, RandomExpressionsMatchOracle) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 500);
    const Relation r = RandomRelation(RandomSize(&rng), &rng);
    for (int t = 0; t < 60; ++t) {
      const ExprPtr e = RandomExpr(&rng, 4, rng.Bernoulli(0.5));
      ASSERT_TRUE(MatchesOracle(e, r)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rma
