// Tests for the cross-algebra rewriter (core/algebra.h): rule firing
// conditions, semantic equivalence of rewritten plans, the double-transpose
// closed form, and the SQL integration.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/algebra.h"
#include "core/rma.h"
#include "sql/database.h"
#include "test_util.h"
#include "util/random.h"

namespace rma {
namespace {

using testing::MakeRelation;
using testing::RandomKeyedRelation;
using testing::RatingsRelation;
using testing::WeatherRelation;

RmaOptions NoRewrites() {
  RmaOptions opts;
  opts.rewrites.enabled = false;
  return opts;
}

/// Evaluates `expr` twice — rewrites off and on — and requires identical
/// relations (schema + multiset of tuples).
void ExpectRewriteEquivalent(const RmaExprPtr& expr, int expected_fired) {
  ASSERT_OK_AND_ASSIGN(Relation plain, EvaluateExpression(expr, NoRewrites()));
  RewriteReport report;
  ASSERT_OK_AND_ASSIGN(Relation optimized,
                       EvaluateOptimized(expr, RmaOptions{}, &report));
  EXPECT_EQ(report.fired(), expected_fired);
  EXPECT_TRUE(RelationsEqualUnordered(plain, optimized))
      << "plain:\n"
      << plain.ToString() << "optimized:\n"
      << optimized.ToString();
}

// --- rule firing ------------------------------------------------------------

TEST(AlgebraRewrite, MmuOfTraBecomesCpd) {
  auto x = RmaExpr::Leaf(RatingsRelation());
  auto expr = RmaExpr::Binary(
      MatrixOp::kMmu, RmaExpr::Unary(MatrixOp::kTra, x, {"User"}), {"C"}, x,
      {"User"});
  RewriteReport report;
  RmaExprPtr rewritten = RewriteExpression(expr, RewriteRules{}, &report);
  ASSERT_EQ(report.fired(), 1);
  EXPECT_EQ(report.applied[0], "mmu_tra_to_cpd");
  ASSERT_EQ(rewritten->kind, RmaExpr::Kind::kOp);
  EXPECT_EQ(rewritten->op, MatrixOp::kCpd);
  EXPECT_EQ(rewritten->orders[0], (std::vector<std::string>{"User"}));
  EXPECT_EQ(rewritten->orders[1], (std::vector<std::string>{"User"}));
}

TEST(AlgebraRewrite, MmuOuterOrderMustBeContextAttribute) {
  // BY something ≠ C: the outer µ is not the transpose of the inner matrix.
  auto x = RmaExpr::Leaf(RatingsRelation());
  auto tra = RmaExpr::Unary(MatrixOp::kTra, x, {"User"});
  auto expr = RmaExpr::Binary(MatrixOp::kMmu, tra, {"Ann"}, x, {"User"});
  RewriteReport report;
  RewriteExpression(expr, RewriteRules{}, &report);
  EXPECT_EQ(report.fired(), 0);
}

TEST(AlgebraRewrite, AliasedInnerTransposeIsNotSubstituted) {
  // An alias on the inner node becomes the relation name that a downstream
  // det/rnk would report; substituting it away would change that name.
  auto x = RmaExpr::Leaf(RatingsRelation());
  auto tra = RmaExpr::Unary(MatrixOp::kTra, x, {"User"});
  tra->alias = "t";
  auto expr = RmaExpr::Binary(MatrixOp::kMmu, tra, {"C"}, x, {"User"});
  RewriteReport report;
  RewriteExpression(expr, RewriteRules{}, &report);
  EXPECT_EQ(report.fired(), 0);
}

TEST(AlgebraRewrite, RulesCanBeDisabled) {
  auto x = RmaExpr::Leaf(RatingsRelation());
  auto expr = RmaExpr::Binary(
      MatrixOp::kMmu, RmaExpr::Unary(MatrixOp::kTra, x, {"User"}), {"C"}, x,
      {"User"});
  RewriteRules rules;
  rules.enabled = false;
  RewriteReport report;
  RmaExprPtr rewritten = RewriteExpression(expr, rules, &report);
  EXPECT_EQ(report.fired(), 0);
  EXPECT_EQ(rewritten->op, MatrixOp::kMmu);
}

TEST(AlgebraRewrite, MmuOfTraOnRightBecomesOpd) {
  Rng rng(7);
  // App schemas a0..a3 are lexicographically sorted, so the rule is sound.
  auto x = RmaExpr::Leaf(RandomKeyedRelation(5, 4, &rng, -2, 2, "x"));
  auto y = RmaExpr::Leaf(RandomKeyedRelation(6, 4, &rng, -2, 2, "y"));
  auto expr = RmaExpr::Binary(MatrixOp::kMmu, x, {"id"},
                              RmaExpr::Unary(MatrixOp::kTra, y, {"id"}), {"C"});
  RewriteReport report;
  RmaExprPtr rewritten = RewriteExpression(expr, RewriteRules{}, &report);
  ASSERT_EQ(report.fired(), 1);
  EXPECT_EQ(report.applied[0], "mmu_tra_to_opd");
  EXPECT_EQ(rewritten->op, MatrixOp::kOpd);
}

TEST(AlgebraRewrite, OpdRuleRequiresSortedApplicationSchema) {
  // App schema (b, a) is not sorted: µ_C(tra(y)) pairs x's columns with
  // y's attributes in sorted-name order, opd in schema order — rewriting
  // would change the result.
  Relation y = MakeRelation({{"id", DataType::kInt64},
                             {"b", DataType::kDouble},
                             {"a", DataType::kDouble}},
                            {{int64_t{0}, 1.0, 2.0}, {int64_t{1}, 3.0, 4.0}},
                            "y");
  Rng rng(8);
  auto x = RmaExpr::Leaf(RandomKeyedRelation(3, 2, &rng, -2, 2, "x"));
  auto expr =
      RmaExpr::Binary(MatrixOp::kMmu, x, {"id"},
                      RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(y), {"id"}),
                      {"C"});
  RewriteReport report;
  RewriteExpression(expr, RewriteRules{}, &report);
  EXPECT_EQ(report.fired(), 0);
}

TEST(AlgebraRewrite, MalformedArityIsSkippedNotCrashed) {
  // A binary operation built with a single child: the rewriter must not
  // index past the children; evaluation reports the arity error.
  auto bad = RmaExpr::Unary(MatrixOp::kMmu, RmaExpr::Leaf(RatingsRelation()),
                            {"C"});
  RewriteReport report;
  RmaExprPtr out = RewriteExpression(bad, RewriteRules{}, &report);
  EXPECT_EQ(report.fired(), 0);
  EXPECT_STATUS(kInvalidArgument, EvaluateExpression(out));
}

TEST(AlgebraRewrite, DoubleTransposeBecomesRelabel) {
  auto expr = RmaExpr::Unary(
      MatrixOp::kTra,
      RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(WeatherRelation()), {"T"}),
      {"C"});
  RewriteReport report;
  RmaExprPtr rewritten = RewriteExpression(expr, RewriteRules{}, &report);
  ASSERT_EQ(report.fired(), 1);
  EXPECT_EQ(report.applied[0], "eliminate_double_tra");
  EXPECT_EQ(rewritten->kind, RmaExpr::Kind::kRelabel);
  EXPECT_EQ(rewritten->relabel_attr, "T");
}

TEST(AlgebraRewrite, RnkOfTraDropsTheTranspose) {
  Rng rng(9);
  auto x = RmaExpr::Leaf(RandomKeyedRelation(4, 3, &rng, -2, 2, "x"));
  auto expr = RmaExpr::Unary(
      MatrixOp::kRnk, RmaExpr::Unary(MatrixOp::kTra, x, {"id"}), {"C"});
  RewriteReport report;
  RmaExprPtr rewritten = RewriteExpression(expr, RewriteRules{}, &report);
  ASSERT_EQ(report.fired(), 1);
  EXPECT_EQ(report.applied[0], "rnk_of_tra");
  EXPECT_EQ(rewritten->op, MatrixOp::kRnk);
  EXPECT_EQ(rewritten->children[0]->kind, RmaExpr::Kind::kLeaf);
}

TEST(AlgebraRewrite, DetOfTraRequiresSortedApplicationSchema) {
  Rng rng(10);
  // Sorted app schema (a0..a2): fires.
  auto x = RmaExpr::Leaf(RandomKeyedRelation(3, 3, &rng, -2, 2, "x"));
  auto fires = RmaExpr::Unary(
      MatrixOp::kDet, RmaExpr::Unary(MatrixOp::kTra, x, {"id"}), {"C"});
  RewriteReport report;
  RewriteExpression(fires, RewriteRules{}, &report);
  EXPECT_EQ(report.fired(), 1);

  // Unsorted app schema (b, a): blocked — dropping the row permutation
  // of µ_C(tra(x)) could flip the determinant's sign.
  Relation odd = MakeRelation({{"id", DataType::kInt64},
                               {"b", DataType::kDouble},
                               {"a", DataType::kDouble}},
                              {{int64_t{0}, 1.0, 2.0}, {int64_t{1}, 3.0, 4.0}},
                              "odd");
  auto blocked = RmaExpr::Unary(
      MatrixOp::kDet,
      RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(odd), {"id"}), {"C"});
  report = {};
  RewriteExpression(blocked, RewriteRules{}, &report);
  EXPECT_EQ(report.fired(), 0);
}

TEST(AlgebraRewrite, SignFlipWitnessForDetPrecondition) {
  // The blocked case above is not hypothetical: with app schema (b, a) the
  // transposed determinant differs by a factor of -1.
  Relation odd = MakeRelation({{"id", DataType::kInt64},
                               {"b", DataType::kDouble},
                               {"a", DataType::kDouble}},
                              {{int64_t{0}, 1.0, 2.0}, {int64_t{1}, 3.0, 4.0}},
                              "odd");
  ASSERT_OK_AND_ASSIGN(Relation det_x, Det(odd, {"id"}));
  ASSERT_OK_AND_ASSIGN(Relation tra_x, Tra(odd, {"id"}));
  ASSERT_OK_AND_ASSIGN(Relation det_tra_x, Det(tra_x, {"C"}));
  const double d1 = ValueToDouble(det_x.Get(0, 1));
  const double d2 = ValueToDouble(det_tra_x.Get(0, 1));
  EXPECT_NEAR(d1, -d2, 1e-12);
}

// --- semantic equivalence ----------------------------------------------------

TEST(AlgebraEquivalence, CovariancePatternMatchesUnrewritten) {
  // The Sec. 5 pattern: w5 = mmu(tra(w3 BY U) BY C, w3 BY U).
  auto x = RmaExpr::Leaf(RatingsRelation());
  auto expr = RmaExpr::Binary(
      MatrixOp::kMmu, RmaExpr::Unary(MatrixOp::kTra, x, {"User"}), {"C"}, x,
      {"User"});
  ExpectRewriteEquivalent(expr, 1);
}

TEST(AlgebraEquivalence, CpdRewriteOnDistinctRelations) {
  Rng rng(11);
  Relation xr = RandomKeyedRelation(7, 3, &rng, -3, 3, "x");
  Relation yr = RandomKeyedRelation(7, 5, &rng, -3, 3, "y");
  auto expr = RmaExpr::Binary(
      MatrixOp::kMmu,
      RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(xr), {"id"}), {"C"},
      RmaExpr::Leaf(yr), {"id"});
  ExpectRewriteEquivalent(expr, 1);
}

TEST(AlgebraEquivalence, OpdRewriteMatchesUnrewritten) {
  Rng rng(12);
  Relation xr = RandomKeyedRelation(5, 4, &rng, -3, 3, "x");
  Relation yr = RandomKeyedRelation(6, 4, &rng, -3, 3, "y");
  auto expr = RmaExpr::Binary(
      MatrixOp::kMmu, RmaExpr::Leaf(xr), {"id"},
      RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(yr), {"id"}), {"C"});
  ExpectRewriteEquivalent(expr, 1);
}

TEST(AlgebraEquivalence, DoubleTransposeMatchesFig10) {
  auto expr = RmaExpr::Unary(
      MatrixOp::kTra,
      RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(WeatherRelation()), {"T"}),
      {"C"});
  ExpectRewriteEquivalent(expr, 1);

  // Fig. 10's r2: schema (C, H, W), C holding the times.
  ASSERT_OK_AND_ASSIGN(Relation r2, EvaluateOptimized(expr));
  EXPECT_EQ(r2.schema().Names(), (std::vector<std::string>{"C", "H", "W"}));
  ASSERT_EQ(r2.num_rows(), 4);
  Relation expected = MakeRelation(
      {{"C", DataType::kString},
       {"H", DataType::kDouble},
       {"W", DataType::kDouble}},
      {{std::string("5am"), 1.0, 3.0},
       {std::string("6am"), 1.0, 4.0},
       {std::string("7am"), 6.0, 7.0},
       {std::string("8am"), 8.0, 5.0}},
      "r");
  EXPECT_TRUE(RelationsEqualUnordered(r2, expected)) << r2.ToString();
}

TEST(AlgebraEquivalence, RnkOfTraMatchesUnrewritten) {
  Rng rng(13);
  auto x = RmaExpr::Leaf(RandomKeyedRelation(6, 4, &rng, -3, 3, "x"));
  auto expr = RmaExpr::Unary(
      MatrixOp::kRnk, RmaExpr::Unary(MatrixOp::kTra, x, {"id"}), {"C"});
  ExpectRewriteEquivalent(expr, 1);
}

TEST(AlgebraEquivalence, DetOfTraMatchesUnrewritten) {
  Rng rng(14);
  auto x = RmaExpr::Leaf(RandomKeyedRelation(4, 4, &rng, -3, 3, "x"));
  auto expr = RmaExpr::Unary(
      MatrixOp::kDet, RmaExpr::Unary(MatrixOp::kTra, x, {"id"}), {"C"});
  ExpectRewriteEquivalent(expr, 1);
}

TEST(AlgebraEquivalence, NestedRewritesComposeToFixpoint) {
  // rnk(tra(tra(tra(x BY id) BY C) BY C) BY C): the inner transpose pair
  // collapses to a relabel first; the remaining rnk(tra(relabel)) then
  // fires rnk_of_tra against the relabel child.
  Rng rng(15);
  auto x = RmaExpr::Leaf(RandomKeyedRelation(5, 3, &rng, -3, 3, "x"));
  auto expr = RmaExpr::Unary(
      MatrixOp::kRnk,
      RmaExpr::Unary(
          MatrixOp::kTra,
          RmaExpr::Unary(MatrixOp::kTra,
                         RmaExpr::Unary(MatrixOp::kTra, x, {"id"}), {"C"}),
          {"C"}),
      {"C"});
  ASSERT_OK_AND_ASSIGN(Relation plain, EvaluateExpression(expr, NoRewrites()));
  RewriteReport report;
  ASSERT_OK_AND_ASSIGN(Relation optimized,
                       EvaluateOptimized(expr, RmaOptions{}, &report));
  EXPECT_GE(report.fired(), 1);
  EXPECT_TRUE(RelationsEqualUnordered(plain, optimized));
}

// --- relabel error behaviour --------------------------------------------------

TEST(AlgebraRelabel, NonKeyOrderAttributeFailsLikeUnrewritten) {
  Relation dup = MakeRelation(
      {{"T", DataType::kString}, {"H", DataType::kDouble}},
      {{std::string("5am"), 1.0}, {std::string("5am"), 2.0}}, "dup");
  auto expr = RmaExpr::Unary(
      MatrixOp::kTra,
      RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(dup), {"T"}), {"C"});
  EXPECT_STATUS(kInvalidArgument, EvaluateExpression(expr, NoRewrites()));
  EXPECT_STATUS(kInvalidArgument, EvaluateOptimized(expr));
}

TEST(AlgebraRelabel, StringifiedCollisionFailsLikeUnrewritten) {
  // Distinct doubles that render identically ("%g", 6 significant digits)
  // would collide as attribute names of the inner transpose: both plans
  // must reject them.
  Relation tricky = MakeRelation(
      {{"k", DataType::kDouble}, {"v", DataType::kDouble}},
      {{1.00000001, 10.0}, {1.00000002, 20.0}}, "tricky");
  auto expr = RmaExpr::Unary(
      MatrixOp::kTra,
      RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(tricky), {"k"}), {"C"});
  EXPECT_STATUS(kInvalidArgument, EvaluateExpression(expr, NoRewrites()));
  EXPECT_STATUS(kInvalidArgument, EvaluateOptimized(expr));
}

TEST(AlgebraRelabel, NumericOrderAttributeIsStringified) {
  Relation r = MakeRelation(
      {{"k", DataType::kInt64}, {"v", DataType::kDouble}},
      {{int64_t{2}, 10.0}, {int64_t{1}, 20.0}}, "r");
  auto expr = RmaExpr::Unary(
      MatrixOp::kTra, RmaExpr::Unary(MatrixOp::kTra, RmaExpr::Leaf(r), {"k"}),
      {"C"});
  ExpectRewriteEquivalent(expr, 1);
  ASSERT_OK_AND_ASSIGN(Relation out, EvaluateOptimized(expr));
  ASSERT_OK_AND_ASSIGN(BatPtr c, out.ColumnByName("C"));
  EXPECT_EQ(c->type(), DataType::kString);
}

// --- SQL integration ----------------------------------------------------------

TEST(AlgebraSql, CovarianceQueryRewritesInsideFrom) {
  sql::Database db;
  ASSERT_OK(db.Register("rating", RatingsRelation()));
  const std::string q =
      "SELECT * FROM MMU(TRA(rating BY User) BY C, rating BY User)";
  ASSERT_OK_AND_ASSIGN(Relation optimized, db.Query(q));

  sql::Database plain_db;
  ASSERT_OK(plain_db.Register("rating", RatingsRelation()));
  plain_db.rma_options.rewrites.enabled = false;
  ASSERT_OK_AND_ASSIGN(Relation plain, plain_db.Query(q));

  EXPECT_TRUE(RelationsEqualUnordered(plain, optimized))
      << "plain:\n"
      << plain.ToString() << "optimized:\n"
      << optimized.ToString();

  // Both match the direct cpd.
  ASSERT_OK_AND_ASSIGN(
      Relation cpd, db.Query("SELECT * FROM CPD(rating BY User, "
                             "rating BY User)"));
  EXPECT_TRUE(RelationsEqualUnordered(cpd, optimized));
}

TEST(AlgebraSql, RewriteKeepsSubqueryLeavesIntact) {
  sql::Database db;
  ASSERT_OK(db.Register("rating", RatingsRelation()));
  // The subquery is evaluated relationally and enters the tree as a leaf.
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      db.Query("SELECT * FROM MMU(TRA((SELECT User, Balto, Heat, Net "
               "FROM rating) w3 BY User) BY C, rating BY User)"));
  ASSERT_OK_AND_ASSIGN(
      Relation cpd, db.Query("SELECT * FROM CPD(rating BY User, "
                             "rating BY User)"));
  EXPECT_TRUE(RelationsEqualUnordered(out, cpd));
}

}  // namespace
}  // namespace rma
