// Per-operation unit tests for all 19 relational matrix operations:
// result schemas (Table 2), origins, values, and error conditions.
#include <gtest/gtest.h>

#include <cmath>

#include "core/constructors.h"
#include "core/exec_context.h"
#include "core/rma.h"
#include "test_util.h"

namespace rma {
namespace {

using testing::ColumnDoubles;
using testing::MakeRelation;
using testing::WeatherRelation;

Relation Square2(const std::string& key_name = "k") {
  // 2x2 application part [[6,7],[8,5]] keyed by strings "a","b".
  return MakeRelation({{key_name, DataType::kString},
                       {"x", DataType::kDouble},
                       {"y", DataType::kDouble}},
                      {{std::string("a"), 6.0, 7.0},
                       {std::string("b"), 8.0, 5.0}},
                      "sq");
}

Relation Tall(const std::string& key = "id") {
  return MakeRelation({{key, DataType::kInt64},
                       {"x", DataType::kDouble},
                       {"y", DataType::kDouble}},
                      {{int64_t{3}, 1.0, 2.0},
                       {int64_t{1}, 3.0, 4.0},
                       {int64_t{2}, 5.0, 6.0}},
                      "tall");
}

// --- shapes and origins per op ------------------------------------------------

TEST(RmaOps, InvSchemaAndValue) {
  const Relation v = Inv(Square2(), {"k"}).ValueOrDie();
  EXPECT_EQ(v.schema().Names(), (std::vector<std::string>{"k", "x", "y"}));
  EXPECT_NEAR(ValueToDouble(v.Get(0, 1)), -5.0 / 26.0, 1e-12);
}

TEST(RmaOps, InvRequiresSquare) {
  EXPECT_STATUS(kInvalidArgument, Inv(Tall(), {"id"}));
}

TEST(RmaOps, InvSingularReported) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble},
                                   {"y", DataType::kDouble}},
                                  {{int64_t{1}, 1.0, 2.0},
                                   {int64_t{2}, 2.0, 4.0}});
  EXPECT_STATUS(kNumericError, Inv(r, {"k"}));
}

TEST(RmaOps, TraColumnCastRequiresSingleOrderAttr) {
  EXPECT_STATUS(kInvalidArgument, Tra(WeatherRelation(), {"T", "H"}));
}

TEST(RmaOps, TraNumericKeyValuesBecomeNames) {
  const Relation t = Tra(Tall(), {"id"}).ValueOrDie();
  EXPECT_EQ(t.schema().Names(), (std::vector<std::string>{"C", "1", "2", "3"}));
  EXPECT_EQ(ColumnDoubles(t, "1"), (std::vector<double>{3, 4}));  // id=1 row
}

TEST(RmaOps, TraOverPresortedKeysCastsInRowOrder) {
  // Keys already in order: the sort returns the identity (an empty perm),
  // and the column cast reads the key values in row order.
  const Relation sorted = MakeRelation({{"id", DataType::kInt64},
                                        {"x", DataType::kDouble},
                                        {"y", DataType::kDouble}},
                                       {{int64_t{1}, 3.0, 4.0},
                                        {int64_t{2}, 5.0, 6.0},
                                        {int64_t{3}, 1.0, 2.0}},
                                       "sorted");
  const Relation t = Tra(sorted, {"id"}).ValueOrDie();
  EXPECT_EQ(t.schema().Names(), (std::vector<std::string>{"C", "1", "2", "3"}));
  EXPECT_EQ(ColumnDoubles(t, "1"), (std::vector<double>{3, 4}));
  EXPECT_EQ(ColumnDoubles(t, "3"), (std::vector<double>{1, 2}));
}

TEST(RmaOps, QqrRequiresTall) {
  const Relation wide = MakeRelation({{"k", DataType::kInt64},
                                      {"x", DataType::kDouble},
                                      {"y", DataType::kDouble},
                                      {"z", DataType::kDouble}},
                                     {{int64_t{1}, 1.0, 2.0, 3.0},
                                      {int64_t{2}, 4.0, 5.0, 6.0}});
  EXPECT_STATUS(kInvalidArgument, Qqr(wide, {"k"}));
}

TEST(RmaOps, RqrIsUpperTriangular) {
  const Relation rr = Rqr(Tall(), {"id"}).ValueOrDie();
  EXPECT_EQ(rr.schema().Names(), (std::vector<std::string>{"C", "x", "y"}));
  ASSERT_EQ(rr.num_rows(), 2);
  EXPECT_EQ(ValueToDouble(rr.Get(1, 1)), 0.0);
  EXPECT_GT(ValueToDouble(rr.Get(0, 1)), 0.0);  // sign convention
}

TEST(RmaOps, DetOfKnownMatrix) {
  const Relation d = Det(Square2(), {"k"}).ValueOrDie();
  EXPECT_EQ(d.schema().Names(), (std::vector<std::string>{"C", "det"}));
  ASSERT_EQ(d.num_rows(), 1);
  EXPECT_EQ(ValueToString(d.Get(0, 0)), "sq");  // relation-name origin
  EXPECT_NEAR(ValueToDouble(d.Get(0, 1)), -26.0, 1e-9);
}

TEST(RmaOps, RnkFullAndDeficient) {
  const Relation full = Rnk(Tall(), {"id"}).ValueOrDie();
  EXPECT_NEAR(ValueToDouble(full.Get(0, 1)), 2.0, 1e-12);
  const Relation deficient = MakeRelation(
      {{"k", DataType::kInt64}, {"x", DataType::kDouble}, {"y", DataType::kDouble}},
      {{int64_t{1}, 1.0, 2.0},
       {int64_t{2}, 2.0, 4.0},
       {int64_t{3}, 3.0, 6.0}});
  EXPECT_NEAR(ValueToDouble(Rnk(deficient, {"k"}).ValueOrDie().Get(0, 1)),
              1.0, 1e-12);
}

TEST(RmaOps, EvlSymmetricKnown) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble},
                                   {"y", DataType::kDouble}},
                                  {{int64_t{1}, 2.0, 1.0},
                                   {int64_t{2}, 1.0, 2.0}});
  const Relation evl = Evl(r, {"k"}).ValueOrDie();
  EXPECT_EQ(evl.schema().Names(), (std::vector<std::string>{"k", "evl"}));
  EXPECT_NEAR(ValueToDouble(evl.Get(0, 1)), 3.0, 1e-10);
  EXPECT_NEAR(ValueToDouble(evl.Get(1, 1)), 1.0, 1e-10);
}

TEST(RmaOps, EvcRequiresSymmetric) {
  EXPECT_STATUS(kNumericError, Evc(Square2(), {"k"}));
}

TEST(RmaOps, EvcEigenvectorProperty) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble},
                                   {"y", DataType::kDouble}},
                                  {{int64_t{1}, 2.0, 1.0},
                                   {int64_t{2}, 1.0, 2.0}});
  const Relation evc = Evc(r, {"k"}).ValueOrDie();
  // First eigenvector of [[2,1],[1,2]] is (1,1)/sqrt(2).
  EXPECT_NEAR(std::fabs(ValueToDouble(evc.Get(0, 1))), 1 / std::sqrt(2.0),
              1e-10);
}

TEST(RmaOps, ChfUpperFactor) {
  const Relation spd = MakeRelation({{"k", DataType::kInt64},
                                     {"x", DataType::kDouble},
                                     {"y", DataType::kDouble}},
                                    {{int64_t{1}, 4.0, 2.0},
                                     {int64_t{2}, 2.0, 5.0}});
  const Relation u = Chf(spd, {"k"}).ValueOrDie();
  // chol([[4,2],[2,5]]) upper = [[2,1],[0,2]].
  EXPECT_NEAR(ValueToDouble(u.Get(0, 1)), 2.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(u.Get(0, 2)), 1.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(u.Get(1, 1)), 0.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(u.Get(1, 2)), 2.0, 1e-12);
}

TEST(RmaOps, DsvDiagonalOfSingularValues) {
  const Relation d = Dsv(Tall(), {"id"}).ValueOrDie();
  EXPECT_EQ(d.schema().Names(), (std::vector<std::string>{"C", "x", "y"}));
  ASSERT_EQ(d.num_rows(), 2);
  EXPECT_NEAR(ValueToDouble(d.Get(0, 2)), 0.0, 1e-12);  // off-diagonal
  EXPECT_NEAR(ValueToDouble(d.Get(1, 1)), 0.0, 1e-12);
  EXPECT_GE(ValueToDouble(d.Get(0, 1)), ValueToDouble(d.Get(1, 2)));
}

TEST(RmaOps, UsvRequiresSingleOrderAttrAndIsSquare) {
  EXPECT_STATUS(kInvalidArgument, Usv(Qqr(WeatherRelation(), {"W", "T"})
                                          .ValueOrDie(),
                                      {"W", "T"}));
  const Relation u = Usv(Tall(), {"id"}).ValueOrDie();
  EXPECT_EQ(u.schema().Names(),
            (std::vector<std::string>{"id", "1", "2", "3"}));
  EXPECT_EQ(u.num_rows(), 3);
}

TEST(RmaOps, VsvRightSingularVectors) {
  const Relation v = Vsv(Tall(), {"id"}).ValueOrDie();
  // DESIGN.md deviation: (c1,c1) with schema (C) ∘ app schema.
  EXPECT_EQ(v.schema().Names(), (std::vector<std::string>{"C", "x", "y"}));
  ASSERT_EQ(v.num_rows(), 2);
  // Columns are orthonormal.
  const double a = ValueToDouble(v.Get(0, 1));
  const double b = ValueToDouble(v.Get(1, 1));
  EXPECT_NEAR(a * a + b * b, 1.0, 1e-10);
}

// --- binary operations -----------------------------------------------------------

TEST(RmaOps, AddKeepsBothOrderParts) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble}},
                                  {{int64_t{2}, 10.0}, {int64_t{1}, 20.0}});
  const Relation s = MakeRelation({{"j", DataType::kInt64},
                                   {"x", DataType::kDouble}},
                                  {{int64_t{1}, 1.0}, {int64_t{2}, 2.0}});
  const Relation sum = Add(r, {"k"}, s, {"j"}).ValueOrDie();
  EXPECT_EQ(sum.schema().Names(), (std::vector<std::string>{"k", "j", "x"}));
  // Sorted by k: (1, 1, 20+1), (2, 2, 10+2).
  EXPECT_EQ(std::get<int64_t>(sum.Get(0, 0)), 1);
  EXPECT_EQ(std::get<int64_t>(sum.Get(0, 1)), 1);
  EXPECT_NEAR(ValueToDouble(sum.Get(0, 2)), 21.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(sum.Get(1, 2)), 12.0, 1e-12);
}

TEST(RmaOps, AddRejectsOverlappingOrderSchemas) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble}},
                                  {{int64_t{1}, 1.0}});
  EXPECT_STATUS(kInvalidArgument, Add(r, {"k"}, r, {"k"}));
}

TEST(RmaOps, AddRejectsShapeMismatch) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble}},
                                  {{int64_t{1}, 1.0}});
  const Relation s = MakeRelation({{"j", DataType::kInt64},
                                   {"x", DataType::kDouble}},
                                  {{int64_t{1}, 1.0}, {int64_t{2}, 2.0}});
  EXPECT_STATUS(kInvalidArgument, Add(r, {"k"}, s, {"j"}));
}

TEST(RmaOps, SubAndEmuValues) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble}},
                                  {{int64_t{1}, 10.0}, {int64_t{2}, 20.0}});
  const Relation s = MakeRelation({{"j", DataType::kInt64},
                                   {"x", DataType::kDouble}},
                                  {{int64_t{1}, 3.0}, {int64_t{2}, 4.0}});
  EXPECT_NEAR(ValueToDouble(Sub(r, {"k"}, s, {"j"}).ValueOrDie().Get(0, 2)),
              7.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(Emu(r, {"k"}, s, {"j"}).ValueOrDie().Get(1, 2)),
              80.0, 1e-12);
}

TEST(RmaOps, MmuInnerDimensionChecked) {
  const Relation r = Tall();          // 3x2
  const Relation s = Square2("k2");   // 2x2
  const Relation prod = Mmu(r, {"id"}, s, {"k2"}).ValueOrDie();
  EXPECT_EQ(prod.schema().Names(), (std::vector<std::string>{"id", "x", "y"}));
  EXPECT_EQ(prod.num_rows(), 3);
  // Row id=1: (3,4) x [[6,7],[8,5]] = (50, 41).
  EXPECT_NEAR(ValueToDouble(prod.Get(0, 1)), 50.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(prod.Get(0, 2)), 41.0, 1e-12);
  EXPECT_STATUS(kInvalidArgument, Mmu(r, {"id"}, Tall("id2"), {"id2"}));
}

TEST(RmaOps, CpdIsTransposedProduct) {
  const Relation r = Tall();
  const Relation cpd = Cpd(r, {"id"}, r, {"id"}).ValueOrDie();
  EXPECT_EQ(cpd.schema().Names(), (std::vector<std::string>{"C", "x", "y"}));
  // AᵀA for A sorted by id = [[3,4],[5,6],[1,2]]: xx=35, xy=44, yy=56.
  EXPECT_NEAR(ValueToDouble(cpd.Get(0, 1)), 35.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(cpd.Get(0, 2)), 44.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(cpd.Get(1, 2)), 56.0, 1e-12);
}

TEST(RmaOps, CpdSelfApplicationUsesSyrkAndMatchesGeneric) {
  // cpd(x, x) with the same Relation object takes the symmetric SYRK fast
  // path (the paper's cblas_dsyrk for covariance); a copy of the relation
  // goes through the generic kernel. Results must agree.
  Rng rng(31);
  const Relation x = testing::RandomKeyedRelation(40, 6, &rng);
  const Relation x_copy = x;  // different object, same columns
  RmaOptions contiguous;
  contiguous.kernel = KernelPolicy::kContiguous;
  const Relation self = Cpd(x, {"id"}, x, {"id"}, contiguous).ValueOrDie();
  const Relation generic =
      Cpd(x, {"id"}, x_copy, {"id"}, contiguous).ValueOrDie();
  EXPECT_TRUE(RelationsEqualOrdered(self, generic, 1e-9));
  // And the BAT kernel agrees too.
  RmaOptions bat;
  bat.kernel = KernelPolicy::kBat;
  const Relation on_bats = Cpd(x, {"id"}, x, {"id"}, bat).ValueOrDie();
  EXPECT_TRUE(RelationsEqualOrdered(self, on_bats, 1e-9));
}

TEST(RmaOps, OpdOuterProduct) {
  const Relation r = MakeRelation({{"k", DataType::kString},
                                   {"x", DataType::kDouble}},
                                  {{std::string("r1"), 2.0},
                                   {std::string("r2"), 3.0}});
  const Relation s = MakeRelation({{"m", DataType::kString},
                                   {"x", DataType::kDouble}},
                                  {{std::string("s1"), 10.0},
                                   {std::string("s2"), 20.0}});
  const Relation opd = Opd(r, {"k"}, s, {"m"}).ValueOrDie();
  // Columns named by s's order values (column cast of V).
  EXPECT_EQ(opd.schema().Names(), (std::vector<std::string>{"k", "s1", "s2"}));
  EXPECT_NEAR(ValueToDouble(opd.Get(0, 1)), 20.0, 1e-12);  // 2*10
  EXPECT_NEAR(ValueToDouble(opd.Get(1, 2)), 60.0, 1e-12);  // 3*20
}

TEST(RmaOps, SolSolvesSystem) {
  // x + y = 3 ; x - y = 1  =>  x=2, y=1.
  const Relation a = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble},
                                   {"y", DataType::kDouble}},
                                  {{int64_t{1}, 1.0, 1.0},
                                   {int64_t{2}, 1.0, -1.0}});
  const Relation b = MakeRelation({{"j", DataType::kInt64},
                                   {"rhs", DataType::kDouble}},
                                  {{int64_t{1}, 3.0}, {int64_t{2}, 1.0}});
  const Relation x = Sol(a, {"k"}, b, {"j"}).ValueOrDie();
  EXPECT_EQ(x.schema().Names(), (std::vector<std::string>{"C", "rhs"}));
  EXPECT_EQ(ValueToString(x.Get(0, 0)), "x");
  EXPECT_NEAR(ValueToDouble(x.Get(0, 1)), 2.0, 1e-12);
  EXPECT_NEAR(ValueToDouble(x.Get(1, 1)), 1.0, 1e-12);
}

TEST(RmaOps, SolRejectsMultiColumnRhs) {
  const Relation a = Tall();
  EXPECT_STATUS(kInvalidArgument, Sol(a, {"id"}, Tall("id2"), {"id2"}));
}

// --- generic validation -------------------------------------------------------------

TEST(RmaOps, EmptyOrderSchemaRejected) {
  EXPECT_STATUS(kInvalidArgument, Inv(Square2(), {}));
}

TEST(RmaOps, UnknownOrderAttributeRejected) {
  EXPECT_STATUS(kKeyError, Inv(Square2(), {"nope"}));
}

TEST(RmaOps, NonNumericApplicationAttributeRejected) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"s", DataType::kString}},
                                  {{int64_t{1}, std::string("x")}});
  EXPECT_STATUS(kTypeError, Tra(r, {"k"}));
}

TEST(RmaOps, NonKeyOrderSchemaRejected) {
  const Relation r = MakeRelation({{"k", DataType::kInt64},
                                   {"x", DataType::kDouble}},
                                  {{int64_t{1}, 1.0}, {int64_t{1}, 2.0}});
  EXPECT_STATUS(kInvalidArgument, Qqr(r, {"k"}));
  // ... also on the sort-avoiding path.
  RmaOptions opt;
  opt.sort = SortPolicy::kOptimized;
  EXPECT_STATUS(kInvalidArgument, Qqr(r, {"k"}, opt));
  // ... and on the relative-alignment path (Sec. 8.1), with the duplicate
  // key in either argument, also after one shared context has cached what
  // the earlier operations prepared.
  const Relation keyed = MakeRelation({{"j", DataType::kInt64},
                                       {"x", DataType::kDouble}},
                                      {{int64_t{1}, 1.0}, {int64_t{2}, 2.0}});
  ExecContext ctx(opt);
  EXPECT_STATUS(kInvalidArgument,
                RmaBinary(&ctx, MatrixOp::kAdd, r, {"k"}, keyed, {"j"}));
  EXPECT_STATUS(kInvalidArgument,
                RmaBinary(&ctx, MatrixOp::kAdd, keyed, {"j"}, r, {"k"}));
  EXPECT_STATUS(kInvalidArgument,
                RmaBinary(&ctx, MatrixOp::kSub, keyed, {"j"}, r, {"k"}));
}

TEST(RmaOps, ArityMismatchRejected) {
  EXPECT_STATUS(kInvalidArgument,
                RmaUnary(MatrixOp::kAdd, Square2(), {"k"}));
  EXPECT_STATUS(kInvalidArgument,
                RmaBinary(MatrixOp::kInv, Square2(), {"k"}, Square2("k2"),
                          {"k2"}));
}

TEST(RmaOps, NameCollisionInResultRejected) {
  // usv result columns are named by key values; a key value equal to the
  // order attribute name collides.
  const Relation r = MakeRelation({{"id", DataType::kString},
                                   {"x", DataType::kDouble}},
                                  {{std::string("id"), 1.0}});
  EXPECT_STATUS(kInvalidArgument, Usv(r, {"id"}));
}

TEST(RmaOps, ParseMatrixOpNames) {
  EXPECT_EQ(*ParseMatrixOp("INV"), MatrixOp::kInv);
  EXPECT_EQ(*ParseMatrixOp("qqr"), MatrixOp::kQqr);
  EXPECT_EQ(*ParseMatrixOp("Tra"), MatrixOp::kTra);
  EXPECT_STATUS(kKeyError, ParseMatrixOp("nope"));
}

TEST(RmaOps, ShapeTypesMatchTable1) {
  EXPECT_EQ(GetOpInfo(MatrixOp::kMmu).shape.rows, Extent::kR1);
  EXPECT_EQ(GetOpInfo(MatrixOp::kMmu).shape.cols, Extent::kC2);
  EXPECT_EQ(GetOpInfo(MatrixOp::kTra).shape.rows, Extent::kC1);
  EXPECT_EQ(GetOpInfo(MatrixOp::kTra).shape.cols, Extent::kR1);
  EXPECT_EQ(GetOpInfo(MatrixOp::kDet).shape.rows, Extent::kOne);
  EXPECT_EQ(GetOpInfo(MatrixOp::kAdd).shape.rows, Extent::kRStar);
  EXPECT_EQ(GetOpInfo(MatrixOp::kUsv).shape.cols, Extent::kR1);
  EXPECT_EQ(GetOpInfo(MatrixOp::kOpd).shape.cols, Extent::kR2);
}

}  // namespace
}  // namespace rma
