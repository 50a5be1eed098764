// Planner, execution-context, and staged-pipeline tests: kernel choice per
// shape and policy, prepared-argument cache reuse, and golden equivalence of
// the pipeline's paths (cached vs uncached, BAT vs contiguous, shared vs
// fresh contexts).
#include <gtest/gtest.h>

#include "core/algebra.h"
#include "core/exec_context.h"
#include "core/planner.h"
#include "core/rma.h"
#include "matrix/parallel.h"
#include "storage/sparse_bat.h"
#include "test_util.h"

namespace rma {
namespace {

using testing::MakeRelation;
using testing::RandomKeyedRelation;

ArgShape Shape(int64_t rows, int64_t cols, double density = 1.0) {
  ArgShape s;
  s.rows = rows;
  s.cols = cols;
  s.density = density;
  return s;
}

// --- kernel choice per shape and policy -------------------------------------

TEST(PlannerTest, WideCpdDelegatesToContiguous) {
  // Fig. 17b: cpd over wide relations is exactly where delegation pays off
  // 24-70x — the planner must pick the dense kernel.
  RmaOptions opts;
  const ArgShape a = Shape(100000, 50);
  const ArgShape b = Shape(100000, 50);
  const OpPlan plan = PlanOp(MatrixOp::kCpd, opts, a, &b);
  EXPECT_EQ(plan.kernel, KernelChoice::kDense);
  EXPECT_GT(plan.cost_bat, plan.cost_dense);
}

TEST(PlannerTest, SelfCrossProductUsesSyrk) {
  RmaOptions opts;
  const ArgShape a = Shape(100000, 50);
  const OpPlan plan = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true);
  EXPECT_EQ(plan.kernel, KernelChoice::kDenseSyrk);
}

TEST(PlannerTest, ElementwiseStaysOnBats) {
  RmaOptions opts;
  const ArgShape a = Shape(1000000, 10);
  const OpPlan add = PlanOp(MatrixOp::kAdd, opts, a, &a);
  EXPECT_EQ(add.kernel, KernelChoice::kBat);
  const OpPlan emu = PlanOp(MatrixOp::kEmu, opts, a, &a);
  EXPECT_EQ(emu.kernel, KernelChoice::kBat);
}

TEST(PlannerTest, SparseInputLowersBatCost) {
  RmaOptions opts;
  const ArgShape dense_in = Shape(1000000, 10, 1.0);
  const ArgShape sparse_in = Shape(1000000, 10, 0.05);
  const OpPlan d = PlanOp(MatrixOp::kAdd, opts, dense_in, &dense_in);
  const OpPlan s = PlanOp(MatrixOp::kAdd, opts, sparse_in, &sparse_in);
  EXPECT_EQ(s.kernel, KernelChoice::kBat);
  EXPECT_LT(s.cost_bat, d.cost_bat / 10);
}

TEST(PlannerTest, OverBudgetComplexOpFallsBackToBat) {
  RmaOptions opts;
  opts.contiguous_budget_bytes = 1;
  const OpPlan plan = PlanOp(MatrixOp::kQqr, opts, Shape(1000, 8), nullptr);
  EXPECT_TRUE(plan.over_budget);
  EXPECT_EQ(plan.kernel, KernelChoice::kBat);
}

TEST(PlannerTest, ComplexOpWithinBudgetDelegates) {
  RmaOptions opts;
  const OpPlan qqr = PlanOp(MatrixOp::kQqr, opts, Shape(1000, 8), nullptr);
  EXPECT_EQ(qqr.kernel, KernelChoice::kDense);
  const OpPlan inv = PlanOp(MatrixOp::kInv, opts, Shape(64, 64), nullptr);
  EXPECT_EQ(inv.kernel, KernelChoice::kDense);
}

TEST(PlannerTest, PolicyOverridesCostModel) {
  RmaOptions bat;
  bat.kernel = KernelPolicy::kBat;
  EXPECT_EQ(PlanOp(MatrixOp::kCpd, bat, Shape(1000, 50), nullptr).kernel,
            KernelChoice::kBat);
  RmaOptions contiguous;
  contiguous.kernel = KernelPolicy::kContiguous;
  EXPECT_EQ(PlanOp(MatrixOp::kAdd, contiguous, Shape(1000, 4), nullptr).kernel,
            KernelChoice::kDense);
}

TEST(PlannerTest, NoBatKernelAlwaysRunsDense) {
  // svd/eigen have no column-at-a-time algorithm: even KernelPolicy::kBat
  // falls through to the contiguous kernels.
  RmaOptions bat;
  bat.kernel = KernelPolicy::kBat;
  EXPECT_EQ(PlanOp(MatrixOp::kEvc, bat, Shape(64, 64), nullptr).kernel,
            KernelChoice::kDense);
}

TEST(PlannerTest, StageListsMatchKernelChoice) {
  RmaOptions opts;
  const ArgShape a = Shape(1000, 4);
  const OpPlan add = PlanOp(MatrixOp::kAdd, opts, a, &a);
  EXPECT_EQ(add.stages, (std::vector<Stage>{Stage::kPrepare, Stage::kKernel,
                                            Stage::kMorph}));
  const OpPlan qqr = PlanOp(MatrixOp::kQqr, opts, Shape(1000, 8), nullptr);
  EXPECT_EQ(qqr.stages,
            (std::vector<Stage>{Stage::kPrepare, Stage::kGather, Stage::kKernel,
                                Stage::kScatter, Stage::kMorph}));
  EXPECT_NE(qqr.DebugString().find("kernel=dense"), std::string::npos);
}

// --- prepared-argument cache -------------------------------------------------

TEST(ExecContextTest, SecondOpOnSameRelationSkipsSort) {
  Rng rng(7);
  const Relation r = RandomKeyedRelation(4000, 6, &rng);
  RmaOptions opts;  // SortPolicy::kAlways: every prepare sorts
  ExecContext ctx(opts);

  RmaStats first;
  ctx.mutable_options().stats = &first;
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).status());
  EXPECT_GT(first.sort_seconds, 0.0);

  RmaStats second;
  ctx.mutable_options().stats = &second;
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kRqr, r, {"id"}).status());
  EXPECT_EQ(second.sort_seconds, 0.0);  // permutation reused, no re-sort
  EXPECT_EQ(ctx.totals().prepared_cache_hits, 1);
}

TEST(ExecContextTest, CacheRespectsOrderSchema) {
  Rng rng(8);
  Relation r = RandomKeyedRelation(500, 3, &rng);
  // A second key column so two different order schemas exist.
  ASSERT_OK_AND_ASSIGN(r, r.RenameColumn(1, "id2"));
  ExecContext ctx{RmaOptions{}};
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).status());
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id2"}).status());
  // Different order schema: no reuse.
  EXPECT_EQ(ctx.totals().prepared_cache_hits, 0);
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).status());
  EXPECT_EQ(ctx.totals().prepared_cache_hits, 1);
}

TEST(ExecContextTest, PlansAreRecorded) {
  Rng rng(10);
  const Relation r = RandomKeyedRelation(100, 4, &rng);
  ExecContext ctx{RmaOptions{}};
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).status());
  ASSERT_EQ(ctx.plans().size(), 1u);
  EXPECT_EQ(ctx.plans()[0].op, MatrixOp::kQqr);
  EXPECT_EQ(ctx.plans()[0].kernel, KernelChoice::kDense);
  EXPECT_GT(ctx.totals().TotalSeconds(), 0.0);
}

// --- golden equivalence across pipeline paths --------------------------------

/// Runs `op` on `r` under every kernel policy, both twice on one context
/// (the second run reuses the cached prepare) and on a fresh context per
/// run (each prepares from scratch), and checks all results are the same
/// relation.
void ExpectAllPathsAgree(MatrixOp op, const Relation& r,
                         const std::vector<std::string>& order) {
  RmaOptions base;
  ASSERT_OK_AND_ASSIGN(const Relation reference, RmaUnary(op, r, order, base));

  for (KernelPolicy policy : {KernelPolicy::kAuto, KernelPolicy::kBat,
                              KernelPolicy::kContiguous}) {
    for (bool shared : {true, false}) {
      RmaOptions opts;
      opts.kernel = policy;
      ExecContext first(opts);
      ExecContext fresh(opts);
      ExecContext& second = shared ? first : fresh;
      ASSERT_OK_AND_ASSIGN(const Relation once,
                           RmaUnary(&first, op, r, order));
      ASSERT_OK_AND_ASSIGN(const Relation twice,
                           RmaUnary(&second, op, r, order));
      EXPECT_EQ(second.totals().prepared_cache_hits, shared ? 1 : 0);
      EXPECT_TRUE(RelationsEqualUnordered(reference, once, 1e-6))
          << GetOpInfo(op).name << " diverged (policy "
          << static_cast<int>(policy) << ")";
      EXPECT_TRUE(RelationsEqualUnordered(once, twice, 1e-9))
          << GetOpInfo(op).name << " not reproducible (shared context "
          << shared << ")";
    }
  }
}

TEST(PipelineGoldenTest, UnaryOpsAgreeAcrossPaths) {
  Rng rng(11);
  const Relation tall = RandomKeyedRelation(60, 5, &rng);
  ExpectAllPathsAgree(MatrixOp::kQqr, tall, {"id"});
  ExpectAllPathsAgree(MatrixOp::kRqr, tall, {"id"});
  const Relation square = RandomKeyedRelation(6, 6, &rng);
  ExpectAllPathsAgree(MatrixOp::kInv, square, {"id"});
  ExpectAllPathsAgree(MatrixOp::kDet, square, {"id"});
  ExpectAllPathsAgree(MatrixOp::kTra, tall, {"id"});
}

TEST(PipelineGoldenTest, BinaryOpsAgreeAcrossPaths) {
  Rng rng(12);
  const Relation r = RandomKeyedRelation(80, 4, &rng);
  Relation s = RandomKeyedRelation(80, 4, &rng, -10, 10, "s");
  ASSERT_OK_AND_ASSIGN(s, s.RenameColumn(0, "id2"));

  RmaOptions base;
  for (MatrixOp op : {MatrixOp::kAdd, MatrixOp::kSub, MatrixOp::kEmu,
                      MatrixOp::kCpd}) {
    ASSERT_OK_AND_ASSIGN(const Relation reference,
                         RmaBinary(op, r, {"id"}, s, {"id2"}, base));
    for (KernelPolicy policy : {KernelPolicy::kAuto, KernelPolicy::kBat,
                                KernelPolicy::kContiguous}) {
      RmaOptions opts;
      opts.kernel = policy;
      ExecContext ctx(opts);
      ASSERT_OK_AND_ASSIGN(const Relation got,
                           RmaBinary(&ctx, op, r, {"id"}, s, {"id2"}));
      EXPECT_TRUE(RelationsEqualUnordered(reference, got, 1e-6))
          << GetOpInfo(op).name << " diverged under policy "
          << static_cast<int>(policy);
    }
  }
}

TEST(PipelineGoldenTest, ExpressionSharedContextMatchesDirectCalls) {
  // The covariance shape: cpd(x, x) via the rewritten mmu(tra(x), x) on one
  // shared context must equal the direct two-call evaluation.
  Rng rng(13);
  const Relation x = RandomKeyedRelation(50, 4, &rng, -5, 5, "x");
  auto leaf = RmaExpr::Leaf(x);
  auto tra = RmaExpr::Unary(MatrixOp::kTra, leaf, {"id"});
  auto mmu = RmaExpr::Binary(MatrixOp::kMmu, tra, {kContextAttrName}, leaf,
                             {"id"});
  RmaOptions opts;
  ASSERT_OK_AND_ASSIGN(const Relation rewritten,
                       EvaluateOptimized(mmu, opts, nullptr));
  RmaOptions no_rewrites;
  no_rewrites.rewrites.enabled = false;
  ASSERT_OK_AND_ASSIGN(const Relation plain,
                       EvaluateOptimized(mmu, no_rewrites, nullptr));
  EXPECT_TRUE(RelationsEqualUnordered(rewritten, plain, 1e-6));
}

// --- expression planning (EXPLAIN backend) -----------------------------------

TEST(PlanExpressionTest, RendersKernelsStagesAndCacheReuse) {
  Rng rng(14);
  const Relation x = RandomKeyedRelation(100, 6, &rng, -5, 5, "x");
  auto leaf = RmaExpr::Leaf(x);
  auto cpd = RmaExpr::Binary(MatrixOp::kCpd, leaf, {"id"}, leaf, {"id"});
  RmaOptions opts;
  RewriteReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr plan, PlanExpression(cpd, opts, &report));
  const std::string text = RenderPlan(plan);
  EXPECT_NE(text.find("cpd"), std::string::npos);
  EXPECT_NE(text.find("kernel=dense-syrk"), std::string::npos);
  EXPECT_NE(text.find("prepare cached"), std::string::npos) << text;
  EXPECT_NE(text.find("scan x"), std::string::npos);
}

TEST(PlanExpressionTest, ShapePropagationThroughNestedOps) {
  Rng rng(15);
  const Relation x = RandomKeyedRelation(40, 3, &rng, -5, 5, "x");
  auto qqr = RmaExpr::Unary(MatrixOp::kQqr, RmaExpr::Leaf(x), {"id"});
  RmaOptions opts;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr plan, PlanExpression(qqr, opts, nullptr));
  EXPECT_EQ(plan->out_shape.rows, 40);
  EXPECT_EQ(plan->out_shape.cols, 3);
}

// --- thread-budget plumbing --------------------------------------------------

TEST(ThreadBudgetTest, ScopedBudgetInstallsAndRestores) {
  EXPECT_EQ(CurrentThreadBudget(), 0);
  {
    ScopedThreadBudget budget(2);
    EXPECT_EQ(CurrentThreadBudget(), 2);
    {
      ScopedThreadBudget inner(5);
      EXPECT_EQ(CurrentThreadBudget(), 5);
    }
    EXPECT_EQ(CurrentThreadBudget(), 2);
  }
  EXPECT_EQ(CurrentThreadBudget(), 0);
}

TEST(ThreadBudgetTest, SingleThreadBudgetMatchesDefault) {
  Rng rng(16);
  const Relation r = RandomKeyedRelation(300, 6, &rng);
  RmaOptions single;
  single.max_threads = 1;
  ASSERT_OK_AND_ASSIGN(const Relation a, Qqr(r, {"id"}, single));
  ASSERT_OK_AND_ASSIGN(const Relation b, Qqr(r, {"id"}));
  EXPECT_TRUE(RelationsEqualUnordered(a, b, 1e-9));
}

TEST(PlannerTest, ShapeOfReportsSparsity) {
  std::vector<double> dense_vals = {1.0, 0.0, 0.0, 0.0};
  auto sparse = SparseDoubleBat::FromDense(dense_vals);
  const Relation r =
      Relation::Make(
          Schema::Make({{"id", DataType::kInt64}, {"v", DataType::kDouble}})
              .ValueOrDie(),
          {MakeInt64Bat({0, 1, 2, 3}), sparse}, "r")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(const ArgShape shape, ShapeOf(r, {"id"}));
  EXPECT_EQ(shape.rows, 4);
  EXPECT_EQ(shape.cols, 1);
  EXPECT_NEAR(shape.density, 0.25, 1e-12);
}

}  // namespace
}  // namespace rma
