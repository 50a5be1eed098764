// Sharded stage execution tests: shard/unshard equivalence (bit-exact for
// concat-merged element-wise ops, tolerance-bounded for tree-reduced cross
// products), the balanced row-range split, the planner's shards=1 fallback
// and its cap by the run budget, and RmaOptions validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/exec_context.h"
#include "core/exec_internal.h"
#include "core/planner.h"
#include "core/rma.h"
#include "matrix/simd.h"
#include "storage/bat.h"
#include "test_util.h"
#include "util/random.h"

namespace rma {
namespace {

/// Dense relation with an already-sorted INT key (identity permutation) and
/// `cols` random DOUBLE columns. `specials` injects NaN and +-inf rows.
Relation DenseKeyed(int64_t n, int cols, const std::string& key, uint64_t seed,
                    bool specials = false, std::string name = "r") {
  Rng rng(seed);
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  std::vector<Attribute> attrs = {{key, DataType::kInt64}};
  std::vector<BatPtr> colsv = {MakeInt64Bat(std::move(ids))};
  for (int c = 0; c < cols; ++c) {
    std::vector<double> v(static_cast<size_t>(n));
    for (auto& x : v) x = rng.Uniform(-10.0, 10.0);
    if (specials && n >= 8) {
      v[1] = std::numeric_limits<double>::quiet_NaN();
      v[static_cast<size_t>(n) / 2] = std::numeric_limits<double>::infinity();
      v[static_cast<size_t>(n) - 2] = -std::numeric_limits<double>::infinity();
    }
    attrs.push_back(Attribute{"a" + std::to_string(c), DataType::kDouble});
    colsv.push_back(MakeDoubleBat(std::move(v)));
  }
  return Relation::Make(Schema::Make(std::move(attrs)).ValueOrDie(),
                        std::move(colsv), std::move(name))
      .ValueOrDie();
}

/// Bit-pattern equality (distinguishes NaN payloads and signed zeros the way
/// the concat contract promises: the sharded write pattern is byte-identical).
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs one binary op through the staged executor with a handcrafted shard
/// plan (bypasses the planner's cost decision so equivalence is exercised
/// even on machines where sharding would not pay).
Result<std::vector<BatPtr>> RunForced(ExecContext& ctx, MatrixOp op,
                                      const Relation& r, const std::string& kr,
                                      const Relation& s, const std::string& ks,
                                      int shards, MergeKind merge,
                                      bool self_cross = false) {
  const OpInfo& info = GetOpInfo(op);
  RMA_ASSIGN_OR_RETURN(
      internal::BinaryArgs args,
      internal::PrepareBinaryArgs(ctx, info, r, {kr}, s, {ks}));
  const ArgShape right_shape = args.right->Shape();
  OpPlan plan = PlanOp(op, ctx.options(), args.left->Shape(), &right_shape,
                       self_cross);
  plan.shards = shards;
  plan.merge = merge;
  if (std::find(plan.stages.begin(), plan.stages.end(), Stage::kMerge) ==
      plan.stages.end()) {
    plan.stages.insert(plan.stages.end() - 1, Stage::kMerge);
  }
  return internal::DispatchShardedBinary(ctx, plan, *args.left, *args.right);
}

/// Unsharded reference through the same staged path.
Result<std::vector<BatPtr>> RunSerial(ExecContext& ctx, MatrixOp op,
                                      const Relation& r, const std::string& kr,
                                      const Relation& s, const std::string& ks,
                                      bool self_cross = false) {
  const OpInfo& info = GetOpInfo(op);
  RMA_ASSIGN_OR_RETURN(
      internal::BinaryArgs args,
      internal::PrepareBinaryArgs(ctx, info, r, {kr}, s, {ks}));
  const ArgShape right_shape = args.right->Shape();
  OpPlan plan = PlanOp(op, ctx.options(), args.left->Shape(), &right_shape,
                       self_cross);
  plan.shards = 1;
  plan.merge = MergeKind::kNone;
  return internal::DispatchBinary(ctx, plan, *args.left, *args.right);
}

RmaOptions ShardOpts(int threads = 4) {
  RmaOptions opts;
  opts.max_threads = threads;
  opts.shard_min_rows = 64;
  return opts;
}

// --- shard specs ------------------------------------------------------------

TEST(ShardSpecTest, BalancedNonDivisibleSplit) {
  const auto specs = internal::MakeShardSpecs(10, 4);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].rows(), 3);
  EXPECT_EQ(specs[1].rows(), 3);
  EXPECT_EQ(specs[2].rows(), 2);
  EXPECT_EQ(specs[3].rows(), 2);
  int64_t expected_begin = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].shard, static_cast<int>(i));
    EXPECT_EQ(specs[i].begin, expected_begin);  // contiguous, ordered cover
    expected_begin = specs[i].end;
  }
  EXPECT_EQ(expected_begin, 10);
}

// --- shard/unshard equivalence ----------------------------------------------

TEST(ShardEquivalenceTest, ConcatElementwiseBitExact) {
  // 7001 rows: non-divisible by 4, so shard boundaries are unequal.
  const Relation r = DenseKeyed(7001, 3, "i", /*seed=*/3, false, "r");
  const Relation s = DenseKeyed(7001, 3, "j", /*seed=*/4, false, "s");
  for (MatrixOp op : {MatrixOp::kAdd, MatrixOp::kSub, MatrixOp::kEmu}) {
    ExecContext ctx(ShardOpts());
    ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> sharded,
                         RunForced(ctx, op, r, "i", s, "j", 4,
                                   MergeKind::kConcat));
    ExecContext serial_ctx{RmaOptions{}};
    ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> serial,
                         RunSerial(serial_ctx, op, r, "i", s, "j"));
    ASSERT_EQ(sharded.size(), serial.size());
    for (size_t j = 0; j < sharded.size(); ++j) {
      EXPECT_TRUE(BitEqual(ToDoubleVector(*sharded[j]),
                           ToDoubleVector(*serial[j])))
          << "op=" << static_cast<int>(op) << " col=" << j;
    }
  }
}

TEST(ShardEquivalenceTest, ConcatPropagatesNanAndInfBitwise) {
  const Relation r = DenseKeyed(4096, 2, "i", /*seed=*/5, /*specials=*/true);
  const Relation s = DenseKeyed(4096, 2, "j", /*seed=*/6, /*specials=*/true);
  ExecContext ctx(ShardOpts());
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> sharded,
                       RunForced(ctx, MatrixOp::kAdd, r, "i", s, "j", 4,
                                 MergeKind::kConcat));
  ExecContext serial_ctx{RmaOptions{}};
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> serial,
                       RunSerial(serial_ctx, MatrixOp::kAdd, r, "i", s, "j"));
  for (size_t j = 0; j < sharded.size(); ++j) {
    const std::vector<double> got = ToDoubleVector(*sharded[j]);
    EXPECT_TRUE(BitEqual(got, ToDoubleVector(*serial[j]))) << "col=" << j;
    // The specials actually crossed the pipeline (inf + finite = inf,
    // NaN + anything = NaN).
    EXPECT_TRUE(std::isnan(got[1]));
    EXPECT_TRUE(std::isinf(got[got.size() / 2]));
  }
}

TEST(ShardEquivalenceTest, ConcatScalarKernelParity) {
  // RMA_NO_SIMD / ForceScalar: the sharded path must stay bit-exact when the
  // element-wise kernels run their scalar fallbacks.
  simd::ForceScalar(true);
  const Relation r = DenseKeyed(3000, 2, "i", /*seed=*/7);
  const Relation s = DenseKeyed(3000, 2, "j", /*seed=*/8);
  ExecContext ctx(ShardOpts());
  auto sharded = RunForced(ctx, MatrixOp::kAdd, r, "i", s, "j", 3,
                           MergeKind::kConcat);
  ExecContext serial_ctx{RmaOptions{}};
  auto serial = RunSerial(serial_ctx, MatrixOp::kAdd, r, "i", s, "j");
  simd::ForceScalar(false);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (size_t j = 0; j < (*sharded).size(); ++j) {
    EXPECT_TRUE(BitEqual(ToDoubleVector(*(*sharded)[j]),
                         ToDoubleVector(*(*serial)[j])));
  }
}

TEST(ShardEquivalenceTest, TreeReduceCrossProductWithinTolerance) {
  // Tree-reduced partials associate differently from the serial kernel, so
  // the contract is tolerance-bounded, not bit-exact.
  const Relation r = DenseKeyed(5003, 4, "i", /*seed=*/9, false, "r");
  const Relation s = DenseKeyed(5003, 3, "j", /*seed=*/10, false, "s");
  ExecContext ctx(ShardOpts());
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> sharded,
                       RunForced(ctx, MatrixOp::kCpd, r, "i", s, "j", 4,
                                 MergeKind::kTreeReduce));
  ExecContext serial_ctx{RmaOptions{}};
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> serial,
                       RunSerial(serial_ctx, MatrixOp::kCpd, r, "i", s, "j"));
  ASSERT_EQ(sharded.size(), serial.size());
  for (size_t j = 0; j < sharded.size(); ++j) {
    const std::vector<double> a = ToDoubleVector(*sharded[j]);
    const std::vector<double> b = ToDoubleVector(*serial[j]);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const double scale = std::max(1.0, std::abs(b[i]));
      EXPECT_NEAR(a[i], b[i], 1e-9 * scale) << "col=" << j << " row=" << i;
    }
  }
}

TEST(ShardEquivalenceTest, TreeReduceSyrkSelfCrossWithinTolerance) {
  const Relation r = DenseKeyed(4099, 5, "i", /*seed=*/11);
  ExecContext ctx(ShardOpts(8));
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> sharded,
                       RunForced(ctx, MatrixOp::kCpd, r, "i", r, "i", 8,
                                 MergeKind::kTreeReduce, /*self_cross=*/true));
  ExecContext serial_ctx{RmaOptions{}};
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> serial,
                       RunSerial(serial_ctx, MatrixOp::kCpd, r, "i", r, "i",
                                 /*self_cross=*/true));
  for (size_t j = 0; j < sharded.size(); ++j) {
    const std::vector<double> a = ToDoubleVector(*sharded[j]);
    const std::vector<double> b = ToDoubleVector(*serial[j]);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const double scale = std::max(1.0, std::abs(b[i]));
      EXPECT_NEAR(a[i], b[i], 1e-9 * scale);
    }
  }
}

TEST(ShardEquivalenceTest, EndToEndShardedAddMatchesSerial) {
  // Public API, planner decides: whatever shard count it picks (including
  // the shards=1 fallback), the result must match the serial options run.
  const Relation r = DenseKeyed(300000, 4, "i", /*seed=*/12, false, "r");
  const Relation s = DenseKeyed(300000, 4, "j", /*seed=*/13, false, "s");
  RmaOptions sharded_opts = ShardOpts();
  RmaOptions serial_opts;
  serial_opts.max_shards = 1;
  ASSERT_OK_AND_ASSIGN(const Relation a,
                       Add(r, {"i"}, s, {"j"}, sharded_opts));
  ASSERT_OK_AND_ASSIGN(const Relation b, Add(r, {"i"}, s, {"j"}, serial_opts));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int c = 0; c < a.schema().num_attributes(); ++c) {
    if (a.schema().attribute(c).type != DataType::kDouble) continue;
    EXPECT_TRUE(BitEqual(ToDoubleVector(*a.column(c)),
                         ToDoubleVector(*b.column(c))))
        << "col=" << c;
  }
}

// --- planner decision and the run-budget cap --------------------------------

ArgShape Shape(int64_t rows, int64_t cols) {
  ArgShape s;
  s.rows = rows;
  s.cols = cols;
  s.density = 1.0;
  return s;
}

TEST(ShardPlanTest, LargeSelfCrossShards) {
  RmaOptions opts;
  opts.max_threads = 8;
  const ArgShape a = Shape(400000, 32);
  const OpPlan plan = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true);
  EXPECT_GT(plan.shards, 1);
  EXPECT_EQ(plan.merge, MergeKind::kTreeReduce);
  EXPECT_NE(std::find(plan.stages.begin(), plan.stages.end(), Stage::kMerge),
            plan.stages.end());
  // EXPLAIN surfaces the decision.
  EXPECT_NE(plan.DebugString().find("merge=tree-reduce"), std::string::npos);
}

TEST(ShardPlanTest, SmallInputFallsBackToOneShard) {
  RmaOptions opts;
  opts.max_threads = 8;
  const ArgShape a = Shape(2000, 4);
  const OpPlan cpd = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true);
  EXPECT_EQ(cpd.shards, 1);
  EXPECT_EQ(cpd.merge, MergeKind::kNone);
  const OpPlan add = PlanOp(MatrixOp::kAdd, opts, a, &a);
  EXPECT_EQ(add.shards, 1);
  EXPECT_EQ(std::count(add.stages.begin(), add.stages.end(), Stage::kMerge),
            0);
}

TEST(ShardPlanTest, SingleThreadBudgetNeverShards) {
  RmaOptions opts;
  opts.max_threads = 1;
  const ArgShape a = Shape(400000, 32);
  const OpPlan plan = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true);
  EXPECT_EQ(plan.shards, 1);
}

TEST(ShardPlanTest, ClampRevertsPlanUnderShrunkBudget) {
  RmaOptions opts;
  opts.max_threads = 8;
  const ArgShape a = Shape(400000, 32);
  ASSERT_GT(PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true).shards,
            2);
  // An op running under a smaller share than the options' budget (a batch
  // or server admission share) gets at most that many shards...
  const OpPlan two = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true,
                            /*run_budget=*/2);
  EXPECT_EQ(two.shards, 2);
  EXPECT_EQ(two.merge, MergeKind::kTreeReduce);
  EXPECT_EQ(std::count(two.stages.begin(), two.stages.end(), Stage::kMerge),
            1);
  // ...and a single slot reverts to the unsharded plan shape.
  const OpPlan one = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true,
                            /*run_budget=*/1);
  EXPECT_EQ(one.shards, 1);
  EXPECT_EQ(one.merge, MergeKind::kNone);
  EXPECT_EQ(std::count(one.stages.begin(), one.stages.end(), Stage::kMerge),
            0);
}

// --- options validation ------------------------------------------------------

TEST(ShardOptionsTest, ValidateRejectsZeroCounts) {
  RmaOptions opts;
  opts.max_shards = 0;
  const Status st = ValidateRmaOptions(opts);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("max_shards"), std::string::npos);

  RmaOptions rows;
  rows.shard_min_rows = 0;
  EXPECT_EQ(ValidateRmaOptions(rows).code(), StatusCode::kInvalidArgument);

  RmaOptions threads;
  threads.max_threads = -1;
  EXPECT_EQ(ValidateRmaOptions(threads).code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(ValidateRmaOptions(RmaOptions{}).ok());
}

TEST(ShardOptionsTest, EntryPointsRejectInvalidOptions) {
  const Relation r = DenseKeyed(16, 2, "i", /*seed=*/14);
  const Relation s = DenseKeyed(16, 2, "j", /*seed=*/15);
  RmaOptions opts;
  opts.max_shards = 0;
  EXPECT_STATUS(kInvalidArgument, Add(r, {"i"}, s, {"j"}, opts));
  EXPECT_STATUS(kInvalidArgument, Tra(r, {"i"}, opts));
}

}  // namespace
}  // namespace rma
