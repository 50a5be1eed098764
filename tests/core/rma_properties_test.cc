// Property sweeps over every relational matrix operation (Sec. 6):
//
//  * Matrix consistency (Def. 6.3): reducing the result relation with the
//    result order schema yields exactly OP applied to the reduced input,
//    where OP is computed independently through the dense reference kernels.
//  * Origin inheritance (Def. 6.6 / Table 3): the result carries the row and
//    column origins prescribed by its shape type.
//  * Execution-policy equivalence: the BAT algorithms, the contiguous
//    kernels, and the sort-avoidance optimizations all produce the same
//    relation (as a set of tuples).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <ostream>

#include "core/constructors.h"
#include "core/kernels.h"
#include "core/rma.h"
#include "storage/bat_ops.h"
#include "test_util.h"
#include "util/random.h"

namespace rma {
namespace {

using testing::RandomKeyedRelation;

// gtest lists each case with a byte dump of its parameter. The PrintTo
// overloads below dump the fields into zeroed storage, so padding garbage
// never leaks into the test names.
template <typename Case>
class FieldBytes {
 public:
  template <typename Field>
  FieldBytes& Put(size_t offset, const Field& field) {
    std::memcpy(bytes_ + offset, &field, sizeof(field));
    return *this;
  }
  void PrintTo(std::ostream* os) const {
    ::testing::internal::PrintBytesInObjectTo(bytes_, sizeof(bytes_), os);
  }

 private:
  unsigned char bytes_[sizeof(Case)] = {};
};

struct UnaryCase {
  MatrixOp op;
  int64_t rows;
  int cols;
  uint64_t seed;
  bool symmetric_input;  // evc/evl/chf need symmetric (SPD) inputs
};

void PrintTo(const UnaryCase& c, std::ostream* os) {
  FieldBytes<UnaryCase>()
      .Put(offsetof(UnaryCase, op), c.op)
      .Put(offsetof(UnaryCase, rows), c.rows)
      .Put(offsetof(UnaryCase, cols), c.cols)
      .Put(offsetof(UnaryCase, seed), c.seed)
      .Put(offsetof(UnaryCase, symmetric_input), c.symmetric_input)
      .PrintTo(os);
}

std::string UnaryCaseName(const ::testing::TestParamInfo<UnaryCase>& info) {
  return std::string(GetOpInfo(info.param.op).name) + "_" +
         std::to_string(info.param.rows) + "x" +
         std::to_string(info.param.cols) + "_s" +
         std::to_string(info.param.seed);
}

/// A keyed relation whose application part is symmetric positive definite.
Relation RandomSpdRelation(int64_t n, uint64_t seed) {
  Rng rng(seed);
  // A = BᵀB + n·I over a shuffled key.
  std::vector<std::vector<double>> b(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  for (auto& row : b) {
    for (auto& v : row) v = rng.Uniform(-2, 2);
  }
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  std::shuffle(ids.begin(), ids.end(), rng.engine());
  std::vector<Attribute> attrs = {{"id", DataType::kInt64}};
  std::vector<BatPtr> cols = {MakeInt64Bat(ids)};
  for (int64_t j = 0; j < n; ++j) {
    std::vector<double> col(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      double s = 0;
      for (int64_t k = 0; k < n; ++k) {
        s += b[static_cast<size_t>(k)][static_cast<size_t>(i)] *
             b[static_cast<size_t>(k)][static_cast<size_t>(j)];
      }
      // Rows are keyed by shuffled ids: row order must follow the key sort
      // for the matrix to be the intended SPD matrix.
      col[static_cast<size_t>(i)] =
          s + (i == j ? static_cast<double>(n) : 0.0);
    }
    // Scatter the sorted-row values into the shuffled physical order.
    std::vector<double> phys(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      phys[static_cast<size_t>(i)] = col[static_cast<size_t>(ids[static_cast<size_t>(i)])];
    }
    attrs.push_back(Attribute{"a" + std::to_string(j), DataType::kDouble});
    cols.push_back(MakeDoubleBat(std::move(phys)));
  }
  return Relation::Make(Schema::Make(std::move(attrs)).ValueOrDie(),
                        std::move(cols), "spd")
      .ValueOrDie();
}

Relation MakeInput(const UnaryCase& c, Rng* rng) {
  if (c.symmetric_input) return RandomSpdRelation(c.rows, c.seed);
  return RandomKeyedRelation(c.rows, c.cols, rng);
}

class UnaryProperty : public ::testing::TestWithParam<UnaryCase> {};

// Matrix consistency: µ_{U'}(op_U(r)) == OP(µ_U(r)).
TEST_P(UnaryProperty, MatrixConsistency) {
  const UnaryCase c = GetParam();
  Rng rng(c.seed);
  const Relation r = MakeInput(c, &rng);
  const OpInfo& info = GetOpInfo(c.op);

  const Relation result = RmaUnary(c.op, r, {"id"}).ValueOrDie();
  // Reduce the result with its order schema U' (Table 2: the inherited
  // order schema for (r1,*) shapes, the C attribute for (c1,*) and (1,1)).
  const std::string u_prime =
      info.shape.rows == Extent::kR1 ? "id" : "C";
  const DenseMatrix reduced =
      MatrixConstructor(result, {u_prime}).ValueOrDie();

  // Independent reference: OP on the reduced input.
  const DenseMatrix input = MatrixConstructor(r, {"id"}).ValueOrDie();
  const DenseMatrix expected =
      kernel::DenseCompute(c.op, input, nullptr).ValueOrDie();

  // Reducing sorts by U'; for (c1,*) results the C values are attribute
  // names whose sort order may differ from the base result's row order, so
  // compare as row sets.
  ASSERT_EQ(reduced.rows(), expected.rows());
  ASSERT_EQ(reduced.cols(), expected.cols());
  if (info.shape.rows == Extent::kR1 || info.shape.rows == Extent::kOne) {
    EXPECT_TRUE(reduced.AllClose(expected, 1e-8));
  } else {
    // Row multiset comparison.
    std::vector<bool> used(static_cast<size_t>(expected.rows()), false);
    for (int64_t i = 0; i < reduced.rows(); ++i) {
      bool matched = false;
      for (int64_t j = 0; j < expected.rows() && !matched; ++j) {
        if (used[static_cast<size_t>(j)]) continue;
        bool close = true;
        for (int64_t k = 0; k < reduced.cols(); ++k) {
          if (std::fabs(reduced(i, k) - expected(j, k)) > 1e-8) close = false;
        }
        if (close) {
          used[static_cast<size_t>(j)] = true;
          matched = true;
        }
      }
      EXPECT_TRUE(matched) << "result row " << i << " has no match";
    }
  }
}

// Origins: row and column origins per Table 3.
TEST_P(UnaryProperty, Origins) {
  const UnaryCase c = GetParam();
  Rng rng(c.seed);
  const Relation r = MakeInput(c, &rng);
  const OpInfo& info = GetOpInfo(c.op);
  const Relation result = RmaUnary(c.op, r, {"id"}).ValueOrDie();

  const OrderSplit split = SplitSchema(r, {"id"}).ValueOrDie();
  switch (info.shape.rows) {
    case Extent::kR1: {
      // Row origin = r.U sorted: the result's id column is the sorted ids.
      const auto ids = ToDoubleVector(**result.ColumnByName("id"));
      for (size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
      EXPECT_EQ(result.num_rows(), r.num_rows());
      break;
    }
    case Extent::kC1: {
      // Row origin = ∆U: the C column holds the application schema names.
      const auto names = SchemaCast(r.schema(), split.app_idx);
      ASSERT_EQ(result.num_rows(), static_cast<int64_t>(names.size()));
      for (int64_t i = 0; i < result.num_rows(); ++i) {
        EXPECT_EQ(ValueToString(result.Get(i, 0)), names[static_cast<size_t>(i)]);
      }
      break;
    }
    case Extent::kOne:
      ASSERT_EQ(result.num_rows(), 1);
      EXPECT_EQ(ValueToString(result.Get(0, 0)), r.name());
      break;
    default:
      FAIL() << "unexpected unary row extent";
  }
  switch (info.shape.cols) {
    case Extent::kC1:
      // Column origin = U: application schema names inherited.
      for (size_t j = 0; j < split.app_idx.size(); ++j) {
        EXPECT_EQ(result.schema().attribute(static_cast<int>(j) + 1).name,
                  r.schema().attribute(split.app_idx[j]).name);
      }
      break;
    case Extent::kR1: {
      // Column origin = ▽U: sorted key values as names.
      std::vector<int64_t> perm =
          bat_ops::ArgSort({r.column(split.order_idx[0])});
      const auto names =
          ColumnCast(r, split.order_idx[0], perm).ValueOrDie();
      for (size_t j = 0; j < names.size(); ++j) {
        EXPECT_EQ(result.schema().attribute(static_cast<int>(j) + 1).name,
                  names[j]);
      }
      break;
    }
    case Extent::kOne:
      EXPECT_EQ(result.schema().attribute(1).name, info.name);
      break;
    default:
      FAIL() << "unexpected unary column extent";
  }
}

// All execution paths agree.
TEST_P(UnaryProperty, PolicyEquivalence) {
  const UnaryCase c = GetParam();
  Rng rng(c.seed);
  const Relation r = MakeInput(c, &rng);
  RmaOptions bat;
  bat.kernel = KernelPolicy::kBat;
  RmaOptions contiguous;
  contiguous.kernel = KernelPolicy::kContiguous;
  RmaOptions optimized;
  optimized.sort = SortPolicy::kOptimized;
  const Relation a = RmaUnary(c.op, r, {"id"}, bat).ValueOrDie();
  const Relation b = RmaUnary(c.op, r, {"id"}, contiguous).ValueOrDie();
  const Relation d = RmaUnary(c.op, r, {"id"}, optimized).ValueOrDie();
  EXPECT_TRUE(RelationsEqualUnordered(a, b, 1e-7));
  EXPECT_TRUE(RelationsEqualUnordered(a, d, 1e-7));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, UnaryProperty,
    ::testing::Values(
        UnaryCase{MatrixOp::kTra, 7, 3, 1, false},
        UnaryCase{MatrixOp::kTra, 1, 4, 2, false},
        UnaryCase{MatrixOp::kInv, 5, 5, 3, true},
        UnaryCase{MatrixOp::kInv, 9, 9, 4, true},
        UnaryCase{MatrixOp::kQqr, 12, 4, 5, false},
        UnaryCase{MatrixOp::kQqr, 6, 6, 6, false},
        UnaryCase{MatrixOp::kRqr, 12, 4, 7, false},
        UnaryCase{MatrixOp::kDsv, 10, 3, 8, false},
        UnaryCase{MatrixOp::kUsv, 6, 2, 9, false},
        UnaryCase{MatrixOp::kVsv, 10, 3, 10, false},
        UnaryCase{MatrixOp::kDet, 6, 6, 11, true},
        UnaryCase{MatrixOp::kRnk, 9, 4, 12, false},
        UnaryCase{MatrixOp::kEvl, 7, 7, 13, true},
        UnaryCase{MatrixOp::kEvc, 7, 7, 14, true},
        UnaryCase{MatrixOp::kChf, 6, 6, 15, true}),
    UnaryCaseName);

// --- binary properties ------------------------------------------------------------

struct BinaryCase {
  MatrixOp op;
  int64_t rows_r;
  int cols_r;
  int64_t rows_s;
  int cols_s;
  uint64_t seed;
};

void PrintTo(const BinaryCase& c, std::ostream* os) {
  FieldBytes<BinaryCase>()
      .Put(offsetof(BinaryCase, op), c.op)
      .Put(offsetof(BinaryCase, rows_r), c.rows_r)
      .Put(offsetof(BinaryCase, cols_r), c.cols_r)
      .Put(offsetof(BinaryCase, rows_s), c.rows_s)
      .Put(offsetof(BinaryCase, cols_s), c.cols_s)
      .Put(offsetof(BinaryCase, seed), c.seed)
      .PrintTo(os);
}

std::string BinaryCaseName(const ::testing::TestParamInfo<BinaryCase>& info) {
  return std::string(GetOpInfo(info.param.op).name) + "_s" +
         std::to_string(info.param.seed);
}

class BinaryProperty : public ::testing::TestWithParam<BinaryCase> {};

TEST_P(BinaryProperty, MatrixConsistencyAndPolicies) {
  const BinaryCase c = GetParam();
  Rng rng(c.seed);
  const Relation r = RandomKeyedRelation(c.rows_r, c.cols_r, &rng);
  Relation s = RandomKeyedRelation(c.rows_s, c.cols_s, &rng, -10, 10, "s");
  s = *s.RenameColumn(0, "id2");
  const OpInfo& info = GetOpInfo(c.op);

  const Relation result =
      RmaBinary(c.op, r, {"id"}, s, {"id2"}).ValueOrDie();
  const DenseMatrix ma = MatrixConstructor(r, {"id"}).ValueOrDie();
  const DenseMatrix mb = MatrixConstructor(s, {"id2"}).ValueOrDie();
  const DenseMatrix expected =
      kernel::DenseCompute(c.op, ma, &mb).ValueOrDie();

  // For (r*,c*) shapes the result also inherits s's order part (schema
  // U ◦ V ◦ Ū), which is not part of the base result: project it away
  // before reducing.
  if (info.shape.rows == Extent::kRStar) {
    const Relation app = result.SelectColumns([&] {
      std::vector<int> keep = {0};  // id
      for (int col = 2; col < result.num_columns(); ++col) keep.push_back(col);
      return keep;
    }());
    const DenseMatrix m = MatrixConstructor(app, {"id"}).ValueOrDie();
    ASSERT_EQ(m.rows(), expected.rows());
    ASSERT_EQ(m.cols(), expected.cols());
    EXPECT_TRUE(m.AllClose(expected, 1e-8));
  } else {
    const std::string u_prime =
        info.shape.rows == Extent::kR1 ? "id" : "C";
    const DenseMatrix reduced =
        MatrixConstructor(result, {u_prime}).ValueOrDie();
    ASSERT_EQ(reduced.rows(), expected.rows());
    ASSERT_EQ(reduced.cols(), expected.cols());
    EXPECT_TRUE(reduced.AllClose(expected, 1e-8));
  }

  // Policies agree.
  RmaOptions bat;
  bat.kernel = KernelPolicy::kBat;
  RmaOptions opt;
  opt.sort = SortPolicy::kOptimized;
  const Relation a = RmaBinary(c.op, r, {"id"}, s, {"id2"}, bat).ValueOrDie();
  const Relation b = RmaBinary(c.op, r, {"id"}, s, {"id2"}, opt).ValueOrDie();
  EXPECT_TRUE(RelationsEqualUnordered(result, a, 1e-7));
  EXPECT_TRUE(RelationsEqualUnordered(result, b, 1e-7));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BinaryProperty,
    ::testing::Values(
        BinaryCase{MatrixOp::kAdd, 8, 3, 8, 3, 21},
        BinaryCase{MatrixOp::kSub, 8, 3, 8, 3, 22},
        BinaryCase{MatrixOp::kEmu, 5, 2, 5, 2, 23},
        BinaryCase{MatrixOp::kMmu, 7, 4, 4, 3, 24},
        BinaryCase{MatrixOp::kCpd, 9, 3, 9, 2, 25},
        BinaryCase{MatrixOp::kSol, 6, 3, 6, 1, 26},
        BinaryCase{MatrixOp::kOpd, 5, 3, 4, 3, 27}),
    BinaryCaseName);

// The wait-free reduced check above needs the consistency reduction to hold
// for mmu's (r1,c2) shape as well; the binary reduction uses "id".

// --- closure / nesting -----------------------------------------------------------

TEST(RmaClosure, OperationsNestArbitrarily) {
  Rng rng(31);
  const Relation r = RandomKeyedRelation(6, 6, &rng);
  // tra(tra(r)) reduces back to r's application part (Fig. 10).
  const Relation t1 = Tra(r, {"id"}).ValueOrDie();
  const Relation t2 = Tra(t1, {"C"}).ValueOrDie();
  const DenseMatrix round =
      MatrixConstructor(t2, {"C"}).ValueOrDie();
  const DenseMatrix orig = MatrixConstructor(r, {"id"}).ValueOrDie();
  EXPECT_TRUE(round.AllClose(orig, 1e-10));
}

TEST(RmaClosure, QqrTimesRqrReconstructsInput) {
  Rng rng(32);
  const Relation r = RandomKeyedRelation(9, 4, &rng);
  const Relation q = Qqr(r, {"id"}).ValueOrDie();
  const Relation rr = Rqr(r, {"id"}).ValueOrDie();
  const Relation qr = Mmu(q, {"id"}, rr, {"C"}).ValueOrDie();
  const DenseMatrix got = MatrixConstructor(qr, {"id"}).ValueOrDie();
  const DenseMatrix want = MatrixConstructor(r, {"id"}).ValueOrDie();
  EXPECT_TRUE(got.AllClose(want, 1e-8));
}

TEST(RmaClosure, InvIsSelfInverse) {
  const Relation r = RandomSpdRelation(5, 33);
  const Relation once = Inv(r, {"id"}).ValueOrDie();
  const Relation twice = Inv(once, {"id"}).ValueOrDie();
  const DenseMatrix got = MatrixConstructor(twice, {"id"}).ValueOrDie();
  const DenseMatrix want = MatrixConstructor(r, {"id"}).ValueOrDie();
  EXPECT_TRUE(got.AllClose(want, 1e-6));
}

// --- stats instrumentation ---------------------------------------------------------

TEST(RmaStatsTest, ContiguousPathReportsTransformTime) {
  Rng rng(34);
  const Relation r = RandomKeyedRelation(5000, 8, &rng);
  RmaOptions opts;
  opts.kernel = KernelPolicy::kContiguous;
  RmaStats stats;
  opts.stats = &stats;
  Qqr(r, {"id"}, opts).ValueOrDie();
  EXPECT_GT(stats.TransformSeconds(), 0.0);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_GT(stats.TotalSeconds(), 0.0);
}

TEST(RmaStatsTest, BatPathHasNoTransformTime) {
  Rng rng(35);
  const Relation r = RandomKeyedRelation(1000, 4, &rng);
  Relation s = RandomKeyedRelation(1000, 4, &rng, -10, 10, "s");
  s = *s.RenameColumn(0, "id2");
  RmaOptions opts;
  opts.kernel = KernelPolicy::kBat;
  RmaStats stats;
  opts.stats = &stats;
  Add(r, {"id"}, s, {"id2"}, opts).ValueOrDie();
  EXPECT_EQ(stats.TransformSeconds(), 0.0);
}

// --- kAuto policy ------------------------------------------------------------------

TEST(KernelPolicyTest, AutoSwitchesToBatBeyondBudget) {
  Rng rng(36);
  const Relation r = RandomKeyedRelation(64, 8, &rng);
  RmaOptions opts;
  opts.kernel = KernelPolicy::kAuto;
  opts.contiguous_budget_bytes = 1;  // force the BAT fallback
  RmaStats stats;
  opts.stats = &stats;
  Qqr(r, {"id"}, opts).ValueOrDie();
  EXPECT_EQ(stats.TransformSeconds(), 0.0);  // no contiguous copy happened
}

}  // namespace
}  // namespace rma
