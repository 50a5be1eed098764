// Column store: BATs, schemas, relations, and the vectorized BAT ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "storage/bat.h"
#include "storage/bat_ops.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/sparse_bat.h"
#include "test_util.h"

namespace rma {
namespace {

using testing::MakeRelation;

// --- BATs -------------------------------------------------------------------

TEST(Bat, TypedAccessors) {
  const BatPtr ints = MakeInt64Bat({3, 1, 2});
  const BatPtr dbls = MakeDoubleBat({1.5, -2.0});
  const BatPtr strs = MakeStringBat({"b", "a"});
  EXPECT_EQ(ints->type(), DataType::kInt64);
  EXPECT_EQ(dbls->type(), DataType::kDouble);
  EXPECT_EQ(strs->type(), DataType::kString);
  EXPECT_EQ(ints->size(), 3);
  EXPECT_EQ(ints->GetDouble(0), 3.0);
  EXPECT_EQ(dbls->GetString(0), "1.5");
  EXPECT_EQ(strs->GetString(1), "a");
  EXPECT_EQ(ValueToString(ints->GetValue(2)), "2");
}

TEST(Bat, TakeIsLeftFetchJoin) {
  const BatPtr b = MakeInt64Bat({10, 20, 30, 40});
  const BatPtr taken = b->Take({3, 0, 0, 2});
  ASSERT_EQ(taken->size(), 4);
  EXPECT_EQ(taken->GetDouble(0), 40);
  EXPECT_EQ(taken->GetDouble(1), 10);
  EXPECT_EQ(taken->GetDouble(2), 10);
  EXPECT_EQ(taken->GetDouble(3), 30);
}

TEST(Bat, CompareAndHash) {
  const BatPtr a = MakeStringBat({"x", "y"});
  const BatPtr b = MakeStringBat({"y", "x"});
  EXPECT_LT(a->Compare(0, *b, 1), 1);  // "x" vs "x" -> 0
  EXPECT_EQ(a->Compare(0, *b, 1), 0);
  EXPECT_LT(a->Compare(0, *a, 1), 0);
  EXPECT_EQ(a->Hash(0), b->Hash(1));
}

TEST(Bat, ConstantBat) {
  const BatPtr c = MakeConstantBat(Value(7.5), 3);
  EXPECT_EQ(c->size(), 3);
  EXPECT_EQ(c->GetDouble(2), 7.5);
  const BatPtr s = MakeConstantBat(Value(std::string("hi")), 2);
  EXPECT_EQ(s->GetString(1), "hi");
}

TEST(Bat, GatherDoubleVectorCastsAndPermutes) {
  const BatPtr b = MakeInt64Bat({5, 6, 7});
  EXPECT_EQ(GatherDoubleVector(*b, {2, 0}), (std::vector<double>{7, 5}));
  EXPECT_EQ(ToDoubleVector(*b), (std::vector<double>{5, 6, 7}));
}

// --- sparse BATs ---------------------------------------------------------------

TEST(SparseBat, RoundTripAndAccess) {
  const std::vector<double> dense = {0, 1.5, 0, 0, -2, 0};
  const auto sparse = SparseDoubleBat::FromDense(dense);
  EXPECT_EQ(sparse->size(), 6);
  EXPECT_EQ(sparse->NumNonZero(), 2);
  EXPECT_EQ(sparse->ToDense(), dense);
  EXPECT_EQ(sparse->GetDouble(1), 1.5);
  EXPECT_EQ(sparse->GetDouble(3), 0.0);
}

TEST(SparseBat, MaybeCompressRespectsThreshold) {
  const BatPtr mostly_zero = MakeDoubleBat({0, 0, 0, 1});
  const BatPtr dense = MakeDoubleBat({1, 2, 3, 0});
  EXPECT_NE(nullptr, dynamic_cast<const SparseDoubleBat*>(
                         SparseDoubleBat::MaybeCompress(mostly_zero, 0.5).get()));
  EXPECT_EQ(nullptr, dynamic_cast<const SparseDoubleBat*>(
                         SparseDoubleBat::MaybeCompress(dense, 0.5).get()));
}

TEST(SparseBat, SparseAddMatchesDense) {
  Rng rng(5);
  std::vector<double> a(200);
  std::vector<double> b(200);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Bernoulli(0.7) ? 0.0 : rng.Uniform(-5, 5);
    b[i] = rng.Bernoulli(0.7) ? 0.0 : rng.Uniform(-5, 5);
  }
  const auto sum = SparseAdd(*SparseDoubleBat::FromDense(a),
                             *SparseDoubleBat::FromDense(b));
  const std::vector<double> got = sum->ToDense();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(got[i], a[i] + b[i], 1e-12);
  }
}

TEST(SparseBat, AddColumnsDispatchesSparseFastPath) {
  const BatPtr a = SparseDoubleBat::FromDense({0, 1, 0, 2});
  const BatPtr b = SparseDoubleBat::FromDense({3, 0, 0, 4});
  const BatPtr sum = bat_ops::AddColumns(a, b);
  EXPECT_NE(nullptr, dynamic_cast<const SparseDoubleBat*>(sum.get()));
  EXPECT_EQ(ToDoubleVector(*sum), (std::vector<double>{3, 1, 0, 6}));
}

// --- bat_ops ----------------------------------------------------------------------

TEST(BatOps, ArgSortSingleAndMultiKey) {
  const BatPtr k1 = MakeInt64Bat({2, 1, 2, 1});
  const BatPtr k2 = MakeStringBat({"b", "b", "a", "a"});
  EXPECT_EQ(bat_ops::ArgSort({k1}), (std::vector<int64_t>{1, 3, 0, 2}));
  EXPECT_EQ(bat_ops::ArgSort({k1, k2}), (std::vector<int64_t>{3, 1, 2, 0}));
}

TEST(BatOps, ArgSortIsStable) {
  const BatPtr k = MakeInt64Bat({1, 1, 1});
  EXPECT_EQ(bat_ops::ArgSort({k}), (std::vector<int64_t>{0, 1, 2}));
}

TEST(BatOps, ArgSortUniqueDetectsDuplicates) {
  bool unique = false;
  bat_ops::ArgSortUnique({MakeInt64Bat({3, 1, 3})}, &unique);
  EXPECT_FALSE(unique);
  bat_ops::ArgSortUnique({MakeInt64Bat({3, 1, 2})}, &unique);
  EXPECT_TRUE(unique);
  // Composite key: duplicates only if all parts repeat.
  bat_ops::ArgSortUnique(
      {MakeInt64Bat({1, 1}), MakeStringBat({"a", "b"})}, &unique);
  EXPECT_TRUE(unique);
}

TEST(BatOps, IsSortedAndIsKey) {
  EXPECT_TRUE(bat_ops::IsKey({MakeInt64Bat({1, 3, 2})}));
  EXPECT_FALSE(bat_ops::IsKey({MakeInt64Bat({1, 3, 1})}));
}

TEST(BatOps, AlignByKeyMatchesRows) {
  const std::vector<BatPtr> build = {MakeInt64Bat({30, 10, 20})};
  const std::vector<BatPtr> probe = {MakeInt64Bat({10, 20, 30})};
  const std::vector<int64_t> align =
      bat_ops::AlignByKey(build, probe).ValueOrDie();
  EXPECT_EQ(align, (std::vector<int64_t>{1, 2, 0}));
}

TEST(BatOps, AlignByKeyReportsMisses) {
  const std::vector<BatPtr> build = {MakeInt64Bat({1, 2})};
  const std::vector<BatPtr> probe = {MakeInt64Bat({1, 9})};
  EXPECT_STATUS(kKeyError, bat_ops::AlignByKey(build, probe));
}

TEST(BatOps, AlignByKeyRejectsDuplicateBuildKeys) {
  // Duplicate keys on either side mean the order schema is not a key; the
  // caller falls back to the sorting path, which reports the proper error.
  const std::vector<BatPtr> build = {MakeInt64Bat({1, 1, 2})};
  const std::vector<BatPtr> probe = {MakeInt64Bat({1, 2, 3})};
  EXPECT_STATUS(kKeyError, bat_ops::AlignByKey(build, probe));
}

TEST(BatOps, AlignByKeyRejectsDuplicateProbeKeys) {
  // Probe {2, 2, 1} has a duplicate; the consumed-slot check catches it
  // even though every probe row finds some build match.
  const std::vector<BatPtr> build = {MakeInt64Bat({1, 2, 3})};
  const std::vector<BatPtr> probe = {MakeInt64Bat({2, 2, 1})};
  EXPECT_STATUS(kKeyError, bat_ops::AlignByKey(build, probe));
}

TEST(BatOps, AlignByKeyCompositeKeys) {
  const std::vector<BatPtr> build = {MakeInt64Bat({1, 1, 2}),
                                     MakeStringBat({"b", "a", "a"})};
  const std::vector<BatPtr> probe = {MakeInt64Bat({1, 2, 1}),
                                     MakeStringBat({"a", "a", "b"})};
  const std::vector<int64_t> align =
      bat_ops::AlignByKey(build, probe).ValueOrDie();
  EXPECT_EQ(align, (std::vector<int64_t>{1, 2, 0}));
}

TEST(BatOps, AlignByKeyAgreesWithRankAlignment) {
  // Property: when both sides hold the same key set, hash alignment must
  // produce exactly the sorted-rank pairing that full sorting would.
  Rng rng(77);
  const int64_t n = 500;
  std::vector<int64_t> keys(static_cast<size_t>(n));
  std::iota(keys.begin(), keys.end(), 1000);
  std::shuffle(keys.begin(), keys.end(), rng.engine());
  std::vector<int64_t> probe_keys = keys;
  std::shuffle(probe_keys.begin(), probe_keys.end(), rng.engine());
  const std::vector<BatPtr> build = {MakeInt64Bat(std::move(keys))};
  const std::vector<BatPtr> probe = {MakeInt64Bat(std::move(probe_keys))};
  const std::vector<int64_t> align =
      bat_ops::AlignByKey(build, probe).ValueOrDie();
  // Rank pairing: sort both sides, match i-th smallest with i-th smallest.
  const std::vector<int64_t> pb = bat_ops::ArgSort(build);
  const std::vector<int64_t> pp = bat_ops::ArgSort(probe);
  std::vector<int64_t> expected(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    expected[static_cast<size_t>(pp[static_cast<size_t>(i)])] =
        pb[static_cast<size_t>(i)];
  }
  EXPECT_EQ(align, expected);
}

TEST(BatOps, IsKeyLargeCollisionHeavy) {
  // Flat-table probe with many equal-hash rows (all values identical except
  // one duplicate pair at the end).
  std::vector<int64_t> v(2000);
  std::iota(v.begin(), v.end(), 0);
  EXPECT_TRUE(bat_ops::IsKey({MakeInt64Bat(std::vector<int64_t>(v))}));
  v.push_back(1234);  // duplicate
  EXPECT_FALSE(bat_ops::IsKey({MakeInt64Bat(std::move(v))}));
}

TEST(BatOps, SelectNumericOperators) {
  const BatPtr b = MakeDoubleBat({1, 5, 3, 5, 2});
  EXPECT_EQ(bat_ops::SelectNumeric(*b, ">", 2.5),
            (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(bat_ops::SelectNumeric(*b, "==", 5.0),
            (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(bat_ops::SelectNumeric(*b, "<=", 1.0),
            (std::vector<int64_t>{0}));
}

TEST(BatOps, ColumnArithmetic) {
  const BatPtr a = MakeDoubleBat({1, 2, 3});
  const BatPtr b = MakeDoubleBat({10, 20, 30});
  EXPECT_EQ(ToDoubleVector(*bat_ops::AddColumns(a, b)),
            (std::vector<double>{11, 22, 33}));
  EXPECT_EQ(ToDoubleVector(*bat_ops::SubColumns(b, a)),
            (std::vector<double>{9, 18, 27}));
  EXPECT_EQ(ToDoubleVector(*bat_ops::MulColumns(a, b)),
            (std::vector<double>{10, 40, 90}));
  std::vector<double> y = {1, 1, 1};
  bat_ops::Axpy(2.0, {1, 2, 3}, &y);
  EXPECT_EQ(y, (std::vector<double>{3, 5, 7}));
  EXPECT_EQ(bat_ops::Dot({1, 2}, {3, 4}), 11);
}

// --- schema ------------------------------------------------------------------------

TEST(Schema, MakeRejectsDuplicates) {
  EXPECT_STATUS(kInvalidArgument,
                Schema::Make({{"a", DataType::kInt64},
                              {"a", DataType::kDouble}}));
}

TEST(Schema, Lookup) {
  const Schema s = Schema::Make({{"A", DataType::kInt64},
                                 {"b", DataType::kDouble}})
                       .ValueOrDie();
  EXPECT_EQ(*s.IndexOf("b"), 1);
  EXPECT_STATUS(kKeyError, s.IndexOf("B"));
  EXPECT_EQ(*s.IndexOfIgnoreCase("B"), 1);
  EXPECT_EQ(*s.IndexOfIgnoreCase("a"), 0);
}

TEST(Schema, IgnoreCaseAmbiguityIsError) {
  const Schema s = Schema::Make({{"ab", DataType::kInt64},
                                 {"AB", DataType::kDouble}})
                       .ValueOrDie();
  EXPECT_STATUS(kKeyError, s.IndexOfIgnoreCase("Ab"));
}

TEST(Schema, ConcatSelectComplement) {
  const Schema a = Schema::Make({{"x", DataType::kInt64}}).ValueOrDie();
  const Schema b = Schema::Make({{"y", DataType::kDouble}}).ValueOrDie();
  const Schema ab = Schema::Concat(a, b).ValueOrDie();
  EXPECT_EQ(ab.Names(), (std::vector<std::string>{"x", "y"}));
  EXPECT_STATUS(kInvalidArgument, Schema::Concat(a, a));
  EXPECT_EQ(ab.Select({1}).Names(), (std::vector<std::string>{"y"}));
  EXPECT_EQ(ab.ComplementOf({1}), (std::vector<int>{0}));
}

// --- relation ----------------------------------------------------------------------

TEST(Relation, MakeValidates) {
  const Schema s = Schema::Make({{"a", DataType::kInt64}}).ValueOrDie();
  EXPECT_STATUS(kInvalidArgument, Relation::Make(s, {}));
  EXPECT_STATUS(kTypeError, Relation::Make(s, {MakeDoubleBat({1.0})}));
  const Schema s2 = Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}})
                        .ValueOrDie();
  EXPECT_STATUS(kInvalidArgument,
                Relation::Make(s2, {MakeInt64Bat({1}), MakeInt64Bat({1, 2})}));
}

TEST(Relation, BuilderTypeChecksAndWidensInts) {
  RelationBuilder b(Schema::Make({{"a", DataType::kDouble}}).ValueOrDie());
  ASSERT_OK(b.AppendRow({int64_t{4}}));  // int literal into double column
  ASSERT_OK(b.AppendRow({4.5}));
  EXPECT_FALSE(b.AppendRow({std::string("no")}).ok());
  const Relation r = b.Finish().ValueOrDie();
  EXPECT_EQ(ValueToDouble(r.Get(0, 0)), 4.0);
}

TEST(Relation, TakeAndSelectColumns) {
  const Relation r = MakeRelation(
      {{"a", DataType::kInt64}, {"b", DataType::kString}},
      {{int64_t{1}, std::string("x")}, {int64_t{2}, std::string("y")}});
  const Relation taken = r.TakeRows({1});
  EXPECT_EQ(taken.num_rows(), 1);
  EXPECT_EQ(ValueToString(taken.Get(0, 1)), "y");
  const Relation cols = r.SelectColumns({1});
  EXPECT_EQ(cols.schema().Names(), (std::vector<std::string>{"b"}));
}

TEST(Relation, EqualityHelpers) {
  const Relation a = MakeRelation({{"x", DataType::kDouble}}, {{1.0}, {2.0}});
  const Relation b = MakeRelation({{"x", DataType::kDouble}}, {{2.0}, {1.0}});
  EXPECT_TRUE(RelationsEqualUnordered(a, b));
  EXPECT_FALSE(RelationsEqualOrdered(a, b));
  const Relation c = MakeRelation({{"x", DataType::kDouble}}, {{2.0}, {3.0}});
  EXPECT_FALSE(RelationsEqualUnordered(a, c));
}

TEST(Relation, ToStringRendersAlignedTable) {
  const Relation r = MakeRelation(
      {{"name", DataType::kString}, {"v", DataType::kDouble}},
      {{std::string("a"), 1.0}});
  const std::string s = r.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
}

}  // namespace
}  // namespace rma
