#ifndef RMA_TESTS_TEST_UTIL_H_
#define RMA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "util/random.h"

namespace rma::testing {

/// Builds a relation from a schema spec and rows of values. Aborts on
/// failure (test construction errors are programmer errors).
inline Relation MakeRelation(std::vector<Attribute> attrs,
                             std::vector<std::vector<Value>> rows,
                             std::string name = "r") {
  RelationBuilder b(Schema::Make(std::move(attrs)).ValueOrDie());
  for (auto& row : rows) {
    b.AppendRow(std::move(row)).Abort();
  }
  return b.Finish(std::move(name)).ValueOrDie();
}

/// The weather relation of Fig. 2/9: (T, H, W) with unsorted times.
inline Relation WeatherRelation() {
  return MakeRelation(
      {{"T", DataType::kString}, {"H", DataType::kDouble}, {"W", DataType::kDouble}},
      {{std::string("5am"), 1.0, 3.0},
       {std::string("8am"), 8.0, 5.0},
       {std::string("7am"), 6.0, 7.0},
       {std::string("6am"), 1.0, 4.0}},
      "r");
}

/// The example database of Fig. 5 (users, films, ratings).
inline Relation UsersRelation() {
  return MakeRelation({{"User", DataType::kString},
                       {"State", DataType::kString},
                       {"YoB", DataType::kInt64}},
                      {{std::string("Ann"), std::string("CA"), int64_t{1980}},
                       {std::string("Tom"), std::string("FL"), int64_t{1965}},
                       {std::string("Jan"), std::string("CA"), int64_t{1970}}},
                      "u");
}

inline Relation FilmsRelation() {
  return MakeRelation(
      {{"Title", DataType::kString},
       {"RelY", DataType::kInt64},
       {"Director", DataType::kString}},
      {{std::string("Heat"), int64_t{1995}, std::string("Lee")},
       {std::string("Balto"), int64_t{1995}, std::string("Lee")},
       {std::string("Net"), int64_t{1995}, std::string("Smith")}},
      "f");
}

inline Relation RatingsRelation() {
  return MakeRelation({{"User", DataType::kString},
                       {"Balto", DataType::kDouble},
                       {"Heat", DataType::kDouble},
                       {"Net", DataType::kDouble}},
                      {{std::string("Ann"), 2.0, 1.5, 0.5},
                       {std::string("Tom"), 0.0, 0.0, 1.5},
                       {std::string("Jan"), 1.0, 4.0, 1.0}},
                      "rating");
}

/// Random numeric relation: one INT key attribute "id" (a permutation of
/// 0..n-1, shuffled) plus `cols` DOUBLE attributes "a0","a1",...
inline Relation RandomKeyedRelation(int64_t n, int cols, Rng* rng,
                                    double lo = -10.0, double hi = 10.0,
                                    std::string name = "r") {
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  std::shuffle(ids.begin(), ids.end(), rng->engine());
  std::vector<Attribute> attrs = {{"id", DataType::kInt64}};
  std::vector<BatPtr> colsv = {MakeInt64Bat(std::move(ids))};
  for (int c = 0; c < cols; ++c) {
    std::vector<double> v(static_cast<size_t>(n));
    for (auto& x : v) x = rng->Uniform(lo, hi);
    attrs.push_back(Attribute{"a" + std::to_string(c), DataType::kDouble});
    colsv.push_back(MakeDoubleBat(std::move(v)));
  }
  return Relation::Make(Schema::Make(std::move(attrs)).ValueOrDie(),
                        std::move(colsv), std::move(name))
      .ValueOrDie();
}

/// Cell-by-cell bit equality of two relations with equal schemas: double
/// cells compare their bit patterns (signed zeros and NaN payloads count),
/// every other cell its rendering.
inline ::testing::AssertionResult BitIdentical(const Relation& a,
                                               const Relation& b) {
  if (!(a.schema() == b.schema()) || a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure() << "schemas or cardinalities differ";
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const Bat& x = *a.column(c);
    const Bat& y = *b.column(c);
    for (int64_t i = 0; i < a.num_rows(); ++i) {
      bool same = false;
      if (x.type() == DataType::kDouble) {
        const double u = x.GetDouble(i);
        const double v = y.GetDouble(i);
        same = std::memcmp(&u, &v, sizeof(double)) == 0;
      } else {
        same = x.GetString(i) == y.GetString(i);
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "cell (" << i << ", " << c << ") differs: " << x.GetString(i)
               << " vs " << y.GetString(i);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Gathers one double column of a relation.
inline std::vector<double> ColumnDoubles(const Relation& r,
                                         const std::string& name) {
  return ToDoubleVector(**r.ColumnByName(name));
}

#define ASSERT_OK(expr)                                    \
  do {                                                     \
    const ::rma::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();               \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                    \
  auto RMA_CONCAT(_r_, __LINE__) = (expr);                 \
  ASSERT_TRUE(RMA_CONCAT(_r_, __LINE__).ok())              \
      << RMA_CONCAT(_r_, __LINE__).status().ToString();    \
  lhs = std::move(RMA_CONCAT(_r_, __LINE__)).ValueUnsafe();

#define EXPECT_STATUS(expected_code, expr)                            \
  do {                                                                \
    const auto& _res = (expr);                                        \
    EXPECT_FALSE(_res.ok());                                          \
    EXPECT_TRUE(::rma::StatusCode::expected_code == _res.status().code()) \
        << _res.status().ToString();                                  \
  } while (0)

}  // namespace rma::testing

#endif  // RMA_TESTS_TEST_UTIL_H_
