// Differential tests: the typed refine sort behind bat_ops::ArgSort,
// ArgSortUnique and SQL ORDER BY against the row-at-a-time sorts it
// replaced (row_oracle.h). Permutations and unique flags must be identical
// over random lists of 1-4 int64, double and string key columns with ties,
// NaN, ±0.0 and ±inf, constant leading columns, presorted, reverse-sorted,
// single-row and empty inputs, sparse and paged columns, and ASC/DESC
// mixes.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "rel/row_oracle.h"
#include "storage/bat_ops.h"
#include "storage/paged_store.h"
#include "storage/relation.h"
#include "storage/sparse_bat.h"
#include "test_util.h"

namespace rma {
namespace {

constexpr int kSeeds = 24;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename T>
const T& Pick(const std::vector<T>& pool, Rng* rng) {
  return pool[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
}

// Few distinct values each, so rows tie on leading columns. -0.0 and 0.0
// tie under `<`; NaN ties with everything under Bat::Compare.
const std::vector<double>& Doubles() {
  static const std::vector<double> pool = {0.0, -0.0, 1.0, -1.5,
                                           2.0, kInf, -kInf};
  return pool;
}
const std::vector<std::string>& Strings() {
  static const std::vector<std::string> pool = {"", "a", "b", "ab", "B"};
  return pool;
}

enum class Kind {
  kInt64,
  kDouble,
  kDoubleNaN,  ///< the double pool plus NaN
  kString,
  kConstant,   ///< one int64 value on every row
  kUnique,     ///< a permutation of 0..n-1 as doubles
};

BatPtr RandomColumn(Kind kind, int64_t n, Rng* rng) {
  const auto size = static_cast<size_t>(n);
  switch (kind) {
    case Kind::kInt64:
    case Kind::kConstant: {
      std::vector<int64_t> v(size, 7);
      if (kind == Kind::kInt64) {
        for (auto& x : v) x = rng->UniformInt(-2, 2);
      }
      return MakeInt64Bat(std::move(v));
    }
    case Kind::kDouble:
    case Kind::kDoubleNaN: {
      std::vector<double> v(size);
      for (auto& x : v) {
        x = kind == Kind::kDoubleNaN && rng->UniformInt(0, 5) == 0
                ? kNaN
                : Pick(Doubles(), rng);
      }
      return MakeDoubleBat(std::move(v));
    }
    case Kind::kString: {
      std::vector<std::string> v(size);
      for (auto& x : v) x = Pick(Strings(), rng);
      return MakeStringBat(std::move(v));
    }
    case Kind::kUnique: {
      std::vector<double> v(size);
      for (size_t i = 0; i < size; ++i) v[i] = static_cast<double>(i);
      std::shuffle(v.begin(), v.end(), rng->engine());
      return MakeDoubleBat(std::move(v));
    }
  }
  return nullptr;
}

Relation Keyed(std::vector<BatPtr> cols) {
  std::vector<Attribute> attrs;
  for (size_t c = 0; c < cols.size(); ++c) {
    attrs.push_back({"k" + std::to_string(c), cols[c]->type()});
  }
  return Relation::Make(Schema::Make(std::move(attrs)).ValueOrDie(),
                        std::move(cols))
      .ValueOrDie();
}

/// 1-4 random key columns of `n` rows; the first may be constant.
Relation RandomKeys(int64_t n, Rng* rng) {
  static const std::vector<Kind> kinds = {
      Kind::kInt64,  Kind::kDouble,   Kind::kDoubleNaN,
      Kind::kString, Kind::kConstant, Kind::kUnique,
  };
  const int64_t k = rng->UniformInt(1, 4);
  std::vector<BatPtr> cols;
  for (int64_t c = 0; c < k; ++c) {
    cols.push_back(RandomColumn(Pick(kinds, rng), n, rng));
  }
  return Keyed(std::move(cols));
}

/// Double columns at odd positions as sparse columns; the others as they
/// are.
Relation Sparse(const Relation& r) {
  std::vector<BatPtr> cols;
  for (int c = 0; c < r.num_columns(); ++c) {
    const BatPtr& col = r.column(c);
    if (col->type() != DataType::kDouble || c % 2 == 0) {
      cols.push_back(col);
      continue;
    }
    cols.push_back(SparseDoubleBat::FromDense(ToDoubleVector(*col)));
  }
  return Keyed(std::move(cols));
}

std::string TempDir() {
  char tmpl[] = "/tmp/rma_ordering_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// Checks every sort entry point on `keys` against the oracles.
void ExpectMatchesOracle(const std::vector<BatPtr>& keys, Rng* rng) {
  EXPECT_EQ(bat_ops::ArgSort(keys), oracle::ArgSort(keys));
  bool unique = false;
  bool want_unique = false;
  EXPECT_EQ(bat_ops::ArgSortUnique(keys, &unique),
            oracle::ArgSortUnique(keys, &want_unique));
  EXPECT_EQ(unique, want_unique);
  std::vector<bool> descending;
  std::vector<bool> ascending;
  for (size_t c = 0; c < keys.size(); ++c) {
    descending.push_back(rng->UniformInt(0, 1) == 1);
    ascending.push_back(!descending.back());
  }
  EXPECT_EQ(bat_ops::ArgSort(keys, descending),
            oracle::OrderBy(keys, ascending));
}

TEST(OrderingVsRow, SortsMatchOracle) {
  const std::string dir = TempDir();
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir));
  static const std::vector<int64_t> sizes = {0, 1, 2, 7, 40, 150, 600};
  int table = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 700);
    const int64_t n = Pick(sizes, &rng);
    const Relation random = RandomKeys(n, &rng);
    // The same rows presorted and reverse-sorted (by the oracle).
    std::vector<int64_t> perm = oracle::ArgSort(random.columns());
    const Relation sorted = random.TakeRows(perm);
    std::reverse(perm.begin(), perm.end());
    const Relation reversed = random.TakeRows(perm);
    for (const Relation* r : {&random, &sorted, &reversed}) {
      ASSERT_OK_AND_ASSIGN(
          const Relation paged,
          store->SaveTable("t" + std::to_string(table++), *r));
      const Relation sparse = Sparse(*r);
      for (const Relation* rep : {r, &sparse, &paged}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(n) + " rows, " +
                     std::to_string(rep->num_columns()) + " key columns, " +
                     (rep == r         ? "malloc"
                      : rep == &sparse ? "sparse"
                                       : "paged"));
        ExpectMatchesOracle(rep->columns(), &rng);
        // Every leading sublist, so the last column varies too.
        for (int k = 1; k < rep->num_columns(); ++k) {
          const std::vector<BatPtr> lead(rep->columns().begin(),
                                         rep->columns().begin() + k);
          ExpectMatchesOracle(lead, &rng);
        }
      }
    }
  }
  store.reset();  // closes the page files before their directory goes
  std::filesystem::remove_all(dir);
}

TEST(OrderingVsRow, LongTiedRunsMatchOracle) {
  // Thousands of rows per tied run of the first column, hundreds per run of
  // the second, in both directions.
  Rng rng(801);
  const int64_t n = 5000;
  std::vector<BatPtr> keys = {RandomColumn(Kind::kConstant, n, &rng),
                              RandomColumn(Kind::kInt64, n, &rng),
                              RandomColumn(Kind::kString, n, &rng),
                              RandomColumn(Kind::kDouble, n, &rng)};
  ExpectMatchesOracle(keys, &rng);
  ExpectMatchesOracle({keys[1], keys[3]}, &rng);
  bool unique = false;
  bat_ops::ArgSortUnique(keys, &unique);
  EXPECT_FALSE(unique);  // at most 5 * 5 * 6 distinct rows among 5000
}

TEST(OrderingVsRow, AscendingKeysSortToTheIdentity) {
  Rng rng(802);
  const int64_t n = 3000;
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = 2 * i - n;
  const std::vector<BatPtr> keys = {
      MakeInt64Bat(std::vector<int64_t>(static_cast<size_t>(n), 3)),
      MakeInt64Bat(ids)};
  bool unique = false;
  std::vector<int64_t> identity(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) identity[static_cast<size_t>(i)] = i;
  EXPECT_EQ(bat_ops::ArgSortUnique(keys, &unique), identity);
  EXPECT_TRUE(unique);
  // Descending on the unique column reverses it.
  std::vector<int64_t> reversed(identity.rbegin(), identity.rend());
  EXPECT_EQ(bat_ops::ArgSort(keys, {false, true}), reversed);
  ExpectMatchesOracle(keys, &rng);
}

}  // namespace
}  // namespace rma
