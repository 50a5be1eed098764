// The database-level QueryCache: the options fingerprint, the identity-
// snapshot plan hit rule, per-table plan invalidation, cross-context
// prepared-argument sharing, precise relation eviction, and
// capacity-bounded LRU eviction.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "core/query_cache.h"
#include "core/rma.h"
#include "test_util.h"

namespace rma {
namespace {

using testing::RandomKeyedRelation;

TEST(OptionsFingerprintTest, PlanAffectingFieldsChangeTheFingerprint) {
  RmaOptions a;
  RmaOptions b;
  EXPECT_EQ(QueryCache::OptionsFingerprint(a),
            QueryCache::OptionsFingerprint(b));
  b.kernel = KernelPolicy::kBat;
  EXPECT_NE(QueryCache::OptionsFingerprint(a),
            QueryCache::OptionsFingerprint(b));
  b = a;
  b.rewrites.enabled = false;
  EXPECT_NE(QueryCache::OptionsFingerprint(a),
            QueryCache::OptionsFingerprint(b));
  // The stats sink is an output channel, not plan content.
  b = a;
  RmaStats sink;
  b.stats = &sink;
  EXPECT_EQ(QueryCache::OptionsFingerprint(a),
            QueryCache::OptionsFingerprint(b));
}

QueryCache::StatementPlanPtr PlanReading(QueryCache::TableSnapshot tables,
                                         uint64_t fingerprint = 42) {
  auto plan = std::make_shared<QueryCache::StatementPlan>();
  plan->options_fingerprint = fingerprint;
  plan->base_tables = std::move(tables);
  return plan;
}

TEST(QueryCacheTest, PlanHitsOnlyAtItsCatalogVersion) {
  // The catalog state a plan was built at is the identity snapshot of the
  // tables it reads: Register/Drop of `t` between runs gives `t` a new
  // relation identity, and the entry must miss.
  QueryCache cache;
  const QueryCache::TableSnapshot built_at = {{"t", 3}};
  cache.StorePlan("select * from t", PlanReading(built_at));

  EXPECT_NE(cache.LookupPlan("select * from t", 42, built_at), nullptr);
  EXPECT_EQ(cache.LookupPlan("select * from t", 42, {{"t", 4}}), nullptr);
  // Changed options must miss too.
  EXPECT_EQ(cache.LookupPlan("select * from t", 43, built_at), nullptr);
  // Another statement text is another entry.
  EXPECT_EQ(cache.LookupPlan("select * from u", 42, built_at), nullptr);
  EXPECT_EQ(cache.counters().plan_hits, 1);
  EXPECT_EQ(cache.counters().plan_misses, 3);
}

TEST(QueryCacheTest, IdentitySnapshotHitsAcrossVersionBumps) {
  // A plan hits for any caller whose current snapshot matches — however
  // often other tables changed, none of this plan's relations did.
  QueryCache cache;
  const QueryCache::TableSnapshot snap = {{"a", 11}, {"b", 12}};
  cache.StorePlan("q", PlanReading(snap));
  EXPECT_NE(cache.LookupPlan("q", 42, snap), nullptr);
  cache.InvalidatePlansForTables({"c"});  // another table was written
  EXPECT_NE(cache.LookupPlan("q", 42, snap), nullptr);
  // A different identity for either table must miss (the relation was
  // replaced, or the caller is a different catalog sharing the cache), and
  // so must a snapshot naming other tables.
  EXPECT_EQ(cache.LookupPlan("q", 42, {{"a", 11}, {"b", 99}}), nullptr);
  EXPECT_EQ(cache.LookupPlan("q", 42, {{"a", 11}}), nullptr);
  // The options fingerprint still gates identity hits.
  EXPECT_EQ(cache.LookupPlan("q", 43, snap), nullptr);
  EXPECT_EQ(cache.counters().plan_hits, 2);
  EXPECT_EQ(cache.counters().plan_misses, 3);
}

TEST(QueryCacheTest, InvalidatePlansForTablesEvictsOnlyIntersectingPlans) {
  QueryCache cache;
  cache.StorePlan("qa", PlanReading({{"a", 1}}));
  cache.StorePlan("qb", PlanReading({{"b", 2}}));
  cache.StorePlan("qab", PlanReading({{"a", 1}, {"b", 2}}));
  ASSERT_EQ(cache.plan_entries(), 3u);

  // Mutating `a` evicts exactly the plans reading `a`; the counter stays
  // precise (two evictions, not three).
  cache.InvalidatePlansForTables({"a"});
  EXPECT_EQ(cache.plan_entries(), 1u);
  EXPECT_EQ(cache.counters().plan_invalidations, 2);
  EXPECT_NE(cache.LookupPlan("qb", 42, {{"b", 2}}), nullptr);

  // Mutating an unrelated table costs nothing further.
  cache.InvalidatePlansForTables({"c"});
  EXPECT_EQ(cache.plan_entries(), 1u);
  EXPECT_EQ(cache.counters().plan_invalidations, 2);
}

TEST(QueryCacheTest, PreparedArgumentsSharedAcrossContexts) {
  Rng rng(21);
  const Relation r = RandomKeyedRelation(4000, 6, &rng);
  auto shared = std::make_shared<QueryCache>();

  RmaOptions opts;  // SortPolicy::kAlways: every prepare sorts
  ExecContext first(opts, shared);
  RmaStats cold;
  first.mutable_options().stats = &cold;
  ASSERT_OK(RmaUnary(&first, MatrixOp::kQqr, r, {"id"}).status());
  EXPECT_GT(cold.sort_seconds, 0.0);
  EXPECT_EQ(cold.prepared_cache_misses, 1);

  // A *different* context borrowing the same cache — the database-level
  // promotion: the sort permutation survives the statement boundary.
  ExecContext second(opts, shared);
  RmaStats warm;
  second.mutable_options().stats = &warm;
  ASSERT_OK(RmaUnary(&second, MatrixOp::kRqr, r, {"id"}).status());
  EXPECT_EQ(warm.sort_seconds, 0.0);
  EXPECT_EQ(warm.prepared_cache_hits, 1);
  EXPECT_EQ(shared->counters().prepared_hits, 1);
}

TEST(QueryCacheTest, EvictRelationForcesResort) {
  Rng rng(22);
  const Relation r = RandomKeyedRelation(1000, 4, &rng);
  auto shared = std::make_shared<QueryCache>();
  ExecContext ctx(RmaOptions{}, shared);
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).status());
  ASSERT_EQ(shared->prepared_entries(), 1u);

  shared->EvictRelation(r.identity());
  EXPECT_EQ(shared->prepared_entries(), 0u);
  EXPECT_GE(shared->counters().evictions, 1);

  RmaStats again;
  ctx.mutable_options().stats = &again;
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).status());
  EXPECT_GT(again.sort_seconds, 0.0);  // re-sorted, not served stale
}

TEST(QueryCacheTest, ReRegisteredRelationCannotServeStaleArguments) {
  // The invalidation contract behind DROP + re-Register with different
  // data: fresh relations carry fresh identity tokens, so the stale entry
  // can never be keyed to again.
  Rng rng1(23);
  Rng rng2(24);
  const Relation old_rel = RandomKeyedRelation(500, 3, &rng1);
  const Relation new_rel = RandomKeyedRelation(500, 3, &rng2);
  EXPECT_NE(old_rel.identity(), new_rel.identity());
  const Relation copy = old_rel;
  EXPECT_EQ(copy.identity(), old_rel.identity());  // copies share contents

  auto shared = std::make_shared<QueryCache>();
  ExecContext ctx(RmaOptions{}, shared);
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, old_rel, {"id"}).status());
  RmaStats warm;
  ctx.mutable_options().stats = &warm;
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, new_rel, {"id"}).status());
  EXPECT_EQ(warm.prepared_cache_hits, 0);
  EXPECT_EQ(warm.prepared_cache_misses, 1);
}

TEST(QueryCacheTest, PreparedCapacityIsBoundedWithLruEviction) {
  QueryCache cache;
  for (int i = 0; i < 300; ++i) {
    cache.StorePrepared("key" + std::to_string(i),
                        {static_cast<uint64_t>(i) + 1000000},
                        std::make_shared<const PreparedArg>());
  }
  EXPECT_LE(cache.prepared_entries(), 256u);
  EXPECT_GE(cache.counters().evictions, 300 - 256);
  // The most recently stored keys survive.
  EXPECT_NE(cache.LookupPrepared("key299"), nullptr);
  EXPECT_EQ(cache.LookupPrepared("key0"), nullptr);
}

TEST(QueryCacheTest, AlignedPermutationReusedAcrossElementwiseOps) {
  // The shared-sort extension of PrepareBinaryArgs: add then sub over the
  // same (r, s) pair under SortPolicy::kOptimized hash-aligns once and
  // serves the second op from the cache.
  Rng rng(25);
  const Relation r = RandomKeyedRelation(2000, 4, &rng);
  Relation s = RandomKeyedRelation(2000, 4, &rng, -10, 10, "s");
  ASSERT_OK_AND_ASSIGN(s, s.RenameColumn(0, "id2"));

  RmaOptions opts;
  opts.sort = SortPolicy::kOptimized;
  ExecContext ctx(opts);
  ASSERT_OK(RmaBinary(&ctx, MatrixOp::kAdd, r, {"id"}, s, {"id2"}).status());
  RmaStats second;
  ctx.mutable_options().stats = &second;
  ASSERT_OK(RmaBinary(&ctx, MatrixOp::kSub, r, {"id"}, s, {"id2"}).status());
  EXPECT_GE(second.prepared_cache_hits, 1);
  EXPECT_EQ(second.sort_seconds, 0.0);  // alignment reused, no hash pass
}

TEST(QueryCacheTest, RelativeAlignmentLeavesRUnsorted) {
  // Under SortPolicy::kOptimized, add keeps r in physical order, though its
  // key is shuffled: r's prepared entry is the identity-permutation variant,
  // and no sorted r is built, since s aligns to it.
  Rng rng(27);
  const Relation r = RandomKeyedRelation(2000, 4, &rng);
  Relation s = RandomKeyedRelation(2000, 4, &rng, -10, 10, "s");
  ASSERT_OK_AND_ASSIGN(s, s.RenameColumn(0, "id2"));
  RmaOptions opts;
  opts.sort = SortPolicy::kOptimized;
  ExecContext ctx(opts);
  ASSERT_OK_AND_ASSIGN(
      const Relation sum,
      RmaBinary(&ctx, MatrixOp::kAdd, r, {"id"}, s, {"id2"}));
  const PreparedArgPtr physical =
      ctx.LookupPrepared(r, {"id"}, /*avoid_sort=*/true);
  ASSERT_NE(physical, nullptr);
  EXPECT_TRUE(physical->perm.empty());
  EXPECT_EQ(ctx.LookupPrepared(r, {"id"}, /*avoid_sort=*/false), nullptr);
  // r's rows lead the result in their stored order.
  EXPECT_EQ(sum.column(0).get(), r.column(0).get());
  ASSERT_OK_AND_ASSIGN(const Relation sorted,
                       RmaBinary(MatrixOp::kAdd, r, {"id"}, s, {"id2"}));
  EXPECT_TRUE(RelationsEqualUnordered(sum, sorted, 0.0));
}

// --- order-part memo ---------------------------------------------------------

TEST(QueryCacheTest, OrderPartGatheredOncePerCachedArgument) {
  // add, qqr and sub all lead with r's order part in key order. r's key is
  // shuffled, so that part is a gather through the cached sort permutation:
  // the first op gathers it, every later hit on the entry reuses it.
  Rng rng(26);
  const Relation r = RandomKeyedRelation(2000, 4, &rng);
  Relation s = RandomKeyedRelation(2000, 4, &rng, -10, 10, "s");
  ASSERT_OK_AND_ASSIGN(s, s.RenameColumn(0, "id2"));
  RmaOptions opts;
  opts.sort = SortPolicy::kAlways;

  auto shared = std::make_shared<QueryCache>();
  ExecContext first(opts, shared);
  ASSERT_OK_AND_ASSIGN(
      const Relation add,
      RmaBinary(&first, MatrixOp::kAdd, r, {"id"}, s, {"id2"}));
  ASSERT_OK_AND_ASSIGN(const Relation qqr,
                       RmaUnary(&first, MatrixOp::kQqr, r, {"id"}));
  // Another context on the same cache (a later statement or session).
  ExecContext second(opts, shared);
  ASSERT_OK_AND_ASSIGN(
      const Relation sub,
      RmaBinary(&second, MatrixOp::kSub, r, {"id"}, s, {"id2"}));

  EXPECT_NE(add.column(0).get(), r.column(0).get());
  EXPECT_EQ(qqr.column(0).get(), add.column(0).get());
  EXPECT_EQ(sub.column(0).get(), add.column(0).get());
  EXPECT_EQ(sub.column(1).get(), add.column(1).get());  // s's order part

  // Each op on a fresh context (with its own empty cache) prepares, and
  // gathers, its own argument.
  ExecContext cold_add(opts);
  ASSERT_OK_AND_ASSIGN(
      const Relation add_ref,
      RmaBinary(&cold_add, MatrixOp::kAdd, r, {"id"}, s, {"id2"}));
  ExecContext cold_qqr(opts);
  ASSERT_OK_AND_ASSIGN(const Relation qqr_ref,
                       RmaUnary(&cold_qqr, MatrixOp::kQqr, r, {"id"}));
  ExecContext cold_sub(opts);
  ASSERT_OK_AND_ASSIGN(
      const Relation sub_ref,
      RmaBinary(&cold_sub, MatrixOp::kSub, r, {"id"}, s, {"id2"}));
  EXPECT_TRUE(testing::BitIdentical(add, add_ref));
  EXPECT_TRUE(testing::BitIdentical(qqr, qqr_ref));
  EXPECT_TRUE(testing::BitIdentical(sub, sub_ref));
  EXPECT_NE(qqr_ref.column(0).get(), add_ref.column(0).get());
}

TEST(QueryCacheTest, OrderPartMemoFreedWithItsEntry) {
  Rng rng(27);
  const Relation r = RandomKeyedRelation(1000, 4, &rng);
  auto shared = std::make_shared<QueryCache>();
  ExecContext ctx(RmaOptions{}, shared);
  std::weak_ptr<Bat> memo;
  {
    ASSERT_OK_AND_ASSIGN(const Relation qqr,
                         RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}));
    memo = qqr.column(0);
  }
  // The cached argument keeps the gathered column past its results...
  EXPECT_FALSE(memo.expired());
  // ...and frees it with the entry.
  shared->EvictRelation(r.identity());
  EXPECT_TRUE(memo.expired());
}

}  // namespace
}  // namespace rma
