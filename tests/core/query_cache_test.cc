// The database-level QueryCache: statement normalization, catalog-versioned
// plan invalidation, cross-context prepared-argument sharing, precise
// relation eviction, and capacity-bounded LRU eviction.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/exec_context.h"
#include "core/query_cache.h"
#include "core/rma.h"
#include "test_util.h"

namespace rma {
namespace {

using testing::RandomKeyedRelation;

TEST(NormalizeStatementTest, CaseWhitespaceAndSemicolon) {
  EXPECT_EQ(QueryCache::NormalizeStatement("SELECT  *\n FROM   t ;"),
            "select * from t");
  EXPECT_EQ(QueryCache::NormalizeStatement("select * from t"),
            "select * from t");
}

TEST(NormalizeStatementTest, PreservesStringLiterals) {
  EXPECT_EQ(QueryCache::NormalizeStatement("SELECT * FROM t WHERE s = 'A  B'"),
            "select * from t where s = 'A  B'");
}

TEST(NormalizeStatementTest, EscapedQuoteDoesNotDesyncQuoteState) {
  // '' is an escaped quote inside a literal (lexer semantics): the literal
  // continues, so the differing trailing characters must keep the two
  // statements on different keys.
  EXPECT_NE(
      QueryCache::NormalizeStatement("SELECT * FROM t WHERE s = 'X''y'"),
      QueryCache::NormalizeStatement("SELECT * FROM t WHERE s = 'X''Y'"));
  EXPECT_EQ(
      QueryCache::NormalizeStatement("SELECT * FROM t WHERE s = 'X''Y'  "),
      "select * from t where s = 'X''Y'");
}

TEST(NormalizeStatementTest, StripsLineComments) {
  // Comment-only differences must share one plan entry, and an apostrophe
  // inside a comment must not flip the quote-tracking state.
  EXPECT_EQ(QueryCache::NormalizeStatement(
                "SELECT * FROM t -- don't trip the quote tracker\n"),
            "select * from t");
  EXPECT_EQ(QueryCache::NormalizeStatement(
                "SELECT a, -- pick a\n b FROM t"),
            QueryCache::NormalizeStatement("SELECT a, b FROM t"));
  // The comment separates tokens like whitespace.
  EXPECT_EQ(QueryCache::NormalizeStatement("SELECT a--c\nFROM t"),
            "select a from t");
}

TEST(NormalizeStatementTest, StripsBlockComments) {
  EXPECT_EQ(QueryCache::NormalizeStatement(
                "SELECT /* don't */ * FROM /* t? no: */ t"),
            "select * from t");
  EXPECT_EQ(QueryCache::NormalizeStatement("SELECT a/* tight */FROM t"),
            "select a from t");
  // Multi-line block comment, with a quote on its own line.
  EXPECT_EQ(QueryCache::NormalizeStatement(
                "SELECT * FROM t /* line one\n 'line two'\n*/ WHERE a > 1"),
            "select * from t where a > 1");
}

TEST(NormalizeStatementTest, CommentMarkersInsideLiteralsArePreserved) {
  EXPECT_EQ(QueryCache::NormalizeStatement("SELECT '--x' FROM t"),
            "select '--x' from t");
  EXPECT_EQ(QueryCache::NormalizeStatement("SELECT '/* x */' FROM t"),
            "select '/* x */' from t");
}

TEST(NormalizeStatementTest, StripsExplainAnalyzePrefix) {
  const std::string base = QueryCache::NormalizeStatement("SELECT * FROM t");
  EXPECT_EQ(QueryCache::NormalizeStatement("EXPLAIN SELECT * FROM t"), base);
  EXPECT_EQ(QueryCache::NormalizeStatement("EXPLAIN ANALYZE  SELECT * FROM t"),
            base);
}

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

TEST(QueryCacheTest, PlanHitsOnlyAtItsCatalogVersion) {
  QueryCache cache;
  auto plan = std::make_shared<QueryCache::StatementPlan>();
  plan->catalog_version = 3;
  plan->options_fingerprint = 42;
  cache.StorePlan("select * from t", plan);

  EXPECT_NE(cache.LookupPlan("select * from t", 3, 42), nullptr);
  // Register/Drop between runs bumps the version: the entry must miss.
  EXPECT_EQ(cache.LookupPlan("select * from t", 4, 42), nullptr);
  // Changed options must miss too.
  EXPECT_EQ(cache.LookupPlan("select * from t", 3, 43), nullptr);
  EXPECT_EQ(cache.counters().plan_hits, 1);
  EXPECT_EQ(cache.counters().plan_misses, 2);
}

QueryCache::StatementPlanPtr PlanReading(QueryCache::TableSnapshot tables,
                                         uint64_t version,
                                         uint64_t fingerprint = 42) {
  auto plan = std::make_shared<QueryCache::StatementPlan>();
  plan->catalog_version = version;
  plan->options_fingerprint = fingerprint;
  plan->base_tables = std::move(tables);
  plan->tables_known = true;
  return plan;
}

TEST(QueryCacheTest, IdentitySnapshotHitsAcrossVersionBumps) {
  // A plan with an attributed read set hits for any caller whose current
  // snapshot matches — mutations of *other* tables bumped the version but
  // changed none of this plan's relations.
  QueryCache cache;
  const QueryCache::TableSnapshot snap = {{"a", 11}, {"b", 12}};
  cache.StorePlan("q", PlanReading(snap, /*version=*/3));
  EXPECT_NE(cache.LookupPlan("q", 3, 42, &snap), nullptr);
  EXPECT_NE(cache.LookupPlan("q", 9, 42, &snap), nullptr);  // version moved on
  // A different identity for either table must miss (the relation was
  // replaced, or the caller is a different catalog sharing the cache).
  const QueryCache::TableSnapshot replaced = {{"a", 11}, {"b", 99}};
  EXPECT_EQ(cache.LookupPlan("q", 9, 42, &replaced), nullptr);
  // The options fingerprint still gates identity hits.
  EXPECT_EQ(cache.LookupPlan("q", 3, 43, &snap), nullptr);
  // A caller without a snapshot falls back to exact-version matching.
  EXPECT_NE(cache.LookupPlan("q", 3, 42), nullptr);
  EXPECT_EQ(cache.LookupPlan("q", 9, 42), nullptr);
}

TEST(QueryCacheTest, InvalidatePlansForTablesEvictsOnlyIntersectingPlans) {
  QueryCache cache;
  cache.StorePlan("qa", PlanReading({{"a", 1}}, 5));
  cache.StorePlan("qb", PlanReading({{"b", 2}}, 5));
  cache.StorePlan("qab", PlanReading({{"a", 1}, {"b", 2}}, 5));
  ASSERT_EQ(cache.plan_entries(), 3u);

  // Mutating `a` evicts exactly the plans reading `a`; the counter stays
  // precise (two evictions, not three).
  cache.InvalidatePlansForTables({"a"}, /*current_version=*/6);
  EXPECT_EQ(cache.plan_entries(), 1u);
  EXPECT_EQ(cache.counters().plan_invalidations, 2);
  const QueryCache::TableSnapshot snap_b = {{"b", 2}};
  EXPECT_NE(cache.LookupPlan("qb", 6, 42, &snap_b), nullptr);

  // Mutating an unrelated table costs nothing further.
  cache.InvalidatePlansForTables({"c"}, 7);
  EXPECT_EQ(cache.plan_entries(), 1u);
  EXPECT_EQ(cache.counters().plan_invalidations, 2);
}

TEST(QueryCacheTest, InvalidatePlansForTablesVersionBackstopsUnattributed) {
  // Entries without an attributed read set cannot be matched by name: any
  // mutation strands them at their old version, and the sweep drops them.
  QueryCache cache;
  auto unattributed = std::make_shared<QueryCache::StatementPlan>();
  unattributed->catalog_version = 5;
  unattributed->options_fingerprint = 42;
  cache.StorePlan("qu", unattributed);
  cache.StorePlan("qb", PlanReading({{"b", 2}}, 5));
  cache.InvalidatePlansForTables({"a"}, 6);
  EXPECT_EQ(cache.plan_entries(), 1u);  // only the attributed plan survives
  EXPECT_EQ(cache.counters().plan_invalidations, 1);
  const QueryCache::TableSnapshot snap_b = {{"b", 2}};
  EXPECT_NE(cache.LookupPlan("qb", 6, 42, &snap_b), nullptr);
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

TEST(QueryCacheTest, ValidationVariantIsPartOfThePreparedKey) {
  // A prepared argument computed with validate_keys=false must not satisfy
  // a later context that requires validation: the lax entry skipped the
  // key-uniqueness check, and serving it would mask the Invalid error.
  const Relation dup =
      Relation::Make(Schema::Make({{"id", DataType::kInt64},
                                   {"a", DataType::kDouble}})
                         .ValueOrDie(),
                     {MakeInt64Bat({1, 1}), MakeDoubleBat({2.0, 3.0})}, "dup")
          .ValueOrDie();
  auto shared = std::make_shared<QueryCache>();
  RmaOptions lax;
  lax.validate_keys = false;
  ExecContext trusting(lax, shared);
  ASSERT_OK(RmaUnary(&trusting, MatrixOp::kQqr, dup, {"id"}).status());

  ExecContext strict(RmaOptions{}, shared);  // validate_keys = true
  const auto checked = RmaUnary(&strict, MatrixOp::kQqr, dup, {"id"});
  EXPECT_TRUE(checked.status().IsInvalid())
      << "duplicate keys must be rejected, not served from the lax entry: "
      << checked.status().ToString();
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

  RmaOptions uncached = opts;
  uncached.enable_prepared_cache = false;
  ExecContext cold(uncached);
  ASSERT_OK_AND_ASSIGN(
      const Relation add_ref,
      RmaBinary(&cold, MatrixOp::kAdd, r, {"id"}, s, {"id2"}));
  ASSERT_OK_AND_ASSIGN(const Relation qqr_ref,
                       RmaUnary(&cold, MatrixOp::kQqr, r, {"id"}));
  ASSERT_OK_AND_ASSIGN(
      const Relation sub_ref,
      RmaBinary(&cold, MatrixOp::kSub, r, {"id"}, s, {"id2"}));
  EXPECT_TRUE(testing::BitIdentical(add, add_ref));
  EXPECT_TRUE(testing::BitIdentical(qqr, qqr_ref));
  EXPECT_TRUE(testing::BitIdentical(sub, sub_ref));
  // Without the cache every op prepares, and gathers, its own argument.
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

// --- in-flight plan dedupe ----------------------------------------------------

TEST(PlanDedupeTest, FirstAcquirerLeadsThenWaitersBorrow) {
  QueryCache cache;
  const std::string key = "select * from t";
  QueryCache::PlanTicket first = cache.AcquirePlan(key, 3, 42);
  EXPECT_TRUE(first.leader);
  EXPECT_EQ(first.plan, nullptr);

  // A concurrent identical statement blocks until the leader publishes.
  std::thread waiter([&] {
    QueryCache::PlanTicket t = cache.AcquirePlan(key, 3, 42);
    EXPECT_FALSE(t.leader);
    EXPECT_TRUE(t.borrowed);
    ASSERT_NE(t.plan, nullptr);
    EXPECT_EQ(t.plan->catalog_version, 3u);
  });
  // The wait counter bumps right before the waiter blocks; publishing only
  // after observing it makes the borrow path deterministic.
  while (cache.counters().plan_dedup_waits == 0) std::this_thread::yield();
  auto plan = std::make_shared<QueryCache::StatementPlan>();
  plan->catalog_version = 3;
  plan->options_fingerprint = 42;
  cache.PublishPlan(key, plan);
  waiter.join();

  // After publication the entry is a normal cache hit.
  QueryCache::PlanTicket later = cache.AcquirePlan(key, 3, 42);
  EXPECT_FALSE(later.leader);
  EXPECT_FALSE(later.borrowed);
  EXPECT_NE(later.plan, nullptr);

  const QueryCache::Counters c = cache.counters();
  EXPECT_EQ(c.plan_misses, 1);      // only the leader planned
  EXPECT_EQ(c.plan_dedup_waits, 1);
  EXPECT_EQ(c.plan_hits, 2);        // the borrower and the later hit
}

TEST(PlanDedupeTest, AbandonedLeaderHandsOffToAWaiter) {
  QueryCache cache;
  const std::string key = "select * from broken";
  QueryCache::PlanTicket first = cache.AcquirePlan(key, 1, 7);
  ASSERT_TRUE(first.leader);

  std::thread waiter([&] {
    // Wakes empty-handed when the leader abandons, retries, and is elected
    // the new leader.
    QueryCache::PlanTicket t = cache.AcquirePlan(key, 1, 7);
    EXPECT_TRUE(t.leader);
    EXPECT_EQ(t.plan, nullptr);
    cache.AbandonPlan(key);  // resolve its own leadership for the test
  });
  cache.AbandonPlan(key);
  waiter.join();
  EXPECT_EQ(cache.plan_entries(), 0u);  // nothing was ever stored
}

TEST(PlanDedupeTest, WaiterWithMatchingSnapshotBorrowsAcrossVersions) {
  // A leader and a waiter at different catalog versions are compatible as
  // long as their identity snapshots match: the versions diverged on a
  // table neither statement reads.
  QueryCache cache;
  const std::string key = "select * from t";
  const QueryCache::TableSnapshot snap = {{"t", 7}};
  QueryCache::PlanTicket leader = cache.AcquirePlan(key, 3, 42, &snap);
  ASSERT_TRUE(leader.leader);

  std::thread waiter([&] {
    QueryCache::PlanTicket t = cache.AcquirePlan(key, 9, 42, &snap);
    EXPECT_FALSE(t.leader);
    ASSERT_NE(t.plan, nullptr);
  });
  while (cache.counters().plan_dedup_waits == 0) std::this_thread::yield();
  auto plan = std::make_shared<QueryCache::StatementPlan>();
  plan->catalog_version = 3;
  plan->options_fingerprint = 42;
  plan->base_tables = snap;
  plan->tables_known = true;
  cache.PublishPlan(key, std::move(plan));
  waiter.join();

  // A snapshot naming a different relation is incompatible with the stored
  // entry and plans independently.
  const QueryCache::TableSnapshot other = {{"t", 8}};
  QueryCache::PlanTicket t = cache.AcquirePlan(key, 9, 42, &other);
  EXPECT_TRUE(t.leader);  // entry cannot serve it; no leader in flight
  cache.AbandonPlan(key);
}

TEST(PlanDedupeTest, BorrowRevalidatesThePublishedPlan) {
  // The leader advertises its acquire-time snapshot, but a catalog
  // mutation landing mid-flight can make it bind (and publish) a plan
  // over a *different* relation. A waiter whose snapshot matched the
  // advertisement must re-validate the published plan and plan
  // independently instead of borrowing another catalog state's leaves.
  QueryCache cache;
  const std::string key = "select * from t";
  const QueryCache::TableSnapshot snap = {{"t", 7}};
  QueryCache::PlanTicket leader = cache.AcquirePlan(key, 3, 42, &snap);
  ASSERT_TRUE(leader.leader);

  std::thread waiter([&] {
    QueryCache::PlanTicket t = cache.AcquirePlan(key, 3, 42, &snap);
    EXPECT_FALSE(t.leader);
    EXPECT_FALSE(t.borrowed);
    EXPECT_EQ(t.plan, nullptr);  // rejected: the plan embeds relation 8
  });
  while (cache.counters().plan_dedup_waits == 0) std::this_thread::yield();
  auto plan = std::make_shared<QueryCache::StatementPlan>();
  plan->catalog_version = 3;
  plan->options_fingerprint = 42;
  plan->base_tables = {{"t", 8}};  // what the leader actually bound
  plan->tables_known = true;
  cache.PublishPlan(key, std::move(plan));
  waiter.join();
}

TEST(PlanDedupeTest, IncompatibleInflightLeaderDoesNotBlock) {
  QueryCache cache;
  const std::string key = "select * from t";
  QueryCache::PlanTicket leader = cache.AcquirePlan(key, 1, 7);
  ASSERT_TRUE(leader.leader);
  // Same text, different catalog version: the leader's plan could never
  // serve this statement, so it must not wait — it plans independently.
  QueryCache::PlanTicket other = cache.AcquirePlan(key, 2, 7);
  EXPECT_FALSE(other.leader);
  EXPECT_FALSE(other.borrowed);
  EXPECT_EQ(other.plan, nullptr);
  cache.AbandonPlan(key);
}

TEST(PlanDedupeTest, ManyConcurrentAcquirersPlanExactlyOnce) {
  QueryCache cache;
  const std::string key = "select * from hot";
  constexpr int kThreads = 8;
  std::atomic<int> leaders{0};
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      QueryCache::PlanTicket t = cache.AcquirePlan(key, 5, 9);
      if (t.leader) {
        ++leaders;
        auto plan = std::make_shared<QueryCache::StatementPlan>();
        plan->catalog_version = 5;
        plan->options_fingerprint = 9;
        cache.PublishPlan(key, std::move(plan));
      } else if (t.plan != nullptr) {
        ++served;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(served.load(), kThreads - 1);
  EXPECT_EQ(cache.counters().plan_misses, 1);
}

}  // namespace
}  // namespace rma
