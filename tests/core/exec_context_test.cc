// Tests for ExecContext: what a failed or successful op leaves in the
// borrowed prepared-argument cache and the plan log, thread-safe stats
// aggregation when concurrent operations share one context, and concurrent
// readers of one cached argument's order part.
#include "core/exec_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/query_cache.h"
#include "core/rma.h"
#include "test_util.h"
#include "util/random.h"

namespace rma {
namespace {

using testing::RandomKeyedRelation;

// --- what an op leaves behind ------------------------------------------------

TEST(ExecContextTest, FailedOpRecordsNoPlanAndKeepsItsSort) {
  Rng rng(48);
  // 2 rows x 4 app cols: the sort succeeds and is stored, then the qr
  // row-count check fails. The op records no plan and no stats, but its
  // sort stays cached: it depends only on r and the order schema, so it is
  // the entry a successful op would store.
  const Relation r = RandomKeyedRelation(2, 4, &rng);
  ExecContext ctx{RmaOptions{}};
  EXPECT_FALSE(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).ok());
  EXPECT_EQ(ctx.plans().size(), 0u);
  EXPECT_EQ(ctx.op_stats().size(), 0u);
  EXPECT_EQ(ctx.cache()->prepared_entries(), 1u);
  // A following op over the same relation and order schema hits that sort.
  RmaStats stats;
  ctx.mutable_options().stats = &stats;
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kTra, r, {"id"}).status());
  EXPECT_EQ(stats.prepared_cache_hits, 1);
  EXPECT_EQ(stats.prepared_cache_misses, 0);
  EXPECT_EQ(ctx.cache()->prepared_entries(), 1u);
}

TEST(EvictOnErrorTest, SuccessfulOpKeepsPreparedEntry) {
  Rng rng(50);
  const Relation r = RandomKeyedRelation(40, 3, &rng);
  ExecContext ctx{RmaOptions{}};
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).status());
  EXPECT_EQ(ctx.cache()->prepared_entries(), 1u);
  ASSERT_EQ(ctx.plans().size(), 1u);
  ASSERT_EQ(ctx.op_stats().size(), 1u);
}

// --- thread-safe stats aggregation -------------------------------------------

TEST(ExecContextConcurrencyTest, ConcurrentOpsOnOneContextStayConsistent) {
  Rng rng(52);
  const int kThreads = 8;
  const int kOpsPerThread = 16;
  std::vector<Relation> rels;
  for (int t = 0; t < kThreads; ++t) {
    rels.push_back(RandomKeyedRelation(64, 3, &rng, -10.0, 10.0,
                                       "r" + std::to_string(t)));
  }
  ExecContext ctx{RmaOptions{}};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kOpsPerThread; ++k) {
        if (!RmaUnary(&ctx, MatrixOp::kQqr, rels[static_cast<size_t>(t)],
                      {"id"})
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const size_t total = static_cast<size_t>(kThreads) * kOpsPerThread;
  // Concurrent EndOp must neither lose nor duplicate entries, and the
  // plans/op_stats alignment must hold.
  EXPECT_EQ(ctx.plans().size(), total);
  EXPECT_EQ(ctx.op_stats().size(), total);
  // Every op performed exactly one prepare lookup.
  EXPECT_EQ(ctx.totals().prepared_cache_hits +
                ctx.totals().prepared_cache_misses,
            static_cast<int64_t>(total));
}

TEST(ExecContextConcurrencyTest, ConcurrentOpsShareOneOrderPartGather) {
  Rng rng(53);
  const Relation r = RandomKeyedRelation(4000, 3, &rng);
  auto shared = std::make_shared<QueryCache>();
  // rqr sorts r (the same prepared entry qqr uses under SortPolicy::kAlways)
  // but never reads its order part, so the four qqrs below race on the
  // entry's first order-part gather.
  {
    ExecContext primer(RmaOptions{}, shared);
    ASSERT_OK(RmaUnary(&primer, MatrixOp::kRqr, r, {"id"}).status());
  }
  const int kThreads = 4;
  std::vector<Relation> results(static_cast<size_t>(kThreads));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecContext ctx(RmaOptions{}, shared);  // one per session
      auto qqr = RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"});
      if (qqr.ok()) {
        results[static_cast<size_t>(t)] = std::move(*qqr);
      } else {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(shared->counters().prepared_hits, kThreads);
  for (const Relation& q : results) {
    EXPECT_EQ(q.column(0).get(), results[0].column(0).get());
    EXPECT_TRUE(testing::BitIdentical(q, results[0]));
  }
}

}  // namespace
}  // namespace rma
