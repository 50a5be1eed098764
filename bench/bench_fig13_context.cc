// Figure 13: the cost of maintaining contextual information.
//
// Relations with a single application column and an increasing number of
// order columns; `add` and `qqr` with and without the sort-avoidance
// optimizations of Sec. 8.1. Paper sizes: (a) 100K tuples x 200..1000 order
// attributes, (b) 1M x 20..100; scaled down by default (RMA_BENCH_SCALE
// raises them).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/exec_context.h"
#include "core/query_cache.h"
#include "core/rma.h"
#include "rel/operators.h"
#include "sql/database.h"
#include "workload/synthetic.h"

namespace rma::bench {
namespace {

Relation RenameOrderCols(const Relation& r, int order_cols) {
  std::vector<std::string> names;
  for (int c = 0; c < order_cols; ++c) names.push_back("p" + std::to_string(c));
  names.push_back("val");
  return rel::RenameAll(r, names).ValueOrDie();
}

/// With --json, records one entry per width and variant: name
/// `<id>/<op>/<policy>/<width>`, op `add` or `qqr`, kernel `sort=always` or
/// `sort=optimized`, shape `<tuples>x<order attributes>`.
void RunSubfigure(const char* id, const char* title, int64_t tuples,
                  const std::vector<int>& order_cols) {
  PaperTable table(title, {"#order attrs", "add", "add relative-sort", "qqr",
                           "qqr w/o sort"});
  for (int k : order_cols) {
    const Relation r = workload::ManyOrderColumnsRelation(tuples, k, 7, 11, "r");
    const Relation s = RenameOrderCols(
        workload::ManyOrderColumnsRelation(tuples, k, 7, 13, "s"), k);
    std::vector<std::string> order_r;
    for (int c = 0; c < k; ++c) order_r.push_back("o" + std::to_string(c));
    std::vector<std::string> order_s;
    for (int c = 0; c < k; ++c) order_s.push_back("p" + std::to_string(c));

    RmaOptions plain;
    plain.sort = SortPolicy::kAlways;
    RmaOptions opt;
    opt.sort = SortPolicy::kOptimized;

    const double add_plain = TimeIt(
        [&] { Add(r, order_r, s, order_s, plain).ValueOrDie(); });
    const double add_opt = TimeIt(
        [&] { Add(r, order_r, s, order_s, opt).ValueOrDie(); });
    const double qqr_plain = TimeIt([&] { Qqr(r, order_r, plain).ValueOrDie(); });
    const double qqr_opt = TimeIt([&] { Qqr(r, order_r, opt).ValueOrDie(); });
    table.AddRow({std::to_string(k), Secs(add_plain), Secs(add_opt),
                  Secs(qqr_plain), Secs(qqr_opt)});
    const std::string shape = std::to_string(tuples) + "x" + std::to_string(k);
    const struct {
      const char* op;
      const char* policy;
      double secs;
    } runs[] = {
        {"add", "sort=always", add_plain},
        {"add", "sort=optimized", add_opt},
        {"qqr", "sort=always", qqr_plain},
        {"qqr", "sort=optimized", qqr_opt},
    };
    for (const auto& run : runs) {
      BenchJson::Record(std::string(id) + "/" + run.op + "/" + run.policy +
                            "/" + std::to_string(k),
                        run.op, shape, run.secs, 0, run.policy);
    }
  }
  table.AddNote("expected shape (paper Fig. 13): unoptimized cost grows with "
                "the order-schema width; the optimized variants stay flat");
  table.Print();
}

/// Back-to-back operations over the same relation on a shared ExecContext:
/// the prepared-argument cache serves the second operation's sort
/// permutation, eliminating its sort stage entirely.
void RunPreparedCache(int64_t tuples, const std::vector<int>& order_cols) {
  PaperTable table("Prepared-argument cache: qqr then rqr over one relation "
                   "(shared execution context)",
                   {"#order attrs", "1st op sort", "2nd op sort (cached)",
                    "2nd op sort (no cache)"});
  for (int k : order_cols) {
    const Relation r = workload::ManyOrderColumnsRelation(tuples, k, 7, 11, "r");
    std::vector<std::string> order;
    for (int c = 0; c < k; ++c) order.push_back("o" + std::to_string(c));

    ExecContext shared{RmaOptions{}};
    RmaStats first;
    shared.mutable_options().stats = &first;
    RmaUnary(&shared, MatrixOp::kQqr, r, order).ValueOrDie();
    RmaStats second;
    shared.mutable_options().stats = &second;
    RmaUnary(&shared, MatrixOp::kRqr, r, order).ValueOrDie();

    // Without the cache: the second operation runs on a fresh context,
    // whose private cache holds nothing from the first.
    ExecContext cold{RmaOptions{}};
    RmaStats cold_second;
    cold.mutable_options().stats = &cold_second;
    RmaUnary(&cold, MatrixOp::kRqr, r, order).ValueOrDie();

    table.AddRow({std::to_string(k), Secs(first.sort_seconds),
                  Secs(second.sort_seconds),
                  Secs(cold_second.sort_seconds)});
  }
  table.AddNote("the shared context reuses the sort permutation: the second "
                "operation's sort stage drops to zero");
  table.Print();
}

/// Database-level query cache: the same SQL statement issued repeatedly
/// against one Database. The first run parses, plans, and sorts; the
/// following runs hit the plan cache (skipping binding/rewriting/planning)
/// and the prepared-argument cache (skipping the order-schema sort).
void RunQueryCacheEffectiveness(int64_t tuples,
                                const std::vector<int>& order_cols) {
  PaperTable table("Query-cache effectiveness: repeated identical SQL "
                   "statement (database-level cache)",
                   {"#order attrs", "1st run (cold)", "2nd run (warm)",
                    "speedup", "cold morph", "warm morph", "plan hit/miss",
                    "prep hit/miss/evict"});
  for (int k : order_cols) {
    sql::Database db;
    db.rma_options.max_threads = 1;
    db.Register("r", workload::ManyOrderColumnsRelation(tuples, k, 7, 11,
                                                        "r"))
        .Abort();
    std::string by;
    for (int c = 0; c < k; ++c) by += (c > 0 ? ", o" : "o") + std::to_string(c);
    const std::string q = "SELECT * FROM QQR(r BY (" + by + "))";
    RmaStats cold_stats;
    db.rma_options.stats = &cold_stats;
    const double cold = TimeIt([&] { db.Query(q).ValueOrDie(); });
    RmaStats warm_stats;
    db.rma_options.stats = &warm_stats;
    const double warm = TimeIt([&] { db.Query(q).ValueOrDie(); });
    db.rma_options.stats = nullptr;
    const QueryCache::Counters c = db.query_cache()->counters();
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  warm > 0 ? cold / warm : 0.0);
    table.AddRow({std::to_string(k), Secs(cold), Secs(warm), speedup,
                  Secs(cold_stats.morph_seconds),
                  Secs(warm_stats.morph_seconds),
                  std::to_string(c.plan_hits) + "/" +
                      std::to_string(c.plan_misses),
                  std::to_string(c.prepared_hits) + "/" +
                      std::to_string(c.prepared_misses) + "/" +
                      std::to_string(c.evictions)});
  }
  table.AddNote("the warm run hits the plan cache and reuses the sort "
                "permutation: wider order schemas widen the gap because the "
                "avoided sort dominates");
  table.AddNote("the warm run also reuses the order part the cold run "
                "gathered, so warm morph stays flat across widths");
  table.Print();
}

}  // namespace
}  // namespace rma::bench

int main(int argc, char** argv) {
  using namespace rma::bench;
  BenchJson::Init("bench_fig13_context", &argc, argv);
  RunSubfigure("fig13a",
               "Figure 13a: contextual information, 20K tuples "
               "(paper: 100K tuples, 200..1000 attrs)",
               Scaled(20000), {40, 80, 120, 160, 200});
  RunSubfigure("fig13b",
               "Figure 13b: contextual information, 200K tuples "
               "(paper: 1M tuples, 20..100 attrs)",
               Scaled(200000), {4, 8, 12, 16, 20});
  RunPreparedCache(Scaled(20000), {40, 120, 200});
  RunQueryCacheEffectiveness(Scaled(20000), {40, 120, 200});
  return 0;
}
