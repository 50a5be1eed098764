#ifndef RMA_CORE_OPTIONS_H_
#define RMA_CORE_OPTIONS_H_

#include <cstdint>
#include <vector>

#include "util/result.h"

namespace rma {

/// Where the base result of a relational matrix operation is computed
/// (Sec. 7.3).
enum class KernelPolicy : int {
  /// Cost-based selection (core/planner.h): the planner weighs the
  /// column-at-a-time cost (operation-class penalty, sparse-column density)
  /// against gather + dense kernel + scatter for the operation's shape.
  /// Element-wise operations stay on BATs; cpd and decompositions are
  /// delegated to the contiguous kernels; `contiguous_budget_bytes` stays a
  /// hard ceiling — past it the no-copy BAT algorithms take over whenever
  /// one exists.
  kAuto = 0,
  /// Force the no-copy column-at-a-time algorithms (RMA+BAT).
  kBat = 1,
  /// Force gather-to-contiguous + dense kernels + scatter-back (RMA+MKL).
  kContiguous = 2,
};

/// Whether the engine applies the sort-avoidance optimizations of Sec. 8.1.
enum class SortPolicy : int {
  kAlways = 0,     ///< sort every argument by its order schema
  kOptimized = 1,  ///< skip/relax sorting where the result is unaffected
};

/// Wall-clock breakdown of one relational matrix operation, filled when
/// RmaOptions::stats is set. Backs the Fig. 13/14 experiments.
struct RmaStats {
  double sort_seconds = 0;           ///< order-schema sorting / key alignment
  double transform_in_seconds = 0;   ///< BATs -> contiguous array (gather)
  double compute_seconds = 0;        ///< the matrix kernel itself
  double transform_out_seconds = 0;  ///< base result -> BATs (scatter)
  double morph_seconds = 0;          ///< contextual-information handling
  double merge_seconds = 0;          ///< shard merge/reduce barrier

  /// Per-shard wall times of the sharded stage chain (gather+kernel+scatter),
  /// indexed by shard id; empty when the op ran unsharded. Diagnostic only:
  /// shard walls overlap in real time, so they are reported per op (EXPLAIN
  /// ANALYZE) but never folded into aggregate context totals.
  std::vector<double> shard_seconds;

  // Prepared-argument cache effectiveness (core/query_cache.h): sort-
  // permutation / alignment reuse, and the entries dropped to stay within
  // the capacity bound.
  int64_t prepared_cache_hits = 0;
  int64_t prepared_cache_misses = 0;
  int64_t prepared_cache_evictions = 0;

  // Buffer-pool activity attributed to this context's statements (zero for
  // purely in-memory databases). Recorded as statement-level deltas of the
  // store's pool counters (storage/buffer_pool.h).
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t pool_evictions = 0;
  int64_t pool_writebacks = 0;

  double TransformSeconds() const {
    return transform_in_seconds + transform_out_seconds;
  }
  double TotalSeconds() const {
    return sort_seconds + transform_in_seconds + compute_seconds +
           transform_out_seconds + morph_seconds + merge_seconds;
  }
};

/// Switch for the cross-algebra rewrites of `core/algebra.h` (the rule set
/// is listed there). They are applied by plan-level evaluators
/// (EvaluateExpression and the SQL executor); individual RmaUnary/RmaBinary
/// calls ignore them.
struct RewriteRules {
  bool enabled = true;
};

/// Per-call options for relational matrix operations.
struct RmaOptions {
  KernelPolicy kernel = KernelPolicy::kAuto;
  SortPolicy sort = SortPolicy::kAlways;

  /// Memory ceiling for the contiguous path: kAuto never gathers more than
  /// this many bytes when a column-at-a-time algorithm exists. Within the
  /// ceiling, the planner's cost model (core/planner.h) picks the kernel
  /// from the operation shape.
  int64_t contiguous_budget_bytes = int64_t{4} * 1024 * 1024 * 1024;

  /// Worker-thread budget for kernel stages (0 = hardware concurrency).
  /// Installed around kernel execution via ScopedThreadBudget so the whole
  /// matrix layer honours it.
  int max_threads = 0;

  /// Upper bound on row-range shards per operation (>= 1). The planner picks
  /// the actual count from modeled per-shard costs, capped by this, the
  /// effective thread budget, and `shard_min_rows`; 1 disables sharding.
  /// 0 is rejected by ValidateRmaOptions — "no shards" is not a meaningful
  /// request and silently treating it as 1 has masked config typos.
  int max_shards = 16;

  /// Minimum rows per shard (>= 1): an op is never split finer than this, so
  /// tiny inputs keep the single-DAG path regardless of `max_shards`.
  int64_t shard_min_rows = 4096;

  /// Optional timing sink (not owned). Writes are serialized per
  /// ExecContext; don't point two concurrently executing contexts at one
  /// sink (database-level aggregate counters live in QueryCache::Counters
  /// instead).
  RmaStats* stats = nullptr;

  /// Cross-algebra rewrites applied by plan-level evaluators.
  RewriteRules rewrites;
};

/// Rejects out-of-range option values with a descriptive Status instead of
/// letting them silently fall back downstream: max_shards/shard_min_rows of 0
/// (or negative), a negative max_threads, and a non-positive contiguous
/// budget are all configuration errors. Checked at
/// every RmaUnary/RmaBinary entry (and therefore by everything above them).
Status ValidateRmaOptions(const RmaOptions& opts);

}  // namespace rma

#endif  // RMA_CORE_OPTIONS_H_
