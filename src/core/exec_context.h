#ifndef RMA_CORE_EXEC_CONTEXT_H_
#define RMA_CORE_EXEC_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/constructors.h"
#include "core/options.h"
#include "core/ops.h"
#include "core/planner.h"
#include "storage/relation.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rma {

class QueryCache;

/// One prepared argument of a relational matrix operation: the schema split,
/// the row order (sort permutation), and the owning relation handle. Owns a
/// Relation by value (shared column pointers — cheap), so cached instances
/// stay valid after the caller's relation goes out of scope.
///
/// Not copyable: a copy would carry the order-part memo of an argument whose
/// `perm` it may then change. Build variants from split, rows and rel.
struct PreparedArg {
  PreparedArg() = default;
  PreparedArg(const PreparedArg&) = delete;
  PreparedArg& operator=(const PreparedArg&) = delete;

  OrderSplit split;
  std::vector<int64_t> perm;  ///< empty => identity (rows already in order)
  int64_t rows = 0;
  Relation rel;

  bool identity() const { return perm.empty(); }
  int64_t app_cols() const { return static_cast<int64_t>(split.app_idx.size()); }

  /// Order-part column `i` of the result (gathered by perm when needed).
  /// The gather of a malloc-backed (StableData) column runs once per
  /// argument: every later call — any op, statement, context or thread that
  /// reaches this argument through the prepared cache — returns the same
  /// immutable column, freed with the argument. Paged columns are gathered
  /// per call, so a cached argument never holds memory outside the buffer
  /// pool's budget.
  BatPtr OrderColumn(size_t i) const;

  /// Application column `j` reordered, kept as a BAT (sparse preserved on
  /// the identity path).
  BatPtr AppColumnBat(size_t j) const;

  /// Application column `j` as a dense double vector.
  std::vector<double> AppColumnDense(size_t j) const;

  int64_t AppBytes() const {
    return rows * app_cols() * static_cast<int64_t>(sizeof(double));
  }

  /// Shape summary for the planner (rows, app width, sparse density).
  ArgShape Shape() const;

 private:
  /// Gathered order-part columns, filled lazily by OrderColumn. A cached
  /// argument is shared across threads; a second caller waits on the mutex
  /// for the first gather instead of repeating it.
  mutable Mutex order_mu_;
  mutable std::vector<BatPtr> order_memo_ RMA_GUARDED_BY(order_mu_);
};

using PreparedArgPtr = std::shared_ptr<const PreparedArg>;

/// Per-pipeline execution state threaded through the staged executor:
///
///  - the options (kernel/sort policies, budgets),
///  - the worker-thread budget installed around kernel stages,
///  - per-stage wall-clock aggregation (RmaStats): per-op (the options'
///    stats sink and the op_stats() log), and cumulative across the context,
///  - a **borrowed** prepared-argument cache: the context delegates to a
///    QueryCache — the database-level cache when one was attached (so sort
///    permutations, and the order parts gathered through them, are shared
///    across statements and contexts), or a private per-context cache
///    otherwise (the pre-promotion behavior),
///  - the physical plans of every executed operation (introspection, tests,
///    EXPLAIN ANALYZE).
///
/// Thread-safety: stats aggregation, plan recording, and the cache counters
/// are mutex-guarded, and each op bracket (BeginOp/EndOp) lives in
/// thread-local state, so concurrent statements of one batch may share one
/// context. An operation must still begin and end on the same thread
/// (RmaUnary/RmaBinary run each op on one thread), and mutable_options()
/// must not be used while other threads execute on the context. plans() and
/// op_stats() are appended together at op commit, so they stay aligned; read
/// them after the concurrent work has joined.
class ExecContext {
 public:
  ExecContext();
  explicit ExecContext(const RmaOptions& opts);
  /// Borrows `cache` (shared, database-level) instead of creating a private
  /// one. Passing null falls back to a private cache.
  ExecContext(const RmaOptions& opts, std::shared_ptr<QueryCache> cache);

  const RmaOptions& options() const { return opts_; }
  RmaOptions& mutable_options() { return opts_; }

  /// The cache this context borrows from (never null).
  const std::shared_ptr<QueryCache>& cache() const { return cache_; }

  /// The budget kernel stages should install: the minimum of the positive
  /// caps among the ambient ScopedThreadBudget (a batch or server admission
  /// share) and the options' max_threads. 0 = no cap (hardware concurrency).
  int effective_thread_budget() const;

  /// Records `seconds` against a stage: the per-op sink (options().stats,
  /// when set), the open per-op log entry, and the context-wide totals.
  void RecordStage(Stage stage, double seconds);

  /// Attaches per-shard wall times (indexed by shard id) to the operation
  /// this thread has open — and to the options' stats sink. Called by the
  /// sharded executor from the bracket-owning thread after the shard join;
  /// purely diagnostic (EXPLAIN ANALYZE), never folded into totals().
  void RecordShardTimes(const std::vector<double>& shard_walls);

  /// Cumulative per-stage totals across all operations run on this context.
  /// The returned reference is only stable once concurrent work has joined
  /// (see the class comment); the lock bracket inside gives that quiescent
  /// reader an acquire edge against the last writer.
  const RmaStats& totals() const {
    MutexLock lock(mu_);
    return totals_;
  }

  /// Records the physical plan of the operation this thread has open (it is
  /// published to plans() when the op commits).
  void RecordPlan(const OpPlan& plan);
  /// Quiescent-read accessor; see totals().
  const std::vector<OpPlan>& plans() const {
    MutexLock lock(mu_);
    return plans_;
  }

  /// Brackets one relational matrix operation for the per-op stats log
  /// (EXPLAIN ANALYZE). Stages recorded between BeginOp and EndOp accrue to
  /// the op entry; EndOp(true) publishes {plan, stats} to plans()/op_stats()
  /// as one aligned pair. EndOp(false) — the op failed — drops the entry.
  /// Prepared arguments the op stored stay cached: each depends only on an
  /// immutable relation and an order schema, so it is the entry a
  /// successful op would store.
  void BeginOp();
  void EndOp(bool commit);
  /// Quiescent-read accessor; see totals().
  const std::vector<RmaStats>& op_stats() const {
    MutexLock lock(mu_);
    return op_stats_;
  }

  /// Plan-cache provenance of the last statement run on this context,
  /// recorded by the SQL layer for every statement (kNotConsulted for one
  /// that does not consult the cache, such as DROP TABLE or plain EXPLAIN).
  enum class PlanCacheOutcome { kNotConsulted, kHit, kMiss };
  void RecordPlanCache(PlanCacheOutcome outcome);
  PlanCacheOutcome plan_cache_outcome() const;

  /// Buffer-pool activity attributed to the statement this context just ran:
  /// the SQL layer snapshots the store's pool counters around a statement
  /// and records the delta here (totals, stats sink, and the open op entry
  /// when one exists). All-zero deltas are dropped, so purely in-memory
  /// databases never touch the pool fields.
  void RecordPoolDelta(int64_t hits, int64_t misses, int64_t evictions,
                       int64_t writebacks);

  /// Prepared-argument cache, borrowed from cache(). Returns the cached
  /// prepared argument for (r's identity, order, avoid_sort) or null.
  /// `avoid_sort` distinguishes the identity-permutation variant produced
  /// under SortPolicy::kOptimized.
  PreparedArgPtr LookupPrepared(const Relation& r,
                                const std::vector<std::string>& order,
                                bool avoid_sort);
  void StorePrepared(const Relation& r, const std::vector<std::string>& order,
                     bool avoid_sort, PreparedArgPtr prepared);

  /// Relative-alignment variant (Sec. 8.1): s's rows aligned to r's physical
  /// key order. The cached permutation depends on both relations.
  PreparedArgPtr LookupAligned(const Relation& s,
                               const std::vector<std::string>& order_s,
                               const Relation& r,
                               const std::vector<std::string>& order_r);
  void StoreAligned(const Relation& s, const std::vector<std::string>& order_s,
                    const Relation& r, const std::vector<std::string>& order_r,
                    PreparedArgPtr prepared);

 private:
  static std::string PreparedKey(const Relation& r,
                                 const std::vector<std::string>& order,
                                 bool avoid_sort);
  static std::string AlignedKey(const Relation& s,
                                const std::vector<std::string>& order_s,
                                const Relation& r,
                                const std::vector<std::string>& order_r);

  void CountPrepared(bool hit);
  void CountEvictions(int64_t n);
  void StoreByKey(std::string key, std::vector<uint64_t> relations,
                  PreparedArgPtr prepared);

  /// opts_ is written only during construction / via mutable_options()
  /// (whose contract forbids concurrent execution), so reads need no lock;
  /// writes *through* the opts_.stats sink pointer are guarded by mu_
  /// (RMA_PT_GUARDED_BY cannot attach to a field of an options struct, so
  /// that part of the invariant stays prose).
  RmaOptions opts_;
  std::shared_ptr<QueryCache> cache_;

  /// Guards totals_, plans_, op_stats_, the plan-cache outcome, and writes
  /// to the opts_.stats sink.
  mutable Mutex mu_;
  RmaStats totals_ RMA_GUARDED_BY(mu_);
  std::vector<OpPlan> plans_ RMA_GUARDED_BY(mu_);
  std::vector<RmaStats> op_stats_ RMA_GUARDED_BY(mu_);
  PlanCacheOutcome plan_outcome_ RMA_GUARDED_BY(mu_) =
      PlanCacheOutcome::kNotConsulted;
};

/// RAII bracket for ExecContext::BeginOp/EndOp. Destruction without
/// Commit() counts as failure: the op's plan and stats entry are dropped
/// (see ExecContext::EndOp).
class ScopedOpStats {
 public:
  explicit ScopedOpStats(ExecContext* ctx) : ctx_(ctx) { ctx_->BeginOp(); }
  ~ScopedOpStats() { ctx_->EndOp(committed_); }
  void Commit() { committed_ = true; }
  ScopedOpStats(const ScopedOpStats&) = delete;
  ScopedOpStats& operator=(const ScopedOpStats&) = delete;

 private:
  ExecContext* ctx_;
  bool committed_ = false;
};

}  // namespace rma

#endif  // RMA_CORE_EXEC_CONTEXT_H_
