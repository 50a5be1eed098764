#ifndef RMA_CORE_QUERY_CACHE_H_
#define RMA_CORE_QUERY_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec_context.h"
#include "core/options.h"
#include "core/planner.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rma {

/// Database-level query cache shared by every statement (and every
/// ExecContext) of one catalog. It amortizes the two expensive per-statement
/// derivations across repeated queries:
///
///  - **statement plans**: the rewritten relational-matrix expression trees
///    of a statement, keyed on the plan key the SQL parser builds from the
///    statement's tokens (sql::Statement::plan_key). A repeated identical
///    statement skips binding and the cross-algebra rewriter; each
///    operation still plans its kernel and shard count when it dispatches
///    (PlanOp in RmaUnary/RmaBinary), hit or miss.
///  - **prepared arguments**: order-schema sort permutations and relative-
///    alignment permutations, keyed on the stable relation identity token
///    (storage/relation.h) plus the order schema. A repeated operation over
///    the same relation skips the sort — the paper's single biggest cost for
///    wide order schemas (Fig. 13).
///
/// Invalidation is per-table, anchored on relation identities: a statement
/// plan records the base tables it reads as (lower-cased name, relation
/// identity) pairs captured when the statement bound them, and hits only
/// while the caller's current snapshot matches exactly — so a catalog
/// mutation of table A never costs cached plans that read only table B,
/// and a copied Database sharing this cache can never borrow a plan whose
/// leaves embed the other catalog's relations (identities are process-wide
/// unique and never recycled). The owning catalog (sql::Database) passes
/// each written table name to InvalidatePlansForTables on Register/Drop/
/// CREATE TABLE AS, which eagerly evicts the plans reading it: a stale plan
/// could no longer hit, but it would pin the relations it embeds. Prepared
/// entries are keyed on identity tokens that new relations can never
/// collide with, so they are invalidated precisely via EvictRelation when
/// the catalog replaces or drops a relation.
///
/// All methods are thread-safe (one mutex); contexts of concurrent queries
/// may share one cache.
class QueryCache {
 public:
  /// One cached FROM-clause relational-matrix operation of a statement: the
  /// rewritten expression with leaf relations bound (re-evaluation runs it
  /// directly) plus the fired rewrite rules (EXPLAIN ANALYZE provenance).
  struct CachedOp {
    RmaExprPtr rewritten;
    std::vector<std::string> rewrites;
  };

  /// Identity snapshot of the base tables a statement reads: (lower-cased
  /// table name, Relation::identity() when the statement captured it),
  /// sorted by name, de-duplicated. Two snapshots are interchangeable iff
  /// they compare equal — same tables, same relation objects.
  using TableSnapshot = std::vector<std::pair<std::string, uint64_t>>;

  /// The cached plan of one whole statement, in FROM-clause traversal order.
  struct StatementPlan {
    std::vector<CachedOp> ops;
    uint64_t options_fingerprint = 0;
    /// The read-set snapshot the statement was bound against: the plan
    /// hits for any caller whose current snapshot is equal, however often
    /// other tables changed.
    TableSnapshot base_tables;
  };
  using StatementPlanPtr = std::shared_ptr<const StatementPlan>;

  /// Cumulative effectiveness counters (also mirrored into RmaStats sinks by
  /// the contexts that use the cache).
  struct Counters {
    int64_t plan_hits = 0;
    int64_t plan_misses = 0;
    int64_t plan_invalidations = 0;  ///< entries dropped by catalog mutation
    int64_t prepared_hits = 0;
    int64_t prepared_misses = 0;
    int64_t evictions = 0;           ///< entries dropped for capacity/eviction
  };

  /// Fingerprint of every RmaOptions field that affects plan content. A
  /// changed kernel/sort policy, budget, shard limit or rewrite toggle must
  /// miss, so a cached plan only serves callers that would plan it alike.
  static uint64_t OptionsFingerprint(const RmaOptions& opts);

  // --- statement plans -------------------------------------------------------

  /// Returns the cached plan for `key` iff it can serve the caller:
  /// its options fingerprint equals `options_fingerprint` and its identity
  /// snapshot equals `tables`, the caller's current read-set snapshot. Null
  /// (a miss) otherwise. Each call counts one plan hit or miss.
  StatementPlanPtr LookupPlan(const std::string& key,
                              uint64_t options_fingerprint,
                              const TableSnapshot& tables);

  /// Stores (or replaces) the plan for `key`, evicting the least recently
  /// used entry when the cache is full.
  void StorePlan(const std::string& key, StatementPlanPtr plan);

  /// Catalog mutation wrote `written` (lower-cased table names): eagerly
  /// drops the plan entries whose recorded read set intersects it. Entries
  /// reading only other tables survive and keep hitting.
  void InvalidatePlansForTables(const std::vector<std::string>& written);

  // --- prepared arguments ----------------------------------------------------

  /// `relations` lists the identity tokens of every relation the prepared
  /// argument was derived from (one for a sort, two for an alignment), so
  /// EvictRelation can invalidate precisely. Returns the number of entries
  /// evicted to make room.
  int64_t StorePrepared(const std::string& key,
                        std::vector<uint64_t> relations, PreparedArgPtr arg);

  PreparedArgPtr LookupPrepared(const std::string& key);

  /// Drops every prepared argument derived from the relation with this
  /// identity token (the catalog is replacing or dropping it).
  void EvictRelation(uint64_t relation_identity);

  // --- introspection ---------------------------------------------------------

  Counters counters() const;
  size_t plan_entries() const;
  size_t prepared_entries() const;

 private:
  struct PreparedEntry {
    PreparedArgPtr arg;
    std::vector<uint64_t> relations;
    uint64_t last_used = 0;
  };
  struct PlanEntry {
    StatementPlanPtr plan;
    uint64_t last_used = 0;
  };
  int64_t EvictPreparedLruLocked() RMA_REQUIRES(mu_);

  mutable Mutex mu_;
  std::unordered_map<std::string, PlanEntry> plans_ RMA_GUARDED_BY(mu_);
  std::unordered_map<std::string, PreparedEntry> prepared_
      RMA_GUARDED_BY(mu_);
  uint64_t tick_ RMA_GUARDED_BY(mu_) = 0;
  Counters counters_ RMA_GUARDED_BY(mu_);
};

using QueryCachePtr = std::shared_ptr<QueryCache>;

}  // namespace rma

#endif  // RMA_CORE_QUERY_CACHE_H_
