#ifndef RMA_SQL_DATABASE_H_
#define RMA_SQL_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/query_cache.h"
#include "sql/ast.h"
#include "storage/paged_store.h"
#include "storage/relation.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rma::sql {

/// A named-relation catalog plus the SQL entry point.
///
/// Example (the paper's introduction):
///   Database db;
///   db.Register("rating", rating);
///   auto v = db.Query("SELECT * FROM INV(rating BY User)");
///
/// The database owns a QueryCache shared by every statement it executes:
/// statement plans are cached per plan key (sql::Statement::plan_key, built
/// from the statement's tokens) and prepared arguments (sort/alignment
/// permutations) per relation identity, so a repeated query skips binding,
/// rewriting and sorting (each operation still plans its kernel when it
/// dispatches). A cached plan
/// records the base tables it reads as an identity snapshot and hits only
/// while the catalog still maps each of them to the relation it embedded.
/// Catalog mutations (Register, Drop, CREATE TABLE AS) invalidate **per
/// table**: a mutation evicts only the plans touching the written table —
/// mutating A never costs plans that read only B.
///
/// Thread-safety: the catalog is guarded by a shared mutex, so concurrent
/// Query/Execute calls may interleave with Register/Drop from other threads
/// without corrupting state — every bound relation is an immutable snapshot
/// (shared immutable columns), and a plan entry only hits while the catalog
/// still maps each table the plan reads to the exact relation it embedded.
/// The isolation level is read-committed, not snapshot: a statement binds
/// each table reference with its own lookup, so a mutation landing
/// mid-statement can let one statement observe both the old and the new
/// catalog (e.g. a self-join bound around a concurrent Register); a
/// statement that bound one table as two relations does not store its plan.
/// `rma_options` must not be mutated while statements execute concurrently.
class Database {
 public:
  Database() = default;
  Database(const Database& other);
  Database& operator=(const Database& other);

  /// Opens (or creates) a durable database under `dir`: recovers the
  /// catalog from the store's manifest (discarding tables whose files fail
  /// their checks — see storage/paged_store.h for the recovery protocol)
  /// and attaches the store so every subsequent Register/Drop/CTAS is
  /// persisted atomically and table columns read through the buffer pool.
  /// Databases built with the default constructor stay purely in-memory:
  /// malloc-backed BATs remain the default representation, and results are
  /// bit-identical either way.
  static Result<Database> Open(const std::string& dir,
                               const PagedStoreOptions& opts = {});

  /// The attached durable store, or nullptr for an in-memory database.
  const std::shared_ptr<PagedStore>& paged_store() const { return store_; }

  /// Adds (or replaces) a table. The relation's name is set to `name`.
  /// Evicts exactly the cached plans reading this table (plus a replaced
  /// relation's prepared arguments); plans over other tables survive. With
  /// a store attached the relation is persisted first (atomic manifest
  /// swing) and the catalog holds the store-backed twin; persistence
  /// failure leaves the catalog unchanged.
  Status Register(const std::string& name, Relation rel);

  /// Looks a table up (case-insensitive).
  Result<Relation> Get(const std::string& name) const;

  /// Removes a table, its cached prepared arguments, and every cached plan
  /// reading it. NotFound (with the table name) if absent.
  Status Drop(const std::string& name);

  bool Has(const std::string& name) const { return Get(name).ok(); }

  std::vector<std::string> TableNames() const;

  /// Runs a SELECT statement and returns the result relation; any other
  /// statement kind is a ParseError.
  Result<Relation> Query(const std::string& sql) const;

  /// Runs any statement on a fresh context (ExecuteOn).
  Result<Relation> Execute(const std::string& sql);

  /// Parses one statement and runs it on a caller-provided context (Run).
  Result<Relation> ExecuteOn(const std::string& sql, ExecContext* ctx);

  /// The statement runner behind every entry point: runs one parsed
  /// statement on `ctx`. CREATE TABLE ... AS stores and returns the result;
  /// DROP TABLE returns an empty relation; EXPLAIN [ANALYZE] returns the
  /// plan rendering. The context carries the caller's options (a server
  /// session's per-session RmaOptions) and should borrow this database's
  /// query cache (`ExecContext(opts, db.query_cache())`) so cached plans
  /// and prepared arguments are shared across sessions while stats
  /// accumulate per context. SELECT and CREATE TABLE AS consult the plan
  /// cache under `stmt.plan_key`; EXPLAIN [ANALYZE] honours the context's
  /// options but renders on a scratch context (its execution section
  /// reports the one statement, not the context's cumulative totals).
  /// Every statement records its plan-cache outcome on `ctx`
  /// (kNotConsulted for DROP TABLE and plain EXPLAIN). Statements whose
  /// outcome or stats a caller reads must run serially on their context
  /// (the server runs each session's statements in order); different
  /// contexts may run concurrently.
  Result<Relation> Run(const Statement& stmt, ExecContext* ctx);

  /// Executes `statements`, returning one Result per statement (aligned
  /// with the input; a failed statement does not stop the batch).
  ///
  /// Scheduling is dependency-aware (sql/effects.h): each statement's
  /// effects — base tables read; tables created/dropped/replaced — are
  /// extracted from its AST, and a statement only waits on earlier
  /// statements whose write set intersects its read or write sets. A CTAS
  /// fences only statements touching its table; disjoint DDL+SELECT chains
  /// overlap; read-only statements (SELECT and EXPLAIN, plain or ANALYZE
  /// of a select) never fence each other. Each statement launches on the
  /// shared worker pool the moment its own dependencies complete — a slow
  /// statement delays only its transitive dependents, never unrelated
  /// chains. At most rma_options.max_threads statements (0 = hardware
  /// concurrency) are in flight, so a budget of 1 runs the batch one
  /// statement at a time; the in-flight statements split that thread
  /// budget, so total worker fan-out stays bounded. Every statement, DDL
  /// included, runs through Run on one ExecContext borrowing the query
  /// cache. Identical statements in flight at once may each miss and plan;
  /// every later one hits the stored plan.
  ///
  /// Every statement observes exactly the catalog state its script
  /// position implies: a SELECT over a table created earlier in the batch
  /// runs after that CTAS, and one over a table dropped earlier fails —
  /// the schedule only reorders statements whose results cannot depend on
  /// each other.
  std::vector<Result<Relation>> ExecuteBatch(
      const std::vector<std::string>& statements);

  /// Splits a multi-statement script on top-level semicolons
  /// (sql::SplitStatements) and runs it through ExecuteBatch. A script that
  /// fails to split returns a single error Result.
  std::vector<Result<Relation>> ExecuteScript(const std::string& script);

  /// The shared query cache (never null). Exposed for introspection
  /// (benchmarks, tests); statements use it automatically.
  const QueryCachePtr& query_cache() const { return query_cache_; }

  /// Options applied to relational matrix operations inside queries.
  RmaOptions rma_options;

 private:
  /// Guards tables_.
  mutable SharedMutex catalog_mu_;
  /// Keyed by lower-cased name.
  std::map<std::string, Relation> tables_ RMA_GUARDED_BY(catalog_mu_);
  /// Not lock-guarded: set at construction and reassigned only by the copy
  /// operations, which require external quiescence (no concurrent
  /// statements — the same contract rma_options carries). Statement
  /// execution reads the pointer freely; the QueryCache it points at is
  /// internally synchronized.
  QueryCachePtr query_cache_ = std::make_shared<QueryCache>();
  /// Durable backing store; nullptr for in-memory databases. Shares the
  /// copy discipline of query_cache_ (reassigned only under quiescence;
  /// the PagedStore is internally synchronized).
  std::shared_ptr<PagedStore> store_;
};

}  // namespace rma::sql

#endif  // RMA_SQL_DATABASE_H_
