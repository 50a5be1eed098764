#include "sql/database.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>

#include "core/exec_context.h"
#include "matrix/parallel.h"
#include "sql/effects.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace rma::sql {

// Suppress the member's default initializer (a fresh QueryCache that the
// assignment below would immediately discard); the shared cache is copied
// under the source's lock.
Database::Database(const Database& other) : query_cache_(nullptr) {
  ReaderMutexLock lock(other.catalog_mu_);
  tables_ = other.tables_;
  query_cache_ = other.query_cache_;
  rma_options = other.rma_options;
  store_ = other.store_;
}

Database& Database::operator=(const Database& other) {
  if (this == &other) return *this;
  std::map<std::string, Relation> tables;
  QueryCachePtr cache;
  RmaOptions opts;
  std::shared_ptr<PagedStore> store;
  {
    ReaderMutexLock lock(other.catalog_mu_);
    tables = other.tables_;
    cache = other.query_cache_;
    opts = other.rma_options;
    store = other.store_;
  }
  WriterMutexLock lock(catalog_mu_);
  tables_ = std::move(tables);
  query_cache_ = std::move(cache);
  rma_options = opts;
  store_ = std::move(store);
  return *this;
}

Result<Database> Database::Open(const std::string& dir,
                                const PagedStoreOptions& opts) {
  RMA_ASSIGN_OR_RETURN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir, opts));
  Database db;
  db.store_ = store;
  {
    // Scoped: returning `db` copies it, and the copy constructor takes
    // this same lock.
    WriterMutexLock lock(db.catalog_mu_);
    // Recovered relations enter the catalog directly — they are already
    // persisted, so routing them through Register would rewrite every file.
    // The cache is new, so there are no plans to invalidate.
    for (const auto& [name, rel] : store->recovered()) {
      db.tables_[ToLower(name)] = rel;
    }
  }
  return db;
}

Status Database::Register(const std::string& name, Relation rel) {
  rel.set_name(name);
  const std::string key = ToLower(name);
  WriterMutexLock lock(catalog_mu_);
  if (store_ != nullptr) {
    // Persist before committing to the catalog: a failed write (full disk,
    // I/O error) must leave both the durable and the in-memory state
    // describing the previous table. The catalog holds the store-backed
    // twin so reads fault through the buffer pool.
    auto stored = store_->SaveTable(name, rel);
    if (!stored.ok()) return stored.status();
    rel = std::move(*stored);
  }
  auto it = tables_.find(key);
  if (it != tables_.end()) {
    query_cache_->EvictRelation(it->second.identity());
  }
  tables_[key] = std::move(rel);
  query_cache_->InvalidatePlansForTables({key});
  return Status::OK();
}

Result<Relation> Database::Get(const std::string& name) const {
  ReaderMutexLock lock(catalog_mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::KeyError("unknown table: " + name);
  }
  return it->second;
}

Status Database::Drop(const std::string& name) {
  WriterMutexLock lock(catalog_mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  if (store_ != nullptr) {
    // Durable first: if the manifest rewrite fails the catalog still maps
    // the table, matching what the next Open would recover.
    RMA_RETURN_NOT_OK(store_->DropTable(name));
  }
  query_cache_->EvictRelation(it->second.identity());
  const std::string key = ToLower(name);
  tables_.erase(it);
  query_cache_->InvalidatePlansForTables({key});
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  ReaderMutexLock lock(catalog_mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, rel] : tables_) out.push_back(rel.name());
  return out;
}

Result<Relation> Database::Query(const std::string& sql) const {
  RMA_ASSIGN_OR_RETURN(const Statement stmt, Parse(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::ParseError("expected a SELECT statement");
  }
  ExecContext ctx(rma_options, query_cache_);
  return ExecuteSelectCached(*this, stmt, &ctx);
}

Result<Relation> Database::Execute(const std::string& sql) {
  ExecContext ctx(rma_options, query_cache_);
  return ExecuteOn(sql, &ctx);
}

Result<Relation> Database::ExecuteOn(const std::string& sql,
                                     ExecContext* ctx) {
  RMA_ASSIGN_OR_RETURN(const Statement stmt, Parse(sql));
  return Run(stmt, ctx);
}

Result<Relation> Database::Run(const Statement& stmt, ExecContext* ctx) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelectCached(*this, stmt, ctx);
    case Statement::Kind::kCreateTableAs: {
      // The select consults the plan cache under the whole statement's key:
      // invalidation is per-table, so the Register below evicts only plans
      // reading the replaced table — a CTAS whose select reads *other*
      // tables does not invalidate itself (or anything else).
      RMA_ASSIGN_OR_RETURN(Relation rel, ExecuteSelectCached(*this, stmt, ctx));
      RMA_RETURN_NOT_OK(Register(stmt.table_name, rel));
      return rel;
    }
    case Statement::Kind::kDropTable:
      ctx->RecordPlanCache(ExecContext::PlanCacheOutcome::kNotConsulted);
      RMA_RETURN_NOT_OK(Drop(stmt.table_name));
      return Relation();
    case Statement::Kind::kExplain: {
      ExecContext::PlanCacheOutcome outcome =
          ExecContext::PlanCacheOutcome::kNotConsulted;
      Result<Relation> plan =
          ExplainStatement(*this, stmt, ctx->options(), &outcome);
      ctx->RecordPlanCache(outcome);
      return plan;
    }
  }
  return Status::Invalid("unreachable statement kind");
}

namespace {

/// Shared scheduler state of one batch (Database::ExecuteBatch). The
/// completion handlers of concurrently retiring statements race on this, so
/// everything they touch sits behind `mu` with analysis-visible annotations;
/// AdmitLocked is the RMA_REQUIRES helper both admission sites (initial
/// launch, completion handler) share.
struct ReadinessState {
  explicit ReadinessState(size_t n) : shares(n, 1), dep_count(n, 0) {}

  Mutex mu;
  CondVar cv;
  /// Dep-free, not yet launched, in index order.
  std::deque<size_t> ready RMA_GUARDED_BY(mu);
  std::deque<ThreadPool::TaskPtr> joinable RMA_GUARDED_BY(mu);
  /// Per-statement thread budget, fixed at admission.
  std::vector<int> shares RMA_GUARDED_BY(mu);
  /// Completion counters on the conflict edges: statement j waits on every
  /// earlier conflicting i, and launches the moment its counter hits zero.
  std::vector<int> dep_count RMA_GUARDED_BY(mu);
  int in_flight RMA_GUARDED_BY(mu) = 0;
  /// submit() calls whose TaskPtr isn't in `joinable` yet.
  int pending_submits RMA_GUARDED_BY(mu) = 0;
  size_t completed RMA_GUARDED_BY(mu) = 0;

  /// Pops ready statements up to the in-flight cap (the pool is sized to
  /// the hardware, not the user's cap). The caller submits the admitted
  /// statements after releasing mu — Submit wakes pool workers that would
  /// immediately contend on it.
  void AdmitLocked(int budget, std::vector<size_t>* out) RMA_REQUIRES(mu) {
    while (in_flight < budget && !ready.empty()) {
      out->push_back(ready.front());
      ready.pop_front();
      ++in_flight;
    }
    // Split the statement-level thread budget across the admission-time
    // target concurrency: everything in flight once this round is admitted.
    // Shares handed out in earlier rounds are not revisited, so aggregate
    // fan-out can transiently exceed `budget` until those statements retire;
    // each round on its own sums to at most `budget`.
    for (size_t j : *out) {
      shares[j] = std::max(1, budget / std::max(1, in_flight));
    }
  }
};

}  // namespace

std::vector<Result<Relation>> Database::ExecuteBatch(
    const std::vector<std::string>& statements) {
  const size_t n = statements.size();
  std::vector<Result<Relation>> results(
      n, Result<Relation>(Status::Invalid("statement not executed")));
  // Parse everything up front: the dependency analysis needs every
  // statement's effects before execution starts.
  std::vector<Result<Statement>> parsed;
  parsed.reserve(n);
  for (const std::string& sql : statements) parsed.push_back(Parse(sql));

  // Per-statement effect analysis → dependency DAG. A statement only waits
  // on earlier statements whose write set intersects its read/write sets
  // (RAW/WAW/WAR over table names), so a CTAS fences only statements
  // touching its table, disjoint DDL+SELECT chains overlap, and read-only
  // statements (SELECT, EXPLAIN) never fence each other. Conflicting
  // statements execute in index order, so every statement still observes
  // exactly the catalog state its position in the script implies.
  // Unparseable statements have no effects (no edges) and never launch;
  // their result slots hold the parse error. `dependents` is built before
  // any task launches and read-only afterwards; the mutable completion
  // counters live in ReadinessState under its mutex.
  std::vector<StatementEffects> effects(n);
  ReadinessState state(n);
  std::vector<std::vector<size_t>> dependents(n);
  size_t runnable = 0;
  {
    MutexLock lock(state.mu);
    for (size_t j = 0; j < n; ++j) {
      if (!parsed[j].ok()) {
        results[j] = parsed[j].status();
        continue;
      }
      effects[j] = AnalyzeEffects(*parsed[j]);
      ++runnable;
      for (size_t i = 0; i < j; ++i) {
        if (EffectsConflict(effects[i], effects[j])) {
          ++state.dep_count[j];
          dependents[i].push_back(j);
        }
      }
      if (state.dep_count[j] == 0) state.ready.push_back(j);
    }
  }
  if (runnable == 0) return results;

  // At most `budget` statements are in flight; a budget of 1 runs the batch
  // one statement at a time in dependency order.
  const int budget = rma_options.max_threads > 0 ? rma_options.max_threads
                                                 : DefaultThreadCount();

  // One context for the whole batch: concurrent statements of every kind
  // share it (it is internally synchronized and borrows the shared
  // QueryCache), keeping the plan/prepared caches warm across every
  // statement. Prepared entries are keyed by column identity, so tables
  // replaced mid-batch cannot serve stale hits.
  ExecContext ctx(rma_options, query_cache_);

  /// Per-slot: only statement k's task writes errors[k], strictly before its
  /// completion handler's release of state.mu; the join below reads it only
  /// after observing completed == runnable under the same mutex.
  std::vector<std::exception_ptr> errors(n);

  // Submitting is a two-step handoff: the task goes to the pool first, and
  // only then into `joinable`. In between, the task can already run to
  // completion on a worker, so `pending_submits` is raised under mu before
  // Submit and lowered with the push — the join predicate refuses to unwind
  // while it is nonzero, which is what keeps the state alive for the push
  // below even when the task beats it.
  std::function<void(size_t)> submit = [&](size_t k) {
    int share = 1;
    {
      MutexLock lock(state.mu);
      ++state.pending_submits;
      // The share was fixed by AdmitLocked before this submit ran; capture
      // it by value so the task body never reads guarded state unlocked.
      share = state.shares[k];
    }
    ThreadPool::TaskPtr task =
        ThreadPool::Shared().Submit([&, k, share] {
          {
            // The statement's kernels inherit the admission-time share via
            // the ambient ScopedThreadBudget.
            ScopedThreadBudget budget_share(share);
            try {
              results[k] = Run(*parsed[k], &ctx);
            } catch (...) {
              errors[k] = std::current_exception();
            }
          }
          std::vector<size_t> admitted;
          {
            MutexLock lock(state.mu);
            --state.in_flight;
            ++state.completed;
            for (size_t j : dependents[k]) {
              if (--state.dep_count[j] == 0) state.ready.push_back(j);
            }
            state.AdmitLocked(budget, &admitted);
            state.cv.NotifyAll();
          }
          // When `admitted` is empty this task touches nothing shared past
          // the notify above, so the joining thread may safely unwind. When
          // it is non-empty the captured state stays alive: the admitted
          // statements count toward `runnable` but not `completed`, so the
          // join predicate cannot pass until the submits below have run and
          // those statements have retired.
          for (size_t j : admitted) submit(j);
        });
    MutexLock lock(state.mu);
    state.joinable.push_back(std::move(task));
    --state.pending_submits;
    state.cv.NotifyAll();
  };

  std::vector<size_t> admitted;
  {
    MutexLock lock(state.mu);
    state.AdmitLocked(budget, &admitted);
  }
  for (size_t j : admitted) submit(j);

  // Cooperative join: Wait() executes queued tasks on this thread while its
  // target is pending, so the batch progresses even when every pool worker
  // is busy. Task bodies capture their own exceptions into `errors` — Wait
  // itself never throws here. The join predicate is an explicit loop so the
  // guarded reads stay where the analysis sees state.mu held.
  while (true) {
    ThreadPool::TaskPtr task;
    {
      MutexLock lock(state.mu);
      while (state.joinable.empty() &&
             !(state.completed == runnable && state.pending_submits == 0)) {
        state.cv.Wait(state.mu);
      }
      if (!state.joinable.empty()) {
        task = std::move(state.joinable.front());
        state.joinable.pop_front();
      } else {
        break;
      }
    }
    ThreadPool::Shared().Wait(task);
  }
  // Every statement completed; surface the first failure in script order.
  for (size_t i = 0; i < n; ++i) {
    if (errors[i] != nullptr) std::rethrow_exception(errors[i]);
  }
  return results;
}

std::vector<Result<Relation>> Database::ExecuteScript(
    const std::string& script) {
  Result<std::vector<std::string>> statements = SplitStatements(script);
  if (!statements.ok()) {
    return {Result<Relation>(statements.status())};
  }
  return ExecuteBatch(*statements);
}

}  // namespace rma::sql
