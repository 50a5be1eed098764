#ifndef RMA_SQL_EXECUTOR_H_
#define RMA_SQL_EXECUTOR_H_

#include <string>

#include "core/options.h"
#include "sql/ast.h"
#include "storage/relation.h"
#include "util/result.h"

namespace rma {
class ExecContext;
}

namespace rma::sql {

class Database;

/// Evaluates an analyzed SELECT statement against the catalog. The executor
/// interprets the algebra directly: FROM (joins and relational matrix
/// operations), WHERE, GROUP BY + aggregates, SELECT projection, ORDER BY,
/// LIMIT. All relational matrix operations of one statement share an
/// execution context (planner + prepared-argument cache).
Result<Relation> ExecuteSelect(const Database& db, const SelectStmt& stmt,
                               const RmaOptions& opts);

/// Context-sharing variant (one context across nested statements).
Result<Relation> ExecuteSelect(const Database& db, const SelectStmt& stmt,
                               ExecContext* ctx);

/// Plan-cache-aware execution: consults the database's QueryCache under
/// `normalized` (QueryCache::NormalizeStatement of the statement text)
/// with the current identity snapshot of the statement's read tables; a
/// plan hits iff its options fingerprint and its snapshot both match. On a
/// hit, every FROM-clause relational matrix operation is served from its
/// cached rewritten expression — no rebinding, rewriting, or EXPLAIN
/// lowering (each operation still plans its kernel when it dispatches); with
/// warm prepared arguments the statement also skips every sort. On a miss
/// the statement executes normally, the identities it binds are recorded,
/// and after a successful run the plan is stored for the next one (unless
/// it bound one table as two relations). A statement naming a missing
/// table does not look up and counts as a miss. The context should borrow
/// the database's cache (Database wires this up).
Result<Relation> ExecuteSelectCached(const Database& db, const SelectStmt& stmt,
                                     const std::string& normalized,
                                     ExecContext* ctx);

/// EXPLAIN: renders the physical plan of the statement — the planned
/// relational matrix operations (chosen kernels, stages, cost estimates,
/// prepared-argument reuse), the cross-algebra rewrites that fired, and the
/// relational pipeline around them — as a single-column relation of plan
/// lines, recursing into FROM-clause subqueries. Top-level matrix
/// operations do not run; leaf relations are bound for their shapes, which
/// executes subqueries nested *inside* a matrix-operation argument.
Result<Relation> ExplainSelect(const Database& db, const SelectStmt& stmt,
                               const RmaOptions& opts);

/// EXPLAIN [ANALYZE] over a SELECT or CREATE TABLE AS statement
/// (stmt.kind == kExplain). Plain EXPLAIN renders the relational pipeline
/// and physical plans without executing (a CREATE TABLE AS is *not*
/// registered). EXPLAIN ANALYZE executes through the plan cache, renders
/// the statement plan that served (or was recorded by) the run, and appends
/// an execution section: each operation's measured per-stage RmaStats, the
/// statement's plan-cache and prepared-cache provenance, row count, and
/// total wall time. A CTAS *is* registered (side effects are part of
/// execution) and consults the plan cache like any statement —
/// invalidation is per-table, so its own registration only evicts the
/// stored plan when the select reads the replaced table. `sql` is the
/// original statement text (plan-cache key material). `session_opts`, when
/// non-null, overrides the database's options (server sessions route their
/// per-session RmaOptions through it); the explain still runs on a scratch
/// context so its execution section reports exactly this statement.
Result<Relation> ExplainStatement(Database& db, const Statement& stmt,
                                  const std::string& sql,
                                  const RmaOptions* session_opts = nullptr);

}  // namespace rma::sql

#endif  // RMA_SQL_EXECUTOR_H_
