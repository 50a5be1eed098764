#ifndef RMA_SQL_EXECUTOR_H_
#define RMA_SQL_EXECUTOR_H_

#include "core/exec_context.h"
#include "core/options.h"
#include "sql/ast.h"
#include "storage/relation.h"
#include "util/result.h"

namespace rma::sql {

class Database;

/// Runs the select of a parsed SELECT or CREATE TABLE AS statement against
/// the catalog, through the database's QueryCache. The executor interprets
/// the algebra directly: FROM (joins and relational matrix operations),
/// WHERE, GROUP BY + aggregates, SELECT projection, ORDER BY, LIMIT; all
/// relational matrix operations of one statement share `ctx`, which should
/// borrow the database's cache (Database wires this up).
///
/// The plan is looked up under `stmt.plan_key` with the current identity
/// snapshot of the statement's read tables; it hits iff its options
/// fingerprint and its snapshot both match. On a hit, every FROM-clause
/// relational matrix operation is served from its cached rewritten
/// expression, with no rebinding or rewriting (each operation still plans
/// its kernel when it dispatches); with warm prepared arguments the
/// statement also skips every sort. On a miss the statement executes
/// normally, the identities it binds are recorded, and after a successful
/// run the plan is stored for the next one (unless it bound one table as
/// two relations). A statement naming a missing table does not look up and
/// counts as a miss. The outcome is recorded on `ctx`.
Result<Relation> ExecuteSelectCached(const Database& db, const Statement& stmt,
                                     ExecContext* ctx);

/// EXPLAIN [ANALYZE] over a SELECT or CREATE TABLE AS statement
/// (stmt.kind == kExplain), under `opts` (the options of the context the
/// statement runs on). Plain EXPLAIN renders the relational pipeline and
/// physical plans without executing (a CREATE TABLE AS is *not*
/// registered): the chosen kernels, stages, cost estimates, shard counts,
/// prepared-argument reuse and fired rewrites, recursing into FROM-clause
/// subqueries. Matrix-operation arguments bind for their shapes only: base
/// tables as the catalog holds them (a paged table faults in no page),
/// while subqueries nested *inside* an argument execute. EXPLAIN ANALYZE
/// executes through the plan cache on a scratch context, so its output
/// reports exactly this statement: the rewrites fired for each cached
/// operation, then one line per executed operation starting with the plan
/// it ran under (OpPlan::DebugString) and followed by its measured stage
/// times, shard walls and prepared-cache provenance, then the statement's
/// plan-cache outcome, row count and total wall time. A CTAS *is*
/// registered (side effects are part of execution) and consults the plan
/// cache like any statement: invalidation is per-table, so its own
/// registration only evicts the stored plan when the select reads the
/// replaced table. `*outcome` receives the statement's plan-cache outcome
/// (kNotConsulted for plain EXPLAIN).
Result<Relation> ExplainStatement(Database& db, const Statement& stmt,
                                  const RmaOptions& opts,
                                  ExecContext::PlanCacheOutcome* outcome);

}  // namespace rma::sql

#endif  // RMA_SQL_EXECUTOR_H_
