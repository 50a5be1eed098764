#ifndef RMA_SQL_EFFECTS_H_
#define RMA_SQL_EFFECTS_H_

#include <string>
#include <vector>

#include "sql/ast.h"

namespace rma::sql {

/// The catalog footprint of one parsed statement: which base tables it
/// reads and which it creates, drops, or replaces. Effects drive the two
/// consumers that used to rely on coarse global state:
///
///  - **batch scheduling** (Database::ExecuteBatch): a statement only waits
///    on earlier statements whose write set intersects its read/write sets,
///    so a CTAS fences only statements touching its table and independent
///    DDL+SELECT interleavings run concurrently (plain EXPLAIN, which
///    writes nothing, is never a barrier);
///  - **per-table plan invalidation** (QueryCache): the read set names the
///    base tables a cached statement plan depends on, so a catalog mutation
///    evicts only the plans touching the mutated table.
///
/// All names are lower-cased (the catalog is case-insensitive), sorted, and
/// de-duplicated. Reads reach through joins, subqueries, and relational
/// matrix operation arguments to the base tables at the leaves; every table
/// reference in this grammar is a named base table, so attribution is
/// complete.
struct StatementEffects {
  std::vector<std::string> reads;   ///< base tables the statement scans
  std::vector<std::string> writes;  ///< tables created/dropped/replaced
};

/// Lower-cased, sorted, unique base-table names a SELECT reads (through
/// joins, subqueries, and matrix-operation arguments).
std::vector<std::string> ReadTables(const SelectStmt& stmt);

/// Extracts the effects of one parsed statement:
///  - SELECT:            reads its base tables, writes nothing;
///  - CREATE TABLE AS:   reads the select's tables, writes the target;
///  - DROP TABLE:        writes the dropped table;
///  - EXPLAIN [ANALYZE]: reads the explained select's tables; only
///    EXPLAIN ANALYZE of a CREATE TABLE AS writes (it registers the
///    result — plain EXPLAIN executes nothing).
StatementEffects AnalyzeEffects(const Statement& stmt);

/// Whether `later` must wait for `earlier` (statement order matters: the
/// relation is not symmetric in meaning, though the predicate is). True on
/// any write/read, write/write, or read/write overlap — the classic RAW /
/// WAW / WAR hazards over table names.
bool EffectsConflict(const StatementEffects& earlier,
                     const StatementEffects& later);

}  // namespace rma::sql

#endif  // RMA_SQL_EFFECTS_H_
