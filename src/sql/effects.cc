#include "sql/effects.h"

#include <algorithm>

#include "util/string_util.h"

namespace rma::sql {

namespace {

void CollectFromRef(const TableRefPtr& ref, std::vector<std::string>* out);

void CollectFromSelect(const SelectStmt& stmt, std::vector<std::string>* out) {
  if (stmt.from != nullptr) CollectFromRef(stmt.from, out);
  // WHERE / GROUP BY / ORDER BY reference columns of the FROM result, never
  // tables of their own, so the FROM walk is the whole read set.
}

void CollectFromRef(const TableRefPtr& ref, std::vector<std::string>* out) {
  if (ref == nullptr) return;
  switch (ref->kind) {
    case TableRef::Kind::kTable:
      out->push_back(ToLower(ref->table_name));
      return;
    case TableRef::Kind::kSubquery:
      if (ref->subquery != nullptr) CollectFromSelect(*ref->subquery, out);
      return;
    case TableRef::Kind::kRmaOp:
      for (const RmaArg& arg : ref->rma_args) CollectFromRef(arg.table, out);
      return;
    case TableRef::Kind::kJoin:
      CollectFromRef(ref->left, out);
      CollectFromRef(ref->right, out);
      return;
  }
}

std::vector<std::string> SortedUnique(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// Both sides sorted and unique: linear-merge intersection test.
bool Intersects(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<std::string> ReadTables(const SelectStmt& stmt) {
  std::vector<std::string> names;
  CollectFromSelect(stmt, &names);
  return SortedUnique(std::move(names));
}

StatementEffects AnalyzeEffects(const Statement& stmt) {
  StatementEffects effects;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      if (stmt.select != nullptr) effects.reads = ReadTables(*stmt.select);
      break;
    case Statement::Kind::kCreateTableAs:
      if (stmt.select != nullptr) effects.reads = ReadTables(*stmt.select);
      effects.writes.push_back(ToLower(stmt.table_name));
      break;
    case Statement::Kind::kDropTable:
      effects.writes.push_back(ToLower(stmt.table_name));
      break;
    case Statement::Kind::kExplain:
      if (stmt.select != nullptr) effects.reads = ReadTables(*stmt.select);
      // Plain EXPLAIN renders without executing — no side effects, so it
      // schedules exactly like the SELECT it explains. EXPLAIN ANALYZE of a
      // CREATE TABLE AS registers the result, which is a write.
      if (stmt.analyze && stmt.explain_create) {
        effects.writes.push_back(ToLower(stmt.table_name));
      }
      break;
  }
  return effects;
}

bool EffectsConflict(const StatementEffects& earlier,
                     const StatementEffects& later) {
  return Intersects(earlier.writes, later.reads) ||   // read-after-write
         Intersects(earlier.writes, later.writes) ||  // write-after-write
         Intersects(earlier.reads, later.writes);     // write-after-read
}

}  // namespace rma::sql
