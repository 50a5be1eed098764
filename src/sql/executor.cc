#include "sql/executor.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/algebra.h"
#include "core/exec_context.h"
#include "core/planner.h"
#include "core/query_cache.h"
#include "core/rma.h"
#include "matrix/simd.h"
#include "rel/operators.h"
#include "sql/database.h"
#include "sql/effects.h"
#include "storage/bat_ops.h"
#include "storage/paged_bat.h"
#include "storage/paged_store.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rma::sql {

namespace {

/// Resident copies of the tables a statement binds whole, by catalog
/// identity (see PlanCacheState::resident).
using ResidentTables = std::unordered_map<uint64_t, Relation>;

/// Per-statement plan-cache cursor threaded through FROM evaluation. On a
/// hit, `hit` serves the statement's relational matrix operations in
/// traversal order; on a miss, built ops are appended to `record` and stored
/// at statement end. Nested evaluation inside a matrix-operation argument
/// runs with both null: the argument is embedded in the operation's
/// expression, which the cache serves or records whole.
struct PlanCacheState {
  const QueryCache::StatementPlan* hit = nullptr;
  size_t cursor = 0;
  std::vector<QueryCache::CachedOp>* record = nullptr;
  /// When recording, every base-table bind appends its (name, identity)
  /// here — the identities actually embedded in the recorded expressions,
  /// which anchor the stored plan's per-table validity (a future lookup
  /// hits only while the catalog still maps each name to that exact
  /// relation). Unlike `record`, this survives into nested evaluation of
  /// matrix-operation arguments: their leaves are embedded in the recorded
  /// expression too.
  QueryCache::TableSnapshot* binds = nullptr;
  /// Whole-table binds (every matrix-operation argument) materialize each
  /// table identity once per statement: arguments naming one table share
  /// its columns, so a self cross product such as CPD(x BY id, x BY id)
  /// reuses the first argument's prepare and plans SYRK on a paged store
  /// as on a malloc one. Flows into nested evaluation like `binds`.
  ResidentTables* resident = nullptr;
};

/// A relation flowing through the executor, with per-column resolution
/// metadata: the original (pre-uniquification) attribute name and the table
/// alias it came from. Both aligned with column positions.
struct Bound {
  Relation rel;
  std::vector<std::string> names;  ///< original attribute names
  std::vector<std::string> quals;  ///< table alias per column ("" if none)
};

Bound BindRelation(Relation rel, const std::string& alias) {
  Bound b;
  b.names = rel.schema().Names();
  b.quals.assign(b.names.size(), alias);
  b.rel = std::move(rel);
  return b;
}

bool IsAggregateName(const std::string& fn) {
  const std::string f = ToUpper(fn);
  return f == "COUNT" || f == "SUM" || f == "AVG" || f == "MIN" || f == "MAX";
}

bool ContainsAggregate(const SqlExprPtr& e) {
  if (e == nullptr) return false;
  if (e->kind == SqlExpr::Kind::kCall && IsAggregateName(e->name)) return true;
  for (const auto& a : e->args) {
    if (ContainsAggregate(a)) return true;
  }
  return false;
}

/// Resolves a (possibly qualified) column reference to a position.
Result<int> ResolveColumn(const Bound& b, const std::string& qualifier,
                          const std::string& name) {
  int found = -1;
  for (size_t i = 0; i < b.names.size(); ++i) {
    if (!EqualsIgnoreCase(b.names[i], name)) continue;
    if (!qualifier.empty() && !EqualsIgnoreCase(b.quals[i], qualifier)) {
      continue;
    }
    if (found >= 0) {
      return Status::KeyError("ambiguous column reference: " + name);
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    const std::string full =
        qualifier.empty() ? name : qualifier + "." + name;
    return Status::KeyError("unknown column: " + full);
  }
  return found;
}

/// Rewrites a SQL expression into a rel::Expr with positional column refs.
/// Aggregates are rejected (the caller extracts them beforehand).
Result<rel::ExprPtr> ResolveScalar(const SqlExprPtr& e, const Bound& b) {
  switch (e->kind) {
    case SqlExpr::Kind::kColumn: {
      RMA_ASSIGN_OR_RETURN(int idx, ResolveColumn(b, e->qualifier, e->name));
      return rel::Expr::ColumnAt(idx);
    }
    case SqlExpr::Kind::kLiteral:
      return rel::Expr::Literal(e->literal);
    case SqlExpr::Kind::kUnary: {
      RMA_ASSIGN_OR_RETURN(rel::ExprPtr x, ResolveScalar(e->args[0], b));
      return rel::Expr::Unary(e->name, std::move(x));
    }
    case SqlExpr::Kind::kBinary: {
      RMA_ASSIGN_OR_RETURN(rel::ExprPtr l, ResolveScalar(e->args[0], b));
      RMA_ASSIGN_OR_RETURN(rel::ExprPtr r, ResolveScalar(e->args[1], b));
      return rel::Expr::Binary(e->name, std::move(l), std::move(r));
    }
    case SqlExpr::Kind::kCall: {
      if (IsAggregateName(e->name)) {
        return Status::Invalid("aggregate " + e->name +
                               " is not allowed in this context");
      }
      std::vector<rel::ExprPtr> args;
      for (const auto& a : e->args) {
        RMA_ASSIGN_OR_RETURN(rel::ExprPtr x, ResolveScalar(a, b));
        args.push_back(std::move(x));
      }
      return rel::Expr::Call(e->name, std::move(args));
    }
    case SqlExpr::Kind::kStar:
      return Status::Invalid("'*' is not allowed in this context");
  }
  return Status::Invalid("unreachable SQL expression kind");
}

std::string DeriveName(const SqlExprPtr& e, int fallback_index) {
  if (e->kind == SqlExpr::Kind::kColumn) return e->name;
  if (e->kind == SqlExpr::Kind::kCall) return ToLower(e->name);
  return "col" + std::to_string(fallback_index);
}

std::vector<std::string> UniquifyNames(std::vector<std::string> names) {
  std::unordered_set<std::string> used;
  for (auto& n : names) {
    std::string candidate = n;
    int suffix = 2;
    while (!used.insert(candidate).second) {
      candidate = n + "_" + std::to_string(suffix++);
    }
    n = std::move(candidate);
  }
  return names;
}

// --- column pruning ---------------------------------------------------------

/// Lower-cased names of the columns one SELECT references. Base tables in
/// its FROM tree bind only the columns named here (late materialization);
/// a null `needed` pointer binds every column.
using ColumnNames = std::unordered_set<std::string>;

void AddColumnNames(const SqlExprPtr& e, ColumnNames* out) {
  if (e == nullptr) return;
  if (e->kind == SqlExpr::Kind::kColumn) out->insert(ToLower(e->name));
  for (const auto& a : e->args) AddColumnNames(a, out);
}

/// The JOIN ... ON conditions of a FROM tree. Subqueries and matrix
/// operations are leaves: their columns belong to their own statements.
void AddJoinColumnNames(const TableRefPtr& ref, ColumnNames* out) {
  if (ref == nullptr || ref->kind != TableRef::Kind::kJoin) return;
  AddColumnNames(ref->on, out);
  AddJoinColumnNames(ref->left, out);
  AddJoinColumnNames(ref->right, out);
}

/// Every name used as a column reference in the select list, WHERE,
/// GROUP BY, ORDER BY or a JOIN ... ON of `stmt`, with any qualifier; none
/// for `SELECT *`, which keeps every column. Matching by name alone keeps
/// every column a reference could resolve to, so ambiguous and unknown
/// column errors are unchanged.
std::optional<ColumnNames> ReferencedColumns(const SelectStmt& stmt) {
  ColumnNames names;
  for (const auto& item : stmt.items) {
    if (item.expr->kind == SqlExpr::Kind::kStar) return std::nullopt;
    AddColumnNames(item.expr, &names);
  }
  AddColumnNames(stmt.where, &names);
  for (const auto& g : stmt.group_by) AddColumnNames(g, &names);
  for (const auto& o : stmt.order_by) AddColumnNames(o.expr, &names);
  AddJoinColumnNames(stmt.from, &names);
  return names;
}

/// The columns of `rel` that `needed` names, or its first column when it
/// names none, so the row count survives.
Relation KeepNeeded(const Relation& rel, const ColumnNames& needed) {
  std::vector<int> keep;
  for (int c = 0; c < rel.num_columns(); ++c) {
    if (needed.count(ToLower(rel.schema().attribute(c).name)) > 0) {
      keep.push_back(c);
    }
  }
  if (static_cast<int>(keep.size()) == rel.num_columns()) return rel;
  if (keep.empty()) keep.push_back(0);
  return rel.SelectColumns(keep);
}

// --- FROM evaluation --------------------------------------------------------

Result<Bound> EvaluateTableRef(const Database& db, const TableRefPtr& ref,
                               ExecContext* ctx, PlanCacheState* pcs,
                               const ColumnNames* needed);

/// Turns a (possibly nested) FROM-clause operation reference into an
/// algebra expression: kRmaOp children stay symbolic so the rewriter can
/// match across nesting levels; any other reference is evaluated here and
/// becomes a leaf. Leaf evaluation runs outside the plan-cache *cursor*
/// (hit/record null): its results are embedded in the built expression,
/// which the cache stores whole — recording nested operations separately
/// would double-count them and desynchronize the hit-path cursor. Only the
/// bind channel (`binds`) and the statement's `resident` memo flow through,
/// so base tables bound inside nested arguments still anchor the stored
/// plan's validity and are materialized once. `shapes_only` (plain
/// EXPLAIN, which reads nothing but shapes) binds the base tables that are
/// arguments as the catalog holds them, so a paged table faults in no
/// page; subqueries inside arguments still run.
Result<RmaExprPtr> BuildRmaExpr(const Database& db, const TableRefPtr& ref,
                                ExecContext* ctx,
                                QueryCache::TableSnapshot* binds,
                                ResidentTables* resident, bool shapes_only) {
  if (shapes_only && ref->kind == TableRef::Kind::kTable) {
    RMA_ASSIGN_OR_RETURN(Relation rel, db.Get(ref->table_name));
    rel.set_name(ref->alias.empty() ? ref->table_name : ref->alias);
    return RmaExpr::Leaf(std::move(rel));
  }
  if (ref->kind != TableRef::Kind::kRmaOp) {
    PlanCacheState nested;
    nested.binds = binds;
    nested.resident = resident;
    // Operation arguments bind whole: their columns are the matrix.
    RMA_ASSIGN_OR_RETURN(Bound b, EvaluateTableRef(db, ref, ctx, &nested,
                                                   /*needed=*/nullptr));
    return RmaExpr::Leaf(std::move(b.rel));
  }
  auto expr = std::make_shared<RmaExpr>();
  expr->kind = RmaExpr::Kind::kOp;
  expr->op = ref->op;
  expr->alias = ref->alias;
  for (const auto& a : ref->rma_args) {
    RMA_ASSIGN_OR_RETURN(
        RmaExprPtr child,
        BuildRmaExpr(db, a.table, ctx, binds, resident, shapes_only));
    expr->children.push_back(std::move(child));
    expr->orders.push_back(a.order);
  }
  return expr;
}

/// Splits an ON condition into equi-join pairs (left index, right index)
/// plus a residual predicate evaluated after the join.
void CollectJoinConditions(const SqlExprPtr& e, std::vector<SqlExprPtr>* out) {
  if (e->kind == SqlExpr::Kind::kBinary && ToUpper(e->name) == "AND") {
    CollectJoinConditions(e->args[0], out);
    CollectJoinConditions(e->args[1], out);
    return;
  }
  out->push_back(e);
}

Result<Bound> EvaluateJoin(const Database& db, const TableRef& ref,
                           ExecContext* ctx, PlanCacheState* pcs,
                           const ColumnNames* needed) {
  RMA_ASSIGN_OR_RETURN(Bound left,
                       EvaluateTableRef(db, ref.left, ctx, pcs, needed));
  RMA_ASSIGN_OR_RETURN(Bound right,
                       EvaluateTableRef(db, ref.right, ctx, pcs, needed));
  Bound combined;
  combined.names = left.names;
  combined.names.insert(combined.names.end(), right.names.begin(),
                        right.names.end());
  combined.quals = left.quals;
  combined.quals.insert(combined.quals.end(), right.quals.begin(),
                        right.quals.end());
  const int left_cols = left.rel.num_columns();

  if (ref.join_kind == TableRef::JoinKind::kCross || ref.on == nullptr) {
    RMA_ASSIGN_OR_RETURN(combined.rel, rel::CrossJoin(left.rel, right.rel));
    return combined;
  }
  // INNER JOIN ... ON: extract equality pairs across the two sides for a
  // hash join; evaluate any residual conjuncts as a post-filter.
  std::vector<SqlExprPtr> conjuncts;
  CollectJoinConditions(ref.on, &conjuncts);
  std::vector<int> lkeys;
  std::vector<int> rkeys;
  std::vector<SqlExprPtr> residual;
  for (const auto& c : conjuncts) {
    bool handled = false;
    if (c->kind == SqlExpr::Kind::kBinary && c->name == "=") {
      const auto& a = c->args[0];
      const auto& bb = c->args[1];
      if (a->kind == SqlExpr::Kind::kColumn &&
          bb->kind == SqlExpr::Kind::kColumn) {
        auto ia = ResolveColumn(combined, a->qualifier, a->name);
        auto ib = ResolveColumn(combined, bb->qualifier, bb->name);
        if (ia.ok() && ib.ok()) {
          int l = *ia;
          int r = *ib;
          if (l > r) std::swap(l, r);
          if (l < left_cols && r >= left_cols) {
            lkeys.push_back(l);
            rkeys.push_back(r - left_cols);
            handled = true;
          }
        }
      }
    }
    if (!handled) residual.push_back(c);
  }
  if (lkeys.empty()) {
    RMA_ASSIGN_OR_RETURN(combined.rel, rel::CrossJoin(left.rel, right.rel));
    residual = conjuncts;
  } else {
    RMA_ASSIGN_OR_RETURN(combined.rel,
                         rel::HashJoinAt(left.rel, right.rel, lkeys, rkeys));
  }
  for (const auto& c : residual) {
    RMA_ASSIGN_OR_RETURN(rel::ExprPtr pred, ResolveScalar(c, combined));
    RMA_ASSIGN_OR_RETURN(combined.rel, rel::Select(combined.rel, pred));
  }
  return combined;
}

Result<Relation> ExecuteSelectImpl(const Database& db, const SelectStmt& stmt,
                                   ExecContext* ctx, PlanCacheState* pcs);

Result<Bound> EvaluateTableRef(const Database& db, const TableRefPtr& ref,
                               ExecContext* ctx, PlanCacheState* pcs,
                               const ColumnNames* needed) {
  switch (ref->kind) {
    case TableRef::Kind::kTable: {
      RMA_ASSIGN_OR_RETURN(Relation rel, db.Get(ref->table_name));
      if (pcs->binds != nullptr) {
        pcs->binds->emplace_back(ToLower(ref->table_name), rel.identity());
      }
      // Late materialization: only the columns the statement names are
      // gathered by joins, and only they fault in from a paged store.
      if (needed != nullptr) rel = KeepNeeded(rel, *needed);
      // Store-backed tables bind as a resident malloc copy, matrix-operation
      // arguments included: the relational operators and streamed results
      // read through accessors with no Status path, so residency faults
      // (torn-page checksums) must surface here, as this statement's error.
      // A table bound whole is copied once per statement (`resident`).
      ResidentTables* resident = needed == nullptr ? pcs->resident : nullptr;
      if (resident != nullptr) {
        auto it = resident->find(rel.identity());
        if (it == resident->end()) {
          RMA_ASSIGN_OR_RETURN(Relation copy, MaterializeUnstable(rel));
          it = resident->emplace(rel.identity(), std::move(copy)).first;
        }
        rel = it->second;
      } else {
        RMA_ASSIGN_OR_RETURN(rel, MaterializeUnstable(rel));
      }
      const std::string alias =
          ref->alias.empty() ? ref->table_name : ref->alias;
      rel.set_name(alias);
      return BindRelation(std::move(rel), alias);
    }
    case TableRef::Kind::kSubquery: {
      RMA_ASSIGN_OR_RETURN(Relation rel,
                           ExecuteSelectImpl(db, *ref->subquery, ctx, pcs));
      if (!ref->alias.empty()) rel.set_name(ref->alias);
      return BindRelation(std::move(rel), ref->alias);
    }
    case TableRef::Kind::kRmaOp: {
      // A plan-cache hit serves the whole operation tree: the rewritten
      // expression (leaf relations bound at record time — sound because a
      // plan hits only while the catalog maps every table it read to the
      // relation it embedded) evaluates directly, with no rebinding or
      // rewriting; each operation still plans its kernel when it dispatches
      // (RmaUnary/RmaBinary).
      if (pcs->hit != nullptr && pcs->cursor < pcs->hit->ops.size()) {
        const QueryCache::CachedOp& cop = pcs->hit->ops[pcs->cursor++];
        RMA_ASSIGN_OR_RETURN(Relation rel,
                             EvaluateExpression(cop.rewritten, ctx));
        return BindRelation(std::move(rel), ref->alias);
      }
      // Build the whole nested-operation tree as an algebra expression so
      // the cross-algebra rewriter sees patterns that span FROM-clause
      // nesting levels (e.g. MMU(TRA(w3 BY U) BY C, w3 BY U) → CPD) and
      // the staged pipeline plans, caches, and executes it as one unit.
      RMA_ASSIGN_OR_RETURN(RmaExprPtr expr,
                           BuildRmaExpr(db, ref, ctx, pcs->binds,
                                        pcs->resident, /*shapes_only=*/false));
      RewriteReport report;
      const RmaExprPtr rewritten =
          RewriteExpression(expr, ctx->options().rewrites, &report);
      if (pcs->record != nullptr) {
        pcs->record->push_back(QueryCache::CachedOp{rewritten, report.applied});
      }
      RMA_ASSIGN_OR_RETURN(Relation rel, EvaluateExpression(rewritten, ctx));
      return BindRelation(std::move(rel), ref->alias);
    }
    case TableRef::Kind::kJoin:
      return EvaluateJoin(db, *ref, ctx, pcs, needed);
  }
  return Status::Invalid("unreachable table-ref kind");
}

// --- aggregation ------------------------------------------------------------

struct AggInfo {
  std::string func;
  SqlExprPtr arg;  ///< null for COUNT(*)
};

/// A select item in an aggregating query: either a group-by column or a
/// single aggregate call (standard minimal SQL; richer expressions over
/// aggregates are written as subqueries, as in the paper's example).
Result<Relation> ExecuteAggregation(const SelectStmt& stmt, const Bound& from) {
  // Resolve group-by columns.
  std::vector<int> group_idx;
  for (const auto& g : stmt.group_by) {
    if (g->kind != SqlExpr::Kind::kColumn) {
      return Status::Invalid("GROUP BY supports column references only");
    }
    RMA_ASSIGN_OR_RETURN(int idx, ResolveColumn(from, g->qualifier, g->name));
    group_idx.push_back(idx);
  }
  // Classify select items.
  struct OutItem {
    bool is_group = false;
    int group_pos = -1;    // index into group_idx
    int agg_pos = -1;      // index into aggs
    std::string name;
  };
  std::vector<OutItem> out_items;
  std::vector<AggInfo> aggs;
  int fallback = 0;
  for (const auto& item : stmt.items) {
    if (item.expr->kind == SqlExpr::Kind::kStar) {
      return Status::Invalid("SELECT * cannot be combined with GROUP BY");
    }
    OutItem out;
    out.name = !item.alias.empty() ? item.alias
                                   : DeriveName(item.expr, fallback);
    ++fallback;
    if (item.expr->kind == SqlExpr::Kind::kColumn) {
      RMA_ASSIGN_OR_RETURN(
          int idx, ResolveColumn(from, item.expr->qualifier, item.expr->name));
      auto it = std::find(group_idx.begin(), group_idx.end(), idx);
      if (it == group_idx.end()) {
        return Status::Invalid("column " + item.expr->name +
                               " must appear in GROUP BY or an aggregate");
      }
      out.is_group = true;
      out.group_pos = static_cast<int>(it - group_idx.begin());
    } else if (item.expr->kind == SqlExpr::Kind::kCall &&
               IsAggregateName(item.expr->name)) {
      AggInfo info;
      info.func = ToUpper(item.expr->name);
      if (item.expr->args.size() == 1 &&
          item.expr->args[0]->kind == SqlExpr::Kind::kStar) {
        if (info.func != "COUNT") {
          return Status::Invalid(info.func + "(*) is not supported");
        }
        info.arg = nullptr;
      } else if (item.expr->args.size() == 1) {
        info.arg = item.expr->args[0];
      } else {
        return Status::Invalid("aggregate takes exactly one argument");
      }
      out.agg_pos = static_cast<int>(aggs.size());
      aggs.push_back(std::move(info));
    } else {
      return Status::Invalid(
          "each select item must be a group-by column or an aggregate; use "
          "a subquery for expressions over aggregates");
    }
    out_items.push_back(std::move(out));
  }
  // Pre-projection: group columns g0.. + aggregate arguments a0..
  std::vector<rel::ProjectItem> pre;
  for (size_t g = 0; g < group_idx.size(); ++g) {
    pre.push_back({rel::Expr::ColumnAt(group_idx[g]),
                   "g" + std::to_string(g)});
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].arg == nullptr) continue;  // COUNT(*)
    RMA_ASSIGN_OR_RETURN(rel::ExprPtr e, ResolveScalar(aggs[a].arg, from));
    pre.push_back({std::move(e), "a" + std::to_string(a)});
  }
  if (pre.empty()) {
    // Only COUNT(*) and no grouping: a zero-column projection would lose the
    // row count, so stage a constant column.
    pre.push_back({rel::Expr::LiteralInt(1), "_one"});
  }
  RMA_ASSIGN_OR_RETURN(Relation staged, rel::Project(from.rel, pre));
  // Aggregate.
  std::vector<std::string> group_names;
  for (size_t g = 0; g < group_idx.size(); ++g) {
    group_names.push_back("g" + std::to_string(g));
  }
  std::vector<rel::AggSpec> specs;
  for (size_t a = 0; a < aggs.size(); ++a) {
    specs.push_back({aggs[a].func,
                     aggs[a].arg == nullptr ? "" : "a" + std::to_string(a),
                     "out" + std::to_string(a)});
  }
  RMA_ASSIGN_OR_RETURN(Relation agged,
                       rel::Aggregate(staged, group_names, specs));
  // Final projection in select-list order with output names.
  std::vector<rel::ProjectItem> fin;
  std::vector<std::string> out_names;
  for (const auto& out : out_items) out_names.push_back(out.name);
  out_names = UniquifyNames(std::move(out_names));
  for (size_t i = 0; i < out_items.size(); ++i) {
    const auto& out = out_items[i];
    const std::string src = out.is_group
                                ? "g" + std::to_string(out.group_pos)
                                : "out" + std::to_string(out.agg_pos);
    RMA_ASSIGN_OR_RETURN(int idx, agged.schema().IndexOf(src));
    fin.push_back({rel::Expr::ColumnAt(idx), out_names[i]});
  }
  return rel::Project(agged, fin);
}

// --- ORDER BY ----------------------------------------------------------------

Result<Relation> ApplyOrderBy(Relation rel,
                              const std::vector<OrderItem>& order_by) {
  std::vector<BatPtr> keys;
  std::vector<bool> descending;
  for (const auto& item : order_by) {
    if (item.expr->kind != SqlExpr::Kind::kColumn) {
      return Status::Invalid("ORDER BY supports column references only");
    }
    RMA_ASSIGN_OR_RETURN(int idx,
                         rel.schema().IndexOfIgnoreCase(item.expr->name));
    keys.push_back(rel.column(idx));
    descending.push_back(!item.ascending);
  }
  return rel.TakeRows(bat_ops::ArgSort(keys, descending));
}

Result<Relation> ExecuteSelectImpl(const Database& db, const SelectStmt& stmt,
                                   ExecContext* ctx, PlanCacheState* pcs) {
  if (stmt.from == nullptr) {
    return Status::Invalid("query requires a FROM clause");
  }
  const std::optional<ColumnNames> needed = ReferencedColumns(stmt);
  RMA_ASSIGN_OR_RETURN(
      Bound from, EvaluateTableRef(db, stmt.from, ctx, pcs,
                                   needed.has_value() ? &*needed : nullptr));
  if (stmt.where != nullptr) {
    RMA_ASSIGN_OR_RETURN(rel::ExprPtr pred, ResolveScalar(stmt.where, from));
    RMA_ASSIGN_OR_RETURN(from.rel, rel::Select(from.rel, pred));
  }
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (ContainsAggregate(item.expr)) has_agg = true;
  }
  Relation result;
  if (has_agg) {
    RMA_ASSIGN_OR_RETURN(result, ExecuteAggregation(stmt, from));
  } else {
    std::vector<rel::ProjectItem> items;
    std::vector<std::string> names;
    int fallback = 0;
    for (const auto& item : stmt.items) {
      if (item.expr->kind == SqlExpr::Kind::kStar) {
        for (int c = 0; c < from.rel.num_columns(); ++c) {
          items.push_back({rel::Expr::ColumnAt(c), ""});
          names.push_back(from.rel.schema().attribute(c).name);
        }
        continue;
      }
      RMA_ASSIGN_OR_RETURN(rel::ExprPtr e, ResolveScalar(item.expr, from));
      items.push_back({std::move(e), ""});
      names.push_back(!item.alias.empty() ? item.alias
                                          : DeriveName(item.expr, fallback));
      ++fallback;
    }
    names = UniquifyNames(std::move(names));
    for (size_t i = 0; i < items.size(); ++i) items[i].name = names[i];
    RMA_ASSIGN_OR_RETURN(result, rel::Project(from.rel, items));
  }
  if (!stmt.order_by.empty()) {
    RMA_ASSIGN_OR_RETURN(result, ApplyOrderBy(std::move(result),
                                              stmt.order_by));
  }
  if (stmt.limit >= 0) {
    RMA_ASSIGN_OR_RETURN(result, rel::Limit(result, 0, stmt.limit));
  }
  return result;
}

/// The caller's current read-set snapshot: the (lower-cased name, identity)
/// of every base table the statement's AST references, as the catalog maps
/// them right now, sorted by name. Returns false when a referenced table is
/// absent: there is nothing to match, so the statement does not look up
/// (it is about to fail at bind, unless a concurrent Register wins the race).
bool SnapshotReadTables(const Database& db, const SelectStmt& stmt,
                        QueryCache::TableSnapshot* snapshot) {
  for (const std::string& name : ReadTables(stmt)) {
    Result<Relation> rel = db.Get(name);
    if (!rel.ok()) return false;
    snapshot->emplace_back(name, rel->identity());
  }
  return true;
}

/// Canonicalizes the binds a recorded statement accumulated into the
/// snapshot stored on its plan: sorted by name, exact duplicates collapsed.
/// Returns false when the same table was bound as two different relations —
/// a catalog mutation landed mid-statement; such a plan embeds a mix of
/// catalog states, matches no snapshot, and is not stored.
bool CanonicalizeBinds(QueryCache::TableSnapshot* binds) {
  std::sort(binds->begin(), binds->end());
  binds->erase(std::unique(binds->begin(), binds->end()), binds->end());
  for (size_t i = 1; i < binds->size(); ++i) {
    if ((*binds)[i].first == (*binds)[i - 1].first) return false;
  }
  return true;
}

/// Shared statement runner: snapshots the read set, looks the plan up in
/// the database's cache under `key`, executes (serving the statement's
/// relational matrix operations from the plan on a hit), and on a miss
/// stores the plan the run recorded. Concurrent identical statements that
/// all miss each plan and store; the last store wins, and any of them
/// serves later statements alike. `plan_out` (optional) receives the plan
/// that served or was recorded.
Result<Relation> RunStatement(const Database& db, const SelectStmt& stmt,
                              const std::string& key, ExecContext* ctx,
                              QueryCache::StatementPlanPtr* plan_out) {
  const QueryCachePtr& cache = db.query_cache();
  const uint64_t fingerprint =
      QueryCache::OptionsFingerprint(ctx->options());
  QueryCache::TableSnapshot current_tables;
  QueryCache::StatementPlanPtr used;
  if (SnapshotReadTables(db, stmt, &current_tables)) {
    used = cache->LookupPlan(key, fingerprint, current_tables);
  }
  ctx->RecordPlanCache(used != nullptr
                           ? ExecContext::PlanCacheOutcome::kHit
                           : ExecContext::PlanCacheOutcome::kMiss);
  PlanCacheState pcs;
  ResidentTables resident;
  pcs.resident = &resident;
  std::vector<QueryCache::CachedOp> recorded;
  QueryCache::TableSnapshot bound_tables;
  if (used != nullptr) {
    pcs.hit = used.get();
  } else {
    pcs.record = &recorded;
    pcs.binds = &bound_tables;
  }
  // Buffer-pool counters are store-global; attributing them to this
  // statement means bracketing execution with snapshots and recording the
  // delta. Concurrent statements may interleave pool traffic — the deltas
  // then split the shared activity between them, which is the best a
  // pool-level counter can attribute.
  BufferPoolStats pool_before;
  const std::shared_ptr<PagedStore>& store = db.paged_store();
  if (store != nullptr) pool_before = store->pool()->stats();
  Result<Relation> result = ExecuteSelectImpl(db, stmt, ctx, &pcs);
  if (store != nullptr) {
    const BufferPoolStats after = store->pool()->stats();
    ctx->RecordPoolDelta(after.hits - pool_before.hits,
                         after.misses - pool_before.misses,
                         after.evictions - pool_before.evictions,
                         after.writebacks - pool_before.writebacks);
  }
  if (!result.ok()) return result;
  if (used == nullptr) {
    auto plan = std::make_shared<QueryCache::StatementPlan>();
    plan->ops = std::move(recorded);
    plan->options_fingerprint = fingerprint;
    // Anchor validity on the identities actually bound during execution
    // (not the pre-execution snapshot): if the catalog still maps every
    // read table to these exact relations, the embedded leaves *are* the
    // current catalog — regardless of how often unrelated tables changed.
    const bool consistent = CanonicalizeBinds(&bound_tables);
    plan->base_tables = std::move(bound_tables);
    used = plan;
    if (consistent) cache->StorePlan(key, std::move(plan));
  }
  if (plan_out != nullptr) *plan_out = std::move(used);
  return result;
}

}  // namespace

Result<Relation> ExecuteSelectCached(const Database& db, const Statement& stmt,
                                     ExecContext* ctx) {
  if (stmt.select == nullptr) {
    return Status::Invalid("statement has no SELECT to execute");
  }
  return RunStatement(db, *stmt.select, stmt.plan_key, ctx,
                      /*plan_out=*/nullptr);
}

// --- EXPLAIN -----------------------------------------------------------------

namespace {

void AppendIndented(const std::string& block, int depth,
                    std::vector<std::string>* lines) {
  std::string line;
  for (char c : block) {
    if (c == '\n') {
      lines->push_back(std::string(static_cast<size_t>(depth) * 2, ' ') + line);
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) {
    lines->push_back(std::string(static_cast<size_t>(depth) * 2, ' ') + line);
  }
}

Status ExplainSelectLines(const Database& db, const SelectStmt& stmt,
                          ExecContext* ctx, int depth,
                          std::vector<std::string>* lines);

std::string RewritesFired(const std::vector<std::string>& rules) {
  std::string fired = "rewrites fired:";
  if (rules.empty()) return fired + " (none)";
  for (const auto& rule : rules) fired += " " + rule;
  return fired;
}

Status ExplainTableRef(const Database& db, const TableRefPtr& ref,
                       ExecContext* ctx, int depth,
                       std::vector<std::string>* lines) {
  switch (ref->kind) {
    case TableRef::Kind::kTable: {
      RMA_ASSIGN_OR_RETURN(Relation rel, db.Get(ref->table_name));
      AppendIndented("scan " + ref->table_name + " [" +
                         std::to_string(rel.num_rows()) + " rows x " +
                         std::to_string(rel.num_columns()) + " cols]",
                     depth, lines);
      return Status::OK();
    }
    case TableRef::Kind::kSubquery: {
      AppendIndented("subquery" +
                         (ref->alias.empty() ? "" : " AS " + ref->alias) + ":",
                     depth, lines);
      return ExplainSelectLines(db, *ref->subquery, ctx, depth + 1, lines);
    }
    case TableRef::Kind::kJoin: {
      AppendIndented(ref->join_kind == TableRef::JoinKind::kCross
                         ? "cross join"
                         : "inner join",
                     depth, lines);
      RMA_RETURN_NOT_OK(ExplainTableRef(db, ref->left, ctx, depth + 1, lines));
      return ExplainTableRef(db, ref->right, ctx, depth + 1, lines);
    }
    case TableRef::Kind::kRmaOp: {
      ResidentTables resident;
      RMA_ASSIGN_OR_RETURN(RmaExprPtr expr,
                           BuildRmaExpr(db, ref, ctx, /*binds=*/nullptr,
                                        &resident, /*shapes_only=*/true));
      RewriteReport report;
      RMA_ASSIGN_OR_RETURN(PlanNodePtr plan,
                           PlanExpression(expr, ctx->options(), &report));
      AppendIndented("relational matrix operation" +
                         (ref->alias.empty() ? "" : " AS " + ref->alias) + ":",
                     depth, lines);
      AppendIndented(RenderPlan(plan), depth + 1, lines);
      AppendIndented(RewritesFired(report.applied), depth + 1, lines);
      return Status::OK();
    }
  }
  return Status::Invalid("unreachable table-ref kind");
}

Status ExplainSelectLines(const Database& db, const SelectStmt& stmt,
                          ExecContext* ctx, int depth,
                          std::vector<std::string>* lines) {
  if (stmt.from == nullptr) {
    return Status::Invalid("query requires a FROM clause");
  }
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (ContainsAggregate(item.expr)) has_agg = true;
  }
  AppendIndented(has_agg ? "aggregate + project" : "project", depth, lines);
  if (!stmt.order_by.empty()) AppendIndented("order by", depth, lines);
  if (stmt.limit >= 0) {
    AppendIndented("limit " + std::to_string(stmt.limit), depth, lines);
  }
  if (stmt.where != nullptr) AppendIndented("filter (WHERE)", depth, lines);
  AppendIndented("from:", depth, lines);
  return ExplainTableRef(db, stmt.from, ctx, depth + 1, lines);
}

std::string FormatSecs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", seconds);
  return buf;
}

Result<Relation> PlanRelation(std::vector<std::string> lines) {
  auto schema = Schema::Make({{"plan", DataType::kString}});
  RMA_RETURN_NOT_OK(schema.status());
  return Relation::Make(std::move(*schema), {MakeStringBat(std::move(lines))},
                        "explain");
}

/// The EXPLAIN ANALYZE execution section: per operation, the plan it ran
/// under and its measured stage times (plans() zipped with op_stats()),
/// then statement-level cache provenance, result cardinality, and total
/// wall time.
void AppendExecutionSection(const Database& db, const ExecContext& ctx,
                            const Relation& result, double total_seconds,
                            std::vector<std::string>* lines) {
  lines->push_back("execution:");
  const std::vector<OpPlan>& plans = ctx.plans();
  const std::vector<RmaStats>& stats = ctx.op_stats();
  const size_t n = std::min(plans.size(), stats.size());
  for (size_t i = 0; i < n; ++i) {
    std::ostringstream os;
    os << "op " << i + 1 << ": " << plans[i].DebugString()
       << " sort=" << FormatSecs(stats[i].sort_seconds)
       << " gather=" << FormatSecs(stats[i].transform_in_seconds)
       << " kernel=" << FormatSecs(stats[i].compute_seconds)
       << " scatter=" << FormatSecs(stats[i].transform_out_seconds)
       << " morph=" << FormatSecs(stats[i].morph_seconds);
    if (plans[i].shards > 1) {
      os << " merge=" << FormatSecs(stats[i].merge_seconds) << " shards=[";
      for (size_t s = 0; s < stats[i].shard_seconds.size(); ++s) {
        if (s > 0) os << ' ';
        os << FormatSecs(stats[i].shard_seconds[s]);
      }
      os << ']';
    }
    os << " prepared: " << stats[i].prepared_cache_hits << " hit, "
       << stats[i].prepared_cache_misses << " miss";
    AppendIndented(os.str(), 1, lines);
  }
  std::string plan_line = "plan cache: ";
  switch (ctx.plan_cache_outcome()) {
    case ExecContext::PlanCacheOutcome::kHit:
      plan_line += "hit";
      break;
    case ExecContext::PlanCacheOutcome::kMiss:
      plan_line += "miss";
      break;
    case ExecContext::PlanCacheOutcome::kNotConsulted:
      plan_line += "not consulted";
      break;
  }
  AppendIndented(plan_line, 1, lines);
  AppendIndented("simd: " + simd::Describe(), 1, lines);
  const RmaStats& totals = ctx.totals();
  AppendIndented("prepared cache: " +
                     std::to_string(totals.prepared_cache_hits) + " hits, " +
                     std::to_string(totals.prepared_cache_misses) +
                     " misses, " +
                     std::to_string(totals.prepared_cache_evictions) +
                     " evictions",
                 1, lines);
  if (db.paged_store() != nullptr ||
      totals.pool_hits + totals.pool_misses + totals.pool_evictions +
              totals.pool_writebacks >
          0) {
    AppendIndented("buffer pool: " + std::to_string(totals.pool_hits) +
                       " hits, " + std::to_string(totals.pool_misses) +
                       " misses, " + std::to_string(totals.pool_evictions) +
                       " evictions, " +
                       std::to_string(totals.pool_writebacks) + " writebacks",
                   1, lines);
  }
  AppendIndented("rows: " + std::to_string(result.num_rows()), 1, lines);
  AppendIndented("total: " + FormatSecs(total_seconds), 1, lines);
}

}  // namespace

Result<Relation> ExplainStatement(Database& db, const Statement& stmt,
                                  const RmaOptions& opts,
                                  ExecContext::PlanCacheOutcome* outcome) {
  *outcome = ExecContext::PlanCacheOutcome::kNotConsulted;
  if (stmt.select == nullptr) {
    return Status::Invalid("EXPLAIN requires a SELECT or CREATE TABLE AS");
  }
  std::vector<std::string> lines;
  if (!stmt.analyze) {
    // Plain EXPLAIN: render the full relational pipeline without executing
    // (a CREATE TABLE AS is not registered). The scratch context carries a
    // private cache so shape-binding work (which may evaluate subqueries
    // nested inside matrix-operation arguments) does not pre-warm the
    // shared cache.
    const int depth = stmt.explain_create ? 1 : 0;
    if (stmt.explain_create) {
      lines.push_back("create table " + stmt.table_name +
                      " as [not executed]");
    }
    ExecContext plan_ctx(opts);
    RMA_RETURN_NOT_OK(
        ExplainSelectLines(db, *stmt.select, &plan_ctx, depth, &lines));
    return PlanRelation(std::move(lines));
  }

  // EXPLAIN ANALYZE: execute through the database's plan cache, then list
  // the rewrites of the statement plan that served (or was recorded by) the
  // run and the measured execution section, whose op lines carry the plans
  // the operations ran under. CREATE TABLE AS registers its result (side
  // effects are part of execution) and consults the cache like any
  // statement: invalidation is per-table, so its own Register only evicts
  // the stored plan when the select reads the table it replaces.
  if (stmt.explain_create) {
    lines.push_back("create table " + stmt.table_name + " as");
  }
  ExecContext ctx(opts, db.query_cache());
  QueryCache::StatementPlanPtr plan_used;
  Timer timer;
  Result<Relation> result =
      RunStatement(db, *stmt.select, stmt.plan_key, &ctx, &plan_used);
  const double total_seconds = timer.Seconds();
  *outcome = ctx.plan_cache_outcome();
  RMA_RETURN_NOT_OK(result.status());
  if (stmt.explain_create) {
    RMA_RETURN_NOT_OK(db.Register(stmt.table_name, *result));
  }
  for (const QueryCache::CachedOp& cop : plan_used->ops) {
    lines.push_back("relational matrix operation:");
    AppendIndented(RewritesFired(cop.rewrites), 1, &lines);
  }
  AppendExecutionSection(db, ctx, *result, total_seconds, &lines);
  return PlanRelation(std::move(lines));
}

}  // namespace rma::sql
