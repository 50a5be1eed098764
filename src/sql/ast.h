#ifndef RMA_SQL_AST_H_
#define RMA_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "core/ops.h"
#include "storage/value.h"

namespace rma::sql {

/// Scalar expression AST (pre-analysis: columns referenced by name with an
/// optional table qualifier; aggregates appear as function calls).
struct SqlExpr;
using SqlExprPtr = std::shared_ptr<SqlExpr>;

struct SqlExpr {
  enum class Kind { kColumn, kLiteral, kBinary, kUnary, kCall, kStar };
  Kind kind;
  std::string qualifier;            ///< kColumn: optional table alias
  std::string name;                 ///< column / operator / function name
  Value literal = Value(int64_t{0}); ///< kLiteral
  std::vector<SqlExprPtr> args;     ///< operands / call arguments

  static SqlExprPtr Column(std::string qual, std::string nm) {
    auto e = std::make_shared<SqlExpr>();
    e->kind = Kind::kColumn;
    e->qualifier = std::move(qual);
    e->name = std::move(nm);
    return e;
  }
  static SqlExprPtr Lit(Value v) {
    auto e = std::make_shared<SqlExpr>();
    e->kind = Kind::kLiteral;
    e->literal = std::move(v);
    return e;
  }
  static SqlExprPtr Binary(std::string op, SqlExprPtr l, SqlExprPtr r) {
    auto e = std::make_shared<SqlExpr>();
    e->kind = Kind::kBinary;
    e->name = std::move(op);
    e->args = {std::move(l), std::move(r)};
    return e;
  }
  static SqlExprPtr Unary(std::string op, SqlExprPtr x) {
    auto e = std::make_shared<SqlExpr>();
    e->kind = Kind::kUnary;
    e->name = std::move(op);
    e->args = {std::move(x)};
    return e;
  }
  static SqlExprPtr Call(std::string fn, std::vector<SqlExprPtr> a) {
    auto e = std::make_shared<SqlExpr>();
    e->kind = Kind::kCall;
    e->name = std::move(fn);
    e->args = std::move(a);
    return e;
  }
  static SqlExprPtr Star() {
    auto e = std::make_shared<SqlExpr>();
    e->kind = Kind::kStar;
    return e;
  }
};

struct SelectStmt;
using SelectStmtPtr = std::shared_ptr<SelectStmt>;

/// A table reference in FROM: base table, subquery, or a relational matrix
/// operation `OP(arg BY cols, ...)` (the paper's SQL extension, Sec. 7.2).
struct TableRef;
using TableRefPtr = std::shared_ptr<TableRef>;

struct RmaArg {
  TableRefPtr table;
  std::vector<std::string> order;  ///< BY attribute list
};

struct TableRef {
  enum class Kind { kTable, kSubquery, kRmaOp, kJoin };
  Kind kind;
  std::string alias;  ///< empty if none

  // kTable
  std::string table_name;
  // kSubquery
  SelectStmtPtr subquery;
  // kRmaOp
  MatrixOp op = MatrixOp::kInv;
  std::vector<RmaArg> rma_args;
  // kJoin
  enum class JoinKind { kInner, kCross };
  JoinKind join_kind = JoinKind::kCross;
  TableRefPtr left;
  TableRefPtr right;
  SqlExprPtr on;  ///< null for cross joins
};

struct SelectItem {
  SqlExprPtr expr;     ///< kStar for SELECT *
  std::string alias;   ///< empty: derived from the expression
};

struct OrderItem {
  SqlExprPtr expr;  ///< column reference
  bool ascending = true;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  TableRefPtr from;
  SqlExprPtr where;                 ///< may be null
  std::vector<SqlExprPtr> group_by; ///< column references
  std::vector<OrderItem> order_by;
  int64_t limit = -1;               ///< -1: no limit
};

/// Top-level statement: a query, CREATE TABLE name AS query, DROP TABLE, or
/// EXPLAIN [ANALYZE] over a query or a CREATE TABLE AS. Plain EXPLAIN
/// renders the physical plan without executing; EXPLAIN ANALYZE executes the
/// statement (including the CREATE TABLE AS registration) and annotates the
/// plan with measured stage times and cache provenance.
struct Statement {
  enum class Kind { kSelect, kCreateTableAs, kDropTable, kExplain };
  Kind kind = Kind::kSelect;
  SelectStmtPtr select;     ///< kSelect / kCreateTableAs / kExplain
  std::string table_name;   ///< kCreateTableAs / kDropTable / explained CTAS
  bool analyze = false;     ///< kExplain: EXPLAIN ANALYZE
  bool explain_create = false;  ///< kExplain: the explained statement is a
                                ///< CREATE TABLE table_name AS select
  /// Plan-cache key, built by Parse from the statement's tokens: each token
  /// as its kind plus its spelling, identifiers lower-cased, string
  /// literals verbatim and length-prefixed, so spacing and comments never
  /// split an entry and two different token lists never share one. A
  /// leading EXPLAIN [ANALYZE] and a trailing ';' are left out, so
  /// `SELECT …`, `select …;` and `EXPLAIN ANALYZE SELECT …` share a plan.
  std::string plan_key;
};

}  // namespace rma::sql

#endif  // RMA_SQL_AST_H_
