#ifndef RMA_REL_EXPRESSION_H_
#define RMA_REL_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "util/result.h"

namespace rma::rel {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Scalar expression AST shared by the relational operators and the SQL
/// front end: column references, literals, arithmetic/comparison/logic, and
/// a small scalar function library (SQRT, ABS, POW, LN, EXP).
///
/// Expressions are unbound (columns referenced by name); `Bind` resolves
/// them against a schema into an efficiently evaluable form.
class Expr {
 public:
  enum class Kind { kColumn, kLiteral, kBinary, kUnary, kCall };

  /// Column reference by (exact) attribute name.
  static ExprPtr Column(std::string name);
  /// Column reference by position (used by the SQL layer after qualified
  /// name resolution; positions survive joins with duplicate names).
  static ExprPtr ColumnAt(int index) {
    return Column("$" + std::to_string(index));
  }
  /// Constant.
  static ExprPtr Literal(Value v);
  static ExprPtr LiteralInt(int64_t v) { return Literal(Value(v)); }
  static ExprPtr LiteralDouble(double v) { return Literal(Value(v)); }
  static ExprPtr LiteralString(std::string v) {
    return Literal(Value(std::move(v)));
  }
  /// Binary operator: + - * / %  < <= > >= = <>  AND OR.
  static ExprPtr Binary(std::string op, ExprPtr lhs, ExprPtr rhs);
  /// Unary operator: - NOT.
  static ExprPtr Unary(std::string op, ExprPtr operand);
  /// Scalar function call by (case-insensitive) name.
  static ExprPtr Call(std::string fn, std::vector<ExprPtr> args);

  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }   // column/op/function
  const Value& value() const { return value_; }        // literal
  const std::vector<ExprPtr>& children() const { return children_; }

  std::string ToString() const;

 private:
  Expr(Kind kind, std::string name, Value value, std::vector<ExprPtr> children)
      : kind_(kind),
        name_(std::move(name)),
        value_(std::move(value)),
        children_(std::move(children)) {}

  Kind kind_;
  std::string name_;
  Value value_ = Value(int64_t{0});
  std::vector<ExprPtr> children_;
};

/// An expression compiled against a schema: column indices resolved and the
/// result type inferred. Booleans are int64 0/1.
///
/// Evaluation runs a column at a time: one typed loop per operator over
/// every row, with literals broadcast instead of repeated. The semantics
/// are those of `Value`: comparisons between numbers happen in double (int64
/// pairs included), numbers sort before strings and never equal one, `/`
/// always yields a double, `x / 0` and `x % 0` are 0, `x % -1` is 0, and
/// int64 `+ - *` and unary `-` wrap on overflow. A predicate holds on a
/// non-empty string or a non-zero number. `AND`/`OR` evaluate both operands
/// on every row; no operator traps, so that is safe.
class BoundExpr {
 public:
  DataType type() const { return type_; }

  /// For bound column references: the resolved position (-1 otherwise).
  int column_index() const { return column_index_; }
  bool is_column() const { return kind_ == Expr::Kind::kColumn; }

  /// The expression's value on every row of `r` (which must match the
  /// bound schema), as a BAT of type(). A bare column reference returns the
  /// column's own BAT.
  BatPtr EvalColumn(const Relation& r) const;

  /// The rows of `r` on which the expression holds, ascending.
  std::vector<int64_t> TrueRows(const Relation& r) const;

  /// One evaluated operand; defined and used in expression.cc only.
  struct Vec;

 private:
  friend Result<BoundExpr> Bind(const ExprPtr& expr, const Schema& schema);

  Vec Evaluate(const Relation& r) const;

  Expr::Kind kind_;
  DataType type_ = DataType::kInt64;
  int column_index_ = -1;
  Value literal_ = Value(int64_t{0});
  std::string op_;
  std::vector<BoundExpr> children_;
};

/// Resolves column names and checks operator/function applicability.
Result<BoundExpr> Bind(const ExprPtr& expr, const Schema& schema);

}  // namespace rma::rel

#endif  // RMA_REL_EXPRESSION_H_
