#include "rel/expression.h"

#include <cmath>
#include <type_traits>

#include "storage/bat_ops.h"
#include "util/string_util.h"

namespace rma::rel {

ExprPtr Expr::Column(std::string name) {
  return ExprPtr(new Expr(Kind::kColumn, std::move(name), Value(int64_t{0}), {}));
}

ExprPtr Expr::Literal(Value v) {
  return ExprPtr(new Expr(Kind::kLiteral, "", std::move(v), {}));
}

ExprPtr Expr::Binary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  return ExprPtr(new Expr(Kind::kBinary, std::move(op), Value(int64_t{0}),
                          {std::move(lhs), std::move(rhs)}));
}

ExprPtr Expr::Unary(std::string op, ExprPtr operand) {
  return ExprPtr(new Expr(Kind::kUnary, std::move(op), Value(int64_t{0}),
                          {std::move(operand)}));
}

ExprPtr Expr::Call(std::string fn, std::vector<ExprPtr> args) {
  return ExprPtr(
      new Expr(Kind::kCall, ToUpper(fn), Value(int64_t{0}), std::move(args)));
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return name_;
    case Kind::kLiteral:
      return ValueToString(value_);
    case Kind::kBinary:
      return "(" + children_[0]->ToString() + " " + name_ + " " +
             children_[1]->ToString() + ")";
    case Kind::kUnary:
      return "(" + name_ + " " + children_[0]->ToString() + ")";
    case Kind::kCall: {
      std::string out = name_ + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

bool IsComparisonOp(const std::string& op) {
  return op == "<" || op == "<=" || op == ">" || op == ">=" || op == "=" ||
         op == "==" || op == "<>" || op == "!=";
}

bool IsLogicOp(const std::string& op) { return op == "AND" || op == "OR"; }

bool IsArithmeticOp(const std::string& op) {
  return op == "+" || op == "-" || op == "*" || op == "/" || op == "%";
}

int FunctionArity(const std::string& fn) {
  if (fn == "SQRT" || fn == "ABS" || fn == "LN" || fn == "EXP") return 1;
  if (fn == "POW") return 2;
  return -1;
}

}  // namespace

Result<BoundExpr> Bind(const ExprPtr& expr, const Schema& schema) {
  RMA_CHECK(expr != nullptr);
  BoundExpr out;
  out.kind_ = expr->kind();
  switch (expr->kind()) {
    case Expr::Kind::kColumn: {
      int idx = -1;
      if (!expr->name().empty() && expr->name()[0] == '$') {
        idx = std::atoi(expr->name().c_str() + 1);
        if (idx < 0 || idx >= schema.num_attributes()) {
          return Status::KeyError("column position out of range: " +
                                  expr->name());
        }
      } else {
        RMA_ASSIGN_OR_RETURN(idx, schema.IndexOf(expr->name()));
      }
      out.column_index_ = idx;
      out.type_ = schema.attribute(idx).type;
      return out;
    }
    case Expr::Kind::kLiteral: {
      out.literal_ = expr->value();
      out.type_ = ValueType(expr->value());
      return out;
    }
    case Expr::Kind::kUnary: {
      RMA_ASSIGN_OR_RETURN(BoundExpr child, Bind(expr->children()[0], schema));
      out.op_ = ToUpper(expr->name());
      if (out.op_ == "-") {
        if (!IsNumeric(child.type())) {
          return Status::TypeError("unary - on non-numeric operand");
        }
        out.type_ = child.type();
      } else if (out.op_ == "NOT") {
        out.type_ = DataType::kInt64;
      } else {
        return Status::Invalid("unknown unary operator: " + expr->name());
      }
      out.children_.push_back(std::move(child));
      return out;
    }
    case Expr::Kind::kBinary: {
      RMA_ASSIGN_OR_RETURN(BoundExpr lhs, Bind(expr->children()[0], schema));
      RMA_ASSIGN_OR_RETURN(BoundExpr rhs, Bind(expr->children()[1], schema));
      out.op_ = ToUpper(expr->name());
      if (IsArithmeticOp(out.op_)) {
        if (!IsNumeric(lhs.type()) || !IsNumeric(rhs.type())) {
          return Status::TypeError("arithmetic on non-numeric operand");
        }
        const bool both_int = lhs.type() == DataType::kInt64 &&
                              rhs.type() == DataType::kInt64;
        out.type_ = (both_int && out.op_ != "/") ? DataType::kInt64
                                                 : DataType::kDouble;
      } else if (IsComparisonOp(out.op_) || IsLogicOp(out.op_)) {
        out.type_ = DataType::kInt64;
      } else {
        return Status::Invalid("unknown binary operator: " + expr->name());
      }
      out.children_.push_back(std::move(lhs));
      out.children_.push_back(std::move(rhs));
      return out;
    }
    case Expr::Kind::kCall: {
      const int arity = FunctionArity(expr->name());
      if (arity < 0) {
        return Status::Invalid("unknown function: " + expr->name());
      }
      if (static_cast<int>(expr->children().size()) != arity) {
        return Status::Invalid("wrong argument count for " + expr->name());
      }
      out.op_ = expr->name();
      out.type_ = DataType::kDouble;
      for (const auto& c : expr->children()) {
        RMA_ASSIGN_OR_RETURN(BoundExpr bc, Bind(c, schema));
        if (!IsNumeric(bc.type())) {
          return Status::TypeError(expr->name() + " on non-numeric operand");
        }
        out.children_.push_back(std::move(bc));
      }
      return out;
    }
  }
  return Status::Invalid("unreachable expression kind");
}

// An evaluated operand: the values of one type on every row, or a single
// value standing for every row (`scalar`: literals, and operators over
// literals only). The typed pointer reads the array `bat` owns — an input
// column borrowed as is, or a computed result.
struct BoundExpr::Vec {
  DataType type = DataType::kInt64;
  bool scalar = false;
  BatPtr bat;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const std::string* str = nullptr;
};

namespace {

using Vec = BoundExpr::Vec;

// Borrows the array of a typed column or a stable contiguous double view;
// copies any other representation (sparse, paged) once, through its
// accessors.
Vec ColumnVec(const BatPtr& col) {
  Vec out;
  out.type = col->type();
  out.bat = col;
  if (const auto* b = dynamic_cast<const Int64Bat*>(col.get())) {
    out.i64 = b->data().data();
    return out;
  }
  if (const auto* b = dynamic_cast<const DoubleBat*>(col.get())) {
    out.f64 = b->data().data();
    return out;
  }
  if (const auto* b = dynamic_cast<const StringBat*>(col.get())) {
    out.str = b->data().data();
    return out;
  }
  if (const double* d = bat_ops::StableDoubles(*col)) {
    out.f64 = d;
    return out;
  }
  const int64_t n = col->size();
  switch (col->type()) {
    case DataType::kInt64: {
      std::vector<int64_t> v(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        v[static_cast<size_t>(i)] = std::get<int64_t>(col->GetValue(i));
      }
      return ColumnVec(MakeInt64Bat(std::move(v)));
    }
    case DataType::kDouble: {
      std::vector<double> v(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        v[static_cast<size_t>(i)] = col->GetDouble(i);
      }
      return ColumnVec(MakeDoubleBat(std::move(v)));
    }
    case DataType::kString: {
      std::vector<std::string> v(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        v[static_cast<size_t>(i)] = col->GetString(i);
      }
      return ColumnVec(MakeStringBat(std::move(v)));
    }
  }
  return out;
}

template <typename T>
Vec Owned(std::vector<T> v, bool scalar) {
  Vec out = ColumnVec(std::make_shared<TypedBat<T>>(std::move(v)));
  out.scalar = scalar;
  return out;
}

Vec LiteralVec(const Value& v) {
  return std::visit(
      [](const auto& x) { return Owned(std::vector{x}, /*scalar=*/true); }, v);
}

// Calls `f` with the operand's typed array.
template <typename F>
Vec Visit(const Vec& v, F&& f) {
  switch (v.type) {
    case DataType::kInt64:
      return f(v.i64);
    case DataType::kDouble:
      return f(v.f64);
    case DataType::kString:
      return f(v.str);
  }
  return Vec{};
}

// Like Visit, for operands Bind has checked to be numeric.
template <typename F>
Vec VisitNumeric(const Vec& v, F&& f) {
  RMA_CHECK(v.type != DataType::kString);
  return v.type == DataType::kInt64 ? f(v.i64) : f(v.f64);
}

// out[i] = f(a[i]), one loop.
template <typename R, typename A, typename F>
Vec Map1(const A* a, bool scalar, int64_t n, F f) {
  std::vector<R> out(scalar ? 1 : static_cast<size_t>(n));
  for (size_t i = 0; i < out.size(); ++i) out[i] = f(a[i]);
  return Owned(std::move(out), scalar);
}

// out[i] = f(a[i], b[i]), one loop, with scalar operands held in a local.
template <typename R, typename A, typename B, typename F>
Vec Map2(const A* a, bool as, const B* b, bool bs, int64_t n, F f) {
  const size_t m = as && bs ? 1 : static_cast<size_t>(n);
  std::vector<R> out(m);
  if (as && bs) {
    out[0] = f(a[0], b[0]);
  } else if (as) {
    const A& x = a[0];
    for (size_t i = 0; i < m; ++i) out[i] = f(x, b[i]);
  } else if (bs) {
    const B& y = b[0];
    for (size_t i = 0; i < m; ++i) out[i] = f(a[i], y);
  } else {
    for (size_t i = 0; i < m; ++i) out[i] = f(a[i], b[i]);
  }
  return Owned(std::move(out), as && bs);
}

// Comparison keys: numbers compare in double, as ValueLess/ValueEquals do.
inline double Key(int64_t v) { return static_cast<double>(v); }
inline double Key(double v) { return v; }
inline const std::string& Key(const std::string& v) { return v; }

enum class CmpOp { kEq, kNe, kLt, kGt, kLe, kGe };

CmpOp ParseCmp(const std::string& op) {
  if (op == "=" || op == "==") return CmpOp::kEq;
  if (op == "<>" || op == "!=") return CmpOp::kNe;
  if (op == "<") return CmpOp::kLt;
  if (op == ">") return CmpOp::kGt;
  if (op == "<=") return CmpOp::kLe;
  return CmpOp::kGe;
}

// The outcome of `op` from the operands' order and equality. `<=` is "not
// greater" and `>=` "not less", as in the Value comparisons, so a NaN
// operand satisfies both.
bool Decide(CmpOp op, bool less, bool greater, bool equal) {
  switch (op) {
    case CmpOp::kEq:
      return equal;
    case CmpOp::kNe:
      return !equal;
    case CmpOp::kLt:
      return less;
    case CmpOp::kGt:
      return greater;
    case CmpOp::kLe:
      return !greater;
    case CmpOp::kGe:
      return !less;
  }
  return false;
}

// One typed loop per operator; the loops inline Decide's cases.
template <typename X, typename Y>
Vec Compare(CmpOp op, const X* a, bool as, const Y* b, bool bs, int64_t n) {
  constexpr bool kXString = std::is_same_v<X, std::string>;
  constexpr bool kYString = std::is_same_v<Y, std::string>;
  if constexpr (kXString != kYString) {
    // A number sorts before every string and equals none.
    const bool v = Decide(op, !kXString, kXString, false);
    return Owned(std::vector<int64_t>{v ? 1 : 0}, /*scalar=*/true);
  } else {
    using R = int64_t;
    switch (op) {
      case CmpOp::kEq:
        return Map2<R>(a, as, b, bs, n, [](const X& x, const Y& y) -> R {
          return Key(x) == Key(y);
        });
      case CmpOp::kNe:
        return Map2<R>(a, as, b, bs, n, [](const X& x, const Y& y) -> R {
          return !(Key(x) == Key(y));
        });
      case CmpOp::kLt:
        return Map2<R>(a, as, b, bs, n, [](const X& x, const Y& y) -> R {
          return Key(x) < Key(y);
        });
      case CmpOp::kGt:
        return Map2<R>(a, as, b, bs, n, [](const X& x, const Y& y) -> R {
          return Key(y) < Key(x);
        });
      case CmpOp::kLe:
        return Map2<R>(a, as, b, bs, n, [](const X& x, const Y& y) -> R {
          return !(Key(y) < Key(x));
        });
      case CmpOp::kGe:
        return Map2<R>(a, as, b, bs, n, [](const X& x, const Y& y) -> R {
          return !(Key(x) < Key(y));
        });
    }
    return Vec{};
  }
}

// 0/1 per row: a non-empty string or a non-zero number.
Vec Truth(const Vec& v, int64_t n) {
  return Visit(v, [&](const auto* a) {
    return Map1<int64_t>(a, v.scalar, n, [](const auto& x) -> int64_t {
      if constexpr (std::is_same_v<std::decay_t<decltype(x)>, std::string>) {
        return !x.empty();
      } else {
        return static_cast<double>(x) != 0.0;
      }
    });
  });
}

// int64 arithmetic wraps modulo 2^64 (computed unsigned: no overflow UB).
int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}
int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}
int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}
// x % 0 is 0, and so is x % -1 — its exact value, without the trap of
// INT64_MIN % -1.
int64_t SafeMod(int64_t x, int64_t y) {
  return y == 0 || y == -1 ? 0 : x % y;
}

Vec IntArithmetic(const std::string& op, const Vec& l, const Vec& r,
                  int64_t n) {
  const int64_t* a = l.i64;
  const int64_t* b = r.i64;
  using R = int64_t;
  if (op == "+") return Map2<R>(a, l.scalar, b, r.scalar, n, WrapAdd);
  if (op == "-") return Map2<R>(a, l.scalar, b, r.scalar, n, WrapSub);
  if (op == "*") return Map2<R>(a, l.scalar, b, r.scalar, n, WrapMul);
  RMA_CHECK(op == "%");
  return Map2<R>(a, l.scalar, b, r.scalar, n, SafeMod);
}

Vec DoubleArithmetic(const std::string& op, const Vec& l, const Vec& r,
                     int64_t n) {
  return VisitNumeric(l, [&](const auto* a) {
    return VisitNumeric(r, [&](const auto* b) {
      using X = std::decay_t<decltype(*a)>;
      using Y = std::decay_t<decltype(*b)>;
      using R = double;
      const bool as = l.scalar;
      const bool bs = r.scalar;
      if (op == "+") {
        return Map2<R>(a, as, b, bs, n, [](X x, Y y) -> R {
          return static_cast<R>(x) + static_cast<R>(y);
        });
      }
      if (op == "-") {
        return Map2<R>(a, as, b, bs, n, [](X x, Y y) -> R {
          return static_cast<R>(x) - static_cast<R>(y);
        });
      }
      if (op == "*") {
        return Map2<R>(a, as, b, bs, n, [](X x, Y y) -> R {
          return static_cast<R>(x) * static_cast<R>(y);
        });
      }
      if (op == "/") {
        return Map2<R>(a, as, b, bs, n, [](X x, Y y) -> R {
          const R d = static_cast<R>(y);
          return d == 0.0 ? 0.0 : static_cast<R>(x) / d;
        });
      }
      RMA_CHECK(op == "%");
      return Map2<R>(a, as, b, bs, n, [](X x, Y y) -> R {
        const R d = static_cast<R>(y);
        return d == 0.0 ? 0.0 : std::fmod(static_cast<R>(x), d);
      });
    });
  });
}

Vec CallFunction(const std::string& fn, const std::vector<Vec>& args,
                 int64_t n) {
  const Vec& x = args[0];
  if (fn == "POW") {
    const Vec& y = args[1];
    return VisitNumeric(x, [&](const auto* a) {
      return VisitNumeric(y, [&](const auto* b) {
        return Map2<double>(a, x.scalar, b, y.scalar, n, [](auto u, auto v) {
          return std::pow(static_cast<double>(u), static_cast<double>(v));
        });
      });
    });
  }
  double (*f)(double) = nullptr;
  if (fn == "SQRT") f = [](double v) { return std::sqrt(v); };
  if (fn == "ABS") f = [](double v) { return std::fabs(v); };
  if (fn == "LN") f = [](double v) { return std::log(v); };
  if (fn == "EXP") f = [](double v) { return std::exp(v); };
  RMA_CHECK(f != nullptr && "unknown function at eval");
  return VisitNumeric(x, [&](const auto* a) {
    return Map1<double>(a, x.scalar, n,
                        [f](auto v) { return f(static_cast<double>(v)); });
  });
}

}  // namespace

BoundExpr::Vec BoundExpr::Evaluate(const Relation& r) const {
  const int64_t n = r.num_rows();
  switch (kind_) {
    case Expr::Kind::kColumn:
      return ColumnVec(r.column(column_index_));
    case Expr::Kind::kLiteral:
      return LiteralVec(literal_);
    case Expr::Kind::kUnary: {
      const Vec x = children_[0].Evaluate(r);
      if (op_ == "NOT") {
        const Vec t = Truth(x, n);
        return Map1<int64_t>(t.i64, t.scalar, n,
                             [](int64_t v) -> int64_t { return v == 0; });
      }
      if (x.type == DataType::kInt64) {
        return Map1<int64_t>(x.i64, x.scalar, n,
                             [](int64_t v) { return WrapSub(0, v); });
      }
      return Map1<double>(x.f64, x.scalar, n, [](double v) { return -v; });
    }
    case Expr::Kind::kBinary: {
      const Vec l = children_[0].Evaluate(r);
      const Vec rv = children_[1].Evaluate(r);
      if (op_ == "AND" || op_ == "OR") {
        const Vec a = Truth(l, n);
        const Vec b = Truth(rv, n);
        if (op_ == "AND") {
          return Map2<int64_t>(a.i64, a.scalar, b.i64, b.scalar, n,
                               [](int64_t x, int64_t y) { return x & y; });
        }
        return Map2<int64_t>(a.i64, a.scalar, b.i64, b.scalar, n,
                             [](int64_t x, int64_t y) { return x | y; });
      }
      if (IsComparisonOp(op_)) {
        const CmpOp cmp = ParseCmp(op_);
        return Visit(l, [&](const auto* a) {
          return Visit(rv, [&](const auto* b) {
            return Compare(cmp, a, l.scalar, b, rv.scalar, n);
          });
        });
      }
      if (type_ == DataType::kInt64) return IntArithmetic(op_, l, rv, n);
      return DoubleArithmetic(op_, l, rv, n);
    }
    case Expr::Kind::kCall: {
      std::vector<Vec> args;
      for (const BoundExpr& c : children_) args.push_back(c.Evaluate(r));
      return CallFunction(op_, args, n);
    }
  }
  RMA_CHECK(false && "unreachable kind at eval");
  return Vec{};
}

BatPtr BoundExpr::EvalColumn(const Relation& r) const {
  if (kind_ == Expr::Kind::kColumn) return r.column(column_index_);
  const Vec v = Evaluate(r);
  if (!v.scalar) return v.bat;
  const int64_t n = r.num_rows();
  switch (v.type) {
    case DataType::kInt64:
      return MakeConstantBat(Value(v.i64[0]), n);
    case DataType::kDouble:
      return MakeConstantBat(Value(v.f64[0]), n);
    case DataType::kString:
      return MakeConstantBat(Value(v.str[0]), n);
  }
  return nullptr;
}

std::vector<int64_t> BoundExpr::TrueRows(const Relation& r) const {
  const int64_t n = r.num_rows();
  const Vec t = Truth(Evaluate(r), n);
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < n; ++i) {
    if (t.i64[t.scalar ? 0 : i] != 0) rows.push_back(i);
  }
  return rows;
}

}  // namespace rma::rel
