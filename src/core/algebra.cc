#include "core/algebra.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/constructors.h"
#include "core/exec_context.h"
#include "storage/bat_ops.h"

namespace rma {

namespace {

const std::vector<std::string> kContextOrder = {kContextAttrName};

bool IsOpNode(const RmaExprPtr& e, MatrixOp op) {
  return e != nullptr && e->kind == RmaExpr::Kind::kOp && e->op == op;
}

/// True if the node is a transpose whose result may be substituted away:
/// un-aliased (an alias would become the relation name that det/rnk lead
/// columns report) with a single-attribute order schema.
bool IsSubstitutableTra(const RmaExprPtr& e) {
  return IsOpNode(e, MatrixOp::kTra) && e->alias.empty() &&
         e->orders.size() == 1 && e->orders[0].size() == 1;
}

/// True if `leaf`'s application schema relative to `order` is strictly
/// lexicographically sorted (the precondition under which dropping the
/// sorted-attribute-name row permutation of µ_C(tra(·)) is sound).
bool LeafAppSchemaSorted(const RmaExprPtr& leaf,
                         const std::vector<std::string>& order) {
  if (leaf == nullptr || leaf->kind != RmaExpr::Kind::kLeaf) return false;
  const Schema& schema = leaf->relation.schema();
  std::string prev;
  bool first = true;
  for (int i = 0; i < schema.num_attributes(); ++i) {
    const std::string& name = schema.attribute(i).name;
    if (std::find(order.begin(), order.end(), name) != order.end()) continue;
    if (!first && !(prev < name)) return false;
    prev = name;
    first = false;
  }
  return true;
}

/// One bottom-up rewrite pass. Returns the (possibly shared) node and
/// appends fired rule names to `report`.
RmaExprPtr RewritePass(const RmaExprPtr& e, RewriteReport* report,
                       bool* changed) {
  if (e == nullptr || e->kind != RmaExpr::Kind::kOp) return e;

  // Children first.
  auto node = e;
  std::vector<RmaExprPtr> kids;
  bool kid_changed = false;
  for (const auto& c : e->children) {
    RmaExprPtr k = RewritePass(c, report, &kid_changed);
    kids.push_back(std::move(k));
  }
  if (kid_changed) {
    node = std::make_shared<RmaExpr>(*e);
    node->children = std::move(kids);
    *changed = true;
  }

  auto fire = [&](const char* rule, RmaExprPtr replacement) {
    if (report != nullptr) report->applied.push_back(rule);
    replacement->alias = node->alias;
    *changed = true;
    return replacement;
  };

  // Malformed arity (e.g. a unary SQL call of a binary operation) is
  // rejected by evaluation; don't index past the children here.
  const bool binary = node->children.size() == 2 && node->orders.size() == 2;
  const bool unary = node->children.size() == 1 && node->orders.size() == 1;

  // mmu(tra(x BY U) BY C, y BY V) → cpd(x BY U, y BY V).
  if (binary && node->op == MatrixOp::kMmu &&
      node->orders[0] == kContextOrder &&
      IsSubstitutableTra(node->children[0])) {
    const RmaExprPtr& tra = node->children[0];
    return fire("mmu_tra_to_cpd",
                RmaExpr::Binary(MatrixOp::kCpd, tra->children[0],
                                tra->orders[0], node->children[1],
                                node->orders[1]));
  }

  // mmu(x BY U, tra(y BY V) BY C) → opd(x BY U, y BY V).
  if (binary && node->op == MatrixOp::kMmu &&
      node->orders[1] == kContextOrder &&
      IsSubstitutableTra(node->children[1]) &&
      LeafAppSchemaSorted(node->children[1]->children[0],
                          node->children[1]->orders[0])) {
    const RmaExprPtr& tra = node->children[1];
    return fire("mmu_tra_to_opd",
                RmaExpr::Binary(MatrixOp::kOpd, node->children[0],
                                node->orders[0], tra->children[0],
                                tra->orders[0]));
  }

  // tra(tra(x BY U) BY C) → relabel(x, U).
  if (unary && node->op == MatrixOp::kTra &&
      node->orders[0] == kContextOrder &&
      IsSubstitutableTra(node->children[0])) {
    const RmaExprPtr& tra = node->children[0];
    auto relabel = std::make_shared<RmaExpr>();
    relabel->kind = RmaExpr::Kind::kRelabel;
    relabel->children = {tra->children[0]};
    relabel->relabel_attr = tra->orders[0][0];
    return fire("eliminate_double_tra", std::move(relabel));
  }

  // rnk(tra(x BY U) BY C) → rnk(x BY U).
  if (unary && node->op == MatrixOp::kRnk &&
      node->orders[0] == kContextOrder &&
      IsSubstitutableTra(node->children[0])) {
    const RmaExprPtr& tra = node->children[0];
    return fire("rnk_of_tra", RmaExpr::Unary(MatrixOp::kRnk, tra->children[0],
                                             tra->orders[0]));
  }

  // det(tra(x BY U) BY C) → det(x BY U).
  if (unary && node->op == MatrixOp::kDet &&
      node->orders[0] == kContextOrder &&
      IsSubstitutableTra(node->children[0]) &&
      LeafAppSchemaSorted(node->children[0]->children[0],
                          node->children[0]->orders[0])) {
    const RmaExprPtr& tra = node->children[0];
    return fire("det_of_tra", RmaExpr::Unary(MatrixOp::kDet, tra->children[0],
                                             tra->orders[0]));
  }

  return node;
}

/// Evaluates a kRelabel node: the closed form of tra(tra(x BY U) BY C).
/// The result is `in` with U stringified into the context attribute C and
/// the application columns cast to DOUBLE and emitted in lexicographic
/// order — exactly the schema and tuples the two transposes would produce.
Result<Relation> EvaluateRelabel(const Relation& in,
                                 const std::string& order_attr) {
  RMA_ASSIGN_OR_RETURN(OrderSplit split, SplitSchema(in, {order_attr}));
  const BatPtr& order_col = in.column(split.order_idx[0]);
  if (!bat_ops::IsKey({order_col})) {
    return Status::Invalid("order schema is not a key of the relation");
  }
  // The inner transpose would have turned the stringified order values into
  // attribute names; a collision there is a schema error, so it must stay
  // one here (e.g. DOUBLE values 1.0 and 1 both printing as "1").
  const int64_t n = in.num_rows();
  std::vector<std::string> context(static_cast<size_t>(n));
  std::unordered_set<std::string> seen;
  seen.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    context[static_cast<size_t>(i)] = order_col->GetString(i);
    if (!seen.insert(context[static_cast<size_t>(i)]).second) {
      return Status::Invalid(
          "result attribute names collide (value '" +
          context[static_cast<size_t>(i)] +
          "' of attribute " + order_attr + " is not unique as a string)");
    }
  }
  std::vector<std::pair<std::string, int>> apps;
  for (int idx : split.app_idx) {
    apps.emplace_back(in.schema().attribute(idx).name, idx);
  }
  std::sort(apps.begin(), apps.end());
  std::vector<Attribute> attrs = {{kContextAttrName, DataType::kString}};
  std::vector<BatPtr> cols = {MakeStringBat(std::move(context))};
  for (const auto& [name, idx] : apps) {
    attrs.push_back(Attribute{name, DataType::kDouble});
    cols.push_back(MakeDoubleBat(ToDoubleVector(*in.column(idx))));
  }
  RMA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  return Relation::Make(std::move(schema), std::move(cols), in.name());
}

}  // namespace

RmaExprPtr RmaExpr::Leaf(Relation r) {
  auto e = std::make_shared<RmaExpr>();
  e->kind = Kind::kLeaf;
  e->relation = std::move(r);
  return e;
}

RmaExprPtr RmaExpr::Unary(MatrixOp op, RmaExprPtr child,
                          std::vector<std::string> order) {
  auto e = std::make_shared<RmaExpr>();
  e->kind = Kind::kOp;
  e->op = op;
  e->children = {std::move(child)};
  e->orders = {std::move(order)};
  return e;
}

RmaExprPtr RmaExpr::Binary(MatrixOp op, RmaExprPtr left,
                           std::vector<std::string> order_left,
                           RmaExprPtr right,
                           std::vector<std::string> order_right) {
  auto e = std::make_shared<RmaExpr>();
  e->kind = Kind::kOp;
  e->op = op;
  e->children = {std::move(left), std::move(right)};
  e->orders = {std::move(order_left), std::move(order_right)};
  return e;
}

RmaExprPtr RewriteExpression(const RmaExprPtr& expr, const RewriteRules& rules,
                             RewriteReport* report) {
  if (!rules.enabled) return expr;
  RmaExprPtr cur = expr;
  // Rules only shrink the tree, so the fixpoint is reached quickly; the cap
  // is a safety net, not a tuning knob.
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    cur = RewritePass(cur, report, &changed);
    if (!changed) break;
  }
  return cur;
}

Result<Relation> EvaluateExpression(const RmaExprPtr& expr, ExecContext* ctx) {
  if (expr == nullptr) return Status::Invalid("null RMA expression");
  Result<Relation> out = [&]() -> Result<Relation> {
    switch (expr->kind) {
      case RmaExpr::Kind::kLeaf:
        return expr->relation;
      case RmaExpr::Kind::kRelabel: {
        if (expr->children.size() != 1) {
          return Status::Invalid("relabel node expects exactly one child");
        }
        RMA_ASSIGN_OR_RETURN(Relation in,
                             EvaluateExpression(expr->children[0], ctx));
        return EvaluateRelabel(in, expr->relabel_attr);
      }
      case RmaExpr::Kind::kOp: {
        if (expr->children.empty() || expr->children.size() > 2 ||
            expr->children.size() != expr->orders.size()) {
          return Status::Invalid("malformed RMA expression node");
        }
        RMA_ASSIGN_OR_RETURN(Relation left,
                             EvaluateExpression(expr->children[0], ctx));
        if (expr->children.size() == 1) {
          return RmaUnary(ctx, expr->op, left, expr->orders[0]);
        }
        RMA_ASSIGN_OR_RETURN(Relation right,
                             EvaluateExpression(expr->children[1], ctx));
        return RmaBinary(ctx, expr->op, left, expr->orders[0], right,
                         expr->orders[1]);
      }
    }
    return Status::Invalid("unreachable RMA expression kind");
  }();
  if (out.ok() && !expr->alias.empty()) out->set_name(expr->alias);
  return out;
}

Result<Relation> EvaluateExpression(const RmaExprPtr& expr,
                                    const RmaOptions& opts) {
  ExecContext ctx(opts);
  return EvaluateExpression(expr, &ctx);
}

Result<Relation> EvaluateOptimized(const RmaExprPtr& expr, ExecContext* ctx,
                                   RewriteReport* report) {
  return EvaluateExpression(
      RewriteExpression(expr, ctx->options().rewrites, report), ctx);
}

Result<Relation> EvaluateOptimized(const RmaExprPtr& expr,
                                   const RmaOptions& opts,
                                   RewriteReport* report) {
  ExecContext ctx(opts);
  return EvaluateOptimized(expr, &ctx, report);
}

}  // namespace rma
