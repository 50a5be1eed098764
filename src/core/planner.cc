#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/algebra.h"
#include "core/constructors.h"
#include "core/kernels.h"
#include "matrix/parallel.h"
#include "storage/sparse_bat.h"

namespace rma {

namespace {

// --- cost model -------------------------------------------------------------
//
// Element counts are priced at fixed per-element rates in dimensionless
// element-operation units: one unit is one streamed read-modify-write over a
// contiguous double, and only the ratio between the column-at-a-time (BAT)
// path and the gather/kernel/scatter (contiguous) path matters. The rates
// encode what Sec. 7.3 and Fig. 17 measure: element-wise BAT operations run
// at streaming speed (and skip zeros on compressed columns), axpy-based
// kernels are close to dense speed, column-at-a-time decompositions lose
// locality, and cpd degrades to element-at-a-time BUNfetch calls — the
// 24-70x delegation win. The rates are constants, not measured: a plan then
// depends only on shapes and options, so it is the same on every machine
// and run, and nothing execution does can change a cached plan's key.

/// Rate of the contiguous path's work: dense kernel flops and the gather and
/// scatter copies.
constexpr double kContiguousRate = 1.0;
/// Rate of element-wise streaming over BAT columns (add/sub/emu); also
/// prices the tree-reduce merge of sharded cross products.
constexpr double kStreamRate = 1.0;

/// Rate of `op`'s column-at-a-time kernel.
double BatRate(MatrixOp op) {
  switch (op) {
    case MatrixOp::kAdd:
    case MatrixOp::kSub:
    case MatrixOp::kEmu:
      return kStreamRate;
    case MatrixOp::kMmu:
      return 1.5;  // vectorized axpy column combines
    case MatrixOp::kTra:
      return 4.0;  // element-at-a-time scatter
    case MatrixOp::kCpd:
      return 12.0;  // per-element virtual BUNfetch
    default:
      return 3.0;  // column-at-a-time decompositions
  }
}

double Flops(MatrixOp op, const ArgShape& a, const ArgShape* b) {
  const double n = static_cast<double>(a.rows);
  const double k = static_cast<double>(a.cols);
  switch (op) {
    case MatrixOp::kAdd:
    case MatrixOp::kSub:
    case MatrixOp::kEmu:
    case MatrixOp::kTra:
      return n * k;
    case MatrixOp::kMmu:
      return n * k * static_cast<double>(b == nullptr ? 1 : b->cols);
    case MatrixOp::kCpd:
      return n * k * static_cast<double>(b == nullptr ? 1 : b->cols);
    case MatrixOp::kOpd:
      return n * k * static_cast<double>(b == nullptr ? 1 : b->rows);
    case MatrixOp::kSol:
      return 2.0 * n * k * k;
    case MatrixOp::kInv:
      return n * n * n;
    case MatrixOp::kDet:
      return n * n * n / 3.0;
    case MatrixOp::kQqr:
    case MatrixOp::kRqr:
      return 2.0 * n * k * k;
    default:
      // svd/eigen/chf/rnk: contiguous-only; the estimate is informational.
      return 2.0 * n * k * k + k * k * k;
  }
}

/// Result shape of the base result, from Table 1.
ArgShape ResultShape(const OpInfo& info, const ArgShape& a, const ArgShape* b) {
  const int64_t r2 = b == nullptr ? 0 : b->rows;
  const int64_t c2 = b == nullptr ? 0 : b->cols;
  ArgShape out;
  out.rows = ResultExtent(info.shape.rows, a.rows, a.cols, r2, c2);
  out.cols = ResultExtent(info.shape.cols, a.rows, a.cols, r2, c2);
  return out;
}

std::vector<Stage> StagesFor(KernelChoice kernel) {
  if (kernel == KernelChoice::kBat) {
    return {Stage::kPrepare, Stage::kKernel, Stage::kMorph};
  }
  return {Stage::kPrepare, Stage::kGather, Stage::kKernel, Stage::kScatter,
          Stage::kMorph};
}

// Element-equivalent price of launching one shard: a pool dispatch, a budget
// install, and the cold start of a worker's cache working set. Tuned
// loosely — it only needs to keep shard counts away from shapes where a
// task costs more than its slice of the kernel.
constexpr double kShardForkElements = 32768.0;

/// Picks plan.shards / plan.merge for the already-chosen kernel. Sharding is
/// considered for two op classes, matching the merge contracts the executor
/// implements (core/shard_exec.cc):
///   - element-wise union-compatible ops over fully dense contiguous columns
///     (ordered concat of disjoint row ranges; bit-exact),
///   - cross products on the dense/SYRK kernels (per-shard partial Gram
///     matrices summed pairwise; associative up to FP rounding).
/// The count is chosen from modeled per-shard costs: candidate s divides the
/// chosen path's work by s and adds per-shard fork overhead and the
/// O(cols^2 log s) tree-reduce. Sharding must beat the unsharded estimate by
/// a margin or the plan stays at shards=1. The priced count is then capped
/// by `run_budget` (see PlanOp).
void DecideShards(const OpInfo& info, const RmaOptions& opts,
                  const ArgShape& left, const ArgShape* right, int run_budget,
                  OpPlan* plan) {
  MergeKind merge = MergeKind::kNone;
  if (info.union_compatible && right != nullptr && left.contiguous &&
      right->contiguous && left.density >= 1.0 && right->density >= 1.0) {
    merge = MergeKind::kConcat;
  } else if (plan->op == MatrixOp::kCpd && right != nullptr &&
             left.contiguous && right->contiguous &&
             plan->kernel != KernelChoice::kBat) {
    merge = MergeKind::kTreeReduce;
  } else {
    return;
  }

  const int budget =
      opts.max_threads > 0 ? opts.max_threads : DefaultThreadCount();
  const int64_t row_cap = left.rows / std::max<int64_t>(1, opts.shard_min_rows);
  const int cap = static_cast<int>(std::min<int64_t>(
      std::min<int64_t>(opts.max_shards, budget), row_cap));
  if (cap < 2) return;

  const bool on_bat = plan->kernel == KernelChoice::kBat;
  const double rate = on_bat ? BatRate(plan->op) : kContiguousRate;
  // Chosen-path work; the dense path also splits its gather across shards.
  const double elements = on_bat ? plan->bat_elements : plan->flops;
  const double gather = on_bat ? 0.0 : plan->gather_elements;
  const double out_cols = static_cast<double>(
      merge == MergeKind::kTreeReduce ? left.cols * left.cols : 0);

  const double unsharded = rate * elements + kContiguousRate * gather;
  double best_cost = unsharded;
  int best_s = 1;
  for (int s = 2; s <= cap; s *= 2) {
    const double ds = static_cast<double>(s);
    // Shards run concurrently: the modeled wall time is one shard's chain
    // plus the serial merge and the fork overhead of launching s tasks.
    double cost = rate * (elements / ds) + kContiguousRate * (gather / ds) +
                  ds * (rate * kShardForkElements);
    if (merge == MergeKind::kTreeReduce) {
      cost += kStreamRate * (std::log2(ds) * out_cols);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_s = s;
    }
  }
  // Demand a clear win: sharding perturbs tree-reduced rounding and spends
  // pool slots, so a marginal estimate is not worth it. The winner then runs
  // under the op's own budget, which an ambient share may hold below the
  // one priced; a single slot would only pay the merge.
  const int shards = std::min(best_s, run_budget > 0 ? run_budget : budget);
  if (shards > 1 && best_cost < 0.75 * unsharded) {
    plan->shards = shards;
    plan->merge = merge;
    plan->stages.insert(plan->stages.end() - 1, Stage::kMerge);
  }
}

}  // namespace

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kPrepare:
      return "prepare";
    case Stage::kGather:
      return "gather";
    case Stage::kKernel:
      return "kernel";
    case Stage::kScatter:
      return "scatter";
    case Stage::kMorph:
      return "morph";
    case Stage::kMerge:
      return "merge";
  }
  return "?";
}

const char* MergeKindName(MergeKind m) {
  switch (m) {
    case MergeKind::kNone:
      return "none";
    case MergeKind::kConcat:
      return "concat";
    case MergeKind::kTreeReduce:
      return "tree-reduce";
  }
  return "?";
}

const char* KernelChoiceName(KernelChoice k) {
  switch (k) {
    case KernelChoice::kBat:
      return "bat";
    case KernelChoice::kDense:
      return "dense";
    case KernelChoice::kDenseSyrk:
      return "dense-syrk";
  }
  return "?";
}

std::string OpPlan::DebugString() const {
  std::ostringstream os;
  os << GetOpInfo(op).name << " kernel=" << KernelChoiceName(kernel)
     << " stages=[";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) os << ' ';
    os << StageName(stages[i]);
  }
  os << "] cost(bat)=" << cost_bat << " cost(dense)=" << cost_dense;
  if (shards > 1) os << " shards=" << shards << " merge=" << MergeKindName(merge);
  if (over_budget) os << " over-budget";
  return os.str();
}

OpPlan PlanOp(MatrixOp op, const RmaOptions& opts, const ArgShape& left,
              const ArgShape* right, bool self_cross, int run_budget) {
  const OpInfo& info = GetOpInfo(op);
  OpPlan plan;
  plan.op = op;
  plan.left = left;
  if (right != nullptr) plan.right = *right;

  const double flops = Flops(op, left, right);
  const ArgShape out = ResultShape(info, left, right);

  // Contiguous path: gather each argument, run the dense kernel, scatter the
  // base result. A self cross product gathers only once and halves the
  // kernel work (SYRK). Sparse columns decompress on gather, so density
  // does not discount the copy.
  double gather = static_cast<double>(left.rows) * static_cast<double>(left.cols);
  if (right != nullptr && !self_cross) {
    gather += static_cast<double>(right->rows) * static_cast<double>(right->cols);
  }
  const double scatter =
      static_cast<double>(out.rows) * static_cast<double>(out.cols);
  plan.flops = self_cross ? flops / 2.0 : flops;
  plan.gather_elements = gather;
  plan.cost_dense = kContiguousRate * gather + kContiguousRate * plan.flops +
                    kContiguousRate * scatter;

  // Column-at-a-time path: no transformation, but the kernel runs at its
  // family's (slower) rate. Element-wise operations stream only the stored
  // entries of compressed columns (Table 5), which the density factor
  // captures.
  double bat_elements = flops;
  if (info.union_compatible) {
    const double d_right = right == nullptr ? 1.0 : right->density;
    bat_elements *= std::min(1.0, (left.density + d_right) / 2.0);
  }
  plan.bat_elements = bat_elements;
  plan.cost_bat = BatRate(op) * bat_elements;

  const int64_t contiguous_bytes =
      left.ContiguousBytes() +
      (right != nullptr && !self_cross ? right->ContiguousBytes() : 0);
  plan.over_budget = contiguous_bytes > opts.contiguous_budget_bytes;

  const bool has_bat = kernel::HasBatKernel(op);
  const KernelChoice dense =
      self_cross ? KernelChoice::kDenseSyrk : KernelChoice::kDense;
  switch (opts.kernel) {
    case KernelPolicy::kBat:
      plan.kernel = has_bat ? KernelChoice::kBat : dense;
      break;
    case KernelPolicy::kContiguous:
      plan.kernel = dense;
      break;
    case KernelPolicy::kAuto:
      if (!has_bat) {
        plan.kernel = dense;
      } else if (plan.over_budget) {
        // Memory ceiling: never materialize a contiguous copy beyond the
        // budget when a no-copy algorithm exists.
        plan.kernel = KernelChoice::kBat;
      } else {
        plan.kernel = plan.cost_bat <= plan.cost_dense ? KernelChoice::kBat
                                                       : dense;
      }
      break;
  }
  plan.stages = StagesFor(plan.kernel);
  DecideShards(info, opts, left, right, run_budget, &plan);
  return plan;
}

ArgShape MakeArgShape(const Relation& r, const std::vector<int>& app_idx,
                      int64_t rows) {
  ArgShape shape;
  shape.rows = rows;
  shape.cols = static_cast<int64_t>(app_idx.size());
  if (shape.cols > 0 && shape.rows > 0) {
    double density = 0;
    for (int idx : app_idx) {
      const Bat* col = r.column(idx).get();
      const auto* sparse = dynamic_cast<const SparseDoubleBat*>(col);
      density += sparse == nullptr
                     ? 1.0
                     : static_cast<double>(sparse->NumNonZero()) /
                           static_cast<double>(shape.rows);
      // By representation, not by ContiguousDoubleData(): a paged double
      // column exposes its data only while pinned, and EXPLAIN plans from
      // unpinned columns that execution will pin.
      if (sparse != nullptr || col->type() != DataType::kDouble) {
        shape.contiguous = false;
      }
    }
    shape.density = density / static_cast<double>(shape.cols);
  }
  return shape;
}

Result<ArgShape> ShapeOf(const Relation& r,
                         const std::vector<std::string>& order) {
  RMA_ASSIGN_OR_RETURN(OrderSplit split, SplitSchema(r, order));
  return MakeArgShape(r, split.app_idx, r.num_rows());
}

// --- expression-level planning ----------------------------------------------

namespace {

/// Identity of a leaf's prepare work: the column data plus the order schema.
std::string PrepareKey(const Relation& r,
                       const std::vector<std::string>& order) {
  std::ostringstream os;
  for (const auto& col : r.columns()) os << col.get() << ',';
  os << '|';
  for (const auto& o : order) os << o << ',';
  return os.str();
}

Result<PlanNodePtr> PlanNodeFor(const RmaExprPtr& expr, const RmaOptions& opts,
                                std::unordered_set<std::string>* prepared) {
  if (expr == nullptr) return Status::Invalid("null RMA expression");
  auto node = std::make_shared<PlanNode>();
  switch (expr->kind) {
    case RmaExpr::Kind::kLeaf: {
      node->kind = PlanNode::Kind::kScan;
      node->relation_name = expr->relation.name();
      node->out_shape.rows = expr->relation.num_rows();
      node->out_shape.cols = expr->relation.num_columns();
      return node;
    }
    case RmaExpr::Kind::kRelabel: {
      if (expr->children.size() != 1) {
        return Status::Invalid("relabel node expects exactly one child");
      }
      RMA_ASSIGN_OR_RETURN(PlanNodePtr child,
                           PlanNodeFor(expr->children[0], opts, prepared));
      node->kind = PlanNode::Kind::kRelabel;
      node->relabel_attr = expr->relabel_attr;
      node->out_shape = child->out_shape;
      node->children = {std::move(child)};
      return node;
    }
    case RmaExpr::Kind::kOp:
      break;
  }
  if (expr->children.empty() || expr->children.size() > 2 ||
      expr->children.size() != expr->orders.size()) {
    return Status::Invalid("malformed RMA expression node");
  }
  node->kind = PlanNode::Kind::kOp;
  node->orders = expr->orders;
  std::vector<ArgShape> shapes;
  for (size_t i = 0; i < expr->children.size(); ++i) {
    const RmaExprPtr& child = expr->children[i];
    RMA_ASSIGN_OR_RETURN(PlanNodePtr child_plan,
                         PlanNodeFor(child, opts, prepared));
    ArgShape shape;
    if (child->kind == RmaExpr::Kind::kLeaf) {
      RMA_ASSIGN_OR_RETURN(shape,
                           ShapeOf(child->relation, expr->orders[i]));
      const std::string key = PrepareKey(child->relation, expr->orders[i]);
      node->cached_prepare.push_back(prepared->count(key) > 0);
      prepared->insert(key);
    } else {
      // An operation result: the parent's order schema consumes the lead
      // (origin) columns, leaving the base-result width as application part.
      shape = child_plan->out_shape;
      node->cached_prepare.push_back(false);
    }
    shapes.push_back(shape);
    node->children.push_back(std::move(child_plan));
  }
  // Self cross product: both arguments view the same columns under the same
  // order schema (covers distinct leaf nodes wrapping one relation, the
  // shape SQL produces for CPD(x BY U, x BY U)).
  bool self_cross = false;
  if (expr->op == MatrixOp::kCpd && expr->children.size() == 2 &&
      expr->orders[0] == expr->orders[1]) {
    const RmaExprPtr& a = expr->children[0];
    const RmaExprPtr& b = expr->children[1];
    if (a == b) {
      self_cross = true;
    } else if (a->kind == RmaExpr::Kind::kLeaf &&
               b->kind == RmaExpr::Kind::kLeaf &&
               a->relation.num_columns() == b->relation.num_columns()) {
      self_cross = true;
      for (int c = 0; c < a->relation.num_columns(); ++c) {
        if (a->relation.column(c).get() != b->relation.column(c).get()) {
          self_cross = false;
        }
      }
    }
  }
  node->op_plan =
      PlanOp(expr->op, opts, shapes[0],
             shapes.size() > 1 ? &shapes[1] : nullptr, self_cross);
  node->out_shape = ResultShape(GetOpInfo(expr->op), shapes[0],
                                shapes.size() > 1 ? &shapes[1] : nullptr);
  return node;
}

void RenderNode(const PlanNodePtr& node, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  switch (node->kind) {
    case PlanNode::Kind::kScan:
      *os << "scan " << node->relation_name << " [" << node->out_shape.rows
          << " rows x " << node->out_shape.cols << " cols]\n";
      break;
    case PlanNode::Kind::kRelabel:
      *os << "relabel BY " << node->relabel_attr
          << " [no matrix computation]\n";
      break;
    case PlanNode::Kind::kOp: {
      *os << node->op_plan.DebugString() << " BY ";
      for (size_t i = 0; i < node->orders.size(); ++i) {
        if (i > 0) *os << " / ";
        *os << '[';
        for (size_t j = 0; j < node->orders[i].size(); ++j) {
          if (j > 0) *os << ' ';
          *os << node->orders[i][j];
        }
        *os << ']';
      }
      *os << " out=" << node->out_shape.rows << 'x' << node->out_shape.cols;
      for (size_t i = 0; i < node->cached_prepare.size(); ++i) {
        if (node->cached_prepare[i]) {
          *os << " (arg" << i + 1 << " prepare cached)";
        }
      }
      *os << '\n';
      break;
    }
  }
  for (const auto& child : node->children) RenderNode(child, depth + 1, os);
}

}  // namespace

Result<PlanNodePtr> PlanExpression(const RmaExprPtr& expr,
                                   const RmaOptions& opts,
                                   RewriteReport* report) {
  const RmaExprPtr rewritten = RewriteExpression(expr, opts.rewrites, report);
  std::unordered_set<std::string> prepared;
  return PlanNodeFor(rewritten, opts, &prepared);
}

std::string RenderPlan(const PlanNodePtr& plan) {
  std::ostringstream os;
  if (plan != nullptr) RenderNode(plan, 0, &os);
  return os.str();
}

}  // namespace rma
