#ifndef RMA_CORE_PLANNER_H_
#define RMA_CORE_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/ops.h"
#include "storage/relation.h"
#include "util/result.h"

namespace rma {

struct RmaExpr;
using RmaExprPtr = std::shared_ptr<RmaExpr>;
struct RewriteReport;

/// The execution stages of one relational matrix operation, following the
/// paper's measured decomposition (Fig. 13/14): order-schema sorting, the
/// BATs -> contiguous gather, the matrix kernel, the scatter back to BATs,
/// and the morphing of contextual information.
enum class Stage : int {
  kPrepare = 0,  ///< order-schema sort / key alignment (sort_seconds)
  kGather = 1,   ///< BATs -> contiguous array (transform_in_seconds)
  kKernel = 2,   ///< the matrix kernel itself (compute_seconds)
  kScatter = 3,  ///< base result -> BATs (transform_out_seconds)
  kMorph = 4,    ///< contextual-information handling (morph_seconds)
  kMerge = 5,    ///< shard merge/reduce barrier (merge_seconds)
};

const char* StageName(Stage s);

/// How per-shard partial results combine when an operation is row-range
/// sharded (see docs/ARCHITECTURE.md, "Sharded stage execution").
enum class MergeKind : int {
  kNone = 0,        ///< unsharded: single stage DAG, nothing to merge
  kConcat = 1,      ///< ordered concatenation of disjoint row ranges
                    ///< (element-wise ops; bit-exact by construction)
  kTreeReduce = 2,  ///< pairwise summation of per-shard partials
                    ///< (Gram/cross products; associative up to FP rounding)
};

const char* MergeKindName(MergeKind m);

/// Where the kernel stage of an operation runs (Sec. 7.3).
enum class KernelChoice : int {
  kBat = 0,        ///< column-at-a-time over BATs, no contiguous copy
  kDense = 1,      ///< gather -> contiguous kernel -> scatter
  kDenseSyrk = 2,  ///< self cross product on the symmetric rank-k kernel
};

const char* KernelChoiceName(KernelChoice k);

/// Shape summary of one prepared argument, the planner's input.
struct ArgShape {
  int64_t rows = 0;
  int64_t cols = 0;       ///< application-schema width
  double density = 1.0;   ///< avg non-zero share of the application columns
                          ///< (sparse columns lower it; dense columns are 1)
  /// All application columns store contiguous doubles (dense double
  /// columns, and paged ones, which execution pins) — the precondition for
  /// row-range sharding, whose shards read their ranges in place. Operation
  /// results are always dense doubles, so the default is true; MakeArgShape
  /// clears it for int64/string/sparse columns.
  bool contiguous = true;
  /// Bytes a contiguous copy of the application part would occupy.
  int64_t ContiguousBytes() const {
    return rows * cols * static_cast<int64_t>(sizeof(double));
  }
};

/// The physical plan of a single relational matrix operation: the chosen
/// kernel, the stages it implies, and the cost estimates that drove the
/// choice (element-operation units; see the model in planner.cc).
struct OpPlan {
  MatrixOp op = MatrixOp::kInv;
  KernelChoice kernel = KernelChoice::kDense;
  std::vector<Stage> stages;

  double cost_bat = 0;    ///< estimated cost of the column-at-a-time path
  double cost_dense = 0;  ///< estimated cost of gather + kernel + scatter
  bool over_budget = false;  ///< contiguous copy exceeded the memory ceiling

  /// Row-range shard count (1 = unsharded) and the merge contract for
  /// combining per-shard results. Chosen from the modeled per-shard costs:
  /// shard only when the split work plus per-shard fork overhead and the
  /// merge cost clearly beats the unsharded estimate.
  int shards = 1;
  MergeKind merge = MergeKind::kNone;

  /// Element counts behind the estimates, recorded at plan time so the
  /// shard decision can price the chosen path's work per shard.
  double flops = 0;            ///< dense kernel work (SYRK-halved)
  double bat_elements = 0;     ///< density-scaled column-at-a-time work
  double gather_elements = 0;  ///< BATs -> contiguous copy size

  ArgShape left;
  ArgShape right;  ///< zeroed for unary operations

  /// One-line rendering: "cpd kernel=dense stages=[prepare gather kernel
  /// scatter morph] cost(bat)=... cost(dense)=...".
  std::string DebugString() const;
};

/// Chooses the kernel for `op` given the argument shapes and the options'
/// policy. `right` is null for unary operations; `self_cross` marks
/// cpd(x, x) over the identical prepared argument (SYRK-eligible).
/// `run_budget` is the thread budget the operation runs under (the executor
/// passes ExecContext::effective_thread_budget(); a batch or server
/// admission share may hold it below the options' own); 0 means the
/// options' own budget. The shard count is priced on the options' budget
/// and then capped by the run budget, so the plan is what runs.
/// This is the single decision point both the executor and EXPLAIN use.
OpPlan PlanOp(MatrixOp op, const RmaOptions& opts, const ArgShape& left,
              const ArgShape* right, bool self_cross = false,
              int run_budget = 0);

// --- expression-level planning (EXPLAIN) ------------------------------------

/// A node of a physical expression plan: scans feed staged operations.
struct PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

struct PlanNode {
  enum class Kind { kScan, kOp, kRelabel };
  Kind kind = Kind::kScan;

  // kScan
  std::string relation_name;

  // kOp
  OpPlan op_plan;
  std::vector<std::vector<std::string>> orders;
  /// Whether the prepared-argument cache is expected to serve this child's
  /// sort permutation (a previously planned node prepared the same
  /// (relation, order schema) pair).
  std::vector<bool> cached_prepare;

  // kRelabel
  std::string relabel_attr;

  ArgShape out_shape;  ///< result shape (rows x application columns)
  std::vector<PlanNodePtr> children;
};

/// Lowers a (possibly rewritten) expression tree into a physical plan by
/// propagating shapes from the leaf relations through Table 1's shape types
/// and running PlanOp at every operation node. Applies the rewrite rules of
/// `opts.rewrites` first when `report` is non-null or rewrites are enabled.
Result<PlanNodePtr> PlanExpression(const RmaExprPtr& expr,
                                   const RmaOptions& opts,
                                   RewriteReport* report = nullptr);

/// Multi-line rendering of a physical plan tree (EXPLAIN output): one node
/// per line, indented by depth, with kernels, stages, and cost estimates.
std::string RenderPlan(const PlanNodePtr& plan);

/// Computes the shape summary of a relation under an order schema without
/// sorting: rows, application width, and the sparse-column density.
Result<ArgShape> ShapeOf(const Relation& r,
                         const std::vector<std::string>& order);

/// Shape summary from an already-resolved application column set (the
/// single implementation behind ShapeOf and PreparedArg::Shape).
ArgShape MakeArgShape(const Relation& r, const std::vector<int>& app_idx,
                      int64_t rows);

}  // namespace rma

#endif  // RMA_CORE_PLANNER_H_
