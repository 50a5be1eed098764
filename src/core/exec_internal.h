#ifndef RMA_CORE_EXEC_INTERNAL_H_
#define RMA_CORE_EXEC_INTERNAL_H_

#include <cstdint>
#include <vector>

#include "core/exec_context.h"
#include "core/kernels.h"
#include "core/ops.h"
#include "matrix/dense_matrix.h"
#include "storage/relation.h"
#include "util/result.h"

/// Internal surface of the staged executor. The pipeline is split by stage:
///
///   prepare.cc   — argument preparation: schema split, order-schema sort /
///                  key alignment, prepared-argument caching, gathers
///   dispatch.cc  — kernel-stage execution per the physical plan (OpPlan),
///                  plus the RmaUnary/RmaBinary entry points that string the
///                  stages together
///   assemble.cc  — result assembly: morphing of contextual information and
///                  the final relation merge (Table 2/3)
///
/// rma.h stays the stable thin API; nothing here is exported.
namespace rma::internal {

// --- prepare.cc -------------------------------------------------------------

/// Sorts one argument on its order schema or, with `avoid_sort`, keeps its
/// rows in physical order after checking that the schema is a key; either
/// way through the prepared cache. Cache misses record their elapsed time
/// against Stage::kPrepare; hits record nothing, so a fully cached op
/// reports sort_seconds == 0.
Result<PreparedArgPtr> PrepareArgument(ExecContext& ctx, const Relation& r,
                                       const std::vector<std::string>& order,
                                       const OpInfo& info, bool avoid_sort);

struct BinaryArgs {
  PreparedArgPtr left;
  PreparedArgPtr right;
};

/// Prepares both arguments of a binary operation, applying the relative-
/// alignment optimization of Sec. 8.1 when the policy and operation allow:
/// r then stays in physical order, and is sorted only if s cannot be
/// aligned to it.
Result<BinaryArgs> PrepareBinaryArgs(ExecContext& ctx, const OpInfo& info,
                                     const Relation& r,
                                     const std::vector<std::string>& order_r,
                                     const Relation& s,
                                     const std::vector<std::string>& order_s);

/// Validates binary dimension prerequisites (Table 1).
Status CheckBinaryDims(const OpInfo& info, const PreparedArg& r,
                       const PreparedArg& s);

/// Builds the dense input matrix for the contiguous kernels (the
/// BATs -> contiguous copy that Fig. 14 measures).
DenseMatrix GatherMatrix(const PreparedArg& p);

/// Extracts the application part as per-column double vectors (the working
/// format of the column-at-a-time kernels).
kernel::Columns GatherColumns(const PreparedArg& p);

// --- dispatch.cc ------------------------------------------------------------

/// Runs the kernel stage of a unary operation per `plan`, returning the
/// base-result columns. Records gather/kernel/scatter stage times.
Result<std::vector<BatPtr>> DispatchUnary(ExecContext& ctx, const OpPlan& plan,
                                          const PreparedArg& p);

/// Binary counterpart.
Result<std::vector<BatPtr>> DispatchBinary(ExecContext& ctx,
                                           const OpPlan& plan,
                                           const PreparedArg& pr,
                                           const PreparedArg& ps);

// --- shard_exec.cc ----------------------------------------------------------

/// One row-range shard of an operation: its id and the half-open row range
/// `[begin, end)` it reads, in place, of every argument column.
struct ShardSpec {
  int shard = 0;      ///< shard id in [0, total shards)
  int64_t begin = 0;  ///< first row (inclusive)
  int64_t end = 0;    ///< past-the-end row

  int64_t rows() const { return end - begin; }
};

/// Splits `rows` into `shards` contiguous balanced ranges (the first
/// `rows % shards` ranges hold one extra row). shards must be >= 1; empty
/// ranges never occur for rows >= shards.
std::vector<ShardSpec> MakeShardSpecs(int64_t rows, int shards);

/// Kernel-stage execution of a row-range sharded binary operation
/// (plan.shards > 1): one stage chain per shard on the shared pool under a
/// split thread budget, each reading its row range of the argument columns
/// in place, then the plan's merge stage — ordered concatenation for
/// element-wise ops, pairwise tree-reduction of per-shard partials for
/// cross products. Records summed per-shard kernel seconds (and pack
/// seconds for tree-reduce; CPU-time semantics), per-shard wall times via
/// ExecContext::RecordShardTimes, and the merge under Stage::kMerge.
/// Falls back to DispatchBinary if an input unexpectedly lacks contiguous
/// double storage.
Result<std::vector<BatPtr>> DispatchShardedBinary(ExecContext& ctx,
                                                  const OpPlan& plan,
                                                  const PreparedArg& pr,
                                                  const PreparedArg& ps);

// --- assemble.cc ------------------------------------------------------------

/// Morph + merge for unary operations: attaches contextual information
/// (row/column origins, Table 2) to the base result.
Result<Relation> AssembleUnary(const OpInfo& info, const PreparedArg& p,
                               std::vector<BatPtr> base);

/// Binary counterpart (Table 3).
Result<Relation> AssembleBinary(const OpInfo& info, const PreparedArg& pr,
                                const PreparedArg& ps,
                                std::vector<BatPtr> base);

std::vector<BatPtr> ColumnsToBats(kernel::Columns cols);

}  // namespace rma::internal

#endif  // RMA_CORE_EXEC_INTERNAL_H_
