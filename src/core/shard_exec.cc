#include <algorithm>
#include <utility>

#include "core/exec_internal.h"
#include "matrix/blas.h"
#include "matrix/parallel.h"
#include "matrix/simd.h"
#include "storage/bat_ops.h"
#include "util/timer.h"

namespace rma {

namespace internal {

namespace {

/// Per-shard stage timings, measured on the worker that ran the shard and
/// published to the dispatcher at the join. Workers never call
/// ExecContext::RecordStage themselves: the op bracket is thread-local to the
/// dispatching thread, so a pool thread's recording would hit the context
/// totals but miss the op entry.
struct ShardTiming {
  double pack = 0;
  double kernel = 0;
  double wall = 0;
};

/// The operation's application columns in prepared row order: the BATs,
/// which own the arrays for the fan-out, and each one's contiguous doubles
/// (null for a column without them). Identity permutations hand back the
/// stored columns, a paged one as the frame RmaBinary's residency bracket
/// pins; sorted arguments gather once here, on the dispatching thread,
/// before the fan-out.
struct AppData {
  std::vector<BatPtr> bats;
  std::vector<const double*> data;
};

AppData AppColumns(const PreparedArg& p) {
  AppData cols;
  cols.bats.reserve(static_cast<size_t>(p.app_cols()));
  cols.data.reserve(static_cast<size_t>(p.app_cols()));
  for (int64_t j = 0; j < p.app_cols(); ++j) {
    cols.bats.push_back(p.AppColumnBat(static_cast<size_t>(j)));
    cols.data.push_back(cols.bats.back()->ContiguousDoubleData());
  }
  return cols;
}

bool AllContiguous(const AppData& cols) {
  return std::find(cols.data.begin(), cols.data.end(), nullptr) ==
         cols.data.end();
}

/// Row-major pack of one shard's row range, read in place from every
/// column (the tiled pack runs at full speed on the offset pointers).
DenseMatrix PackShard(const AppData& cols, const ShardSpec& spec) {
  const int64_t k = static_cast<int64_t>(cols.data.size());
  DenseMatrix m(spec.rows(), k);
  std::vector<const double*> ptrs(cols.data.size());
  for (size_t j = 0; j < ptrs.size(); ++j) ptrs[j] = cols.data[j] + spec.begin;
  bat_ops::PackColumnsRowMajor(ptrs.data(), k, nullptr, spec.rows(), m.data());
  return m;
}

/// Runs `fn(spec)` for every shard: shards 1..S-1 as shared-pool tasks,
/// shard 0 inline on the dispatcher, cooperative join (a waiting dispatcher
/// executes queued tasks, so a saturated pool cannot deadlock the join).
template <typename Fn>
void RunShards(const std::vector<ShardSpec>& specs, const Fn& fn) {
  ThreadPool& pool = ThreadPool::Shared();
  std::vector<ThreadPool::TaskPtr> tasks;
  tasks.reserve(specs.size() - 1);
  for (size_t s = 1; s < specs.size(); ++s) {
    const ShardSpec& spec = specs[s];
    tasks.push_back(pool.Submit([&fn, &spec] { fn(spec); }));
  }
  fn(specs[0]);
  for (const auto& task : tasks) pool.Wait(task);
}

/// Commits the joined shard timings from the bracket-owning thread: summed
/// pack (gather) and kernel seconds (CPU-time semantics) plus the per-shard
/// walls for EXPLAIN ANALYZE.
void RecordShardStages(ExecContext& ctx,
                       const std::vector<ShardTiming>& timings) {
  double pack = 0;
  double kernel = 0;
  std::vector<double> walls;
  walls.reserve(timings.size());
  for (const ShardTiming& t : timings) {
    pack += t.pack;
    kernel += t.kernel;
    walls.push_back(t.wall);
  }
  if (pack > 0) ctx.RecordStage(Stage::kGather, pack);
  ctx.RecordStage(Stage::kKernel, kernel);
  ctx.RecordShardTimes(walls);
}

/// Element-wise ops under MergeKind::kConcat: every shard applies the SIMD
/// kernel to its row range, writing into disjoint ranges of the final output
/// columns — the ordered concatenation is the write pattern itself, so the
/// merge stage is just the move of the finished columns into BATs. Bit-exact
/// with the unsharded path: the element-wise SIMD kernels are bit-identical
/// to their scalar loops and carry no cross-element state.
Result<std::vector<BatPtr>> DispatchConcat(ExecContext& ctx, const OpPlan& plan,
                                           const PreparedArg& pr,
                                           const PreparedArg& ps,
                                           int per_shard_budget) {
  const MatrixOp op = plan.op;
  const int64_t n = pr.rows;
  const size_t k = static_cast<size_t>(pr.app_cols());
  Timer timer;
  const AppData left = AppColumns(pr);
  const AppData right = AppColumns(ps);
  if (!AllContiguous(left) || !AllContiguous(right)) {
    return DispatchBinary(ctx, plan, pr, ps);
  }
  // Column extraction is part of the prepare stage on the no-copy path (it
  // is free for identity permutations, a one-time gather otherwise).
  ctx.RecordStage(Stage::kPrepare, timer.Seconds());

  std::vector<std::vector<double>> out(k);
  for (auto& col : out) col.resize(static_cast<size_t>(n));
  const std::vector<ShardSpec> specs = MakeShardSpecs(n, plan.shards);
  std::vector<ShardTiming> timings(specs.size());

  auto run = [&](const ShardSpec& spec) {
    ScopedThreadBudget budget(per_shard_budget);
    Timer wall;
    for (size_t j = 0; j < k; ++j) {
      const double* a = left.data[j] + spec.begin;
      const double* b = right.data[j] + spec.begin;
      double* o = out[j].data() + spec.begin;
      switch (op) {
        case MatrixOp::kAdd:
          simd::Add(a, b, o, spec.rows());
          break;
        case MatrixOp::kSub:
          simd::Sub(a, b, o, spec.rows());
          break;
        default:  // kEmu
          simd::Mul(a, b, o, spec.rows());
          break;
      }
    }
    ShardTiming& t = timings[static_cast<size_t>(spec.shard)];
    t.kernel = wall.Seconds();
    t.wall = t.kernel;
  };
  RunShards(specs, run);

  RecordShardStages(ctx, timings);
  timer.Restart();
  std::vector<BatPtr> base = ColumnsToBats(std::move(out));
  ctx.RecordStage(Stage::kMerge, timer.Seconds());
  return base;
}

/// Cross products under MergeKind::kTreeReduce: each shard packs its row
/// range into a contiguous matrix and computes a full-size partial Gram
/// matrix (X_s^T X_s, cols x cols); the merge sums the partials pairwise
/// (O(cols^2) per addition, log2(shards) rounds). Summation order is fixed
/// by the tree, so results are deterministic for a given shard count but
/// associate differently from the unsharded single accumulation — equal up
/// to FP rounding, the documented tree-reduce contract.
Result<std::vector<BatPtr>> DispatchTreeReduce(ExecContext& ctx,
                                               const OpPlan& plan,
                                               const PreparedArg& pr,
                                               const PreparedArg& ps,
                                               int per_shard_budget) {
  const bool syrk = plan.kernel == KernelChoice::kDenseSyrk;
  const int64_t n = pr.rows;
  Timer timer;
  const AppData left = AppColumns(pr);
  const AppData right = syrk ? AppData{} : AppColumns(ps);
  if (!AllContiguous(left) || !AllContiguous(right)) {
    return DispatchBinary(ctx, plan, pr, ps);
  }
  ctx.RecordStage(Stage::kGather, timer.Seconds());

  const int S = plan.shards;
  const std::vector<ShardSpec> specs = MakeShardSpecs(n, S);
  std::vector<ShardTiming> timings(specs.size());
  std::vector<DenseMatrix> partials(static_cast<size_t>(S));
  std::vector<Status> statuses(static_cast<size_t>(S));

  auto run = [&](const ShardSpec& spec) {
    ScopedThreadBudget budget(per_shard_budget);
    const size_t i = static_cast<size_t>(spec.shard);
    Timer wall;
    Timer stage;
    const DenseMatrix a = PackShard(left, spec);
    const DenseMatrix b = syrk ? DenseMatrix() : PackShard(right, spec);
    timings[i].pack = stage.Seconds();
    stage.Restart();
    if (syrk) {
      partials[i] = blas::Syrk(a);
    } else {
      Result<DenseMatrix> partial = blas::CrossProd(a, b);
      if (partial.ok()) {
        partials[i] = std::move(partial).ValueUnsafe();
      } else {
        statuses[i] = partial.status();
      }
    }
    timings[i].kernel = stage.Seconds();
    timings[i].wall = wall.Seconds();
  };
  RunShards(specs, run);
  for (const Status& st : statuses) RMA_RETURN_NOT_OK(st);

  RecordShardStages(ctx, timings);
  timer.Restart();
  for (int stride = 1; stride < S; stride *= 2) {
    for (int i = 0; i + stride < S; i += 2 * stride) {
      RMA_RETURN_NOT_OK(blas::AddInPlace(&partials[static_cast<size_t>(i)],
                                         partials[static_cast<size_t>(i + stride)]));
    }
  }
  DenseMatrix total = std::move(partials[0]);
  ctx.RecordStage(Stage::kMerge, timer.Seconds());
  timer.Restart();
  std::vector<BatPtr> base = ColumnsToBats(kernel::MatrixToColumns(total));
  ctx.RecordStage(Stage::kScatter, timer.Seconds());
  return base;
}

}  // namespace

std::vector<ShardSpec> MakeShardSpecs(int64_t rows, int shards) {
  RMA_CHECK(rows >= 0 && shards >= 1);
  std::vector<ShardSpec> specs(static_cast<size_t>(shards));
  const int64_t base = rows / shards;
  const int64_t extra = rows % shards;
  int64_t begin = 0;
  for (int s = 0; s < shards; ++s) {
    ShardSpec& spec = specs[static_cast<size_t>(s)];
    spec.shard = s;
    spec.begin = begin;
    spec.end = begin + base + (s < extra ? 1 : 0);
    begin = spec.end;
  }
  return specs;
}

Result<std::vector<BatPtr>> DispatchShardedBinary(ExecContext& ctx,
                                                  const OpPlan& plan,
                                                  const PreparedArg& pr,
                                                  const PreparedArg& ps) {
  ScopedThreadBudget outer(ctx.effective_thread_budget());
  int budget = CurrentThreadBudget();
  if (budget <= 0) budget = DefaultThreadCount();
  const int per_shard_budget = std::max(1, budget / plan.shards);
  switch (plan.merge) {
    case MergeKind::kConcat:
      return DispatchConcat(ctx, plan, pr, ps, per_shard_budget);
    case MergeKind::kTreeReduce:
      return DispatchTreeReduce(ctx, plan, pr, ps, per_shard_budget);
    case MergeKind::kNone:
      break;
  }
  return DispatchBinary(ctx, plan, pr, ps);
}

}  // namespace internal

}  // namespace rma
