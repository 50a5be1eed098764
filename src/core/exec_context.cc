#include "core/exec_context.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>

#include "core/query_cache.h"
#include "matrix/parallel.h"

namespace rma {

namespace {

/// One open operation bracket. Ops begin and end on the same thread, so the
/// bracket lives in thread-local state: RecordStage/RecordPlan/CountPrepared
/// reach the open entry without taking the context mutex, and concurrent ops
/// of different threads (batched statements) never see each other's partial
/// stats.
struct OpenOp {
  ExecContext* ctx = nullptr;
  RmaStats stats;
  bool has_plan = false;
  OpPlan plan;
};

/// Deque: stable references across push_back/pop_back (nested brackets).
thread_local std::deque<OpenOp> t_open_ops;

OpenOp* TopOpenOp(const ExecContext* ctx) {
  for (auto it = t_open_ops.rbegin(); it != t_open_ops.rend(); ++it) {
    if (it->ctx == ctx) return &*it;
  }
  return nullptr;
}

void AddStage(RmaStats* stats, Stage stage, double seconds) {
  switch (stage) {
    case Stage::kPrepare:
      stats->sort_seconds += seconds;
      break;
    case Stage::kGather:
      stats->transform_in_seconds += seconds;
      break;
    case Stage::kKernel:
      stats->compute_seconds += seconds;
      break;
    case Stage::kScatter:
      stats->transform_out_seconds += seconds;
      break;
    case Stage::kMorph:
      stats->morph_seconds += seconds;
      break;
    case Stage::kMerge:
      stats->merge_seconds += seconds;
      break;
  }
}

}  // namespace

BatPtr PreparedArg::OrderColumn(size_t i) const {
  const BatPtr& col = rel.column(split.order_idx[i]);
  if (identity()) return col;
  if (!col->StableData()) return col->Take(perm);
  MutexLock lock(order_mu_);
  if (order_memo_.empty()) order_memo_.resize(split.order_idx.size());
  BatPtr& gathered = order_memo_[i];
  if (gathered == nullptr) gathered = col->Take(perm);
  return gathered;
}

BatPtr PreparedArg::AppColumnBat(size_t j) const {
  const BatPtr& col = rel.column(split.app_idx[j]);
  return identity() ? col : col->Take(perm);
}

std::vector<double> PreparedArg::AppColumnDense(size_t j) const {
  const BatPtr& col = rel.column(split.app_idx[j]);
  if (identity()) return ToDoubleVector(*col);
  return GatherDoubleVector(*col, perm);
}

ArgShape PreparedArg::Shape() const {
  return MakeArgShape(rel, split.app_idx, rows);
}

ExecContext::ExecContext() : ExecContext(RmaOptions{}) {}

ExecContext::ExecContext(const RmaOptions& opts)
    : ExecContext(opts, nullptr) {}

ExecContext::ExecContext(const RmaOptions& opts,
                         std::shared_ptr<QueryCache> cache)
    : opts_(opts),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<QueryCache>()) {}

int ExecContext::effective_thread_budget() const {
  const int ambient = CurrentThreadBudget();
  const int own = opts_.max_threads;
  if (ambient > 0 && own > 0) return std::min(ambient, own);
  return ambient > 0 ? ambient : own;
}

void ExecContext::RecordStage(Stage stage, double seconds) {
  if (OpenOp* op = TopOpenOp(this)) AddStage(&op->stats, stage, seconds);
  MutexLock lock(mu_);
  AddStage(&totals_, stage, seconds);
  if (opts_.stats != nullptr) AddStage(opts_.stats, stage, seconds);
}

void ExecContext::RecordShardTimes(const std::vector<double>& shard_walls) {
  if (OpenOp* op = TopOpenOp(this)) op->stats.shard_seconds = shard_walls;
  MutexLock lock(mu_);
  if (opts_.stats != nullptr) opts_.stats->shard_seconds = shard_walls;
}

void ExecContext::RecordPlan(const OpPlan& plan) {
  if (OpenOp* op = TopOpenOp(this)) {
    op->plan = plan;
    op->has_plan = true;
  }
}

void ExecContext::BeginOp() {
  t_open_ops.push_back(OpenOp{});
  t_open_ops.back().ctx = this;
}

void ExecContext::EndOp(bool commit) {
  // The op bracket is strictly nested per thread, so this context's
  // innermost open op is the back entry; tolerate interleaved contexts by
  // searching backwards.
  for (auto it = t_open_ops.rbegin(); it != t_open_ops.rend(); ++it) {
    if (it->ctx != this) continue;
    OpenOp op = std::move(*it);
    t_open_ops.erase(std::next(it).base());
    if (commit && op.has_plan) {
      MutexLock lock(mu_);
      plans_.push_back(std::move(op.plan));
      op_stats_.push_back(op.stats);
    }
    return;
  }
}

void ExecContext::RecordPlanCache(PlanCacheOutcome outcome) {
  MutexLock lock(mu_);
  plan_outcome_ = outcome;
}

ExecContext::PlanCacheOutcome ExecContext::plan_cache_outcome() const {
  MutexLock lock(mu_);
  return plan_outcome_;
}

void ExecContext::CountPrepared(bool hit) {
  if (OpenOp* op = TopOpenOp(this)) {
    if (hit) {
      ++op->stats.prepared_cache_hits;
    } else {
      ++op->stats.prepared_cache_misses;
    }
  }
  MutexLock lock(mu_);
  if (hit) {
    ++totals_.prepared_cache_hits;
    if (opts_.stats != nullptr) ++opts_.stats->prepared_cache_hits;
  } else {
    ++totals_.prepared_cache_misses;
    if (opts_.stats != nullptr) ++opts_.stats->prepared_cache_misses;
  }
}

void ExecContext::CountEvictions(int64_t n) {
  if (n == 0) return;
  if (OpenOp* op = TopOpenOp(this)) op->stats.prepared_cache_evictions += n;
  MutexLock lock(mu_);
  totals_.prepared_cache_evictions += n;
  if (opts_.stats != nullptr) opts_.stats->prepared_cache_evictions += n;
}

void ExecContext::RecordPoolDelta(int64_t hits, int64_t misses,
                                  int64_t evictions, int64_t writebacks) {
  if (hits == 0 && misses == 0 && evictions == 0 && writebacks == 0) return;
  if (OpenOp* op = TopOpenOp(this)) {
    op->stats.pool_hits += hits;
    op->stats.pool_misses += misses;
    op->stats.pool_evictions += evictions;
    op->stats.pool_writebacks += writebacks;
  }
  MutexLock lock(mu_);
  auto add = [&](RmaStats* stats) {
    stats->pool_hits += hits;
    stats->pool_misses += misses;
    stats->pool_evictions += evictions;
    stats->pool_writebacks += writebacks;
  };
  add(&totals_);
  if (opts_.stats != nullptr) add(opts_.stats);
}

std::string ExecContext::PreparedKey(const Relation& r,
                                     const std::vector<std::string>& order,
                                     bool avoid_sort) {
  // The identity token covers the column data and the attribute names
  // (renames construct new relations); the relation name matters because the
  // cached PreparedArg's relation feeds result assembly (relation name,
  // det/rnk context value); the order schema and the sort-avoidance variant
  // complete the key.
  std::ostringstream os;
  os << "sort:" << r.identity() << '|' << r.name() << '|';
  for (const auto& o : order) os << o << ';';
  os << '|' << (avoid_sort ? 1 : 0);
  return os.str();
}

std::string ExecContext::AlignedKey(const Relation& s,
                                    const std::vector<std::string>& order_s,
                                    const Relation& r,
                                    const std::vector<std::string>& order_r) {
  // The alignment permutation maps s's rows onto r's *physical* key order,
  // so it depends on both relations' data (identities) and both order
  // schemas.
  std::ostringstream os;
  os << "align:" << s.identity() << '|' << s.name() << '|';
  for (const auto& o : order_s) os << o << ';';
  os << "|to:" << r.identity() << '|';
  for (const auto& o : order_r) os << o << ';';
  return os.str();
}

PreparedArgPtr ExecContext::LookupPrepared(
    const Relation& r, const std::vector<std::string>& order, bool avoid_sort) {
  PreparedArgPtr found =
      cache_->LookupPrepared(PreparedKey(r, order, avoid_sort));
  CountPrepared(found != nullptr);
  return found;
}

void ExecContext::StoreByKey(std::string key, std::vector<uint64_t> relations,
                             PreparedArgPtr prepared) {
  CountEvictions(
      cache_->StorePrepared(std::move(key), std::move(relations),
                            std::move(prepared)));
}

void ExecContext::StorePrepared(const Relation& r,
                                const std::vector<std::string>& order,
                                bool avoid_sort, PreparedArgPtr prepared) {
  StoreByKey(PreparedKey(r, order, avoid_sort), {r.identity()},
             std::move(prepared));
}

PreparedArgPtr ExecContext::LookupAligned(
    const Relation& s, const std::vector<std::string>& order_s,
    const Relation& r, const std::vector<std::string>& order_r) {
  PreparedArgPtr found =
      cache_->LookupPrepared(AlignedKey(s, order_s, r, order_r));
  CountPrepared(found != nullptr);
  return found;
}

void ExecContext::StoreAligned(const Relation& s,
                               const std::vector<std::string>& order_s,
                               const Relation& r,
                               const std::vector<std::string>& order_r,
                               PreparedArgPtr prepared) {
  StoreByKey(AlignedKey(s, order_s, r, order_r), {s.identity(), r.identity()},
             std::move(prepared));
}

}  // namespace rma
