#include "core/query_cache.h"

#include <algorithm>
#include <utility>

namespace rma {

namespace {

/// Capacity bounds. Plans pin the relations their leaf expressions embed and
/// prepared arguments pin a relation plus a permutation vector, so both sets
/// stay small; LRU keeps the hot statements of a steady workload resident.
constexpr size_t kMaxPlanEntries = 128;
constexpr size_t kMaxPreparedEntries = 256;

uint64_t HashMix(uint64_t h, uint64_t v) {
  // FNV-1a over 8-byte words.
  constexpr uint64_t kPrime = 1099511628211ULL;
  h ^= v;
  return h * kPrime;
}

}  // namespace

uint64_t QueryCache::OptionsFingerprint(const RmaOptions& opts) {
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  h = HashMix(h, static_cast<uint64_t>(opts.kernel));
  h = HashMix(h, static_cast<uint64_t>(opts.sort));
  h = HashMix(h, static_cast<uint64_t>(opts.contiguous_budget_bytes));
  // The shard decision is plan content (OpPlan::shards/merge): toggling
  // sharding limits must not serve a stale plan shape. max_threads joined
  // plan content with sharding — it caps the candidate shard counts.
  h = HashMix(h, static_cast<uint64_t>(opts.max_shards));
  h = HashMix(h, static_cast<uint64_t>(opts.shard_min_rows));
  h = HashMix(h, static_cast<uint64_t>(opts.max_threads));
  return HashMix(h, opts.rewrites.enabled ? 1 : 0);
}

QueryCache::StatementPlanPtr QueryCache::LookupPlan(
    const std::string& key, uint64_t options_fingerprint,
    const TableSnapshot& tables) {
  MutexLock lock(mu_);
  auto it = plans_.find(key);
  // The single hit rule: same options, same relations.
  if (it == plans_.end() ||
      it->second.plan->options_fingerprint != options_fingerprint ||
      it->second.plan->base_tables != tables) {
    ++counters_.plan_misses;
    return nullptr;
  }
  it->second.last_used = ++tick_;
  ++counters_.plan_hits;
  return it->second.plan;
}

void QueryCache::StorePlan(const std::string& key, StatementPlanPtr plan) {
  if (plan == nullptr) return;
  MutexLock lock(mu_);
  if (plans_.size() >= kMaxPlanEntries && plans_.count(key) == 0) {
    auto victim = plans_.begin();
    for (auto it = plans_.begin(); it != plans_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    plans_.erase(victim);
    ++counters_.evictions;
  }
  plans_[key] = PlanEntry{std::move(plan), ++tick_};
}

void QueryCache::InvalidatePlansForTables(
    const std::vector<std::string>& written) {
  MutexLock lock(mu_);
  for (auto it = plans_.begin(); it != plans_.end();) {
    const TableSnapshot& read = it->second.plan->base_tables;
    const bool stale =
        std::any_of(read.begin(), read.end(), [&written](const auto& entry) {
          return std::find(written.begin(), written.end(), entry.first) !=
                 written.end();
        });
    if (stale) {
      it = plans_.erase(it);
      ++counters_.plan_invalidations;
    } else {
      ++it;
    }
  }
}

int64_t QueryCache::EvictPreparedLruLocked() {
  if (prepared_.size() < kMaxPreparedEntries) return 0;
  auto victim = prepared_.begin();
  for (auto it = prepared_.begin(); it != prepared_.end(); ++it) {
    if (it->second.last_used < victim->second.last_used) victim = it;
  }
  prepared_.erase(victim);
  ++counters_.evictions;
  return 1;
}

int64_t QueryCache::StorePrepared(const std::string& key,
                                  std::vector<uint64_t> relations,
                                  PreparedArgPtr arg) {
  if (arg == nullptr) return 0;
  MutexLock lock(mu_);
  int64_t evicted = 0;
  if (prepared_.count(key) == 0) evicted = EvictPreparedLruLocked();
  prepared_[key] = PreparedEntry{std::move(arg), std::move(relations), ++tick_};
  return evicted;
}

PreparedArgPtr QueryCache::LookupPrepared(const std::string& key) {
  MutexLock lock(mu_);
  auto it = prepared_.find(key);
  if (it == prepared_.end()) {
    ++counters_.prepared_misses;
    return nullptr;
  }
  it->second.last_used = ++tick_;
  ++counters_.prepared_hits;
  return it->second.arg;
}

void QueryCache::EvictRelation(uint64_t relation_identity) {
  MutexLock lock(mu_);
  for (auto it = prepared_.begin(); it != prepared_.end();) {
    const auto& rels = it->second.relations;
    if (std::find(rels.begin(), rels.end(), relation_identity) != rels.end()) {
      it = prepared_.erase(it);
      ++counters_.evictions;
    } else {
      ++it;
    }
  }
}

QueryCache::Counters QueryCache::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

size_t QueryCache::plan_entries() const {
  MutexLock lock(mu_);
  return plans_.size();
}

size_t QueryCache::prepared_entries() const {
  MutexLock lock(mu_);
  return prepared_.size();
}

}  // namespace rma
