#include "core/query_cache.h"

#include <algorithm>
#include <cctype>
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

std::string QueryCache::NormalizeStatement(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  char quote = '\0';
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    const char c = sql[i];
    if (quote == '\0' && c == '-' && i + 1 < sql.size() &&
        sql[i + 1] == '-') {
      // Line comment: skip to (not past) the newline, which the whitespace
      // branch then collapses. Comments separate tokens like whitespace and
      // never reach the key — an apostrophe inside one must not flip the
      // quote state, and comment-only differences must share an entry.
      i += 2;
      while (i < sql.size() && sql[i] != '\n') ++i;
      --i;  // the loop increment lands on the newline / one-past-end
      pending_space = true;
      continue;
    }
    if (quote == '\0' && c == '/' && i + 1 < sql.size() &&
        sql[i + 1] == '*') {
      // Block comment: skip past the closing */; an unterminated comment
      // (which the lexer rejects) swallows the rest of the text.
      i += 2;
      while (i + 1 < sql.size() && !(sql[i] == '*' && sql[i + 1] == '/')) {
        ++i;
      }
      i = (i + 1 < sql.size()) ? i + 1 : sql.size();
      pending_space = true;
      continue;
    }
    if (quote != '\0') {
      out += c;
      if (c == quote) {
        // The lexer treats a doubled quote inside a literal as an escaped
        // quote, not a close; mirror that so quote state cannot
        // desynchronize (two different literals must never share a key).
        if (i + 1 < sql.size() && sql[i + 1] == quote) {
          out += quote;
          ++i;
        } else {
          quote = '\0';
        }
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      if (pending_space && !out.empty()) out += ' ';
      pending_space = false;
      quote = c;
      out += c;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out += ' ';
    pending_space = false;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  // EXPLAIN [ANALYZE] is presentation, not plan content: the underlying
  // statement shares its cache entry with the bare form.
  for (const char* prefix : {"explain ", "analyze "}) {
    const size_t len = std::string(prefix).size();
    if (out.compare(0, len, prefix) == 0) out.erase(0, len);
  }
  return out;
}

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
    const std::string& normalized, uint64_t options_fingerprint,
    const TableSnapshot& tables) {
  MutexLock lock(mu_);
  auto it = plans_.find(normalized);
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

void QueryCache::StorePlan(const std::string& normalized,
                           StatementPlanPtr plan) {
  if (plan == nullptr) return;
  MutexLock lock(mu_);
  if (plans_.size() >= kMaxPlanEntries && plans_.count(normalized) == 0) {
    auto victim = plans_.begin();
    for (auto it = plans_.begin(); it != plans_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    plans_.erase(victim);
    ++counters_.evictions;
  }
  plans_[normalized] = PlanEntry{std::move(plan), ++tick_};
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
