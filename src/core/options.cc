#include "core/options.h"

#include <string>

namespace rma {

Status ValidateRmaOptions(const RmaOptions& opts) {
  if (opts.max_shards < 1) {
    return Status::Invalid(
        "RmaOptions::max_shards must be >= 1 (got " +
        std::to_string(opts.max_shards) +
        "); use 1 to disable sharding, not 0");
  }
  if (opts.shard_min_rows < 1) {
    return Status::Invalid(
        "RmaOptions::shard_min_rows must be >= 1 (got " +
        std::to_string(opts.shard_min_rows) + ")");
  }
  if (opts.max_threads < 0) {
    return Status::Invalid(
        "RmaOptions::max_threads must be >= 0 (got " +
        std::to_string(opts.max_threads) + "); 0 means hardware concurrency");
  }
  if (opts.contiguous_budget_bytes <= 0) {
    return Status::Invalid(
        "RmaOptions::contiguous_budget_bytes must be > 0 (got " +
        std::to_string(opts.contiguous_budget_bytes) + ")");
  }
  return Status::OK();
}

}  // namespace rma
