#ifndef RMA_E2E_WORKLOADS_H_
#define RMA_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/query_cache.h"
#include "report.h"
#include "server/server.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace rma::e2e {

/// One SQL statement of a job. `create` names the table a CREATE TABLE ...
/// AS statement replaces (empty for a plain SELECT). `layer` names the
/// per-layer metric the statement's execute span counts toward when the
/// statement runs only relational operators ("rel.groupby_ms",
/// "rel.join_ms"); empty otherwise.
struct Statement {
  std::string tag;
  std::string select;
  std::string create;
  std::string layer;

  std::string Text() const {
    return create.empty() ? select : "CREATE TABLE " + create + " AS " + select;
  }
};

/// Engine counters sampled around a measurement phase; the per-layer ratios
/// and per-job rates come from their deltas.
struct Counters {
  QueryCache::Counters cache;
  BufferPoolStats pool;
  server::ServerStats server;
};

/// A benchmark workload: its inputs come from the seed alone, and a job is
/// one pass over its statement list by one client.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and loads them into the system (timed as setup_s).
  virtual Status Setup() = 0;

  /// Computes the reference every job is checked against (not timed).
  virtual Status PrepareOracle() = 0;

  /// Closed-loop clients driving the workload concurrently.
  virtual int clients() const { return 1; }

  /// Runs one job as `client` and checks its outputs. `latency_ms` receives
  /// the time from sending the first statement to receiving the last row.
  /// With `trace` set, records spans under job id `job` and adds the job's
  /// per-layer numbers to `sample`.
  virtual Status RunJob(int client, int64_t job, TraceLog* trace,
                        LayerSample* sample, double* latency_ms) = 0;

  virtual Counters Snapshot() const = 0;

  /// Per-layer metrics read once at the end of a traced phase.
  virtual void Finish(LayerSample* /*sample*/) const {}
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name. Paged workloads create their data directory
/// under `workdir` and remove it when destroyed.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& workdir);

}  // namespace rma::e2e

#endif  // RMA_E2E_WORKLOADS_H_
