// rma_e2e: end-to-end benchmark of the engine — SQL text in, rows out — on
// four workloads drawn from the paper's experiments (README.md).
//
//   rma_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--workdir <dir>] [--json <file>]
//   rma_e2e --smoke [--workdir <dir>]
//
// One invocation measures one workload: set-up (repeated, median reported),
// oracle, a warm-up, then closed-loop jobs for --seconds. Every job's output
// is checked. The last line of stdout is one JSON object with the metrics.
// --trace 1 splits the time into an untraced and a traced half and reports
// the per-layer metrics instead, writing the spans to
// <workdir>/TRACE_<workload>.json.
#include <malloc.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "report.h"
#include "util/timer.h"
#include "workloads.h"

namespace rma::e2e {
namespace {

/// Set-up runs at least kMinSetups times and until kSetupSeconds have
/// passed (at most kMaxSetups), so short set-ups get enough samples for
/// their median to ride out a scheduling hiccup.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
constexpr double kWarmupSeconds = 2.0;
/// Failed jobs whose error is printed to stderr (the rest are only counted).
constexpr int kErrorsShown = 5;

struct Metric {
  const char* name;
  const char* unit;
};

/// Must match BENCHMARK.json's "end_to_end" and "per_layer" lists.
constexpr Metric kEndToEnd[] = {{"jobs_per_s", "jobs/s"},
                                {"latency_p50_ms", "ms"},
                                {"peak_rss_mb", "MB"},
                                {"setup_s", "s"}};

/// The tail is printed and kept in the results file, but is not an
/// end-to-end metric: on a shared host a varying 2-21% of jobs are slowed
/// by neighbours, so the p90 keeps crossing between the two groups and
/// measures the host more than the engine (README.md, "End-to-end metrics").
constexpr Metric kTail = {"latency_p90_ms", "ms"};

constexpr Metric kPerLayer[] = {
    {"sql.parse_ms", "ms"},
    {"sql.plan_cache_hit_ratio", "ratio"},
    {"sql.plan_invalidations_per_job", "count"},
    {"sql.unattributed_ms", "ms"},
    {"rel.groupby_ms", "ms"},
    {"rel.join_ms", "ms"},
    {"core.sort_ms", "ms"},
    {"core.gather_ms", "ms"},
    {"core.kernel_ms", "ms"},
    {"core.scatter_ms", "ms"},
    {"core.morph_ms", "ms"},
    {"core.merge_ms", "ms"},
    {"core.prepared_cache_hit_ratio", "ratio"},
    {"core.ops_per_job", "count"},
    {"core.sharded_ops_per_job", "count"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.pool_misses_per_job", "count"},
    {"storage.pool_evictions_per_job", "count"},
    {"storage.pool_writebacks_per_job", "count"},
    {"storage.save_ms", "ms"},
    {"storage.space_amp", "ratio"},
    {"server.exec_ms", "ms"},
    {"client.wire_ms", "ms"},
    {"client.batches_per_job", "count"},
    {"client.plan_cache_hit_ratio", "ratio"},
    {"server.admission_waits_per_job", "count"},
    {"server.peak_in_flight", "count"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
  std::string json;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--json") {
      args->json = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->smoke || !args->workload.empty();
}

/// Jobs run by all clients in one measurement phase.
struct Phase {
  std::vector<double> latencies_ms;  ///< successful jobs only
  std::vector<LayerSample> samples;  ///< traced phases only
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0;
  Counters before;
  Counters after;
};

/// Closed loop: each client starts its next job when the previous one is
/// done, until `seconds` have passed; jobs running at the deadline finish.
Phase RunPhase(Workload* w, double seconds, TraceLog* trace,
               std::atomic<int64_t>* next_job) {
  Phase phase;
  std::mutex mu;
  int errors_shown = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  auto client_loop = [&](int client) {
    std::vector<double> latencies;
    std::vector<LayerSample> samples;
    int64_t attempted = 0;
    int64_t failed = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      LayerSample sample;
      double ms = 0;
      const Status st = w->RunJob(client, next_job->fetch_add(1), trace,
                                  &sample, &ms);
      ++attempted;
      if (!st.ok()) {
        ++failed;
        std::lock_guard<std::mutex> lock(mu);
        if (errors_shown++ < kErrorsShown) {
          std::fprintf(stderr, "job failed: %s\n", st.ToString().c_str());
        }
        continue;
      }
      latencies.push_back(ms);
      if (trace != nullptr) samples.push_back(std::move(sample));
    }
    std::lock_guard<std::mutex> lock(mu);
    phase.latencies_ms.insert(phase.latencies_ms.end(), latencies.begin(),
                              latencies.end());
    for (LayerSample& s : samples) phase.samples.push_back(std::move(s));
    phase.attempted += attempted;
    phase.failed += failed;
  };
  phase.before = w->Snapshot();
  Timer wall;
  std::vector<std::thread> threads;
  for (int c = 1; c < w->clients(); ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& t : threads) t.join();
  phase.wall_s = wall.Seconds();
  phase.after = w->Snapshot();
  return phase;
}

double Ratio(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

/// Per-layer metrics of a traced phase: per-job medians of the job samples,
/// plus ratios and per-job rates from the engine counters' deltas.
LayerSample LayerMetrics(const Workload& w, const Phase& traced,
                         double untraced_p50_ms) {
  LayerSample out;
  for (const Metric& m : kPerLayer) {
    std::vector<double> values;
    for (const LayerSample& s : traced.samples) {
      const auto it = s.find(m.name);
      values.push_back(it != s.end() ? it->second : 0.0);
    }
    out[m.name] = Quantile(values, 0.5);
  }
  const double jobs = static_cast<double>(std::max<int64_t>(1, traced.attempted));
  const QueryCache::Counters& c0 = traced.before.cache;
  const QueryCache::Counters& c1 = traced.after.cache;
  const int64_t plan_hits = c1.plan_hits - c0.plan_hits;
  const int64_t prep_hits = c1.prepared_hits - c0.prepared_hits;
  out["sql.plan_cache_hit_ratio"] =
      Ratio(plan_hits, plan_hits + c1.plan_misses - c0.plan_misses);
  out["sql.plan_invalidations_per_job"] =
      static_cast<double>(c1.plan_invalidations - c0.plan_invalidations) / jobs;
  out["core.prepared_cache_hit_ratio"] =
      Ratio(prep_hits, prep_hits + c1.prepared_misses - c0.prepared_misses);
  const BufferPoolStats& p0 = traced.before.pool;
  const BufferPoolStats& p1 = traced.after.pool;
  const int64_t pool_hits = p1.hits - p0.hits;
  const int64_t pool_misses = p1.misses - p0.misses;
  out["storage.pool_hit_ratio"] = Ratio(pool_hits, pool_hits + pool_misses);
  out["storage.pool_misses_per_job"] = static_cast<double>(pool_misses) / jobs;
  out["storage.pool_evictions_per_job"] =
      static_cast<double>(p1.evictions - p0.evictions) / jobs;
  out["storage.pool_writebacks_per_job"] =
      static_cast<double>(p1.writebacks - p0.writebacks) / jobs;
  out["server.admission_waits_per_job"] =
      static_cast<double>(traced.after.server.admission_waits -
                          traced.before.server.admission_waits) /
      jobs;
  w.Finish(&out);
  const double traced_p50 = Quantile(traced.latencies_ms, 0.5);
  out["trace.overhead_pct"] =
      untraced_p50_ms > 0 ? (traced_p50 / untraced_p50_ms - 1.0) * 100.0 : 0.0;
  return out;
}

std::string MetricsJson(const Metric* metrics, size_t n,
                        const LayerSample& values) {
  std::string out = "{";
  for (size_t i = 0; i < n; ++i) {
    out += (i > 0 ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(values.at(metrics[i].name)) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// One job per workload, untraced and traced, each checked by its oracle.
int RunSmoke(const Args& args) {
  int failures = 0;
  for (const std::string& name : WorkloadNames()) {
    Timer t;
    std::unique_ptr<Workload> w = MakeWorkload(name, args.seed, args.workdir);
    Status st = w->Setup();
    if (st.ok()) st = w->PrepareOracle();
    double plain_ms = 0;
    double traced_ms = 0;
    if (st.ok()) st = w->RunJob(0, 0, nullptr, nullptr, &plain_ms);
    TraceLog trace;
    LayerSample sample;
    if (st.ok()) st = w->RunJob(0, 1, &trace, &sample, &traced_ms);
    if (!st.ok()) ++failures;
    std::printf("smoke %-14s %s  job %.1f ms, traced job %.1f ms, total %.1f s\n",
                name.c_str(), st.ok() ? "ok  " : "FAIL", plain_ms, traced_ms,
                t.Seconds());
    if (!st.ok()) std::printf("  %s\n", st.ToString().c_str());
  }
  return failures == 0 ? 0 : 1;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  Timer setup_total;
  for (int k = 0; k < kMaxSetups &&
                  (k < kMinSetups || setup_total.Seconds() < kSetupSeconds);
       ++k) {
    w.reset();  // tear the previous instance down before the next one loads
    w = MakeWorkload(args.workload, args.seed, args.workdir);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    Timer t;
    const Status st = w->Setup();
    setup_s.push_back(t.Seconds());
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (const Status st = w->PrepareOracle(); !st.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::atomic<int64_t> next_job{0};
  std::vector<Phase> phases;
  phases.push_back(RunPhase(w.get(), kWarmupSeconds, nullptr, &next_job));
  // Read before the measured phase: after it, the high-water mark also holds
  // the freed memory the allocator policy (main) keeps, which grows with the
  // number of jobs run and so with speed.
  const double peak_rss_mb = PeakRssMb();
  const CpuTicks ticks_before = ReadCpuTicks();
  LayerSample values;
  const Metric* metrics = kEndToEnd;
  size_t n_metrics = std::size(kEndToEnd);
  double tail_ms = std::nan("");  // written as null by a traced run
  if (!args.trace) {
    phases.push_back(RunPhase(w.get(), args.seconds, nullptr, &next_job));
    const Phase& m = phases.back();
    values["jobs_per_s"] =
        static_cast<double>(m.latencies_ms.size()) / m.wall_s;
    values["latency_p50_ms"] = Quantile(m.latencies_ms, 0.5);
    values["peak_rss_mb"] = peak_rss_mb;
    values["setup_s"] = Quantile(setup_s, 0.5);
    tail_ms = Quantile(m.latencies_ms, 0.9);
    if (m.latencies_ms.size() < 100) {
      std::fprintf(stderr, "warning: %zu jobs; %s needs at least 100\n",
                   m.latencies_ms.size(), kTail.name);
    }
  } else {
    phases.push_back(RunPhase(w.get(), args.seconds / 2, nullptr, &next_job));
    const double untraced_p50 = Quantile(phases.back().latencies_ms, 0.5);
    TraceLog trace;
    phases.push_back(RunPhase(w.get(), args.seconds / 2, &trace, &next_job));
    values = LayerMetrics(*w, phases.back(), untraced_p50);
    metrics = kPerLayer;
    n_metrics = std::size(kPerLayer);
    const std::string path = args.workdir + "/TRACE_" + args.workload + ".json";
    if (const Status st = trace.Write(path, args.workload, args.seed); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", path.c_str());
  }

  const double steal_pct = StealPct(ticks_before, ReadCpuTicks());
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
  }
  const int64_t jobs = static_cast<int64_t>(phases.back().latencies_ms.size());
  const Machine machine = DescribeMachine();
  std::printf("%s seed=%llu seconds=%g trace=%d clients=%d jobs=%lld "
              "failed/attempted=%lld/%lld threads=%d cpus=%d simd=%s "
              "steal=%.1f%%\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, w->clients(),
              static_cast<long long>(jobs), static_cast<long long>(failed),
              static_cast<long long>(attempted), machine.hardware_threads,
              machine.affinity_cpus, machine.simd.c_str(), steal_pct);
  for (size_t i = 0; i < n_metrics; ++i) {
    std::printf("  %-34s %14.6f %s\n", metrics[i].name,
                values.at(metrics[i].name), metrics[i].unit);
  }
  if (!args.trace) {
    std::printf("  %-34s %14.6f %s (not gated)\n", kTail.name, tail_ms,
                kTail.unit);
  }
  const std::string metrics_json = MetricsJson(metrics, n_metrics, values);
  const bool correct = failed == 0;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": " << metrics_json << "}";

  if (!args.json.empty()) {
    std::ofstream out(args.json);
    out << "{\"workload\": " << JsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << JsonNumber(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"clients\": " << w->clients() << ", \"jobs\": " << jobs
        << ", \"" << kTail.name << "\": " << JsonNumber(tail_ms)
        << ", \"hardware_threads\": " << machine.hardware_threads
        << ", \"affinity_cpus\": " << machine.affinity_cpus
        << ", \"cpu_model\": " << JsonString(machine.cpu_model)
        << ", \"simd\": " << JsonString(machine.simd)
        << ", \"steal_pct\": " << JsonNumber(steal_pct)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": " << metrics_json << "}\n";
    if (!out) std::fprintf(stderr, "cannot write %s\n", args.json.c_str());
  }
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace rma::e2e

int main(int argc, char** argv) {
  // A fixed allocator policy: glibc's adaptive mmap threshold otherwise
  // switches large column buffers between fresh mmap'd pages and reused heap
  // memory at arbitrary points of a run, and on a virtual machine the page
  // faults of the first mode cost as much as the engine's own work (2x on
  // context_wide). Freed memory is kept and reused, as jemalloc-style
  // allocators do, so every run measures the same thing.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  rma::e2e::Args args;
  if (!rma::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rma_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--json <file>]\n"
                 "       rma_e2e --smoke [--workdir <dir>]\n");
    return 2;
  }
  return args.smoke ? rma::e2e::RunSmoke(args) : rma::e2e::Run(args);
}
