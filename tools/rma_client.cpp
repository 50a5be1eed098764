// rma_client: command-line client for rma_server.
//
//   ./build/tools/rma_client --port 7744 -e "SELECT * FROM weather;"
//   ./build/tools/rma_client --port 7744 --workload fig13 --reps 3 --counts
//
// Each -e adds one statement; --workload appends the canonical Fig. 13
// (Gram matrix / QR over the synthetic table m) or Fig. 15 (OLS) statement
// shapes the server's synthetic tables are built for. Statements run in
// order, --reps times. --option k=v applies session options before the
// first statement; --prepare routes every statement through
// PREPARE/EXECUTE_PREPARED instead of one-shot EXECUTE.
//
// Default output prints each result relation; --counts prints one
// machine-parseable line per statement instead:
//   rows=<n> batches=<b> cache=<hit|miss|-> seconds=<s>
// which is what scripts/server_smoke.sh greps.
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "client/client.h"
#include "util/string_util.h"

using namespace rma;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host HOST         server address (default 127.0.0.1)\n"
      "  --port PORT         server port (default 7744)\n"
      "  -e SQL              add a statement (repeatable)\n"
      "  --workload NAME     append fig13 or fig15 statements\n"
      "  --reps N            run the statement list N times (default 1)\n"
      "  --option K=V        set a session option before running\n"
      "  --prepare           use PREPARE + EXECUTE_PREPARED\n"
      "  --counts            print per-statement count lines only\n",
      argv0);
  return 2;
}

std::vector<std::string> WorkloadStatements(const std::string& name) {
  if (name == "fig13") {
    // Gram-matrix shapes over the server's synthetic table m: the
    // transpose-multiply plan (rewritten to a dense syrk cross product)
    // and the QR factor the paper's Fig. 13 micro-benchmarks exercise.
    return {
        "SELECT * FROM MMU(TRA(m BY id) BY C, m BY id);",
        "SELECT * FROM CPD(m BY id, m BY id);",
        "SELECT * FROM QQR(m BY id);",
    };
  }
  if (name == "fig15") {
    // OLS through relational matrix operations (Fig. 15):
    // beta = MMU(INV(CPD(A, A)), CPD(A, V)).
    return {
        "SELECT * FROM MMU(INV(CPD(m BY id, m BY id) BY C) BY C,"
        " CPD(m BY id, v BY id) BY C);",
    };
  }
  return {};
}

const char* CacheLabel(uint8_t plan_cache) {
  switch (plan_cache) {
    case 1:
      return "hit";
    case 2:
      return "miss";
    default:
      return "-";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7744;
  std::vector<std::string> statements;
  std::vector<std::pair<std::string, std::string>> options;
  int reps = 1;
  bool prepare = false;
  bool counts = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    // Integer values outside a flag's range are refused, never narrowed.
    Status st;
    if (arg == "--host" && has_next) {
      host = argv[++i];
    } else if (arg == "--port" && has_next) {
      st = ParseInt(argv[++i], 0, 65535, &port);
    } else if (arg == "-e" && has_next) {
      statements.emplace_back(argv[++i]);
    } else if (arg == "--workload" && has_next) {
      std::vector<std::string> w = WorkloadStatements(argv[++i]);
      if (w.empty()) {
        std::fprintf(stderr, "error: unknown workload '%s'\n", argv[i]);
        return 2;
      }
      statements.insert(statements.end(), w.begin(), w.end());
    } else if (arg == "--reps" && has_next) {
      st = ParseInt(argv[++i], 0, std::numeric_limits<int>::max(), &reps);
    } else if (arg == "--option" && has_next) {
      const std::string kv = argv[++i];
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "error: --option expects K=V, got '%s'\n",
                     kv.c_str());
        return 2;
      }
      options.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--prepare") {
      prepare = true;
    } else if (arg == "--counts") {
      counts = true;
    } else {
      return Usage(argv[0]);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", arg.c_str(),
                   st.message().c_str());
      return Usage(argv[0]);
    }
  }
  if (statements.empty()) {
    std::fprintf(stderr, "error: no statements (use -e or --workload)\n");
    return Usage(argv[0]);
  }

  Result<client::Client> conn = client::Client::Connect(host, port);
  if (!conn.ok()) {
    std::fprintf(stderr, "connect error: %s\n",
                 conn.status().ToString().c_str());
    return 1;
  }
  client::Client c = std::move(*conn);
  for (const auto& [key, value] : options) {
    const Status st = c.SetOption(key, value);
    if (!st.ok()) {
      std::fprintf(stderr, "set option %s: %s\n", key.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  std::vector<uint64_t> handles;
  if (prepare) {
    for (const auto& sql : statements) {
      Result<uint64_t> h = c.Prepare(sql);
      if (!h.ok()) {
        std::fprintf(stderr, "prepare error: %s\n",
                     h.status().ToString().c_str());
        return 1;
      }
      handles.push_back(*h);
    }
  }

  int failures = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t s = 0; s < statements.size(); ++s) {
      Result<client::ExecResult> result =
          prepare ? c.ExecutePrepared(handles[s]) : c.Execute(statements[s]);
      if (!result.ok()) {
        // Statement-level errors leave the session usable; keep going so a
        // bad statement in a script doesn't hide later results.
        std::fprintf(stderr, "error: %s\n",
                     result.status().ToString().c_str());
        ++failures;
        if (!c.connected()) return 1;
        continue;
      }
      if (result->relation.num_rows() !=
          static_cast<int64_t>(result->rows)) {
        std::fprintf(stderr,
                     "error: streamed %lld rows but server reported %llu\n",
                     static_cast<long long>(result->relation.num_rows()),
                     static_cast<unsigned long long>(result->rows));
        ++failures;
        continue;
      }
      if (counts) {
        std::printf("rows=%llu batches=%lld cache=%s seconds=%.6f\n",
                    static_cast<unsigned long long>(result->rows),
                    static_cast<long long>(result->batches),
                    CacheLabel(result->plan_cache), result->server_seconds);
      } else {
        std::printf("%s", result->relation.ToString(24).c_str());
        std::printf("(%llu rows, %.6fs server time)\n",
                    static_cast<unsigned long long>(result->rows),
                    result->server_seconds);
      }
      std::fflush(stdout);
    }
  }
  return failures == 0 ? 0 : 1;
}
