// rma_load: bulk loader / inspector for durable RMA databases.
//
//   ./build/tools/rma_load --data-dir /var/lib/rma \
//       --csv trips.csv --table trips --schema "id:INT64,dist:DOUBLE"
//
// Converts CSV files (or synthetic workload relations) into the native
// paged column format under --data-dir: columns are written page-by-page
// with checksums and committed by an atomic manifest swing, so a crash at
// any point leaves the previous catalog intact. Also verifies tables after
// a restart (--verify prints a deterministic content fingerprint) and
// lists or drops catalog entries.
//
// Commands (exactly one):
//   --csv FILE --table NAME --schema SPEC   load a CSV file
//   --synthetic NAME --rows N --cols N      load a synthetic uniform table
//   --verify NAME                           print rows/cols + fingerprint
//   --list                                  print the recovered catalog
//   --drop NAME                             drop a table
//
// SPEC is comma-separated `attr:TYPE` with TYPE one of INT64, DOUBLE,
// STRING, matching the CSV header order.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "sql/database.h"
#include "storage/pager.h"
#include "storage/relation.h"
#include "util/string_util.h"
#include "workload/csv.h"
#include "workload/synthetic.h"

using namespace rma;

namespace {

constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --data-dir DIR <command> [options]\n"
      "commands (exactly one):\n"
      "  --csv FILE --table NAME --schema SPEC  load CSV (SPEC: attr:TYPE,"
      "...;\n"
      "                                         TYPE: INT64|DOUBLE|STRING)\n"
      "  --synthetic NAME                       load a synthetic uniform "
      "table\n"
      "  --verify NAME                          print rows/cols and a\n"
      "                                         deterministic content "
      "fingerprint\n"
      "  --list                                 print the catalog\n"
      "  --drop NAME                            drop a table\n"
      "options:\n"
      "  --rows N             synthetic rows (default 10000)\n"
      "  --cols N             synthetic application columns (default 4)\n"
      "  --seed N             synthetic RNG seed (default 42)\n"
      "  --pool-mb N          buffer-pool capacity in MiB (default 256)\n"
      "  --page-bytes N       page size for newly written files\n"
      "  --sleep-per-column MS  sleep between column writes (crash-test "
      "hook)\n",
      argv0);
  return 2;
}

bool ParseSchemaSpec(const std::string& spec,
                     std::vector<Attribute>* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    const size_t colon = field.rfind(':');
    if (colon == std::string::npos || colon == 0) return false;
    const std::string name = field.substr(0, colon);
    const std::string type = field.substr(colon + 1);
    DataType dt;
    if (type == "INT64") {
      dt = DataType::kInt64;
    } else if (type == "DOUBLE") {
      dt = DataType::kDouble;
    } else if (type == "STRING") {
      dt = DataType::kString;
    } else {
      return false;
    }
    out->push_back(Attribute{name, dt});
    pos = comma + 1;
    if (comma == spec.size()) break;
  }
  return !out->empty();
}

/// Deterministic fingerprint of a relation's contents: every cell rendered
/// to text and folded into one checksum, row-major. Identical for paged and
/// malloc-backed representations (GetString renders through the same
/// formatting either way), so the smoke script can compare a table across a
/// kill/restart cycle.
uint64_t Fingerprint(const Relation& r) {
  uint64_t sum = 0;
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    for (int col = 0; col < r.num_columns(); ++col) {
      const std::string cell = r.column(col)->GetString(row);
      sum = StorageChecksum(cell.data(), cell.size(), sum + 1);
    }
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir, csv_path, table, schema_spec, synthetic_name;
  std::string verify_name, drop_name;
  bool list = false;
  int64_t rows = 10000, seed = 42;
  int cols = 4;
  PagedStoreOptions store_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    // Integer values outside a flag's range are refused, never narrowed.
    Status st;
    if (arg == "--data-dir" && has_next) {
      data_dir = argv[++i];
    } else if (arg == "--csv" && has_next) {
      csv_path = argv[++i];
    } else if (arg == "--table" && has_next) {
      table = argv[++i];
    } else if (arg == "--schema" && has_next) {
      schema_spec = argv[++i];
    } else if (arg == "--synthetic" && has_next) {
      synthetic_name = argv[++i];
    } else if (arg == "--verify" && has_next) {
      verify_name = argv[++i];
    } else if (arg == "--drop" && has_next) {
      drop_name = argv[++i];
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--rows" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt64, &rows);
    } else if (arg == "--cols" && has_next) {
      st = ParseInt(argv[++i], 0, std::numeric_limits<int>::max(), &cols);
    } else if (arg == "--seed" && has_next) {
      st = ParseInt(argv[++i], std::numeric_limits<int64_t>::min(), kMaxInt64,
                    &seed);
    } else if (arg == "--pool-mb" && has_next) {
      // MiB, bounded so the byte count cannot overflow.
      st = ParseInt(argv[++i], 0, kMaxInt64 >> 20, &store_opts.pool_bytes);
      store_opts.pool_bytes <<= 20;
    } else if (arg == "--page-bytes" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt64, &store_opts.page_bytes);
    } else if (arg == "--sleep-per-column" && has_next) {
      st = ParseInt(argv[++i], 0, kMaxInt64,
                    &store_opts.sleep_ms_between_columns);
    } else {
      return Usage(argv[0]);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", arg.c_str(),
                   st.message().c_str());
      return Usage(argv[0]);
    }
  }
  const int commands = (csv_path.empty() ? 0 : 1) +
                       (synthetic_name.empty() ? 0 : 1) +
                       (verify_name.empty() ? 0 : 1) +
                       (drop_name.empty() ? 0 : 1) + (list ? 0 : 0) +
                       (list ? 1 : 0);
  if (data_dir.empty() || commands != 1) return Usage(argv[0]);

  Result<sql::Database> opened = sql::Database::Open(data_dir, store_opts);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: opening %s: %s\n", data_dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  sql::Database db = std::move(*opened);

  if (list) {
    for (const std::string& name : db.TableNames()) {
      const Relation rel = db.Get(name).ValueOrDie();
      std::printf("%s: %lld rows, %lld cols\n", name.c_str(),
                  static_cast<long long>(rel.num_rows()),
                  static_cast<long long>(rel.num_columns()));
    }
    return 0;
  }
  if (!drop_name.empty()) {
    const Status st = db.Drop(drop_name);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("dropped %s\n", drop_name.c_str());
    return 0;
  }
  if (!verify_name.empty()) {
    Result<Relation> rel = db.Get(verify_name);
    if (!rel.ok()) {
      std::fprintf(stderr, "error: %s\n", rel.status().ToString().c_str());
      return 1;
    }
    // The smoke script parses this exact line shape.
    std::printf("%s: %lld rows, %lld cols, fingerprint %016llx\n",
                verify_name.c_str(), static_cast<long long>(rel->num_rows()),
                static_cast<long long>(rel->num_columns()),
                static_cast<unsigned long long>(Fingerprint(*rel)));
    return 0;
  }

  Relation rel;
  std::string target;
  if (!synthetic_name.empty()) {
    target = synthetic_name;
    rel = workload::UniformRelation(rows, cols, static_cast<uint64_t>(seed),
                                    0.0, 10000.0, /*sorted=*/false, target);
  } else {
    if (table.empty() || schema_spec.empty()) return Usage(argv[0]);
    target = table;
    std::vector<Attribute> fields;
    if (!ParseSchemaSpec(schema_spec, &fields)) {
      std::fprintf(stderr, "error: bad --schema spec '%s'\n",
                   schema_spec.c_str());
      return 2;
    }
    Result<Schema> schema = Schema::Make(fields);
    if (!schema.ok()) {
      std::fprintf(stderr, "error: %s\n", schema.status().ToString().c_str());
      return 1;
    }
    Result<Relation> read = workload::ReadCsv(csv_path, *schema, target);
    if (!read.ok()) {
      std::fprintf(stderr, "error: %s\n", read.status().ToString().c_str());
      return 1;
    }
    rel = std::move(*read);
  }
  const Status st = db.Register(target, std::move(rel));
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  const Relation stored = db.Get(target).ValueOrDie();
  std::printf("loaded %s: %lld rows, %lld cols\n", target.c_str(),
              static_cast<long long>(stored.num_rows()),
              static_cast<long long>(stored.num_columns()));
  return 0;
}
