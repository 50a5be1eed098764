#include "workloads.h"

#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "client/client.h"
#include "core/exec_context.h"
#include "rel/operators.h"
#include "sql/database.h"
#include "sql/parser.h"
#include "util/timer.h"
#include "workload/bixi.h"
#include "workload/dblp.h"
#include "workload/synthetic.h"

namespace rma::e2e {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Order-sensitive hash of a relation's schema and the bits of every cell:
/// equal fingerprints mean bit-identical results.
uint64_t Fingerprint(const Relation& r) {
  uint64_t h = SplitMix(static_cast<uint64_t>(r.num_rows()));
  for (int c = 0; c < r.num_columns(); ++c) {
    const Attribute& attr = r.schema().attribute(c);
    h = SplitMix(h ^ std::hash<std::string>{}(attr.name));
    const Bat& col = *r.column(c);
    if (attr.type == DataType::kString) {
      for (int64_t i = 0; i < col.size(); ++i) {
        h = SplitMix(h ^ std::hash<std::string>{}(col.GetString(i)));
      }
    } else {
      for (double d : ToDoubleVector(col)) h = SplitMix(h ^ Bits(d));
    }
  }
  return h;
}

/// Sum and absolute sum over every numeric cell. Results whose reductions
/// may round differently (another thread split or shard count) are compared
/// as |sum - expected| <= 1e-9 * abs_sum.
struct CellSums {
  double sum = 0;
  double abs_sum = 0;
};

CellSums SumCells(const Relation& r) {
  CellSums out;
  for (int c = 0; c < r.num_columns(); ++c) {
    if (r.schema().attribute(c).type == DataType::kString) continue;
    for (double d : ToDoubleVector(*r.column(c))) {
      out.sum += d;
      out.abs_sum += std::fabs(d);
    }
  }
  return out;
}

std::vector<double> Column(const Relation& r, const std::string& name) {
  return ToDoubleVector(**r.ColumnByName(name));
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) out += (out.empty() ? "" : ", ") + s;
  return out;
}

std::vector<std::string> Names(const char* prefix, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

Status JobError(const Statement& s, const Status& st) {
  return Status::Invalid(s.tag + ": " + st.ToString());
}

/// Times sql::Parse on the statement's text as a "parse" span under
/// `stmt_span`, adds it to the job's sql.parse_ms and returns it. The engine
/// parses the text itself once more while executing it; this measures what
/// that costs.
Result<double> TracedParse(const Statement& s, int64_t stmt_span, int64_t job,
                           int i, TraceLog* trace, LayerSample* sample) {
  const double p0 = trace->NowMs();
  const Status parsed = sql::Parse(s.Text()).status();
  const double p1 = trace->NowMs();
  trace->Add(stmt_span, job, i, s.tag, "parse", p0, p1);
  RMA_RETURN_NOT_OK(parsed);
  (*sample)["sql.parse_ms"] += p1 - p0;
  return p1 - p0;
}

/// Adds one statement's core stage times (from its own ExecContext) to the
/// job sample and as stage records under the statement span; returns their
/// sum in milliseconds.
double RecordStages(const RmaStats& st, int64_t stmt_span, int64_t job, int i,
                    const std::string& tag, TraceLog* trace,
                    LayerSample* sample) {
  const std::pair<const char*, double> stages[] = {
      {"core.sort_ms", st.sort_seconds},
      {"core.gather_ms", st.transform_in_seconds},
      {"core.kernel_ms", st.compute_seconds},
      {"core.scatter_ms", st.transform_out_seconds},
      {"core.morph_ms", st.morph_seconds},
      {"core.merge_ms", st.merge_seconds}};
  double total = 0;
  for (const auto& [name, seconds] : stages) {
    trace->AddStage(stmt_span, job, i, tag, name, seconds * 1e3);
    (*sample)[name] += seconds * 1e3;
    total += seconds * 1e3;
  }
  return total;
}

// ---------------------------------------------------------------------------
// In-process workloads: SQL text through sql::Database, one client.
// ---------------------------------------------------------------------------

class InProcessWorkload : public Workload {
 public:
  Status RunJob(int /*client*/, int64_t job, TraceLog* trace,
                LayerSample* sample, double* latency_ms) override {
    std::vector<Relation> out;
    out.reserve(statements_.size());
    const int64_t job_span =
        trace != nullptr ? trace->Open(-1, job, -1, "", "job") : -1;
    Timer timer;
    for (size_t i = 0; i < statements_.size(); ++i) {
      const Statement& s = statements_[i];
      Result<Relation> r =
          trace == nullptr
              ? db_->Execute(s.Text())
              : RunTraced(s, static_cast<int>(i), job, job_span, trace, sample);
      if (!r.ok()) return JobError(s, r.status());
      out.push_back(std::move(*r));
    }
    *latency_ms = timer.Millis();
    if (trace != nullptr) trace->Close(job_span);
    return Check(out);
  }

  Counters Snapshot() const override {
    Counters c;
    c.cache = db_->query_cache()->counters();
    if (db_->paged_store() != nullptr) c.pool = db_->paged_store()->pool()->stats();
    return c;
  }

 protected:
  /// Checks one job's statement results against the oracle.
  virtual Status Check(const std::vector<Relation>& out) const = 0;

  std::unique_ptr<sql::Database> db_;
  std::vector<Statement> statements_;

 private:
  /// The traced form of Database::Execute: the select runs through
  /// ExecuteOn on a per-statement context (whose totals() give the core
  /// stage times), and a CREATE TABLE AS registers its result in a separate,
  /// timed Register call.
  Result<Relation> RunTraced(const Statement& s, int i, int64_t job,
                             int64_t job_span, TraceLog* trace,
                             LayerSample* sample) {
    const int64_t stmt_span = trace->Open(job_span, job, i, s.tag, "statement");
    RMA_ASSIGN_OR_RETURN(const double parse_ms,
                         TracedParse(s, stmt_span, job, i, trace, sample));

    ExecContext ctx(db_->rma_options, db_->query_cache());
    const double e0 = trace->NowMs();
    Result<Relation> rel = db_->ExecuteOn(s.select, &ctx);
    const double e1 = trace->NowMs();
    trace->Add(stmt_span, job, i, s.tag, "execute", e0, e1);
    if (!rel.ok()) return rel;

    if (!s.create.empty()) {
      const double s0 = trace->NowMs();
      const Status saved = db_->Register(s.create, *rel);
      const double s1 = trace->NowMs();
      trace->Add(stmt_span, job, i, s.tag, "save", s0, s1);
      RMA_RETURN_NOT_OK(saved);
      (*sample)["storage.save_ms"] += s1 - s0;
    }
    trace->Close(stmt_span);

    const double stage_ms =
        RecordStages(ctx.totals(), stmt_span, job, i, s.tag, trace, sample);
    for (const OpPlan& plan : ctx.plans()) {
      (*sample)["core.ops_per_job"] += 1;
      if (plan.shards > 1) (*sample)["core.sharded_ops_per_job"] += 1;
    }
    // Signed: sharded stage times are summed across shards and can exceed
    // the wall time they overlap in.
    (*sample)["sql.unattributed_ms"] += (e1 - e0) - parse_ms - stage_ms;
    if (!s.layer.empty()) (*sample)[s.layer] += e1 - e0;
    return rel;
  }
};

// --- trips_ols: Fig. 15 in SQL ----------------------------------------------

class TripsOls : public InProcessWorkload {
 public:
  explicit TripsOls(uint64_t seed) : seed_(seed) {
    const std::string trip_pairs =
        "FROM trips t JOIN pairs q ON t.start_station = q.start_station "
        "AND t.end_station = q.end_station";
    statements_ = {
        {"pop",
         "SELECT start_station, end_station, COUNT(*) AS n FROM trips "
         "GROUP BY start_station, end_station",
         "pop", "rel.groupby_ms"},
        {"pairs",
         "SELECT p.start_station AS start_station, "
         "p.end_station AS end_station, "
         "SQRT(((e.lat - s.lat) * 111.0) * ((e.lat - s.lat) * 111.0) + "
         "((e.lon - s.lon) * 78.0) * ((e.lon - s.lon) * 78.0)) AS dist "
         "FROM pop p JOIN stations s ON p.start_station = s.code "
         "JOIN stations e ON p.end_station = e.code WHERE p.n >= 50",
         "pairs", "rel.join_ms"},
        {"a", "SELECT t.id AS id, 1.0 AS c0, q.dist AS c1 " + trip_pairs, "a",
         "rel.join_ms"},
        {"v", "SELECT t.id AS id, t.duration * 1.0 AS y " + trip_pairs, "v",
         "rel.join_ms"},
        {"ols",
         "SELECT * FROM MMU(INV(CPD(a BY id, a BY id) BY C) BY C, "
         "CPD(a BY id, v BY id) BY C)",
         "", ""},
    };
  }

  Status Setup() override {
    data_ = workload::GenerateBixi(100000, 400, seed_);
    db_ = std::make_unique<sql::Database>();
    RMA_RETURN_NOT_OK(db_->Register("trips", data_.trips));
    return db_->Register("stations", data_.stations);
  }

  /// Ordinary least squares of duration on [1, dist] over the trips of
  /// station pairs used at least 50 times, solved directly from the
  /// generated data in long double: no engine code is involved.
  Status PrepareOracle() override {
    const std::vector<double> code = Column(data_.stations, "code");
    const std::vector<double> lat = Column(data_.stations, "lat");
    const std::vector<double> lon = Column(data_.stations, "lon");
    std::unordered_map<int64_t, size_t> station;
    for (size_t i = 0; i < code.size(); ++i) {
      station[static_cast<int64_t>(code[i])] = i;
    }
    const std::vector<double> from = Column(data_.trips, "start_station");
    const std::vector<double> to = Column(data_.trips, "end_station");
    const std::vector<double> duration = Column(data_.trips, "duration");
    std::map<std::pair<int64_t, int64_t>, int64_t> trips_per_pair;
    for (size_t t = 0; t < from.size(); ++t) {
      ++trips_per_pair[{static_cast<int64_t>(from[t]),
                        static_cast<int64_t>(to[t])}];
    }
    long double n = 0, sx = 0, sxx = 0, sy = 0, sxy = 0;
    for (size_t t = 0; t < from.size(); ++t) {
      const auto a = station.find(static_cast<int64_t>(from[t]));
      const auto b = station.find(static_cast<int64_t>(to[t]));
      if (a == station.end() || b == station.end()) {
        return Status::Invalid("trip references an unknown station");
      }
      if (trips_per_pair[{static_cast<int64_t>(from[t]),
                          static_cast<int64_t>(to[t])}] < 50) {
        continue;
      }
      const double dy = (lat[b->second] - lat[a->second]) * 111.0;
      const double dx = (lon[b->second] - lon[a->second]) * 78.0;
      const long double x = std::sqrt(dy * dy + dx * dx);
      n += 1;
      sx += x;
      sxx += x * x;
      sy += duration[t];
      sxy += x * duration[t];
    }
    const long double det = n * sxx - sx * sx;
    if (n < 2 || det == 0) return Status::Invalid("degenerate OLS design");
    beta_[0] = static_cast<double>((sy * sxx - sx * sxy) / det);
    beta_[1] = static_cast<double>((n * sxy - sx * sy) / det);
    return Status::OK();
  }

 protected:
  Status Check(const std::vector<Relation>& out) const override {
    const Relation& beta = out.back();
    RMA_ASSIGN_OR_RETURN(BatPtr names, beta.ColumnByName("C"));
    if (beta.num_rows() != 2 || beta.num_columns() != 2) {
      return Status::Invalid("ols: expected 2x2 coefficients, got " +
                             std::to_string(beta.num_rows()) + " rows");
    }
    for (int64_t r = 0; r < 2; ++r) {
      const std::string name = names->GetString(r);
      if (name != "c0" && name != "c1") {
        return Status::Invalid("ols: unexpected coefficient row " + name);
      }
      const double want = beta_[name == "c0" ? 0 : 1];
      const double got = beta.column(1)->GetDouble(r);
      if (!(std::fabs(got - want) <= 1e-9 * std::fabs(want))) {
        return Status::Invalid("ols: " + name + " = " + std::to_string(got) +
                               ", oracle " + std::to_string(want));
      }
    }
    return Status::OK();
  }

 private:
  uint64_t seed_;
  workload::BixiData data_;
  double beta_[2] = {0, 0};
};

// --- context_wide: Fig. 13 with a 64-attribute order schema -----------------

class ContextWide : public InProcessWorkload {
 public:
  static constexpr int64_t kRows = 50000;
  static constexpr int kOrderCols = 64;

  explicit ContextWide(uint64_t seed)
      : seed_(seed),
        order_r_(Names("o", kOrderCols)),
        order_s_(Names("p", kOrderCols)) {
    const std::string r = "r BY (" + Join(order_r_) + ")";
    statements_ = {
        {"add", "SELECT * FROM ADD(" + r + ", s BY (" + Join(order_s_) + "))",
         "", ""},
        {"qqr", "SELECT * FROM QQR(" + r + ")", "", ""},
    };
  }

  Status Setup() override {
    // One key seed for both relations: add aligns s to r by key value.
    Relation r = workload::ManyOrderColumnsRelation(kRows, kOrderCols, seed_,
                                                    seed_ + 1, "r");
    std::vector<std::string> s_names = order_s_;
    s_names.push_back("val");
    RMA_ASSIGN_OR_RETURN(
        Relation s,
        rel::RenameAll(workload::ManyOrderColumnsRelation(
                           kRows, kOrderCols, seed_, seed_ + 2, "s"),
                       s_names));
    db_ = std::make_unique<sql::Database>();
    RMA_RETURN_NOT_OK(db_->Register("r", r));
    return db_->Register("s", s);
  }

  /// ADD's result, key by key, summed straight from the input columns.
  Status PrepareOracle() override {
    RMA_ASSIGN_OR_RETURN(Relation r, db_->Get("r"));
    RMA_ASSIGN_OR_RETURN(Relation s, db_->Get("s"));
    const std::vector<double> s_keys = Column(s, order_s_.back());
    const std::vector<double> s_vals = Column(s, "val");
    std::unordered_map<double, double> s_val_of;
    for (size_t i = 0; i < s_keys.size(); ++i) s_val_of[s_keys[i]] = s_vals[i];
    const std::vector<double> r_keys = Column(r, order_r_.back());
    const std::vector<double> r_vals = Column(r, "val");
    add_checksum_ = 0;
    for (size_t i = 0; i < r_keys.size(); ++i) {
      const auto it = s_val_of.find(r_keys[i]);
      if (it == s_val_of.end()) return Status::Invalid("r and s keys differ");
      add_checksum_ += KeyedTerm(r_keys[i], r_vals[i] + it->second);
    }
    return Status::OK();
  }

 protected:
  Status Check(const std::vector<Relation>& out) const override {
    for (const Relation& rel : out) {
      if (rel.num_rows() != kRows) {
        return Status::Invalid("expected " + std::to_string(kRows) +
                               " rows, got " + std::to_string(rel.num_rows()));
      }
    }
    RMA_ASSIGN_OR_RETURN(uint64_t checksum, KeyedChecksum(out[0]));
    if (checksum != add_checksum_) {
      return Status::Invalid("add: checksum differs from the oracle");
    }
    return Status::OK();
  }

 private:
  static uint64_t KeyedTerm(double key, double val) {
    return SplitMix(SplitMix(Bits(key)) ^ Bits(val));
  }

  /// Row-order-insensitive checksum of (unique key, value bits) pairs.
  Result<uint64_t> KeyedChecksum(const Relation& r) const {
    RMA_ASSIGN_OR_RETURN(BatPtr key, r.ColumnByName(order_r_.back()));
    RMA_ASSIGN_OR_RETURN(BatPtr val, r.ColumnByName("val"));
    const std::vector<double> keys = ToDoubleVector(*key);
    const std::vector<double> vals = ToDoubleVector(*val);
    uint64_t sum = 0;
    for (size_t i = 0; i < keys.size(); ++i) sum += KeyedTerm(keys[i], vals[i]);
    return sum;
  }

  uint64_t seed_;
  std::vector<std::string> order_r_;
  std::vector<std::string> order_s_;
  uint64_t add_checksum_ = 0;
};

// --- paged_cov_add: Figs. 17 and 18 over a buffer pool half the data -------

class PagedCovAdd : public InProcessWorkload {
 public:
  static constexpr int64_t kRiders = 150000;

  PagedCovAdd(uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {
    statements_ = {
        {"cov",
         "SELECT * FROM CPD(pub BY Author, pub BY Author) AS c "
         "JOIN ranking AS k ON c.C = k.Conf WHERE k.Rating = 'A++'",
         "", ""},
        {"add", "SELECT * FROM ADD(y1 BY rider, y2 BY rider2)", "total", ""},
        {"scan", "SELECT COUNT(*) AS n, SUM(d0) AS s FROM total", "", ""},
    };
  }

  ~PagedCovAdd() override {
    db_.reset();  // closes the page files before their directory goes
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }

  Status Setup() override {
    workload::DblpData dblp = workload::GenerateDblp(20000, 200, seed_);
    RMA_ASSIGN_OR_RETURN(
        Relation y2, rel::Rename(workload::GenerateTripCounts(kRiders, 10,
                                                              seed_ + 2),
                                 "rider", "rider2"));
    tables_ = {{"pub", dblp.publications},
               {"ranking", dblp.ranking},
               {"y1", workload::GenerateTripCounts(kRiders, 10, seed_ + 1)},
               {"y2", y2}};
    int64_t base_bytes = 0;
    for (const auto& [name, rel] : tables_) base_bytes += rel.ByteSize();

    std::string pattern = workdir_ + "/paged-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      return Status::IoError("mkdtemp failed under " + workdir_);
    }
    dir_ = pattern;
    PagedStoreOptions opts;
    opts.pool_bytes = base_bytes / 2;
    RMA_ASSIGN_OR_RETURN(sql::Database db, sql::Database::Open(dir_, opts));
    db_ = std::make_unique<sql::Database>(db);
    for (const auto& [name, rel] : tables_) {
      RMA_RETURN_NOT_OK(db_->Register(name, rel));
    }
    return Status::OK();
  }

  /// The same statements over a malloc-backed Database holding the same
  /// tables; the paged results must match them bit for bit. The scan's sum
  /// is also computed straight from the inputs (whole numbers, so exact).
  Status PrepareOracle() override {
    sql::Database mem;
    logical_bytes_ = 0;
    for (const auto& [name, rel] : tables_) {
      RMA_RETURN_NOT_OK(mem.Register(name, rel));
      logical_bytes_ += rel.ByteSize();
      if (name == "y1" || name == "y2") {
        for (double d : Column(rel, "d0")) total_d0_ += d;
      }
    }
    for (const Statement& s : statements_) {
      RMA_ASSIGN_OR_RETURN(Relation r, mem.Execute(s.Text()));
      expected_.push_back(Fingerprint(r));
      if (!s.create.empty()) logical_bytes_ += r.ByteSize();
    }
    tables_.clear();  // from here on only the paged copies are resident
    return Status::OK();
  }

  void Finish(LayerSample* sample) const override {
    int64_t dir_bytes = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      if (entry.is_regular_file(ec)) {
        dir_bytes += static_cast<int64_t>(entry.file_size(ec));
      }
    }
    (*sample)["storage.space_amp"] =
        static_cast<double>(dir_bytes) / static_cast<double>(logical_bytes_);
  }

 protected:
  Status Check(const std::vector<Relation>& out) const override {
    for (size_t i = 0; i < out.size(); ++i) {
      if (Fingerprint(out[i]) != expected_[i]) {
        return Status::Invalid(statements_[i].tag +
                               ": differs from the malloc-backed result");
      }
    }
    const Relation& scan = out.back();
    if (scan.column(0)->GetDouble(0) != kRiders ||
        scan.column(1)->GetDouble(0) != total_d0_) {
      return Status::Invalid("scan: COUNT/SUM differ from the inputs");
    }
    return Status::OK();
  }

 private:
  uint64_t seed_;
  std::string workdir_;
  std::string dir_;
  std::vector<std::pair<std::string, Relation>> tables_;
  std::vector<uint64_t> expected_;
  double total_d0_ = 0;
  int64_t logical_bytes_ = 1;
};

// ---------------------------------------------------------------------------
// server_mixed: Figs. 13 + 15 statement shapes over the wire.
// ---------------------------------------------------------------------------

class ServerMixed : public Workload {
 public:
  explicit ServerMixed(uint64_t seed)
      : seed_(seed),
        clients_n_(std::clamp(
            static_cast<int>(std::thread::hardware_concurrency()), 1, 4)) {
    statements_ = {
        {"gram", "SELECT * FROM MMU(TRA(m BY id) BY C, m BY id)", "", ""},
        {"cpd", "SELECT * FROM CPD(m BY id, m BY id)", "", ""},
        {"qqr", "SELECT * FROM QQR(m BY id)", "", ""},
        {"ols",
         "SELECT * FROM MMU(INV(CPD(m BY id, m BY id) BY C) BY C, "
         "CPD(m BY id, v BY id) BY C)",
         "", ""},
    };
  }

  // Members are destroyed in reverse order: clients hang up, then the
  // server drains and stops, then the database goes.
  ~ServerMixed() override = default;

  int clients() const override { return clients_n_; }

  Status Setup() override {
    db_ = std::make_unique<sql::Database>();
    RMA_RETURN_NOT_OK(db_->Register(
        "m", workload::UniformRelation(20000, 8, seed_, 0.0, 10000.0,
                                       /*sorted=*/false, "m")));
    RMA_RETURN_NOT_OK(db_->Register(
        "v", workload::UniformRelation(20000, 1, seed_ + 1, 0.0, 10000.0,
                                       /*sorted=*/false, "v")));
    server::ServerOptions opts;
    opts.port = 0;
    opts.max_sessions = clients_n_ + 4;
    server_ = std::make_unique<server::Server>(db_.get(), opts);
    RMA_RETURN_NOT_OK(server_->Start());
    handles_.resize(static_cast<size_t>(clients_n_));
    for (int c = 0; c < clients_n_; ++c) {
      RMA_ASSIGN_OR_RETURN(client::Client cl,
                           client::Client::Connect("127.0.0.1", server_->port()));
      // Half the clients replay prepared handles, half send one-shot
      // EXECUTE; both share the server's plan cache.
      if (c % 2 == 0) {
        for (const Statement& s : statements_) {
          RMA_ASSIGN_OR_RETURN(uint64_t h, cl.Prepare(s.Text()));
          handles_[static_cast<size_t>(c)].push_back(h);
        }
      }
      clients_.push_back(std::move(cl));
    }
    return Status::OK();
  }

  Status PrepareOracle() override {
    for (const Statement& s : statements_) {
      RMA_ASSIGN_OR_RETURN(Relation r, db_->Execute(s.Text()));
      expected_.push_back({r.num_rows(), SumCells(r)});
    }
    return Status::OK();
  }

  Status RunJob(int client, int64_t job, TraceLog* trace, LayerSample* sample,
                double* latency_ms) override {
    client::Client& cl = clients_[static_cast<size_t>(client)];
    const std::vector<uint64_t>& handles = handles_[static_cast<size_t>(client)];
    std::vector<client::ExecResult> out(statements_.size());
    const int64_t job_span =
        trace != nullptr ? trace->Open(-1, job, -1, "", "job") : -1;
    Timer timer;
    for (size_t i = 0; i < statements_.size(); ++i) {
      const Statement& s = statements_[i];
      const int idx = static_cast<int>(i);
      int64_t stmt_span = -1;
      if (trace != nullptr) {
        stmt_span = trace->Open(job_span, job, idx, s.tag, "statement");
        RMA_RETURN_NOT_OK(
            TracedParse(s, stmt_span, job, idx, trace, sample).status());
      }
      Timer wall;
      Result<client::ExecResult> r =
          handles.empty() ? cl.Execute(s.Text()) : cl.ExecutePrepared(handles[i]);
      const double wall_ms = wall.Millis();
      if (!r.ok()) return JobError(s, r.status());
      if (trace != nullptr) {
        const double server_ms = r->server_seconds * 1e3;
        trace->Close(stmt_span);
        trace->AddStage(stmt_span, job, idx, s.tag, "server.exec_ms", server_ms);
        trace->AddStage(stmt_span, job, idx, s.tag, "client.wire_ms",
                        wall_ms - server_ms);
        (*sample)["server.exec_ms"] += server_ms;
        (*sample)["client.wire_ms"] += wall_ms - server_ms;
        (*sample)["client.batches_per_job"] += static_cast<double>(r->batches);
        if (r->plan_cache == 1) {
          (*sample)["client.plan_cache_hit_ratio"] +=
              1.0 / static_cast<double>(statements_.size());
        }
      }
      out[i] = std::move(*r);
    }
    *latency_ms = timer.Millis();
    if (trace != nullptr) trace->Close(job_span);
    for (size_t i = 0; i < out.size(); ++i) {
      const Expected& want = expected_[i];
      const CellSums got = SumCells(out[i].relation);
      if (static_cast<int64_t>(out[i].rows) != want.rows ||
          out[i].relation.num_rows() != want.rows ||
          !(std::fabs(got.sum - want.sums.sum) <= 1e-9 * want.sums.abs_sum)) {
        return Status::Invalid(statements_[i].tag +
                               ": differs from in-process execution");
      }
    }
    return Status::OK();
  }

  Counters Snapshot() const override {
    Counters c;
    c.cache = db_->query_cache()->counters();
    c.server = server_->stats();
    return c;
  }

  void Finish(LayerSample* sample) const override {
    (*sample)["server.peak_in_flight"] = server_->stats().peak_in_flight;
  }

 private:
  struct Expected {
    int64_t rows;
    CellSums sums;
  };

  uint64_t seed_;
  int clients_n_;
  std::vector<Statement> statements_;
  std::vector<Expected> expected_;
  std::unique_ptr<sql::Database> db_;
  std::unique_ptr<server::Server> server_;
  std::vector<std::vector<uint64_t>> handles_;
  std::vector<client::Client> clients_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "trips_ols", "context_wide", "server_mixed", "paged_cov_add"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& workdir) {
  if (name == "trips_ols") return std::make_unique<TripsOls>(seed);
  if (name == "context_wide") return std::make_unique<ContextWide>(seed);
  if (name == "server_mixed") return std::make_unique<ServerMixed>(seed);
  if (name == "paged_cov_add") {
    return std::make_unique<PagedCovAdd>(seed, workdir);
  }
  return nullptr;
}

}  // namespace rma::e2e
