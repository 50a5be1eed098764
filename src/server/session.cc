#include "server/session.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "matrix/parallel.h"
#include "server/server.h"
#include "sql/parser.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rma::server {

namespace {

/// How often an idle session re-checks the server's drain flag. Bounds the
/// shutdown latency contributed by idle connections.
constexpr int kDrainPollMs = 100;

/// Parses the value of an int-typed key. Values outside int are refused,
/// not narrowed: 4294967297 must not quietly become 1.
Result<int> ParseIntKey(const std::string& key, const std::string& v) {
  RMA_ASSIGN_OR_RETURN(int64_t parsed, ParseInt(v));
  if (parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    return Status::Invalid(key + " is out of range, got '" + v + "'");
  }
  return static_cast<int>(parsed);
}

/// Applies one session option. The key set mirrors docs/OPERATIONS.md;
/// unknown keys are errors (a typo silently ignored is a misconfigured
/// session that looks configured).
Status ApplyOption(RmaOptions* opts, const std::string& key,
                   const std::string& value) {
  const std::string k = ToLower(key);
  if (k == "kernel") {
    const std::string v = ToLower(value);
    if (v == "auto") {
      opts->kernel = KernelPolicy::kAuto;
    } else if (v == "bat") {
      opts->kernel = KernelPolicy::kBat;
    } else if (v == "contiguous") {
      opts->kernel = KernelPolicy::kContiguous;
    } else {
      return Status::Invalid("kernel must be auto|bat|contiguous, got '" +
                             value + "'");
    }
    return Status::OK();
  }
  if (k == "sort") {
    const std::string v = ToLower(value);
    if (v == "always") {
      opts->sort = SortPolicy::kAlways;
    } else if (v == "optimized") {
      opts->sort = SortPolicy::kOptimized;
    } else {
      return Status::Invalid("sort must be always|optimized, got '" + value +
                             "'");
    }
    return Status::OK();
  }
  if (k == "max_threads") {
    RMA_ASSIGN_OR_RETURN(opts->max_threads, ParseIntKey(key, value));
    return Status::OK();
  }
  if (k == "max_shards") {
    RMA_ASSIGN_OR_RETURN(opts->max_shards, ParseIntKey(key, value));
    return Status::OK();
  }
  if (k == "shard_min_rows") {
    RMA_ASSIGN_OR_RETURN(opts->shard_min_rows, ParseInt(value));
    return Status::OK();
  }
  if (k == "contiguous_budget_bytes") {
    RMA_ASSIGN_OR_RETURN(opts->contiguous_budget_bytes, ParseInt(value));
    return Status::OK();
  }
  return Status::Invalid("unknown session option: '" + key + "'");
}

uint8_t EncodeOutcome(ExecContext::PlanCacheOutcome outcome) {
  switch (outcome) {
    case ExecContext::PlanCacheOutcome::kNotConsulted:
      return 0;
    case ExecContext::PlanCacheOutcome::kHit:
      return 1;
    case ExecContext::PlanCacheOutcome::kMiss:
      return 2;
  }
  return 0;
}

}  // namespace

Session::Session(uint64_t id, Socket sock, Server* server)
    : id_(id),
      sock_(std::move(sock)),
      server_(server),
      db_(server->database()),
      options_(db_->rma_options) {
  // The database's stats sink (if any) is per-context state; sharing one
  // sink across concurrently executing sessions would race on it.
  options_.stats = nullptr;
  ctx_ = std::make_unique<ExecContext>(options_, db_->query_cache());
}

Status Session::Handshake() {
  // Pre-HELLO wait uses the same drain poll as the request loop: a client
  // that connects and never speaks must not pin this thread past a drain.
  // (A half-sent HELLO can still wedge RecvFrame below; Server::Stop
  // breaks that by shutting the registered socket down after its drain
  // deadline.)
  while (true) {
    if (server_->draining()) {
      return Status::ResourceExhausted("server draining: handshake refused");
    }
    RMA_ASSIGN_OR_RETURN(bool readable, sock_.WaitReadable(kDrainPollMs));
    if (readable) break;
  }
  RMA_ASSIGN_OR_RETURN(Frame frame, RecvFrame(sock_));
  if (frame.type != MessageType::kHello) {
    const Status err = Status::Invalid("expected HELLO as the first frame");
    SendError(err).IgnoreError();
    return err;
  }
  WireReader reader(frame.payload);
  RMA_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kProtocolVersion) {
    const Status err = Status::Invalid(
        "protocol version mismatch: client speaks v" +
        std::to_string(version) + ", server speaks v" +
        std::to_string(kProtocolVersion));
    SendError(err).IgnoreError();
    return err;
  }
  WireWriter w;
  w.PutU32(kProtocolVersion);
  w.PutU64(id_);
  return SendFrame(sock_, MessageType::kWelcome, w.str());
}

void Session::Serve() {
  // Registered for the lifetime of the frame loop: Server::Stop shuts the
  // socket down past its drain deadline, failing any blocked Recv/Send
  // here. Unregister strictly before Close() so Stop never touches a
  // dying descriptor.
  const uint64_t sock_token = server_->RegisterSocket(&sock_);
  if (Handshake().ok()) {
    bool done = false;
    while (!done) {
      if (server_->draining()) break;
      Result<bool> readable = sock_.WaitReadable(kDrainPollMs);
      if (!readable.ok()) break;
      if (!*readable) continue;  // idle; re-check the drain flag
      Result<Frame> frame = RecvFrame(sock_);
      if (!frame.ok()) break;  // disconnect (clean or mid-frame)
      if (!HandleFrame(*frame, &done).ok()) break;
    }
  }
  server_->UnregisterSocket(sock_token);
  sock_.Close();
}

Status Session::HandleFrame(const Frame& frame, bool* done) {
  switch (frame.type) {
    case MessageType::kGoodbye:
      *done = true;
      return Status::OK();
    case MessageType::kSetOption:
      return HandleSetOption(frame.payload);
    case MessageType::kPrepare:
      return HandlePrepare(frame.payload);
    case MessageType::kExecute: {
      WireReader reader(frame.payload);
      Result<std::string> sql = reader.GetString();
      if (!sql.ok()) return sql.status();  // torn frame: close the session
      return ExecuteStatement(
          [&] { return db_->ExecuteOn(*sql, ctx_.get()); }, done);
    }
    case MessageType::kExecutePrepared: {
      WireReader reader(frame.payload);
      Result<uint64_t> handle = reader.GetU64();
      if (!handle.ok()) return handle.status();
      auto it = prepared_.find(*handle);
      if (it == prepared_.end()) {
        // Application-level error: answer and keep the session alive.
        return SendError(Status::KeyError("unknown prepared statement handle " +
                                          std::to_string(*handle)));
      }
      const sql::Statement& stmt = it->second;
      return ExecuteStatement([&] { return db_->Run(stmt, ctx_.get()); },
                              done);
    }
    default:
      // A request type this server does not understand is a protocol
      // violation; answer once, then HandleFrame's caller closes.
      SendError(Status::Invalid(
                    "unexpected frame type " +
                    std::to_string(static_cast<int>(frame.type))))
          .IgnoreError();
      return Status::Invalid("protocol violation");
  }
}

Status Session::HandleSetOption(const std::string& payload) {
  WireReader reader(payload);
  Result<std::string> key = reader.GetString();
  if (!key.ok()) return key.status();
  Result<std::string> value = reader.GetString();
  if (!value.ok()) return value.status();

  RmaOptions updated = options_;
  Status st = ApplyOption(&updated, *key, *value);
  if (st.ok()) st = ValidateRmaOptions(updated);
  if (!st.ok()) return SendError(st);  // options unchanged
  options_ = std::move(updated);
  // Serial within the session, so mutating the persistent context between
  // statements is within mutable_options()'s contract.
  ctx_->mutable_options() = options_;
  return SendFrame(sock_, MessageType::kOptionAck, "");
}

Status Session::HandlePrepare(const std::string& payload) {
  WireReader reader(payload);
  Result<std::string> sql = reader.GetString();
  if (!sql.ok()) return sql.status();
  // Parse once, here: a malformed statement fails at PREPARE, and every
  // EXECUTE_PREPARED runs the parsed statement.
  Result<sql::Statement> parsed = sql::Parse(*sql);
  if (!parsed.ok()) return SendError(parsed.status());
  const uint64_t handle = next_handle_++;
  prepared_[handle] = std::move(*parsed);
  WireWriter w;
  w.PutU64(handle);
  return SendFrame(sock_, MessageType::kPrepareAck, w.str());
}

Status Session::ExecuteStatement(
    const std::function<Result<Relation>()>& run, bool* done) {
  const int share = server_->AdmitStatement();
  if (share == 0) {
    // Draining: refuse the statement and end the session after answering.
    server_->CountRefusedStatement();
    *done = true;
    return SendError(Status::ResourceExhausted(
        "server draining: statement refused"));
  }
  Timer timer;
  Result<Relation> result{Status::Invalid("statement not executed")};
  {
    // The statement's kernels inherit the admission-time share of the
    // server's thread budget (further capped by the session's own
    // max_threads via ExecContext::effective_thread_budget).
    ScopedThreadBudget budget_share(share);
    result = run();
  }
  // Release the execution slot before streaming: a slow reader exerts
  // backpressure on its own socket, not on the admission budget.
  server_->FinishStatement();
  const double seconds = timer.Seconds();
  server_->CountStatementResult(result.ok());
  if (!result.ok()) return SendError(result.status());
  return StreamResult(*result, seconds);
}

Status Session::StreamResult(const Relation& rel, double seconds) {
  RMA_RETURN_NOT_OK(SendFrame(sock_, MessageType::kResultHeader,
                              EncodeResultHeader(rel.schema())));
  const int64_t rows = rel.num_rows();
  const int64_t batch_rows = std::max<int64_t>(1, server_->options().row_batch_rows);
  int64_t batches = 0;
  for (int64_t begin = 0; begin < rows; begin += batch_rows) {
    const int64_t count = std::min(batch_rows, rows - begin);
    RMA_RETURN_NOT_OK(SendFrame(sock_, MessageType::kRowBatch,
                                EncodeRowBatch(rel, begin, count)));
    ++batches;
  }
  WireWriter w;
  w.PutU64(static_cast<uint64_t>(rows));
  w.PutF64(seconds);
  w.PutU8(EncodeOutcome(ctx_->plan_cache_outcome()));
  RMA_RETURN_NOT_OK(SendFrame(sock_, MessageType::kComplete, w.str()));
  server_->CountStreamed(rows, batches);
  return Status::OK();
}

Status Session::SendError(const Status& error) {
  return SendFrame(sock_, MessageType::kError, EncodeError(error));
}

}  // namespace rma::server
