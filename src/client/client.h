#ifndef RMA_CLIENT_CLIENT_H_
#define RMA_CLIENT_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "server/wire.h"
#include "storage/relation.h"
#include "util/result.h"
#include "util/socket.h"

namespace rma::client {

/// Outcome of one executed statement, as reported by the server's COMPLETE
/// frame plus what the client observed on the way.
struct ExecResult {
  /// The full result set (empty when ExecuteStreaming consumed the batches
  /// through a callback instead of accumulating).
  Relation relation;
  uint64_t rows = 0;          ///< server-reported row count
  double server_seconds = 0;  ///< server-side execution wall time
  int64_t batches = 0;        ///< ROW_BATCH frames received
  /// Plan-cache provenance: 0 = not consulted, 1 = hit, 2 = miss.
  uint8_t plan_cache = 0;
};

/// Per-batch streaming callback. Each call hands over one decoded row
/// batch as a standalone relation; returning a non-OK status abandons the
/// stream and disconnects (the deliberate mid-stream hang-up).
using BatchCallback = std::function<Status(const Relation& batch)>;

/// Client connection to an rma server (src/server/). Blocking, one
/// statement at a time — the protocol is strictly request/response per
/// session; open several clients for concurrency. Move-only; the session
/// ends when the object dies (GOODBYE is sent by Close()/destructor).
///
/// Errors: statement-level failures (ParseError, KeyError, ...) come back
/// as the server-side Status and leave the connection usable; IoError means
/// the connection itself broke and every later call fails.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and performs the HELLO/WELCOME handshake (protocol version
  /// check; a full server answers with its capacity error here).
  static Result<Client> Connect(const std::string& host, uint16_t port);

  bool connected() const { return sock_.valid(); }
  uint64_t session_id() const { return session_id_; }

  /// Sets one session option (e.g. "kernel" = "bat", "max_threads" = "2");
  /// see docs/OPERATIONS.md for the key set. Errors leave the session's
  /// options unchanged.
  Status SetOption(const std::string& key, const std::string& value);

  /// Parses and registers `sql` server-side; the handle replays it through
  /// the server's shared plan cache.
  Result<uint64_t> Prepare(const std::string& sql);

  /// Executes one statement, accumulating the streamed batches into
  /// ExecResult::relation.
  Result<ExecResult> Execute(const std::string& sql);
  Result<ExecResult> ExecutePrepared(uint64_t handle);

  /// Executes one statement, handing each row batch to `on_batch` as it
  /// arrives instead of accumulating (constant client memory regardless of
  /// result size).
  Result<ExecResult> ExecuteStreaming(const std::string& sql,
                                      const BatchCallback& on_batch);

  /// Convenience: Execute and return just the relation.
  Result<Relation> Query(const std::string& sql);

  /// Sends GOODBYE and closes. Idempotent.
  void Close();

 private:
  /// Sends one request frame, then consumes the response sequence
  /// (RESULT_HEADER / ROW_BATCH* / COMPLETE, or ERROR).
  Result<ExecResult> RunStatement(server::MessageType type,
                                  const std::string& payload,
                                  const BatchCallback* on_batch);

  Socket sock_;
  uint64_t session_id_ = 0;
};

}  // namespace rma::client

#endif  // RMA_CLIENT_CLIENT_H_
