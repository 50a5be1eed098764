#ifndef RMA_SERVER_SESSION_H_
#define RMA_SERVER_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/exec_context.h"
#include "server/wire.h"
#include "sql/ast.h"
#include "sql/database.h"
#include "util/socket.h"

namespace rma::server {

class Server;

/// One client connection's server-side state, serving its frame loop on a
/// dedicated thread.
///
/// A session owns:
///  - its RmaOptions, seeded from the database's options at accept time and
///    mutated by SET_OPTION frames — one client forcing the scalar BAT
///    kernels never changes another's plans;
///  - a persistent ExecContext borrowing the database's QueryCache, so the
///    session's statements share plans and prepared arguments with every
///    other session while per-stage stats accumulate in this session's own
///    context;
///  - prepared-statement handles: PREPARE parses the text, keeps the
///    parsed statement (with its plan key) and returns a handle;
///    EXECUTE_PREPARED runs that statement without parsing again, through
///    the shared plan cache, so the second execution (from *any* session)
///    skips binding and rewriting.
///
/// Statements are serial within a session; concurrency comes from sessions.
/// Error isolation: a statement failure answers with an ERROR frame and the
/// session continues; only protocol violations and socket failures end it.
class Session {
 public:
  Session(uint64_t id, Socket sock, Server* server);

  /// Runs the session to completion: handshake, then the request loop until
  /// the client says goodbye, disconnects, violates the protocol, or the
  /// server drains. Never throws; always leaves the socket closed.
  void Serve();

  uint64_t id() const { return id_; }

 private:
  /// HELLO/WELCOME exchange; refuses protocol-version mismatches.
  Status Handshake();
  /// Dispatches one request frame; sets *done for GOODBYE and for refused
  /// statements during drain.
  Status HandleFrame(const Frame& frame, bool* done);
  Status HandleSetOption(const std::string& payload);
  Status HandlePrepare(const std::string& payload);
  /// Admission → execution → streaming for one statement; `run` executes
  /// it on the session's context.
  Status ExecuteStatement(const std::function<Result<Relation>()>& run,
                          bool* done);
  /// RESULT_HEADER + ROW_BATCH* + COMPLETE for `rel`.
  Status StreamResult(const Relation& rel, double seconds);
  /// Best-effort ERROR frame (send failures end the session anyway).
  Status SendError(const Status& error);

  const uint64_t id_;
  Socket sock_;
  Server* const server_;
  sql::Database* const db_;
  RmaOptions options_;
  std::unique_ptr<ExecContext> ctx_;
  std::map<uint64_t, sql::Statement> prepared_;
  uint64_t next_handle_ = 1;
};

}  // namespace rma::server

#endif  // RMA_SERVER_SESSION_H_
