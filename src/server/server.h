#ifndef RMA_SERVER_SERVER_H_
#define RMA_SERVER_SERVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "sql/database.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/socket.h"
#include "util/thread_annotations.h"

namespace rma::server {

/// Server configuration. Every limit is enforced, not advisory; see
/// docs/OPERATIONS.md for tuning guidance.
struct ServerOptions {
  /// Bind address. The server speaks an unauthenticated protocol, so the
  /// default stays on loopback; expose it deliberately.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (tests, the smoke script) that
  /// Server::port() reports after Start().
  uint16_t port = 0;
  /// Concurrent sessions; connection attempts beyond this are refused with
  /// an ERROR frame before the handshake.
  int max_sessions = 64;
  /// Statements concurrently *executing* across all sessions (the admission
  /// budget). 0 derives the bound from the database's thread budget
  /// (rma_options.max_threads, else hardware concurrency): with every slot
  /// busy each statement still gets at least one worker thread.
  int max_inflight_statements = 0;
  /// Rows per ROW_BATCH frame when streaming a result set.
  int64_t row_batch_rows = 256;
  /// listen(2) backlog.
  int listen_backlog = 64;
  /// How long Stop() waits for live sessions to finish their in-flight
  /// statement and notice the drain flag before it forcibly shuts their
  /// sockets down. Bounds shutdown against a stalled or hostile client
  /// (half-sent frame, reader that stopped consuming its stream); a healthy
  /// drain finishes well inside it and never waits the full timeout.
  int drain_timeout_ms = 5000;
};

/// Monitoring counters (Server::stats(); a consistent snapshot).
struct ServerStats {
  int64_t sessions_accepted = 0;
  int64_t sessions_refused = 0;   ///< over max_sessions
  int64_t statements_executed = 0;
  int64_t statements_failed = 0;  ///< executed but returned an error
  int64_t statements_refused = 0; ///< admission refused (server draining)
  int64_t rows_streamed = 0;
  int64_t batches_streamed = 0;
  /// Admissions that had to wait for a slot (the backpressure signal: a
  /// rising rate means clients submit faster than the budget drains).
  int64_t admission_waits = 0;
  /// High-water mark of concurrently executing statements; never exceeds
  /// the configured admission budget.
  int peak_in_flight = 0;
  int active_sessions = 0;
};

/// Multi-client SQL server over a shared sql::Database.
///
/// One thread per session (thread-per-connection; the admission gate — not
/// the connection count — bounds compute). Each session holds its own
/// RmaOptions and a persistent ExecContext borrowing the database's
/// QueryCache, so plans and prepared arguments warm up across *all*
/// sessions while stats accumulate per session. Statements pass the
/// admission gate before executing: at most `max_inflight_statements` run
/// at once, FIFO across sessions (per-session fairness — a session issues
/// one statement at a time, so slots round-robin through waiting sessions),
/// and each admitted statement installs an admission-time split of the
/// thread budget via ScopedThreadBudget — the same discipline
/// Database::ExecuteBatch applies in-process. Result sets stream back in
/// row-batch frames; a slow reader blocks only its own socket (the slot is
/// released when execution finishes, before streaming), so backpressure
/// lands on the connection, never on the worker pool.
///
/// Shutdown is a drain with a deadline: Stop() refuses new connections and
/// new statements, gives live sessions `drain_timeout_ms` to finish their
/// in-flight statement and stream its result, then calls Socket::Shutdown()
/// on every session socket still open — unwedging threads blocked in a
/// half-sent frame or a send to a reader that stopped consuming — and joins
/// every session thread. One session's failure (parse error, unknown
/// table, protocol violation) is answered on that session alone; no other
/// session's stream is disturbed.
class Server {
 public:
  /// `db` is borrowed and must outlive the server. Its rma_options at
  /// session-accept time seed each session's options.
  Server(sql::Database* db, ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop. Fails if the port is taken.
  Status Start();

  /// Graceful shutdown: refuse new work, drain in-flight statements, join
  /// all session threads. Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (after Start(); resolves port 0 to the actual one).
  uint16_t port() const { return listener_.port(); }

  ServerStats stats() const;

  // --- session-facing internals (used by server::Session) -------------------

  /// Blocks until an execution slot frees (FIFO), then returns the
  /// statement's thread share (>= 1). Returns 0 when the server is
  /// draining: the statement must be refused.
  int AdmitStatement();
  /// Releases the slot taken by AdmitStatement.
  void FinishStatement();
  /// True once Stop() began; sessions finish their current statement and
  /// close.
  bool draining() const;
  void CountStatementResult(bool ok);
  void CountStreamed(int64_t rows, int64_t batches);
  void CountRefusedStatement();

  /// Registers a live session socket so Stop() can Shutdown() it if the
  /// drain deadline passes. Returns a token for UnregisterSocket; the
  /// caller must keep `sock` alive until it unregisters. A socket
  /// registered after Stop() began is shut down immediately.
  uint64_t RegisterSocket(Socket* sock);
  void UnregisterSocket(uint64_t token);

  /// Session/refuser threads call this (with the token their spawner gave
  /// them) as their last act, making the thread reapable by the accept
  /// loop's next sweep instead of accumulating until Stop().
  void NoteThreadFinished(uint64_t token);

  sql::Database* database() const { return db_; }
  const ServerOptions& options() const { return opts_; }

  /// Session threads still tracked (live plus finished-but-unreaped);
  /// monitoring/tests observe reaping through this staying bounded under
  /// connection churn.
  int tracked_session_threads() const;

 private:
  void AcceptLoop();
  /// Joins threads that announced NoteThreadFinished (near-instant: they
  /// are past their last statement). Must be called without mu_ held.
  void ReapFinishedThreads();

  sql::Database* db_;
  ServerOptions opts_;
  ListenSocket listener_;
  std::thread accept_thread_;
  bool started_ = false;

  /// The admission budget (resolved from max_inflight_statements) and the
  /// thread budget it splits; fixed at Start().
  int capacity_ = 1;
  int thread_budget_ = 1;

  mutable Mutex mu_;
  CondVar cv_;
  bool stopping_ RMA_GUARDED_BY(mu_) = false;
  /// FIFO admission: tickets are taken in arrival order and served in
  /// ticket order, so no session can starve another even under a saturated
  /// budget.
  uint64_t next_ticket_ RMA_GUARDED_BY(mu_) = 0;
  uint64_t serving_ RMA_GUARDED_BY(mu_) = 0;
  int in_flight_ RMA_GUARDED_BY(mu_) = 0;
  uint64_t next_session_id_ RMA_GUARDED_BY(mu_) = 0;
  /// Session and refuser threads keyed by token. Workers announce
  /// themselves in finished_tokens_ when done; the accept loop reaps those
  /// entries so the map tracks roughly the live connection count, not every
  /// connection ever accepted.
  uint64_t next_token_ RMA_GUARDED_BY(mu_) = 0;
  std::map<uint64_t, std::thread> session_threads_ RMA_GUARDED_BY(mu_);
  std::vector<uint64_t> finished_tokens_ RMA_GUARDED_BY(mu_);
  /// Sockets of live sessions (and refusers), for Stop()'s post-deadline
  /// Shutdown(). Entries stay valid because owners unregister before
  /// destroying the socket.
  std::map<uint64_t, Socket*> live_sockets_ RMA_GUARDED_BY(mu_);
  ServerStats stats_ RMA_GUARDED_BY(mu_);
};

}  // namespace rma::server

#endif  // RMA_SERVER_SERVER_H_
