// TcpServer — a line-protocol front end for a ShardedCluster (see
// protocol.hpp for the grammar and docs/architecture.md, "Serving layer" /
// "Overload & failure handling").
//
// Threading: one acceptor thread plus one thread per connection — the
// serving fan-out the paper's controller needs is per-*batch* (each GO fans
// its items across the engine's pool), so connection handling stays
// deliberately simple and blocking.  A connection buffers C/Q lines until
// GO, executes them against ONE pinned cluster epoch, and streams the
// answers back in order.  Update (A/R) and introspection (STATS/EPOCH)
// lines execute immediately, so one connection can interleave queries and
// updates.
//
// Robustness contract (exercised by tests/server_test.cpp and
// tests/server_robustness_test.cpp):
//  * A malformed line costs a "400" reply — never the connection, never the
//    pending batch.
//  * A line exceeding io::kMaxLineBytes — even arriving in many partial
//    reads — gets "400" and a close: past the cap it is a binary blob or an
//    attack, and resynchronizing on the next '\n' of garbage is guessing.
//  * A client that dies mid-batch (abrupt close) has its pending batch
//    discarded; nothing it buffered is executed and the server keeps
//    serving everyone else.
//  * A connection that sends no bytes for read_idle_timeout_ms (slowloris,
//    half-open peer) gets "408" and a close — its thread is freed, never
//    parked.  A peer that stops *reading* trips the write deadline in
//    send_all the same way.
//  * Accepts past max_connections are shed at the door with "503 shed".
//  * stop() drains: in-flight batches finish and flush, idle connections
//    get "503 draining", stragglers are cut off after drain_timeout_ms.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/cluster.hpp"

namespace apc::server {

class TcpServer {
 public:
  struct Options {
    /// Listen port; 0 = ephemeral (read the bound one off port()).
    std::uint16_t listen_port = 0;
    /// Cap on buffered C/Q items per connection; the line after the cap is
    /// refused with "400" (the batch is kept, GO still executes it).
    std::size_t max_batch_items = 1u << 16;
    /// Dotted-quad IPv4 bind address.  The loopback default keeps dev and
    /// test servers private; benches scaling accept pressure across
    /// machines set "0.0.0.0".
    std::string bind_address = "127.0.0.1";
    /// Accept backlog handed to ::listen (the historical default).
    int listen_backlog = 64;
    /// Connection cap: accepts past it get "503 shed" + close and tick the
    /// sheds() counter.  0 = unlimited.
    std::size_t max_connections = 256;
    /// Read-side idle deadline: a connection that delivers NO bytes for
    /// this long is told "408" and closed.  <= 0 disables.
    int read_idle_timeout_ms = 60000;
    /// Write-side deadline for one reply: a peer that stops draining its
    /// socket frees this thread after at most this long.  <= 0 disables.
    int write_timeout_ms = 10000;
    /// stop() drain budget: in-flight batches get this long to finish and
    /// flush before remaining connections are forcibly shut down.
    int drain_timeout_ms = 2000;
    /// SO_SNDBUF for accepted sockets (0 = system default).  Tests and the
    /// chaos bench shrink it so a non-reading peer back-pressures send()
    /// within one reply.
    int so_sndbuf = 0;
  };

  /// Binds and starts serving immediately.  The cluster must outlive the
  /// server.  Throws apc::Error(kIo) when the socket can't be bound.
  TcpServer(ShardedCluster& cluster, Options opts);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolved when Options::listen_port was 0).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, drains in-flight work (see Options::drain_timeout_ms),
  /// shuts every connection down, and joins all threads.  Idempotent; the
  /// destructor calls it.
  void stop();

  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connections whose thread is still running (reaped ones excluded).
  std::size_t live_sessions() const {
    return live_sessions_.load(std::memory_order_acquire);
  }
  /// Read-idle + write deadlines hit ("server.timeouts" STATS row).
  std::uint64_t timeouts() const { return timeouts_.value(); }
  /// Accept-time connection-cap sheds ("server.sheds" STATS row).
  std::uint64_t sheds() const { return sheds_.value(); }
  /// GO batches currently executing in the cluster.
  std::size_t active_batches() const {
    return active_batches_.load(std::memory_order_acquire);
  }

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
    /// Set by the connection thread on exit; the acceptor reaps (joins and
    /// closes) done sessions on every poll wake — connect or not — so an
    /// idle server holds no exited threads.  The thread itself only
    /// shutdown()s its fd — close() happens exactly once, after join, so a
    /// recycled descriptor number can never be double-closed.
    std::atomic<bool> done{false};
  };

  void accept_loop();
  /// Joins and erases finished sessions; called with sessions_mu_ held.
  void reap_sessions_locked();
  /// What one connection keeps across lines: the pending C/Q batch and the
  /// buffer every 201 reply is built in.  Both keep their capacity from
  /// batch to batch, so steady-state serving does not allocate for them.
  struct ConnectionState {
    std::vector<ShardedCluster::BatchItem> batch;
    std::string reply;
  };

  void serve_connection(int fd);
  /// Handles one complete line (a view into the connection's recv
  /// buffer, terminator stripped); returns false when the connection must
  /// close (peer dead or write deadline hit).
  bool handle_line(int fd, std::string_view line, std::size_t lineno,
                   ConnectionState& conn);
  /// Writes the whole reply under the write deadline; false = peer dead or
  /// deadline hit (the counter is ticked inside).
  bool send_all(int fd, std::string_view data);

  ShardedCluster& cluster_;
  Options opts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{true};
  /// Set by stop() before teardown: connection threads finish the line in
  /// hand, refuse further input with "503 draining", and exit.
  std::atomic<bool> draining_{false};
  std::thread acceptor_;
  std::mutex sessions_mu_;
  std::list<Session> sessions_;
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::size_t> live_sessions_{0};
  std::atomic<std::size_t> active_batches_{0};
  obs::Counter timeouts_;
  obs::Counter sheds_;
};

}  // namespace apc::server
