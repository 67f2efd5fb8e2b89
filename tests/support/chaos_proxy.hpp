// ChaosProxy — a loopback TCP relay that injects transport-level faults
// between a client and a TcpServer, for robustness tests and
// bench/serve_chaos (see docs/architecture.md, "Overload & failure
// handling").
//
//   client ──connect──▶ ChaosProxy ──connect──▶ TcpServer
//
// Each accepted client gets one relay thread pumping bytes both ways with
// poll(2).  The fault knobs flip live, apply to every active relay, and
// compose:
//
//   * stall        — freeze relaying entirely (both directions); the server
//                    sees a silent peer and should fire its idle deadline.
//   * trickle      — cap each relayed chunk at N bytes and sleep between
//                    chunks (slowloris pacing; each byte still resets the
//                    server's idle clock).
//   * drop_downstream — stop draining the SERVER side: upstream replies
//                    back-pressure into the server's socket buffer, which
//                    is how a dead reader looks from the server (its write
//                    deadline should fire, not a parked thread).
//   * inject_rst   — abort every active connection with SO_LINGER{1,0} so
//                    both ends observe a hard RST mid-stream.
//
// The proxy is a test fixture: correctness over throughput, one thread per
// connection, loopback only.  It lives in the apc_test_support library that
// the tests and bench/serve_chaos link, not in the production library.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>

namespace apc::server {

class ChaosProxy {
 public:
  struct Options {
    /// The real server's loopback port (required).
    std::uint16_t upstream_port = 0;
    /// Proxy listen port; 0 = ephemeral (read the bound one off port()).
    std::uint16_t listen_port = 0;
  };

  /// Binds and starts relaying immediately.  Throws apc::Error(kIo) when
  /// the listen socket can't be bound.
  explicit ChaosProxy(Options opts);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  std::uint16_t port() const { return port_; }
  /// Stops accepting, aborts every relay, joins all threads.  Idempotent.
  void stop();

  // ---- live fault knobs ----
  void set_stall(bool on) { stall_.store(on, std::memory_order_release); }
  /// max_bytes = 0 disables trickling.
  void set_trickle(std::size_t max_bytes, int interval_ms) {
    trickle_interval_ms_.store(interval_ms, std::memory_order_relaxed);
    trickle_bytes_.store(max_bytes, std::memory_order_release);
  }
  void set_drop_downstream(bool on) {
    drop_downstream_.store(on, std::memory_order_release);
  }
  /// Hard-RSTs every connection active right now (new ones are unaffected).
  void inject_rst() { rst_gen_.fetch_add(1, std::memory_order_acq_rel); }

  // ---- introspection ----
  std::uint64_t bytes_upstream() const {
    return bytes_up_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_downstream() const {
    return bytes_down_.load(std::memory_order_relaxed);
  }
  std::size_t active_relays() const {
    return active_relays_.load(std::memory_order_acquire);
  }

 private:
  struct Relay {
    int client_fd = -1;
    int server_fd = -1;
    std::uint64_t born_gen = 0;  ///< rst_gen_ at accept time
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void relay_loop(Relay& r);

  Options opts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{true};
  std::thread acceptor_;
  std::mutex relays_mu_;
  std::list<Relay> relays_;

  std::atomic<bool> stall_{false};
  std::atomic<std::size_t> trickle_bytes_{0};
  std::atomic<int> trickle_interval_ms_{0};
  std::atomic<bool> drop_downstream_{false};
  std::atomic<std::uint64_t> rst_gen_{0};

  std::atomic<std::uint64_t> bytes_up_{0};
  std::atomic<std::uint64_t> bytes_down_{0};
  std::atomic<std::size_t> active_relays_{0};
};

}  // namespace apc::server
