#include "support/chaos_proxy.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/error.hpp"

namespace apc::server {

namespace {

[[noreturn]] void io_fail(const char* what) {
  throw Error(ErrorCode::kIo,
              std::string("ChaosProxy: ") + what + ": " + std::strerror(errno));
}

/// Blocking best-effort forward of exactly n bytes; false = peer gone.
bool forward_all(int fd, const char* p, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, p + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

void abort_with_rst(int fd) {
  // SO_LINGER{on, 0s}: close() discards the queue and sends RST instead of
  // FIN — the canonical way to synthesize a hard connection abort.
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
}

}  // namespace

ChaosProxy::ChaosProxy(Options opts) : opts_(opts) {
  require(opts_.upstream_port != 0, ErrorCode::kInvalidArgument,
          "ChaosProxy: upstream_port is required");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) io_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.listen_port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("bind/listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::list<Relay> relays;
  {
    std::lock_guard<std::mutex> lock(relays_mu_);
    relays.swap(relays_);
  }
  for (Relay& r : relays) {
    ::shutdown(r.client_fd, SHUT_RDWR);
    ::shutdown(r.server_fd, SHUT_RDWR);
  }
  for (Relay& r : relays) {
    if (r.thread.joinable()) r.thread.join();
    ::close(r.client_fd);
    ::close(r.server_fd);
  }
}

void ChaosProxy::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(relays_mu_);
      for (auto it = relays_.begin(); it != relays_.end();) {
        if (it->done.load(std::memory_order_acquire)) {
          it->thread.join();
          ::close(it->client_fd);
          ::close(it->server_fd);
          it = relays_.erase(it);
        } else {
          ++it;
        }
      }
    }
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, 100);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (r == 0) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed by stop()
    }
    // Dial the upstream server for this client.
    const int sfd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in up{};
    up.sin_family = AF_INET;
    up.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    up.sin_port = htons(opts_.upstream_port);
    if (sfd < 0 ||
        ::connect(sfd, reinterpret_cast<const sockaddr*>(&up), sizeof up) < 0) {
      if (sfd >= 0) ::close(sfd);
      ::close(cfd);  // upstream refused: drop the client too
      continue;
    }
    std::lock_guard<std::mutex> lock(relays_mu_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(cfd);
      ::close(sfd);
      return;
    }
    Relay& relay = relays_.emplace_back();
    relay.client_fd = cfd;
    relay.server_fd = sfd;
    relay.born_gen = rst_gen_.load(std::memory_order_acquire);
    active_relays_.fetch_add(1, std::memory_order_acq_rel);
    relay.thread = std::thread([this, &relay] {
      relay_loop(relay);
      active_relays_.fetch_sub(1, std::memory_order_acq_rel);
      relay.done.store(true, std::memory_order_release);
    });
  }
}

void ChaosProxy::relay_loop(Relay& r) {
  char buf[4096];
  while (running_.load(std::memory_order_acquire)) {
    if (rst_gen_.load(std::memory_order_acquire) != r.born_gen) {
      // Mid-stream abort: both ends see a hard RST, not an orderly FIN.
      abort_with_rst(r.client_fd);
      abort_with_rst(r.server_fd);
      ::shutdown(r.client_fd, SHUT_RDWR);
      ::shutdown(r.server_fd, SHUT_RDWR);
      return;
    }
    if (stall_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    pollfd fds[2];
    fds[0] = {r.client_fd, POLLIN, 0};
    nfds_t nfds = 1;
    // Dropping downstream = not polling the server side: its bytes pile up
    // in OUR receive buffer and then in the SERVER's send buffer, exactly
    // the back-pressure a dead reader exerts.
    if (!drop_downstream_.load(std::memory_order_acquire))
      fds[nfds++] = {r.server_fd, POLLIN, 0};
    const int pr = ::poll(fds, nfds, 20);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;  // tick: re-check the knobs
    const std::size_t cap_knob = trickle_bytes_.load(std::memory_order_acquire);
    const std::size_t cap = cap_knob ? std::min(cap_knob, sizeof buf) : sizeof buf;
    for (nfds_t k = 0; k < nfds; ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const bool from_client = fds[k].fd == r.client_fd;
      const ssize_t n = ::recv(fds[k].fd, buf, cap, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        // One side closed: propagate the close and end the relay.
        ::shutdown(r.client_fd, SHUT_RDWR);
        ::shutdown(r.server_fd, SHUT_RDWR);
        return;
      }
      const int dst = from_client ? r.server_fd : r.client_fd;
      if (!forward_all(dst, buf, static_cast<std::size_t>(n))) {
        ::shutdown(r.client_fd, SHUT_RDWR);
        ::shutdown(r.server_fd, SHUT_RDWR);
        return;
      }
      (from_client ? bytes_up_ : bytes_down_)
          .fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      if (cap_knob) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            trickle_interval_ms_.load(std::memory_order_relaxed)));
        break;  // one trickled chunk per poll round
      }
    }
  }
}

}  // namespace apc::server
