#include "bench.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

// ---- Report ----

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    // %.17g keeps every digit of the measured double.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---- Statistics ----

double pct(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

Slices::Slices(std::int64_t start_ns, std::int64_t slice_ns, std::size_t count)
    : start_ns_(start_ns), slice_ns_(slice_ns), amount_(count, 0.0), busy_(count, 0) {}

void Slices::add(std::int64_t at_ns, double amount, std::int64_t busy_ns) {
  if (at_ns < start_ns_) return;
  const std::size_t i = static_cast<std::size_t>((at_ns - start_ns_) / slice_ns_);
  if (i >= amount_.size()) return;
  amount_[i] += amount;
  busy_[i] += busy_ns;
}

std::vector<double> Slices::rates() const {
  std::vector<double> r;
  for (const double a : amount_) r.push_back(a / (static_cast<double>(slice_ns_) * 1e-9));
  return r;
}

std::vector<double> Slices::busy_rates() const {
  std::vector<double> r;
  for (std::size_t i = 0; i < amount_.size(); ++i)
    if (busy_[i] > 0) r.push_back(amount_[i] / (static_cast<double>(busy_[i]) * 1e-9));
  return r;
}

// ---- Process probes ----

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

namespace {
/// The numeric value of one "Key:   value" row of /proc/self/status.
double status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, klen, key) == 0 && line.size() > klen && line[klen] == ':')
      return std::strtod(line.c_str() + klen + 1, nullptr);
  return 0.0;
}
}  // namespace

std::size_t live_threads() { return static_cast<std::size_t>(status_field("Threads")); }
double rss_mb() { return status_field("VmRSS") / 1024.0; }
double peak_rss_mb() { return status_field("VmHWM") / 1024.0; }

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (!dir) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* e = ::readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid > 0) out.push_back(tid);
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

CpuPlacement::CpuPlacement(const std::vector<pid_t>& own) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
  if (cpus.size() < own.size() + 2)
    throw std::runtime_error("CpuPlacement: " + std::to_string(cpus.size()) +
                             " usable CPUs for " + std::to_string(own.size() + 2) +
                             " placements");
  const auto only = [](int c) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(c, &set);
    return set;
  };
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (std::size_t i = own.size() + 1; i < cpus.size(); ++i) CPU_SET(cpus[i], &rest);

  const std::vector<pid_t> all = thread_ids();
  const pid_t self = static_cast<pid_t>(::syscall(SYS_gettid));
  const cpu_set_t mine = only(cpus[0]);
  if (sched_setaffinity(0, sizeof mine, &mine) != 0)
    throw std::runtime_error("sched_setaffinity failed");
  for (const pid_t tid : all) {
    if (tid == self) continue;
    const auto it = std::find(own.begin(), own.end(), tid);
    const cpu_set_t set =
        it == own.end() ? rest : only(cpus[1 + static_cast<std::size_t>(it - own.begin())]);
    sched_setaffinity(tid, sizeof set, &set);
  }
  for (std::size_t i = 1; i < cpus.size(); ++i) {
    spinners_.emplace_back([this, set = only(cpus[i])] {
      sched_setaffinity(0, sizeof set, &set);
      const sched_param idle{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

CpuPlacement::~CpuPlacement() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners_) t.join();
  sched_setaffinity(0, sizeof saved_, &saved_);
}

std::vector<SetupSample> forked_setups(int count, const std::function<double()>& setup) {
  std::vector<SetupSample> out;
  std::fflush(nullptr);  // nothing buffered may be written twice
  // Hand freed heap back to the system first, so a child's setup allocates
  // fresh pages (and shows its peak) however much this process used before.
  ::malloc_trim(0);
  for (int i = 0; i < count; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      SetupSample s{-1.0, 0.0};
      try {
        reset_peak_rss();
        const double base = rss_mb();
        s.seconds = setup();
        s.peak_mb = peak_rss_mb() - base;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "setup failed: %s\n", e.what());
      }
      const bool sent = ::write(fds[1], &s, sizeof s) == sizeof s;
      ::_exit(sent && s.seconds >= 0.0 ? 0 : 1);  // no teardown, no atexit
    }
    ::close(fds[1]);
    SetupSample s{-1.0, 0.0};
    const bool got = ::read(fds[0], &s, sizeof s) == sizeof s;
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!got || s.seconds < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("setup child failed");
    out.push_back(s);
  }
  return out;
}

// ---- Tracer ----

std::uint32_t Tracer::record(const char* name, std::uint64_t request,
                             std::uint32_t parent, std::int64_t start_ns,
                             std::int64_t end_ns) {
  if (!on_) return 0;
  spans_.push_back({name, request, parent, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size());
}

std::map<std::string, Tracer::LayerTime> Tracer::self_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent > 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string_view name(s.name);
    LayerTime& lt = out[std::string(name.substr(0, name.find('.')))];
    const std::int64_t dur = s.end_ns - s.start_ns;
    lt.total_ms += static_cast<double>(dur) * 1e-6;
    lt.self_ms += static_cast<double>(std::max<std::int64_t>(dur - child_ns[i], 0)) * 1e-6;
    ++lt.spans;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %u, \"request\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i + 1, s.parent, static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  std::fprintf(f, "{\"self_time_ms\": {");
  bool first = true;
  for (const auto& [layer, lt] : self_times()) {
    std::fprintf(f, "%s\"%s\": {\"self\": %.6f, \"total\": %.6f, \"spans\": %llu}",
                 first ? "" : ", ", layer.c_str(), lt.self_ms, lt.total_ms,
                 static_cast<unsigned long long>(lt.spans));
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

// ---- LineConn ----

namespace {
/// Blocks until `fd` is readable or writable as asked, or `timeout_ms`.
void wait_fd(int fd, bool want_write, int timeout_ms) {
  pollfd p{fd, static_cast<short>(want_write ? POLLOUT : POLLIN), 0};
  ::poll(&p, 1, timeout_ms);
}
}  // namespace

LineConn::LineConn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect: " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

void LineConn::queue(std::string_view bytes) {
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  out_.append(bytes);
  flush();
}

void LineConn::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n =
        ::send(fd_, out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("send: " + std::string(std::strerror(errno)));
  }
}

void LineConn::fill() {
  if (consumed_ > 0) {
    in_.erase(0, consumed_);
    in_off_ -= consumed_;
    consumed_ = 0;
  }
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) return;
      continue;
    }
    if (n == 0) throw std::runtime_error("recv: server closed the connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
  }
}

bool LineConn::next_line(std::string_view& line) {
  const std::size_t nl = in_.find('\n', in_off_);
  if (nl == std::string::npos) return false;
  line = std::string_view(in_).substr(in_off_, nl - in_off_);
  in_off_ = nl + 1;
  consumed_ = in_off_;
  return true;
}

std::size_t LineConn::complete_lines() const {
  return static_cast<std::size_t>(
      std::count(in_.begin() + static_cast<std::ptrdiff_t>(in_off_), in_.end(), '\n'));
}

std::string LineConn::call(std::string_view line) {
  queue(line);
  queue("\n");
  while (want_write()) {
    wait_fd(fd_, true, 1000);
    flush();
  }
  std::string_view reply;
  while (!next_line(reply)) {
    wait_fd(fd_, false, 1000);
    fill();
  }
  return std::string(reply);
}


}  // namespace perfbench
