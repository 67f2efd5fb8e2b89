// Closed-loop serving benchmark: 8 client threads hammer the cluster
// through the TCP front end over loopback, each pipelining fixed-size
// batches of mixed C/Q lines and waiting for the full reply before sending
// the next (closed loop), while one updater thread toggles a forwarding rule
// through the same protocol.
//
// Every batch embeds two probe queries (one header from two ingress boxes)
// whose answers the toggled rule never changes; a reply whose probe lines
// differ from the reference classifier's is counted as a mixed-epoch batch
// and reported (the CI gate asserts it stays 0).
//
// Emits BENCH_serve.json:
//   serve.clients / serve.batches / serve.qps
//   serve.batch_p50_us / serve.batch_p99_us / serve.batch_max_us
//   serve.epoch_final / serve.updates_applied / serve.mixed_epoch_batches
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "bench_util.hpp"
#include "server/cluster.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/stats.hpp"

namespace apc {
namespace {

using bench::BenchJson;

constexpr std::size_t kClients = 8;
constexpr std::size_t kBatchLines = 64;

/// Blocking loopback line client (mirrors the test client; the bench keeps
/// its own copy so bench binaries stay test-framework-free).
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    require(fd_ >= 0, ErrorCode::kIo, "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    require(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0,
            ErrorCode::kIo, "connect");
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n = ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      require(n > 0, ErrorCode::kIo, "send");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      require(n > 0, ErrorCode::kIo, "recv: server closed mid-reply");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace

int run() {
  const datasets::Scale scale = bench::bench_scale();
  bench::print_header("Closed-loop TCP serving (one engine, loopback)");

  bench::World w = bench::make_world(0, scale);
  Rng rng(99);
  const std::vector<PacketHeader> trace = datasets::uniform_trace(w.reps, 4096, rng);
  const BoxId boxes = static_cast<BoxId>(w.data().net.topology.box_count());

  server::ShardedCluster::Options copts;
  copts.engine.num_threads = 2;
  server::ShardedCluster cluster(w.data().net, copts);
  server::TcpServer server(cluster, server::TcpServer::Options{});
  std::printf("cluster up: port %u\n", server.port());

  // The consistency probe: one header queried from two ingress boxes.
  // Expected answers come from the reference classifier.  The updater
  // toggles a rule that does NOT affect the probe header, so at every epoch
  // the probe answers must stay byte-identical to the reference.
  const PacketHeader probe = trace[0];
  const BoxId probe_a = 0 % boxes, probe_b = 1 % boxes;
  const std::string probe_wire =
      server::format_query(probe_a, probe) + "\n" +
      server::format_query(probe_b, probe) + "\n";
  const std::string want_a =
      server::format_behavior_summary(w.clf->query(probe, probe_a));
  const std::string want_b =
      server::format_behavior_summary(w.clf->query(probe, probe_b));

  // The toggled rule lives in address space the generated FIBs never route
  // (198.18.0.0/15 is benchmarking space) so it perturbs predicates — a
  // real publish per update — without changing any probe answer.
  server::RuleSpec toggle;
  toggle.box = 2 % boxes;
  toggle.rule.dst = parse_prefix("198.18.0.0/16");
  toggle.rule.egress_port = 0;
  toggle.rule.priority = 5;

  const double duration_s = scale == datasets::Scale::Tiny ? 1.0 : 3.0;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0}, mixed{0}, queries{0};
  std::vector<std::vector<double>> lat_us(kClients);
  std::vector<std::thread> clients;

  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient conn(server.port());
      Rng crng(1000 + c);
      std::size_t cursor = c * 17;
      while (!stop.load(std::memory_order_acquire)) {
        std::string out = probe_wire;
        for (std::size_t i = 0; i < kBatchLines; ++i) {
          const PacketHeader& h = trace[(cursor + i * 7) % trace.size()];
          if (i % 2 == 0)
            out += server::format_classify(h);
          else
            out += server::format_query(
                static_cast<BoxId>(crng.next() % boxes), h);
          out += '\n';
        }
        cursor += kBatchLines;
        out += "GO\n";
        Stopwatch sw;
        conn.send(out);
        const std::string status = conn.read_line();
        if (status.rfind("201 ", 0) != 0)
          throw Error("bad batch status: " + status);
        const std::string line_a = conn.read_line();
        const std::string line_b = conn.read_line();
        for (std::size_t i = 0; i < kBatchLines; ++i) (void)conn.read_line();
        lat_us[c].push_back(sw.seconds() * 1e6);
        if (line_a != want_a || line_b != want_b)
          mixed.fetch_add(1, std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
        queries.fetch_add(kBatchLines + 2, std::memory_order_relaxed);
      }
    });
  }

  std::thread updater([&] {
    LineClient conn(server.port());
    bool add = true;
    while (!stop.load(std::memory_order_acquire)) {
      conn.send(server::format_rule(add, toggle) + "\n");
      const std::string reply = conn.read_line();
      if (reply.rfind("200 ", 0) != 0) throw Error("bad update status: " + reply);
      add = !add;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  Stopwatch run_sw;
  while (run_sw.seconds() < duration_s)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  updater.join();
  const double elapsed = run_sw.seconds();

  std::vector<double> all_us;
  for (const auto& v : lat_us) all_us.insert(all_us.end(), v.begin(), v.end());
  const double qps = static_cast<double>(queries.load()) / elapsed;
  const double p50 = percentile_or(all_us, 50.0);
  const double p99 = percentile_or(all_us, 99.0);
  const double mx = all_us.empty() ? 0.0 : maximum(all_us);

  std::printf("%zu clients x %zu-line batches for %.1fs: %.0f q/s, "
              "batch p50 %.0f us, p99 %.0f us, max %.0f us\n",
              kClients, kBatchLines, elapsed, qps, p50, p99, mx);
  std::printf("epoch %llu after %llu updates; mixed-epoch batches: %llu\n",
              static_cast<unsigned long long>(cluster.epoch()),
              static_cast<unsigned long long>(cluster.updates_applied()),
              static_cast<unsigned long long>(mixed.load()));

  BenchJson out("serve");
  out.row("serve.clients", static_cast<double>(kClients), "count", kClients);
  out.row("serve.batches", static_cast<double>(batches.load()), "count", kClients);
  out.row("serve.qps", qps, "queries/s", kClients);
  out.row("serve.batch_p50_us", p50, "us", kClients);
  out.row("serve.batch_p99_us", p99, "us", kClients);
  out.row("serve.batch_max_us", mx, "us", kClients);
  out.row("serve.epoch_final", static_cast<double>(cluster.epoch()), "count",
          kClients);
  out.row("serve.updates_applied", static_cast<double>(cluster.updates_applied()),
          "count", kClients);
  out.row("serve.mixed_epoch_batches", static_cast<double>(mixed.load()), "count",
          kClients);
  server.stop();
  return mixed.load() == 0 ? 0 : 1;
}

}  // namespace apc

int main() { return apc::run(); }
