// Serving-layer tests: the wire protocol (parse/format round trips and
// hardened failure handling), the sharded cluster (replica equivalence with
// a single classifier, epoch-consistent publication under concurrent
// updates, WAL recovery), and the TCP front end (batched queries, malformed
// and partial input, clients dying mid-batch).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "io/line_parse.hpp"
#include "packet/ipv4.hpp"
#include "server/cluster.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

namespace apc::server {
namespace {

using datasets::Dataset;
using datasets::Scale;

// ---------------------------------------------------------------- protocol

PacketHeader sample_header() {
  return PacketHeader::from_five_tuple(0x0a000001, 0xc0a80001, 1234, 80, 6);
}

TEST(ServerProtocol, ClassifyRoundTrip) {
  const PacketHeader h = sample_header();
  Request req;
  ASSERT_TRUE(parse_request(format_classify(h), 1, req));
  EXPECT_EQ(req.kind, RequestKind::kClassify);
  EXPECT_EQ(req.header, h);
}

TEST(ServerProtocol, QueryRoundTrip) {
  const PacketHeader h = sample_header();
  Request req;
  ASSERT_TRUE(parse_request(format_query(7, h), 1, req));
  EXPECT_EQ(req.kind, RequestKind::kQuery);
  EXPECT_EQ(req.ingress, 7u);
  EXPECT_EQ(req.header, h);
}

TEST(ServerProtocol, RuleRoundTrip) {
  RuleSpec spec;
  spec.box = 3;
  spec.rule.dst = parse_prefix("10.1.2.0/24");
  spec.rule.egress_port = 2;
  spec.rule.priority = 40;
  Request req;
  ASSERT_TRUE(parse_request(format_rule(true, spec), 1, req));
  EXPECT_EQ(req.kind, RequestKind::kAddRule);
  EXPECT_EQ(req.rule.box, 3u);
  EXPECT_EQ(req.rule.rule.dst, spec.rule.dst);
  EXPECT_EQ(req.rule.rule.egress_port, 2u);
  EXPECT_EQ(req.rule.rule.priority, 40);
  ASSERT_TRUE(parse_request(format_rule(false, spec), 2, req));
  EXPECT_EQ(req.kind, RequestKind::kRemoveRule);
  // Default priority (-1) is omitted on the wire and parses back as -1.
  spec.rule.priority = -1;
  ASSERT_TRUE(parse_request(format_rule(true, spec), 3, req));
  EXPECT_EQ(req.rule.rule.priority, -1);
}

TEST(ServerProtocol, ControlDirectives) {
  Request req;
  ASSERT_TRUE(parse_request("GO", 1, req));
  EXPECT_EQ(req.kind, RequestKind::kGo);
  ASSERT_TRUE(parse_request("STATS", 2, req));
  EXPECT_EQ(req.kind, RequestKind::kStats);
  ASSERT_TRUE(parse_request("EPOCH", 3, req));
  EXPECT_EQ(req.kind, RequestKind::kEpoch);
}

TEST(ServerProtocol, BlankAndCommentLinesAreSkipped) {
  Request req;
  EXPECT_FALSE(parse_request("", 1, req));
  EXPECT_FALSE(parse_request("   ", 2, req));
  EXPECT_FALSE(parse_request("# a comment", 3, req));
}

void expect_parse_error(const std::string& line, const char* fragment) {
  Request req;
  try {
    parse_request(line, 9, req);
    FAIL() << "expected kParse for: " << line;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << line;
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find(fragment), std::string::npos) << msg;
  }
}

TEST(ServerProtocol, MalformedLinesThrowTypedErrors) {
  expect_parse_error("FROB 1 2 3", "unknown directive");
  expect_parse_error("C 1 2 3 4", "expected 5 header words");
  expect_parse_error("C 1 2 3 4 5 6", "expected 5 header words");
  expect_parse_error("C 1 2 3 4 zz", "header word");
  expect_parse_error("Q", "ingress");
  expect_parse_error("Q notanumber 1 2 3 4 5", "ingress box id");
  expect_parse_error("Q 1 1 2 3 4", "expected 5 header words");
  expect_parse_error("GO now", "GO takes no arguments");
  expect_parse_error("A fib 1 10.0.0.0/33 2", "bad prefix");
  expect_parse_error("A fib 1 10.0.0.0/24", "expected: fib");
  expect_parse_error("A acl 1 10.0.0.0/24 2", "unknown rule table");
  expect_parse_error("R fib 99999999999 10.0.0.0/24 2", "box id");
  expect_parse_error("STATS verbose", "STATS takes no arguments");
}

TEST(ServerProtocol, OversizedAndBinaryLinesAreRejected) {
  const std::string oversized(io::kMaxLineBytes + 1, 'C');
  expect_parse_error(oversized, "exceeds");
  std::string binary = "C 1 2 3 4 5";
  binary += static_cast<char>(0xFF);
  expect_parse_error(binary, "UTF-8");
}

// Byte-exact 400 corpus: the full what() text every line produces, recorded
// from the original istringstream-based parser.  "OK" = parsed into a
// request, "SKIP" = blank/comment (no request).  what() is a C string, so
// a message quoting a NUL byte ends at it.
struct CorpusEntry {
  std::string line;
  std::string outcome;
};

std::string corpus_outcome(const std::string& line) {
  Request req;
  try {
    return parse_request(line, 9, req) ? "OK" : "SKIP";
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kParse) return std::string("NOT kParse: ") + e.what();
    return e.what();
  }
}

TEST(ProtocolCorpus, ErrorTextIsByteExact) {
  using namespace std::string_literals;
  const std::string kBad = "[parse] line 9: ";
  const std::vector<CorpusEntry> corpus = {
      // Malformed header words.
      {"C 1 2 3 4", kBad + "expected 5 header words"},
      {"C 1 2 3 4 5 6", kBad + "expected 5 header words"},
      {"C 1 2 3 4 zz", kBad + "bad header word: zz"},
      {"C 1 2 3 4 12345678901234567", kBad + "bad header word: 12345678901234567"},
      {"C 00000000000000001 2 3 4 5", kBad + "bad header word: 00000000000000001"},
      {"C 0x1 2 3 4 5", kBad + "bad header word: 0x1"},
      {"C +1 2 3 4 5", kBad + "bad header word: +1"},
      {"C -1 2 3 4 5", kBad + "bad header word: -1"},
      {"C 1 2 3 4 ABCDEF", "OK"},  // from_chars takes either hex case
      {"C ffffffffffffffff 0 0 0 FFFFFFFFFFFFFFFF", "OK"},
      // Queries: missing / empty / bad ingress.
      {"Q", kBad + "Q needs an ingress box id"},
      {"Q\t", kBad + "Q needs an ingress box id"},
      {"Q 1 2 3 4 5", kBad + "expected 5 header words"},
      {"Q x 1 2 3 4 5", kBad + "bad ingress box id: x"},
      {"Q notanumber 1 2 3 4 5", kBad + "bad ingress box id: notanumber"},
      {"Q 1 1 2 3 4", kBad + "expected 5 header words"},
      {"Q 4294967296 1 2 3 4 5",
       kBad + "ingress box id out of range (max 4294967295): 4294967296"},
      // Rule updates.
      {"A acl 1 10.0.0.0/24 2", kBad + "unknown rule table 'acl' (only 'fib')"},
      {"A fib 1 10.0.0.0/33 2", kBad + "bad prefix: parse_prefix: bad length"},
      {"A fib 1 10.0.0.0/24", kBad + "expected: fib <box> <prefix> <port> [prio]"},
      {"A fib 1 10.0.0.0/24 2 3 4", kBad + "expected: fib <box> <prefix> <port> [prio]"},
      {"A fib x 10.0.0.0/24 2", kBad + "bad box id: x"},
      {"A fib 1 10.0.0.0/24 -2", kBad + "bad egress port: -2"},
      {"A fib 1 10.0.0.0/24 2 2147483648",
       kBad + "priority out of range (max 2147483647): 2147483648"},
      {"A fib 1 10.0.0.0/24 2 +3", kBad + "bad priority: +3"},
      {"R fib 4294967296 10.0.0.0/24 2",
       kBad + "box id out of range (max 4294967295): 4294967296"},
      {"R fib 99999999999 10.0.0.0/24 2",
       kBad + "box id out of range (max 4294967295): 99999999999"},
      {"R fib 99999999999999999999999 10.0.0.0/24 2",
       kBad + "bad box id: 99999999999999999999999"},
      {"R fib 4294967295 10.0.0.0/24 2 2147483647", "OK"},
      // Whitespace is istream's set: space, \t, \n, \v, \f, \r.
      {"C\t1\t2\t3\t4\t5", "OK"},
      {"C\v1\f2\r3 4 5", "OK"},
      {"STATS\vx", kBad + "STATS takes no arguments"},
      {"GO\fnow", kBad + "GO takes no arguments"},
      {"C 1 2 3 4 5\r", "OK"},
      {"STATS\r", "OK"},
      {"GO\r\n", "OK"},
      // '#' ends the line only at the start of a token.
      {"GO\t# trailing", "OK"},
      {"GO #", "OK"},
      {"C 1 2 3 # 4 5", kBad + "expected 5 header words"},
      {"C 1 2 3 4 5#x", kBad + "bad header word: 5#x"},
      {"#GO", "SKIP"},
      {"  # only a comment", "SKIP"},
      {"# a comment", "SKIP"},
      {"", "SKIP"},
      {"   ", "SKIP"},
      {"   \t ", "SKIP"},
      // Control directives and unknown verbs.
      {"STATS x", kBad + "STATS takes no arguments"},
      {"STATS verbose", kBad + "STATS takes no arguments"},
      {"GO now", kBad + "GO takes no arguments"},
      {"EPOCH 1", kBad + "EPOCH takes no arguments"},
      {"FROB 1 2 3", kBad + "unknown directive 'FROB'"},
      {"c 1 2 3 4 5", kBad + "unknown directive 'c'"},
      // Bytes: valid UTF-8 reaches the token check, invalid stops first.
      {"C 1 2 3 4 \xC3\xA9", kBad + "bad header word: \xC3\xA9"},
      {"C 1 2 3 4 \xC0\x80", kBad + "invalid UTF-8 (binary data?)"},
      {"C 1 2 3 4 5\xFF", kBad + "invalid UTF-8 (binary data?)"},
      {"\xFF", kBad + "invalid UTF-8 (binary data?)"},
      {"GO\0"s, kBad + "unknown directive 'GO"},
      {"C 1 2 3 4\0 5"s, kBad + "bad header word: 4"},
      {std::string(io::kMaxLineBytes + 1, 'C'), kBad + "line exceeds 65536 bytes"},
  };
  ASSERT_GE(corpus.size(), 25u);
  for (const CorpusEntry& c : corpus)
    EXPECT_EQ(corpus_outcome(c.line), c.outcome) << "line: " << c.line.substr(0, 80);
}

TEST(ServerProtocol, BehaviorSummaryDistinguishesContent) {
  Behavior a;
  a.edges.push_back({0, 1, BoxId{2}});
  a.deliveries.push_back({2, 3});
  Behavior b = a;
  b.edges[0].out_port = 9;  // same shape, different content
  EXPECT_NE(format_behavior_summary(a), format_behavior_summary(b));
  EXPECT_EQ(format_behavior_summary(a), format_behavior_summary(a));
}

// ------------------------------------------------------------------ cluster

struct ClusterWorld {
  datasets::Dataset data;
  std::shared_ptr<bdd::BddManager> mgr = Dataset::make_manager();
  ApClassifier reference;
  std::vector<PacketHeader> trace;

  explicit ClusterWorld(std::uint64_t seed = 7)
      : data(datasets::internet2_like(Scale::Tiny, seed)),
        reference(data.net, mgr) {
    Rng rng(seed * 31 + 1);
    const auto reps = datasets::atom_representatives(reference.atoms(), rng);
    trace = datasets::uniform_trace(reps, 96, rng);
  }

  ShardedCluster::Options cluster_options(std::size_t shards) const {
    ShardedCluster::Options o;
    o.shards = shards;
    o.engine.num_threads = 2;
    return o;
  }
};

TEST(ShardedCluster, MixedBatchMatchesSingleClassifier) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(3));
  ASSERT_EQ(cluster.shard_count(), 3u);
  EXPECT_EQ(cluster.epoch(), 0u);

  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  const BoxId boxes = static_cast<BoxId>(w.data.net.topology.box_count());
  for (std::size_t i = 0; i < w.trace.size(); ++i) {
    const PacketHeader& h = w.trace[i];
    ShardedCluster::BatchItem c;
    c.header = h;
    items.push_back(c);
    expected.push_back("A " + std::to_string(w.reference.classify(h)));
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = h;
    q.ingress = static_cast<BoxId>(i % boxes);
    items.push_back(q);
    expected.push_back(format_behavior_summary(w.reference.query(h, q.ingress)));
  }
  const auto res = cluster.run_batch(items);
  EXPECT_EQ(res.epoch, 0u);
  ASSERT_EQ(res.lines.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
}

TEST(ShardedCluster, EpochAdvancesOnceEveryShardPublishes) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  RuleSpec spec;
  spec.box = 0;
  spec.rule.dst = parse_prefix("10.77.0.0/16");
  spec.rule.egress_port = 0;
  spec.rule.priority = 90;

  EXPECT_EQ(cluster.add_rule(spec), 1u);
  EXPECT_EQ(cluster.epoch(), 1u);
  for (std::size_t s = 0; s < cluster.shard_count(); ++s)
    EXPECT_EQ(cluster.shard(s)->snapshot_epoch(), 1u) << "shard " << s;
  EXPECT_EQ(cluster.remove_rule(spec), 2u);
  EXPECT_EQ(cluster.epoch(), 2u);
  EXPECT_EQ(cluster.updates_applied(), 2u);

  const auto view = cluster.pin();
  EXPECT_EQ(view.epoch, 2u);
  ASSERT_EQ(view.snaps.size(), 2u);
  for (const auto& s : view.snaps) ASSERT_NE(s, nullptr);
}

// The epoch-consistency differential: while one thread toggles a rule that
// changes a probe packet's behavior from TWO ingress boxes living on
// DIFFERENT shards, every batch must answer both probes from the same
// network-wide epoch — the pair (with, without) would mean shard 0 served
// the new epoch while shard 1 served the old one.
TEST(ShardedCluster, ConcurrentUpdatesNeverMixEpochsAcrossShards) {
  ClusterWorld w;
  const BoxId ingress_a = 0, ingress_b = 1;  // shards 0 and 1 of 2
  // Pick a probe the network delivers from BOTH ingresses, so the redirect
  // below perturbs both answers.
  PacketHeader probe = w.trace[0];
  bool found = false;
  for (const PacketHeader& h : w.trace) {
    if (w.reference.query(h, ingress_a).delivered() &&
        w.reference.query(h, ingress_b).delivered()) {
      probe = h;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no doubly-deliverable probe in the trace";

  // A high-priority /32 redirect at the probe's delivery box perturbs the
  // final hop of every path toward it.
  const Behavior base_a = w.reference.query(probe, ingress_a);
  const BoxId redirect_box = base_a.deliveries[0].box;
  const auto& ports = w.data.net.topology.box(redirect_box).ports;
  std::uint32_t other_port = base_a.deliveries[0].port;
  for (std::uint32_t p = 0; p < ports.size(); ++p)
    if (p != base_a.deliveries[0].port) other_port = p;
  ASSERT_NE(other_port, base_a.deliveries[0].port) << "need a second port";
  RuleSpec spec;
  spec.box = redirect_box;
  spec.rule.dst = Ipv4Prefix{probe.dst_ip(), 32};
  spec.rule.egress_port = other_port;
  spec.rule.priority = 1000;

  // Expected answer pairs per epoch parity, from a forked reference.
  const std::string without_a = format_behavior_summary(base_a);
  const std::string without_b =
      format_behavior_summary(w.reference.query(probe, ingress_b));
  auto fork = w.reference.fork();
  fork->insert_fib_rule(spec.box, spec.rule);
  const std::string with_a = format_behavior_summary(fork->query(probe, ingress_a));
  const std::string with_b = format_behavior_summary(fork->query(probe, ingress_b));
  ASSERT_NE(with_a, without_a) << "redirect must perturb ingress A";
  ASSERT_NE(with_b, without_b) << "redirect must perturb ingress B";

  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  std::vector<ShardedCluster::BatchItem> batch(2);
  batch[0].is_query = true;
  batch[0].header = probe;
  batch[0].ingress = ingress_a;
  batch[1].is_query = true;
  batch[1].header = probe;
  batch[1].ingress = ingress_b;

  constexpr int kToggles = 6;
  std::atomic<bool> done{false};
  std::atomic<int> mixed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto res = cluster.run_batch(batch);
        const bool rule_live = res.epoch % 2 == 1;
        const std::string& want_a = rule_live ? with_a : without_a;
        const std::string& want_b = rule_live ? with_b : without_b;
        if (res.lines[0] != want_a || res.lines[1] != want_b)
          mixed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int k = 1; k <= kToggles; ++k) {
    if (k % 2 == 1)
      cluster.add_rule(spec);
    else
      cluster.remove_rule(spec);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mixed.load(), 0) << "cross-shard mixed-epoch batch observed";
  EXPECT_EQ(cluster.epoch(), static_cast<std::uint64_t>(kToggles));
}

TEST(ShardedCluster, WalRecoveryRestoresUpdatesAcrossShards) {
  ClusterWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  RuleSpec r1;
  r1.box = 0;
  r1.rule.dst = parse_prefix("10.50.0.0/16");
  r1.rule.egress_port = 0;
  r1.rule.priority = 70;
  RuleSpec r2;  // owner shard 1 — exercises the cross-file seq merge
  r2.box = 1;
  r2.rule.dst = parse_prefix("10.60.0.0/16");
  r2.rule.egress_port = 0;
  r2.rule.priority = 71;

  auto opts = w.cluster_options(2);
  opts.wal_dir = dir;
  {
    ShardedCluster cluster(w.data.net, opts);
    cluster.add_rule(r1);
    cluster.add_rule(r2);
    cluster.add_rule(r1);     // same rule again: journal order must hold
    cluster.remove_rule(r1);  // ...because remove pops one instance
  }

  // Recovery replays the merged journal before the first publish: epoch
  // restarts at 0 but the rules are back.
  ShardedCluster recovered(w.data.net, opts);
  EXPECT_EQ(recovered.epoch(), 0u);
  EXPECT_EQ(recovered.updates_applied(), 4u);

  auto fork = w.reference.fork();
  fork->insert_fib_rule(r1.box, r1.rule);
  fork->insert_fib_rule(r2.box, r2.rule);

  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 24; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = static_cast<BoxId>(i % w.data.net.topology.box_count());
    items.push_back(q);
    expected.push_back(format_behavior_summary(fork->query(q.header, q.ingress)));
  }
  const auto res = recovered.run_batch(items);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  std::filesystem::remove_all(dir);
}

TEST(ShardedCluster, IdleShardStatsReportZeroPercentiles) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  // Route every query to shard 0 (even ingress); shard 1 stays idle.
  std::vector<ShardedCluster::BatchItem> items(4);
  for (auto& it : items) {
    it.is_query = true;
    it.header = w.trace[0];
    it.ingress = 0;
  }
  (void)cluster.run_batch(items);

  const obs::MetricsSnapshot stats = cluster.stats();  // must not throw
  const auto* busy = stats.find("shard0.batch_us.count");
  const auto* idle_p99 = stats.find("shard1.batch_us.p99");
  const auto* idle_count = stats.find("shard1.batch_us.count");
  ASSERT_NE(busy, nullptr);
  ASSERT_NE(idle_p99, nullptr);
  ASSERT_NE(idle_count, nullptr);
  EXPECT_GT(busy->value, 0.0);
  EXPECT_EQ(idle_count->value, 0.0);
  EXPECT_EQ(idle_p99->value, 0.0) << "idle shard must report 0, not throw";
  ASSERT_NE(stats.find("cluster.epoch"), nullptr);
  ASSERT_NE(stats.find("shard1.engine.snapshot_epoch"), nullptr);
}

// ---------------------------------------------------------------- tcp front

/// Minimal blocking line client for the tests.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n = ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next '\n'-terminated line (without the terminator); "" on EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True on EOF (orderly close from the server side).
  bool at_eof() {
    char c;
    return ::recv(fd_, &c, 1, 0) <= 0;
  }

  /// Abrupt close: RST instead of FIN, like a crashed client.
  void kill() {
    if (fd_ < 0) return;
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct ServerWorld : ClusterWorld {
  ShardedCluster cluster;
  TcpServer server;

  ServerWorld()
      : ClusterWorld(7),
        cluster(data.net, cluster_options(2)),
        server(cluster, TcpServer::Options{}) {}
};

TEST(TcpServer, BatchedQueriesEndToEnd) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());

  std::string out;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 16; ++i) {
    const PacketHeader& h = w.trace[i];
    out += format_classify(h);
    out += '\n';
    expected.push_back("A " + std::to_string(w.reference.classify(h)));
    const BoxId ingress = static_cast<BoxId>(i % w.data.net.topology.box_count());
    out += format_query(ingress, h);
    out += '\n';
    expected.push_back(format_behavior_summary(w.reference.query(h, ingress)));
  }
  out += "GO\n";
  client.send(out);

  const std::string status = client.read_line();
  EXPECT_EQ(status, "201 0 " + std::to_string(expected.size()));
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(client.read_line(), expected[i]) << "answer " << i;

  // EPOCH and STATS on the same connection.
  client.send("EPOCH\n");
  EXPECT_EQ(client.read_line(), "200 0");
  client.send("STATS\n");
  const std::string stats_status = client.read_line();
  ASSERT_EQ(stats_status.rfind("202 ", 0), 0u) << stats_status;
  const std::size_t rows = std::stoul(stats_status.substr(4));
  ASSERT_GT(rows, 0u);
  bool saw_epoch_row = false;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string row = client.read_line();
    ASSERT_FALSE(row.empty());
    if (row.rfind("cluster.epoch ", 0) == 0) saw_epoch_row = true;
  }
  EXPECT_TRUE(saw_epoch_row);
}

TEST(TcpServer, MalformedLineKeepsConnectionAndBatch) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());

  const PacketHeader h = w.trace[0];
  client.send(format_classify(h) + "\n");
  client.send("C 1 2 3\n");  // malformed: too few words
  const std::string err = client.read_line();
  EXPECT_EQ(err.rfind("400 ", 0), 0u) << err;
  EXPECT_NE(err.find("expected 5 header words"), std::string::npos) << err;
  // The batched C survived the bad line.
  client.send("GO\n");
  EXPECT_EQ(client.read_line(), "201 0 1");
  EXPECT_EQ(client.read_line(), "A " + std::to_string(w.reference.classify(h)));
}

TEST(TcpServer, ParseErrorMidBatchKeepsBatchAndLineNumbers) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  const PacketHeader& a = w.trace[0];
  const PacketHeader& b = w.trace[1];
  // Lines: 1 C (CRLF), 2 blank, 3 blank (CRLF), 4 comment, 5 bad,
  // 6 Q (CRLF), 7 bad, 8 GO.  Blank, comment and CRLF lines all count.
  client.send(format_classify(a) + "\r\n\n\r\n# note\nC 1 2 3\n" +
              format_query(1, b) + "\r\nGO now\r\nGO\n");
  EXPECT_EQ(client.read_line(), "400 [parse] line 5: expected 5 header words");
  EXPECT_EQ(client.read_line(), "400 [parse] line 7: GO takes no arguments");
  EXPECT_EQ(client.read_line(), "201 0 2");
  EXPECT_EQ(client.read_line(), "A " + std::to_string(w.reference.classify(a)));
  EXPECT_EQ(client.read_line(), format_behavior_summary(w.reference.query(b, 1)));
  // The count runs on across batches on the same connection.
  client.send("EPOCH x\n");
  EXPECT_EQ(client.read_line(), "400 [parse] line 9: EPOCH takes no arguments");
}

TEST(TcpServer, OversizedLineGets400AndClose) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  // Stream an endless unterminated line past the cap.
  const std::string blob(io::kMaxLineBytes + 4096, 'x');
  client.send(blob);
  const std::string err = client.read_line();
  EXPECT_EQ(err.rfind("400 ", 0), 0u) << err;
  EXPECT_NE(err.find("cap"), std::string::npos) << err;
  EXPECT_TRUE(client.at_eof());
}

TEST(TcpServer, PartialLinesAcrossWritesReassemble) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  const PacketHeader h = w.trace[0];
  const std::string wire = format_query(2, h) + "\nGO\n";
  // Dribble the bytes a few at a time across separate sends.
  for (std::size_t off = 0; off < wire.size(); off += 3)
    client.send(wire.substr(off, 3));
  EXPECT_EQ(client.read_line(), "201 0 1");
  EXPECT_EQ(client.read_line(), format_behavior_summary(w.reference.query(h, 2)));
}

TEST(TcpServer, InterleavedUpdateAndQueryConnections) {
  ServerWorld w;
  LineClient updater(w.server.port());
  LineClient querier(w.server.port());
  ASSERT_TRUE(updater.ok());
  ASSERT_TRUE(querier.ok());

  RuleSpec spec;
  spec.box = 0;
  spec.rule.dst = parse_prefix("10.88.0.0/16");
  spec.rule.egress_port = 0;
  spec.rule.priority = 60;

  const PacketHeader h = w.trace[1];
  std::uint64_t last_epoch = 0;
  for (int round = 1; round <= 3; ++round) {
    updater.send(format_rule(round % 2 == 1, spec) + "\n");
    const std::string reply = updater.read_line();
    ASSERT_EQ(reply.rfind("200 ", 0), 0u) << reply;
    const std::uint64_t epoch = std::stoull(reply.substr(4));
    EXPECT_EQ(epoch, static_cast<std::uint64_t>(round));
    EXPECT_GT(epoch, last_epoch);
    last_epoch = epoch;

    querier.send(format_query(1, h) + "\nGO\n");
    const std::string status = querier.read_line();
    ASSERT_EQ(status.rfind("201 ", 0), 0u) << status;
    // The batch pinned the epoch that was current when it ran.
    EXPECT_EQ(status, "201 " + std::to_string(epoch) + " 1");
    EXPECT_FALSE(querier.read_line().empty());
  }
}

TEST(TcpServer, ClientKilledMidBatchDrainsCleanly) {
  ServerWorld w;
  {
    LineClient doomed(w.server.port());
    ASSERT_TRUE(doomed.ok());
    // Buffer work but never GO, then die abruptly (RST).
    std::string out;
    for (int i = 0; i < 8; ++i) out += format_classify(w.trace[0]) + "\n";
    doomed.send(out);
    doomed.kill();
  }
  // The server must shrug it off: a healthy client gets full service and
  // the abandoned batch was never executed (epoch untouched, answers
  // correct).
  LineClient healthy(w.server.port());
  ASSERT_TRUE(healthy.ok());
  healthy.send(format_classify(w.trace[1]) + "\nGO\n");
  EXPECT_EQ(healthy.read_line(), "201 0 1");
  EXPECT_EQ(healthy.read_line(),
            "A " + std::to_string(w.reference.classify(w.trace[1])));
  EXPECT_GE(w.server.connections_accepted(), 2u);
}

}  // namespace
}  // namespace apc::server
