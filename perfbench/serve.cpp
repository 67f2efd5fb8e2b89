// serve_query and update_churn: a one-shard ShardedCluster behind the
// TcpServer line protocol on Internet2* Full, driven over loopback by ONE
// client thread that busy-polls its connections with ppoll():
//
//   * query connections run closed loops of 64-line batches (32 C + 32 Q,
//     then GO): the next batch goes out when the previous reply is in;
//   * update_churn adds an updater connection running an open loop at
//     10 updates/s that alternates "R fib" / "A fib" of one route.  Each
//     update is timed from when it was due to its "200 <epoch>" reply.
//
// Every answer line is checked against the reference classifier at the
// epoch its batch reports.
#include <poll.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using apc::server::RuleSpec;
using apc::server::ShardedCluster;
using apc::server::TcpServer;

constexpr double kWarmupS = 1.0;
constexpr std::int64_t kSliceNs = 500'000'000;
constexpr int kSetups = 6;
constexpr double kUpdatesPerS = 10.0;
constexpr std::size_t kBatchesPerConn = 256;
constexpr std::size_t kEngineBatch = 4096;
constexpr std::size_t kEngineBatches = 4;

/// The serving stack; members destroy in reverse order, server first.
struct Stack {
  std::unique_ptr<ShardedCluster> cluster;
  std::unique_ptr<TcpServer> server;
};

/// Builds the stack from the network model and answers one EPOCH request;
/// returns the seconds that took.
double setup_stack(const apc::NetworkModel& net, Stack& st) {
  const std::int64_t t0 = now_ns();
  st.cluster = std::make_unique<ShardedCluster>(net, cluster_options());
  st.server = std::make_unique<TcpServer>(*st.cluster, TcpServer::Options{});
  LineConn conn(st.server->port());
  const std::string reply = conn.call("EPOCH");
  const std::int64_t t1 = now_ns();
  if (reply != "200 0") throw std::runtime_error("setup: EPOCH answered '" + reply + "'");
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Samples of one load phase.
struct Phase {
  std::vector<double> batch_us, first_byte_us, stream_us;
  std::vector<double> update_ms, late_ms;
  std::vector<double> lines_per_s;  ///< per 0.5-s slice
  std::uint64_t attempted = 0, failed = 0;
  std::size_t threads = 0;  ///< live threads sampled mid-phase

  void append(const Phase& o) {
    for (auto [to, from] : {std::pair{&batch_us, &o.batch_us}, {&first_byte_us, &o.first_byte_us},
                            {&stream_us, &o.stream_us}, {&update_ms, &o.update_ms},
                            {&late_ms, &o.late_ms}, {&lines_per_s, &o.lines_per_s}})
      to->insert(to->end(), from->begin(), from->end());
    attempted += o.attempted;
    failed += o.failed;
    threads = std::max(threads, o.threads);
  }
};

std::uint64_t parse_u64(std::string_view s, bool& ok) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  ok = ok && ec == std::errc() && p == s.data() + s.size();
  return v;
}

class LoadGen {
 public:
  LoadGen(std::uint16_t port, const std::vector<std::vector<Batch>>& batches,
          ServeOracle& oracle, const RuleSpec* churn_route, Tracer& tr)
      : oracle_(oracle), tr_(tr) {
    for (const auto& b : batches) {
      qconns_.emplace_back();
      qconns_.back().conn = std::make_unique<LineConn>(port);
      qconns_.back().batches = &b;
    }
    if (churn_route) {
      route_ = *churn_route;
      updater_ = std::make_unique<LineConn>(port);
      remove_line_ = apc::server::format_rule(false, route_) + "\n";
      add_line_ = apc::server::format_rule(true, route_) + "\n";
    }
  }

  /// Runs one phase: requests are sent for `seconds`, then the replies in
  /// flight are drained (and checked) before returning.
  Phase run(double seconds);

  /// Wrong or refused answers over every phase, warm-up included.
  std::uint64_t failed_total() const { return failed_total_; }
  /// The cluster currently holds the base network minus the churn route.
  bool minus() const { return minus_; }

 private:
  struct QConn {
    std::unique_ptr<LineConn> conn;
    const std::vector<Batch>* batches = nullptr;
    std::size_t next = 0;
    const Batch* cur = nullptr;  ///< in flight when non-null
    std::int64_t sent_ns = 0, status_ns = 0;
    bool have_status = false;
  };

  void send_batch(QConn& q) {
    q.cur = &(*q.batches)[q.next];
    q.next = (q.next + 1) % q.batches->size();
    q.have_status = false;
    q.sent_ns = now_ns();
    q.conn->queue(q.cur->wire);
  }

  void fail(const std::string& what) {
    if (reported_++ < 5) std::fprintf(stderr, "wrong answer: %s\n", what.c_str());
  }

  /// Called after new bytes arrived on a query connection: completes the
  /// batch in flight once its whole reply is buffered.
  void on_query_data(QConn& q, std::int64_t now, bool sending, Phase& ph, Slices& slices);
  void on_update_line(std::string_view line, std::int64_t now, Phase& ph);

  ServeOracle& oracle_;
  Tracer& tr_;
  std::vector<QConn> qconns_;
  std::unique_ptr<LineConn> updater_;
  RuleSpec route_;
  std::string remove_line_, add_line_;
  bool update_busy_ = false;
  std::int64_t update_due_ = 0, update_sent_ = 0;
  std::uint64_t updates_sent_ = 0;  ///< == the newest epoch a batch may report
  std::uint64_t epoch_acked_ = 0;
  bool minus_ = false;
  std::uint64_t failed_total_ = 0;
  int reported_ = 0;
};

void LoadGen::on_query_data(QConn& q, std::int64_t now, bool sending, Phase& ph,
                            Slices& slices) {
  const std::size_t n = q.cur->items.size();
  const std::size_t lines = q.conn->complete_lines();
  if (lines > 0 && !q.have_status) {
    q.have_status = true;
    q.status_ns = now;
  }
  if (lines < n + 1) return;
  if (lines > n + 1) throw std::runtime_error("unsolicited answer line");

  // The whole reply is in: time it, send the next batch, then check this
  // one, so checking stays off the closed loop's critical path.
  const Batch& b = *q.cur;
  const std::int64_t sent_ns = q.sent_ns, status_ns = q.status_ns;
  ph.batch_us.push_back(static_cast<double>(now - sent_ns) * 1e-3);
  ph.first_byte_us.push_back(static_cast<double>(status_ns - sent_ns) * 1e-3);
  ph.stream_us.push_back(static_cast<double>(now - status_ns) * 1e-3);
  slices.add(now, static_cast<double>(n));
  if (tr_.on()) {
    const std::uint64_t req = tr_.next_request();
    const std::uint32_t root = tr_.record("client.batch", req, 0, sent_ns, now);
    tr_.record("server.first_byte", req, root, sent_ns, status_ns);
    tr_.record("server.stream", req, root, status_ns, now);
  }
  q.cur = nullptr;
  if (sending) send_batch(q);

  // "201 <epoch> <n>", then one answer line per item.
  std::string_view line;
  q.conn->next_line(line);
  bool ok = line.size() > 4 && line.substr(0, 4) == "201 ";
  const std::string_view rest = ok ? line.substr(4) : std::string_view{};
  const std::size_t sp = rest.find(' ');
  ok = ok && sp != std::string_view::npos;
  std::uint64_t epoch = 0;
  if (ok) {
    epoch = parse_u64(rest.substr(0, sp), ok);
    ok = ok && parse_u64(rest.substr(sp + 1), ok) == n;
  }
  if (!ok) throw std::runtime_error("unexpected batch status '" + std::string(line) + "'");
  std::size_t bad = 0;
  if (epoch > updates_sent_) {
    fail("batch pinned to epoch " + std::to_string(epoch) + " before that update");
    bad = n;
  }
  AtomPartition& part = oracle_.partition(epoch);
  for (const Item& it : b.items) {
    q.conn->next_line(line);
    const bool good = it.query ? oracle_.query_ok(epoch, it.hi, it.ingress, line)
                               : oracle_.classify_ok(part, epoch, it.hi, line);
    if (good) continue;
    ++bad;
    fail(std::string(it.query ? "Q" : "C") + " answer '" + std::string(line) +
         "' at epoch " + std::to_string(epoch));
  }
  bad = std::min(bad, n);
  ph.attempted += n;
  ph.failed += bad;
  failed_total_ += bad;
}

void LoadGen::on_update_line(std::string_view line, std::int64_t now, Phase& ph) {
  bool ok = line.size() > 4 && line.substr(0, 4) == "200 ";
  const std::uint64_t epoch = ok ? parse_u64(line.substr(4), ok) : 0;
  ok = ok && epoch == epoch_acked_ + 1;
  ++ph.attempted;
  if (!ok) {
    ++ph.failed;
    ++failed_total_;
    fail("update reply '" + std::string(line) + "' after epoch " +
         std::to_string(epoch_acked_));
    throw std::runtime_error("update failed; the oracle's epoch parity is lost");
  }
  epoch_acked_ = epoch;
  minus_ = !minus_;
  ph.update_ms.push_back(static_cast<double>(now - update_due_) * 1e-6);
  ph.late_ms.push_back(static_cast<double>(update_sent_ - update_due_) * 1e-6);
  if (tr_.on()) {
    const std::uint64_t req = tr_.next_request();
    const std::uint32_t root = tr_.record("client.update", req, 0, update_due_, now);
    tr_.record("load.updater_late", req, root, update_due_, update_sent_);
    tr_.record("server.update", req, root, update_sent_, now);
  }
  update_busy_ = false;
}

Phase LoadGen::run(double seconds) {
  Phase ph;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t period = static_cast<std::int64_t>(1e9 / kUpdatesPerS);
  Slices slices(start, kSliceNs, static_cast<std::size_t>((end - start) / kSliceNs));
  std::uint64_t k = 0;  // next update of this phase is due at start + k * period
  bool sampled_threads = false;
  for (QConn& q : qconns_) send_batch(q);

  std::vector<pollfd> fds;
  for (;;) {
    std::int64_t now = now_ns();
    const bool sending = now < end;
    if (updater_ && sending && !update_busy_ && now >= start + static_cast<std::int64_t>(k) * period) {
      update_due_ = start + static_cast<std::int64_t>(k) * period;
      update_sent_ = now;
      update_busy_ = true;
      ++updates_sent_;
      ++k;
      updater_->queue(minus_ ? add_line_ : remove_line_);
    }
    if (!sampled_threads && now >= start + (end - start) / 2) {
      ph.threads = live_threads();
      sampled_threads = true;
    }
    bool busy = update_busy_;
    for (const QConn& q : qconns_) busy = busy || q.cur != nullptr;
    if (!sending && !busy) break;

    // The client never sleeps: it polls without blocking, so the replies it
    // times never wait for this thread to be woken.
    const timespec ts{0, 0};

    fds.clear();
    for (const QConn& q : qconns_)
      fds.push_back({q.conn->fd(),
                     static_cast<short>(POLLIN | (q.conn->want_write() ? POLLOUT : 0)), 0});
    if (updater_)
      fds.push_back({updater_->fd(),
                     static_cast<short>(POLLIN | (updater_->want_write() ? POLLOUT : 0)), 0});
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR)
      throw std::runtime_error("ppoll failed");
    now = now_ns();
    const bool still_sending = now < end;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const bool is_update = updater_ && i == qconns_.size();
      LineConn& conn = is_update ? *updater_ : *qconns_[i].conn;
      if (fds[i].revents & POLLOUT) conn.flush();
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      conn.fill();
      if (!is_update) {
        QConn& q = qconns_[i];
        if (!q.cur) throw std::runtime_error("unsolicited answer line");
        on_query_data(q, now, still_sending, ph, slices);
        continue;
      }
      std::string_view line;
      while (conn.next_line(line)) {
        if (!update_busy_) throw std::runtime_error("unsolicited updater line");
        on_update_line(line, now, ph);
      }
    }
  }
  ph.lines_per_s = slices.rates();
  return ph;
}

/// Builds the measured stack in this process, runs warm-up and the measured
/// phases, and adds the end-to-end rows (untraced) or the load-generator
/// rows and layer sweeps (traced) to `rep`.  The stack is gone on return.
void run_load(const Args& args, Tracer& tr, bool churn, const apc::NetworkModel& net,
              const RuleSpec& route, apc::ApClassifier& ref, ServeOracle& oracle,
              const std::vector<apc::PacketHeader>& pool,
              const std::vector<std::vector<Batch>>& batches, std::size_t sessions,
              std::vector<std::vector<apc::PacketHeader>> engine_batches,
              std::vector<apc::BoxId> engine_ingress, Report& rep) {
  // This process's peak RSS growth from here, through its own stack build,
  // to the end of the load (the traced run's load.rss_growth_mb row).
  const double base_rss = rss_mb();
  reset_peak_rss();
  Stack st;
  setup_stack(net, st);
  const auto engine = st.cluster->shard(0);
  if (engine->worker_threads() != engine_options().num_threads)
    throw std::runtime_error("engine pool does not match the configuration");

  const bool tracing = tr.on();
  tr.set_on(false);
  // Wait out the setup request's session, then connect: the threads that
  // appear are the sessions, in connection order (query connections, then
  // the updater).
  const auto wait_for = [&](auto&& done) {
    for (int i = 0; i < 2000 && !done(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return done();
  };
  if (!wait_for([&] { return st.server->live_sessions() == 0; }))
    throw std::runtime_error("the setup connection's session did not end");
  const std::vector<pid_t> before = thread_ids();
  LoadGen gen(st.server->port(), batches, oracle, churn ? &route : nullptr, tr);
  std::vector<pid_t> session_tids;
  const bool up = wait_for([&] {
    session_tids.clear();
    for (const pid_t tid : thread_ids())
      if (!std::binary_search(before.begin(), before.end(), tid)) session_tids.push_back(tid);
    return st.server->live_sessions() == sessions && session_tids.size() == sessions;
  });
  if (!up) throw std::runtime_error("server sessions do not match the configuration");
  Phase u, t;
  {
    // The busy-polling client and each session get a CPU of their own.
    const CpuPlacement placement(session_tids);
    gen.run(kWarmupS);
    // The traced run alternates untraced and traced quarters, so drift over
    // the run does not land in the tracing overhead.
    if (!args.trace) u = gen.run(args.seconds);
    for (int q = 0; args.trace && q < 4; ++q) {
      tr.set_on(q % 2 == 1);
      (q % 2 ? t : u).append(gen.run(args.seconds / 4));
    }
  }
  tr.set_on(tracing);
  if (st.server->live_sessions() != sessions)
    throw std::runtime_error("server sessions do not match the configuration");

  rep.attempted = u.attempted + t.attempted;
  rep.failed = u.failed + t.failed;
  rep.correct = gen.failed_total() == 0;
  std::printf("load: %zu batches, p50 %.1f us, p99 %.1f us; %.0f lines/s (median of %zu "
              "slices, %.0f..%.0f); threads %zu\n",
              u.batch_us.size(), median(u.batch_us), pct(u.batch_us, 99), median(u.lines_per_s),
              u.lines_per_s.size(), pct(u.lines_per_s, 0), pct(u.lines_per_s, 100), u.threads);
  if (churn) {
    const std::size_t n = u.update_ms.size(), k = n / 4;
    std::printf("updates: %zu, p50 %.3f ms, p99 %.3f ms from due time (first quarter p50 "
                "%.3f ms, last quarter %.3f ms); updater late p50 %.3f ms, p99 %.3f ms\n",
                n, median(u.update_ms), pct(u.update_ms, 99),
                median({u.update_ms.begin(), u.update_ms.begin() + static_cast<std::ptrdiff_t>(k)}),
                median({u.update_ms.end() - static_cast<std::ptrdiff_t>(k), u.update_ms.end()}),
                median(u.late_ms), pct(u.late_ms, 99));
  }
  std::printf("answers: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));

  if (!args.trace) {
    rep.add("answers_per_s", median(u.lines_per_s), "1/s");
    rep.add("batch_p50_us", median(u.batch_us), "us");
    rep.add("op_p50_ms", churn ? median(u.update_ms) : median(u.batch_us) * 1e-3, "ms");
    rep.add("ok_ratio",
            rep.attempted ? static_cast<double>(rep.attempted - rep.failed) /
                                static_cast<double>(rep.attempted)
                          : 0.0,
            "ratio");
    return;
  }

  // ---- Traced run: load-generator rows, then the layer sweeps ----
  const auto snap = engine->snapshot();
  const double lookups =
      static_cast<double>(snap->header_cache_hits() + snap->header_cache_misses());
  rep.add("engine.header_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(snap->header_cache_hits()) / lookups : 0.0,
          "ratio");
  rep.add("server.first_byte_us", median(t.first_byte_us), "us");
  rep.add("server.stream_us", median(t.stream_us), "us");
  rep.add("load.batch_p99_us", pct(u.batch_us, 99), "us");
  rep.add("load.update_p99_ms", churn ? pct(u.update_ms, 99) : 0.0, "ms");
  rep.add("load.updater_late_ms", churn ? pct(u.late_ms, 99) : 0.0, "ms");
  rep.add("load.threads", static_cast<double>(u.threads), "count");
  rep.add("load.rss_growth_mb", peak_rss_mb() - base_rss, "MB");
  rep.add("trace.batch_p50_overhead_us", median(t.batch_us) - median(u.batch_us), "us");
  std::printf("trace: batch p50 traced %.1f us vs untraced %.1f us (n=%zu/%zu); first byte "
              "%.1f us, stream %.1f us\n",
              median(t.batch_us), median(u.batch_us), t.batch_us.size(), u.batch_us.size(),
              median(t.first_byte_us), median(t.stream_us));

  bool minus = gen.minus();
  SweepInputs in;
  in.ref = &ref;
  in.route = route;
  in.pool = &pool;
  in.batches = &batches[0];
  in.cluster = st.cluster.get();
  in.cluster_minus = &minus;
  in.engine = engine.get();
  in.engine_batches = std::move(engine_batches);
  in.engine_ingress = std::move(engine_ingress);
  layer_sweeps(in, tr, rep);
}

Report run_serve(const Args& args, Tracer& tr, bool churn) {
  const std::string name = churn ? "update_churn" : "serve_query";

  // ---- Inputs and oracle expectations (before any clock starts) ----
  const apc::datasets::Dataset data = apc::datasets::internet2_like(apc::datasets::Scale::Full);
  const apc::NetworkModel& net = data.net;
  const std::size_t boxes = net.topology.box_count();
  apc::Rng rng(args.seed);
  apc::ApClassifier::Options ro;
  ro.threads = 1;  // single-threaded reference
  apc::ApClassifier ref(net, apc::datasets::Dataset::make_manager(), ro);
  const std::vector<apc::PacketHeader> pool =
      apc::datasets::atom_representatives(ref.atoms(), rng).headers;
  const RuleSpec route = pick_churn_route(ref);
  ServeOracle oracle(ref, pool, churn ? &route : nullptr);
  const std::size_t cpus = usable_cpus();
  const std::size_t query_conns = churn ? 1 : std::clamp<std::size_t>(cpus, 3, 4) - 2;
  std::vector<std::vector<Batch>> batches;
  for (std::size_t c = 0; c < query_conns; ++c)
    batches.push_back(make_batches(pool, boxes, kBatchesPerConn, rng));
  std::vector<std::vector<apc::PacketHeader>> engine_batches(kEngineBatches);
  std::vector<apc::BoxId> engine_ingress;
  for (auto& b : engine_batches) {
    for (std::size_t i = 0; i < kEngineBatch; ++i) b.push_back(pool[rng.uniform(pool.size())]);
    engine_ingress.push_back(static_cast<apc::BoxId>(rng.uniform(boxes)));
  }
  std::printf("workload %s: %s, %zu rules, %zu atoms, %zu header pool, churn route "
              "box %u %s\n",
              name.c_str(), data.name.c_str(), net.total_forwarding_rules(), ref.atom_count(),
              pool.size(), route.box, apc::server::format_rule(false, route).c_str());
  const std::size_t sessions = query_conns + (churn ? 1 : 0);
  check_thread_budget(name, 1, sessions, engine_options().num_threads);

  Report rep;
  if (args.trace) construction_sweep(net, tr, rep);

  // Setup time and peak memory (untraced run): medians of forked samples,
  // half before the load and half after it, so they span the run.  A child
  // exits right after measuring, so its stack is never torn down.
  std::vector<SetupSample> setups;
  const auto setup_sample = [&] { return setup_stack(net, *new Stack); };
  if (!args.trace) setups = forked_setups(kSetups / 2, setup_sample);
  run_load(args, tr, churn, net, route, ref, oracle, pool, batches, sessions,
           std::move(engine_batches), std::move(engine_ingress), rep);
  if (!args.trace) {
    for (const SetupSample& v : forked_setups(kSetups - kSetups / 2, setup_sample))
      setups.push_back(v);
    std::vector<double> secs, peak;
    std::printf("setup: s / peak MiB per sample:");
    for (const SetupSample& v : setups) {
      secs.push_back(v.seconds);
      peak.push_back(v.peak_mb);
      std::printf(" %.3f/%.1f", v.seconds, v.peak_mb);
    }
    std::printf("\n");
    rep.add("setup_s", median(secs), "s");
    rep.add("peak_rss_mb", median(peak), "MB");
  }
  return rep;
}

}  // namespace

Report run_serve_query(const Args& args, Tracer& tr) { return run_serve(args, tr, false); }
Report run_update_churn(const Args& args, Tracer& tr) { return run_serve(args, tr, true); }

}  // namespace perfbench
