// engine_cold: the QueryEngine in process on Stanford* Medium (ACLs), no
// TCP and no updates.  One caller thread plus one pool worker alternate
// classify_batch and query_batch on 4096-header batches of
// datasets::rule_trace traffic (random addresses under FIB prefixes), so
// most headers miss the header cache and run the compiled program and the
// ACL-bearing stage-2 table.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "server/cluster.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr double kWarmupS = 1.0;
constexpr std::int64_t kSliceNs = 500'000'000;
constexpr int kSetups = 8;
constexpr std::size_t kBatch = 4096;
constexpr std::size_t kBatches = 32;

/// Manager, classifier and engine; members destroy engine-first.
struct EngineStack {
  std::shared_ptr<apc::bdd::BddManager> mgr;
  std::unique_ptr<apc::ApClassifier> clf;
  std::unique_ptr<apc::engine::QueryEngine> engine;
};

/// Builds the stack from the network model and answers one classify;
/// returns the seconds that took.
double setup_stack(const apc::NetworkModel& net, const apc::PacketHeader& probe,
                   EngineStack& st) {
  const std::int64_t t0 = now_ns();
  st.mgr = apc::datasets::Dataset::make_manager();
  st.clf = std::make_unique<apc::ApClassifier>(net, st.mgr);  // default threads
  st.engine = std::make_unique<apc::engine::QueryEngine>(*st.clf, engine_options());
  const apc::AtomId first = st.engine->classify(probe);
  const std::int64_t t1 = now_ns();
  if (first >= st.clf->atoms().capacity()) throw std::runtime_error("setup: bad atom id");
  return static_cast<double>(t1 - t0) * 1e-9;
}

struct Phase {
  std::vector<double> classify_us, query_us, headers_per_s;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t threads = 0;

  void append(const Phase& o) {
    for (auto [to, from] : {std::pair{&classify_us, &o.classify_us}, {&query_us, &o.query_us},
                            {&headers_per_s, &o.headers_per_s}})
      to->insert(to->end(), from->begin(), from->end());
    attempted += o.attempted;
    failed += o.failed;
    threads = std::max(threads, o.threads);
  }
};

struct Inputs {
  std::vector<std::vector<apc::PacketHeader>> batches;
  std::vector<apc::BoxId> ingress;                      ///< per batch
  std::vector<std::vector<apc::AtomId>> ref_atom;       ///< per batch, per header
  std::vector<std::vector<const apc::Behavior*>> want;  ///< per batch, per header
  std::unordered_map<std::uint64_t, apc::Behavior> behaviors;
};

class LoadLoop {
 public:
  LoadLoop(const apc::engine::QueryEngine& eng, const Inputs& in, Tracer& tr)
      : eng_(eng), in_(in), tr_(tr) {}

  Phase run(double seconds) {
    Phase ph;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    Slices slices(start, kSliceNs, static_cast<std::size_t>((end - start) / kSliceNs));
    bool sampled = false;
    while (now_ns() < end) {
      // Classify one batch and query the next, so the query never runs on
      // headers the classify just put in the header cache.
      const std::size_t b = next_ % in_.batches.size();
      const std::size_t q = (next_ + 1) % in_.batches.size();
      next_ += 2;
      const auto& hs = in_.batches[b];
      const auto& qs = in_.batches[q];
      const std::int64_t t0 = now_ns();
      const std::vector<apc::AtomId> atoms = eng_.classify_batch(hs);
      const std::int64_t t1 = now_ns();
      const std::vector<apc::Behavior> behs = eng_.query_batch(qs, in_.ingress[q]);
      const std::int64_t t2 = now_ns();
      if (!sampled && t2 >= start + (end - start) / 2) {
        ph.threads = live_threads();
        sampled = true;
      }

      std::uint64_t bad = 0;
      for (std::size_t i = 0; i < hs.size(); ++i)
        if (i >= atoms.size() || !part_.check(atoms[i], in_.ref_atom[b][i])) ++bad;
      for (std::size_t i = 0; i < qs.size(); ++i)
        if (i >= behs.size() || !(behs[i] == *in_.want[q][i])) ++bad;
      if (bad && reported_++ < 5)
        std::fprintf(stderr, "wrong answer: %llu in batches %zu/%zu\n",
                     static_cast<unsigned long long>(bad), b, q);
      ph.attempted += hs.size() + qs.size();
      ph.failed += bad;
      failed_total_ += bad;
      ph.classify_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      ph.query_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      slices.add(t2, static_cast<double>(hs.size() + qs.size()), t2 - t0);
      if (tr_.on()) {
        const std::uint64_t req = tr_.next_request();
        const std::uint32_t root = tr_.record("client.iteration", req, 0, t0, t2);
        tr_.record("engine.classify_batch", req, root, t0, t1);
        tr_.record("engine.query_batch", req, root, t1, t2);
      }
    }
    ph.headers_per_s = slices.busy_rates();
    return ph;
  }

  std::uint64_t failed_total() const { return failed_total_; }

 private:
  const apc::engine::QueryEngine& eng_;
  const Inputs& in_;
  Tracer& tr_;
  AtomPartition part_;  ///< one snapshot, one epoch
  std::size_t next_ = 0;
  std::uint64_t failed_total_ = 0;
  int reported_ = 0;
};

/// Builds the measured stack in this process, runs warm-up and the measured
/// phases, and adds the end-to-end rows (untraced) or the load-generator
/// rows and layer sweeps (traced) to `rep`.  The stack is gone on return.
void run_load(const Args& args, Tracer& tr, const apc::NetworkModel& net,
              const apc::PacketHeader& probe, const Inputs& in, apc::ApClassifier& ref,
              const apc::server::RuleSpec& route,
              const std::vector<apc::PacketHeader>& sweep_pool,
              const std::vector<Batch>& sweep_batches, Report& rep) {
  // This process's peak RSS growth from here, through its own stack build,
  // to the end of the load (the traced run's load.rss_growth_mb row).
  const double base_rss = rss_mb();
  reset_peak_rss();
  EngineStack st;
  setup_stack(net, probe, st);
  if (st.engine->worker_threads() != engine_options().num_threads)
    throw std::runtime_error("engine pool does not match the configuration");

  const bool tracing = tr.on();
  tr.set_on(false);
  LoadLoop drv(*st.engine, in, tr);
  Phase u, t;
  {
    const CpuPlacement placement;  // the pool worker never shares the caller's CPU
    drv.run(kWarmupS);
    // The traced run alternates untraced and traced quarters, so drift over
    // the run does not land in the tracing overhead.
    if (!args.trace) u = drv.run(args.seconds);
    for (int q = 0; args.trace && q < 4; ++q) {
      tr.set_on(q % 2 == 1);
      (q % 2 ? t : u).append(drv.run(args.seconds / 4));
    }
  }
  tr.set_on(tracing);

  rep.attempted = u.attempted + t.attempted;
  rep.failed = u.failed + t.failed;
  rep.correct = drv.failed_total() == 0;
  const double ok_ratio = rep.attempted
                              ? static_cast<double>(rep.attempted - rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0;
  std::printf("load: %zu iterations; classify_batch p50 %.1f us p99 %.1f us, query_batch "
              "p50 %.1f us p99 %.1f us; %.0f headers/s (median of %zu slices, %.0f..%.0f); "
              "threads %zu\n",
              u.classify_us.size(), median(u.classify_us), pct(u.classify_us, 99),
              median(u.query_us), pct(u.query_us, 99), median(u.headers_per_s),
              u.headers_per_s.size(), pct(u.headers_per_s, 0), pct(u.headers_per_s, 100),
              u.threads);
  std::printf("answers: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));

  if (!args.trace) {
    rep.add("answers_per_s", median(u.headers_per_s), "1/s");
    rep.add("batch_p50_us", median(u.classify_us), "us");
    rep.add("op_p50_ms", median(u.query_us) * 1e-3, "ms");
    rep.add("ok_ratio", ok_ratio, "ratio");
    return;
  }

  // ---- Traced run ----
  const auto snap = st.engine->snapshot();
  const double lookups =
      static_cast<double>(snap->header_cache_hits() + snap->header_cache_misses());
  rep.add("engine.header_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(snap->header_cache_hits()) / lookups : 0.0,
          "ratio");
  // No TCP and no updater in this workload: those rows read 0.
  rep.add("server.first_byte_us", 0.0, "us");
  rep.add("server.stream_us", 0.0, "us");
  rep.add("load.batch_p99_us", pct(u.classify_us, 99), "us");
  rep.add("load.update_p99_ms", 0.0, "ms");
  rep.add("load.updater_late_ms", 0.0, "ms");
  rep.add("load.threads", static_cast<double>(u.threads), "count");
  rep.add("load.rss_growth_mb", peak_rss_mb() - base_rss, "MB");
  rep.add("trace.batch_p50_overhead_us", median(t.classify_us) - median(u.classify_us), "us");
  std::printf("trace: classify_batch p50 traced %.1f us vs untraced %.1f us (n=%zu/%zu)\n",
              median(t.classify_us), median(u.classify_us), t.classify_us.size(),
              u.classify_us.size());

  // The cluster rows need a cluster: a one-shard stack on the same network.
  apc::server::ShardedCluster cluster(net, cluster_options());
  bool minus = false;
  SweepInputs sw;
  sw.ref = &ref;
  sw.route = route;
  sw.pool = &sweep_pool;
  sw.batches = &sweep_batches;
  sw.cluster = &cluster;
  sw.cluster_minus = &minus;
  sw.engine = st.engine.get();
  sw.engine_batches = in.batches;
  sw.engine_ingress = in.ingress;
  layer_sweeps(sw, tr, rep);
}

}  // namespace

Report run_engine_cold(const Args& args, Tracer& tr) {
  // ---- Inputs and oracle expectations (before any clock starts) ----
  const apc::datasets::Dataset data =
      apc::datasets::stanford_like(apc::datasets::Scale::Medium);
  const apc::NetworkModel& net = data.net;
  const std::size_t boxes = net.topology.box_count();
  apc::Rng rng(args.seed);
  apc::ApClassifier::Options ro;
  ro.threads = 1;  // single-threaded reference
  apc::ApClassifier ref(net, apc::datasets::Dataset::make_manager(), ro);
  const std::vector<apc::PacketHeader> trace =
      apc::datasets::rule_trace(net, kBatch * kBatches, rng);
  Inputs in;
  for (std::size_t b = 0; b < kBatches; ++b) {
    in.batches.emplace_back(trace.begin() + static_cast<std::ptrdiff_t>(b * kBatch),
                            trace.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatch));
    in.ingress.push_back(static_cast<apc::BoxId>(rng.uniform(boxes)));
    in.ref_atom.emplace_back();
    in.want.emplace_back();
    for (const auto& h : in.batches.back()) {
      const apc::AtomId a = ref.classify(h);
      const std::uint64_t key = static_cast<std::uint64_t>(a) * boxes + in.ingress.back();
      auto it = in.behaviors.find(key);
      if (it == in.behaviors.end())
        it = in.behaviors.emplace(key, ref.behavior_of(a, in.ingress.back())).first;
      in.ref_atom.back().push_back(a);
      in.want.back().push_back(&it->second);
    }
  }
  // Requests for the traced run's server/cluster sweeps, drawn from the
  // same traffic; drawn in both modes so the inputs never depend on it.
  const std::vector<apc::PacketHeader> sweep_pool(in.batches[0]);
  const std::vector<Batch> sweep_batches = make_batches(sweep_pool, boxes, 64, rng);
  const apc::server::RuleSpec route = pick_churn_route(ref);
  std::printf("workload engine_cold: %s, %zu rules, %zu atoms, %zu batches of %zu "
              "headers, %zu expected behaviors\n",
              data.name.c_str(), net.total_forwarding_rules(), ref.atom_count(), kBatches, kBatch,
              in.behaviors.size());
  check_thread_budget("engine_cold", 1, 0, engine_options().num_threads);

  Report rep;
  if (args.trace) construction_sweep(net, tr, rep);

  // Setup time and peak memory (untraced run): medians of forked samples,
  // half before the load and half after it, so they span the run.  A child
  // exits right after measuring, so its stack is never torn down.
  std::vector<SetupSample> setups;
  const auto setup_sample = [&] { return setup_stack(net, trace[0], *new EngineStack); };
  if (!args.trace) setups = forked_setups(kSetups / 2, setup_sample);
  run_load(args, tr, net, trace[0], in, ref, route, sweep_pool, sweep_batches, rep);
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

}  // namespace perfbench
