// Per-layer sweeps of the traced run: each times calls into one layer's
// public functions from outside, on the workload's own network and
// requests, and records a span around every call.
#include <cstdio>

#include "ap/atoms.hpp"
#include "aptree/build.hpp"
#include "classifier/behavior.hpp"
#include "datasets/datasets.hpp"
#include "engine/snapshot.hpp"
#include "rules/compiler.hpp"
#include "server/protocol.hpp"
#include "util/task_pool.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using apc::engine::FlatSnapshot;

constexpr std::int64_t kSweepNs = 250'000'000;  // wall budget per timed loop
constexpr int kReplayUpdates = 20;              // R/A pairs alternate
constexpr int kColdBuilds = 3;

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Times `fn` and records it as a span; returns the duration in ns.
template <typename Fn>
std::int64_t timed(Tracer& tr, const char* name, std::uint64_t request,
                   std::uint32_t parent, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  tr.record(name, request, parent, t0, t1);
  return t1 - t0;
}

std::vector<std::string> split_lines(const std::string& wire) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < wire.size()) {
    const std::size_t nl = wire.find('\n', start);
    out.push_back(wire.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

void server_sweep(const SweepInputs& in, Tracer& tr, Report& rep) {
  const auto& batches = *in.batches;
  const auto& pool = *in.pool;
  std::vector<double> parse_ns, format_ns;
  const std::int64_t deadline = now_ns() + kSweepNs;
  for (std::size_t b = 0; b < batches.size() && now_ns() < deadline; ++b) {
    const std::vector<std::string> lines = split_lines(batches[b].wire);
    const std::uint64_t req = tr.next_request();
    apc::server::Request r;
    const std::int64_t pns = timed(tr, "server.parse_request", req, 0, [&] {
      for (std::size_t i = 0; i < lines.size(); ++i)
        apc::server::parse_request(lines[i], i + 1, r);
    });
    parse_ns.push_back(static_cast<double>(pns) / static_cast<double>(lines.size()));

    // The answers the cluster formats for this batch.
    std::vector<apc::AtomId> atoms;
    std::vector<apc::Behavior> behaviors;
    for (const Item& it : batches[b].items) {
      if (it.query)
        behaviors.push_back(in.ref->query(pool[it.hi], it.ingress));
      else
        atoms.push_back(in.ref->classify(pool[it.hi]));
    }
    std::size_t bytes = 0;
    const std::int64_t fns = timed(tr, "server.format_answers", req, 0, [&] {
      for (const apc::AtomId a : atoms) bytes += ("A " + std::to_string(a)).size();
      for (const auto& beh : behaviors)
        bytes += apc::server::format_behavior_summary(beh).size();
    });
    if (bytes == 0) throw std::runtime_error("format sweep produced nothing");
    format_ns.push_back(static_cast<double>(fns) /
                        static_cast<double>(atoms.size() + behaviors.size()));
  }
  rep.add("server.parse_ns_per_line", median(parse_ns), "ns");
  rep.add("server.format_ns_per_line", median(format_ns), "ns");
  std::printf("layer server: parse %.1f ns/line, format %.1f ns/line (n=%zu batches)\n",
              median(parse_ns), median(format_ns), parse_ns.size());
}

void cluster_sweep(const SweepInputs& in, Tracer& tr, Report& rep) {
  apc::server::ShardedCluster& cluster = *in.cluster;
  std::vector<double> pin_ns;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t req = tr.next_request();
    std::uint64_t epoch = 0;
    pin_ns.push_back(static_cast<double>(
        timed(tr, "cluster.pin", req, 0, [&] { epoch = cluster.pin().epoch; })));
    (void)epoch;
  }

  std::vector<double> batch_ns;
  const std::int64_t deadline = now_ns() + kSweepNs;
  for (std::size_t b = 0; now_ns() < deadline; b = (b + 1) % in.batches->size()) {
    std::vector<apc::server::ShardedCluster::BatchItem> items;
    for (const Item& it : (*in.batches)[b].items)
      items.push_back({it.query, (*in.pool)[it.hi], it.ingress});
    const std::uint64_t req = tr.next_request();
    std::size_t lines = 0;
    const std::int64_t ns = timed(tr, "cluster.run_batch", req, 0,
                                  [&] { lines = cluster.run_batch(items).lines.size(); });
    batch_ns.push_back(static_cast<double>(ns) / static_cast<double>(lines));
  }

  std::vector<double> update_ms;
  for (int i = 0; i < kReplayUpdates; ++i) {
    const bool add = *in.cluster_minus;
    const std::uint64_t req = tr.next_request();
    update_ms.push_back(ns_to_ms(
        timed(tr, add ? "cluster.add_rule" : "cluster.remove_rule", req, 0, [&] {
          if (add)
            cluster.add_rule(in.route);
          else
            cluster.remove_rule(in.route);
        })));
    *in.cluster_minus = !add;
  }
  rep.add("cluster.pin_ns", median(pin_ns), "ns");
  rep.add("cluster.run_batch_ns_per_line", median(batch_ns), "ns");
  rep.add("cluster.update_ms", median(update_ms), "ms");
  std::printf("layer cluster: pin %.0f ns (n=%zu), run_batch %.1f ns/line (n=%zu), "
              "update p50 %.3f ms (n=%zu)\n",
              median(pin_ns), pin_ns.size(), median(batch_ns), batch_ns.size(),
              median(update_ms), update_ms.size());
}

/// Classifier mutation followed by a snapshot publish, as one update of the
/// engine's writer side would run them (serial build threads, one worker).
void classifier_publish_sweep(const SweepInputs& in, Tracer& tr, Report& rep) {
  apc::ApClassifier& ref = *in.ref;
  apc::util::TaskPool pool(engine_options().num_threads);
  const FlatSnapshot::Options so;  // the engine's defaults
  const double max_dirty = engine_options().delta_max_dirty_fraction;
  ref.take_atom_delta();

  std::vector<double> freeze_ms, compile_ms, table_ms;
  std::shared_ptr<const FlatSnapshot> prev;
  for (int i = 0; i < kColdBuilds; ++i) {
    const std::uint64_t req = tr.next_request();
    freeze_ms.push_back(ns_to_ms(timed(tr, "engine.freeze", req, 0, [&] {
      prev = FlatSnapshot::build(ref, so, &pool);
    })));
    compile_ms.push_back(prev->program_compile_seconds() * 1e3);
    table_ms.push_back(prev->behavior_table_build_seconds() * 1e3);
  }

  std::vector<double> insert_ms, remove_ms, publish_ms, delta_ms, cold_ms;
  double splits = 0.0;
  for (int i = 0; i < kReplayUpdates; ++i) {
    const bool add = (i % 2) == 1;
    const std::uint64_t req = tr.next_request();
    const std::int64_t t0 = now_ns();
    const std::uint32_t root = tr.record("replay.update", req, 0, t0, t0);
    apc::ApClassifier::RuleUpdateResult res;
    const std::int64_t mut = timed(
        tr, add ? "classifier.insert_fib_rule" : "classifier.remove_fib_rule", req, root,
        [&] {
          res = add ? ref.insert_fib_rule(in.route.box, in.route.rule)
                    : ref.remove_fib_rule(in.route.box, in.route.rule);
        });
    (add ? insert_ms : remove_ms).push_back(ns_to_ms(mut));
    splits += static_cast<double>(res.atoms_split);

    const apc::AtomDelta delta = ref.take_atom_delta();
    const double changed = static_cast<double>(delta.killed.size() + delta.added.size() +
                                               delta.dirty.size());
    const double live = static_cast<double>(std::max<std::size_t>(ref.atom_count(), 1));
    const bool engine_takes_delta = delta.valid && changed <= max_dirty * live;
    std::shared_ptr<const FlatSnapshot> next, cold;
    const double d = ns_to_ms(timed(tr, "engine.build_delta", req, root, [&] {
      next = FlatSnapshot::build_delta(ref, so, &pool, *prev, delta);
    }));
    const double c = ns_to_ms(timed(tr, "engine.build", req, root,
                                    [&] { cold = FlatSnapshot::build(ref, so, &pool); }));
    delta_ms.push_back(d);
    cold_ms.push_back(c);
    publish_ms.push_back(engine_takes_delta ? d : c);
    prev = next;
    tr.close(root, now_ns());
  }
  rep.add("classifier.insert_fib_rule_ms", median(insert_ms), "ms");
  rep.add("classifier.remove_fib_rule_ms", median(remove_ms), "ms");
  rep.add("classifier.atoms_split_per_update", splits / kReplayUpdates, "count");
  rep.add("engine.publish_ms", median(publish_ms), "ms");
  rep.add("engine.delta_publish_ratio", median(delta_ms) / median(cold_ms), "ratio");
  rep.add("engine.program_compile_ms", median(compile_ms), "ms");
  rep.add("engine.behavior_table_build_ms", median(table_ms), "ms");
  rep.add("engine.freeze_ms", median(freeze_ms), "ms");
  std::printf("layer classifier: insert %.3f ms, remove %.3f ms, %.1f atoms split/update "
              "(n=%d)\n",
              median(insert_ms), median(remove_ms), splits / kReplayUpdates,
              kReplayUpdates);
  std::printf("layer engine publish: p50 %.3f ms (build_delta %.3f / build %.3f ms), "
              "freeze %.3f ms, program compile %.3f ms, behavior table %.3f ms\n",
              median(publish_ms), median(delta_ms), median(cold_ms), median(freeze_ms),
              median(compile_ms), median(table_ms));
}

void engine_query_sweep(const SweepInputs& in, Tracer& tr, Report& rep) {
  const apc::engine::QueryEngine& eng = *in.engine;
  const auto& batches = in.engine_batches;
  const auto snap = eng.snapshot();
  const apc::engine::MatchProgram* prog = snap->program();
  std::vector<apc::AtomId> out;
  std::vector<double> classify_ns, query_ns, kernel_ns;
  const std::int64_t deadline = now_ns() + 2 * kSweepNs;
  // Classify batch i and query batch i + 1, as the workloads do.
  for (std::size_t i = 0; now_ns() < deadline; i = (i + 2) % batches.size()) {
    const auto& hs = batches[i];
    const std::size_t q = (i + 1) % batches.size();
    const double n = static_cast<double>(hs.size());
    const std::uint64_t req = tr.next_request();
    std::size_t answered = 0;
    classify_ns.push_back(static_cast<double>(timed(tr, "engine.classify_batch", req, 0, [&] {
                            answered += eng.classify_batch(hs).size();
                          })) / n);
    query_ns.push_back(static_cast<double>(timed(tr, "engine.query_batch", req, 0, [&] {
                         answered += eng.query_batch(batches[q], in.engine_ingress[q]).size();
                       })) / static_cast<double>(batches[q].size()));
    if (answered != hs.size() + batches[q].size())
      throw std::runtime_error("engine sweep lost answers");
    if (!prog) continue;
    out.resize(hs.size());
    kernel_ns.push_back(static_cast<double>(timed(tr, "engine.kernel_run_batch", req, 0, [&] {
                          prog->run_batch(hs.data(), nullptr, hs.size(), out.data());
                        })) / n);
  }
  rep.add("engine.classify_ns_per_header", median(classify_ns), "ns");
  rep.add("engine.query_ns_per_header", median(query_ns), "ns");
  rep.add("engine.kernel_ns_per_header", median(kernel_ns), "ns");
  std::printf("layer engine query: classify %.1f ns/header, query %.1f ns/header, "
              "kernel %.1f ns/header%s (n=%zu batch pairs)\n",
              median(classify_ns), median(query_ns), median(kernel_ns),
              prog ? "" : " [no compiled program]", classify_ns.size());
}

}  // namespace

void construction_sweep(const apc::NetworkModel& net, Tracer& tr, Report& rep) {
  const std::uint64_t req = tr.next_request();
  {
    auto mgr = apc::datasets::Dataset::make_manager();
    std::int64_t total = 0;
    for (std::size_t b = 0; b < net.fibs.size(); ++b)
      total += timed(tr, "rules.compile_fib", req, 0,
                     [&] { (void)apc::compile_fib(*mgr, net.fibs[b]); });
    for (const auto* acls : {&net.input_acls, &net.output_acls})
      for (const auto& entry : *acls)
        total += timed(tr, "rules.compile_acl", req, 0,
                       [&] { (void)apc::compile_acl(*mgr, entry.second); });
    rep.add("rules.compile_s", static_cast<double>(total) * 1e-9, "s");
  }

  auto mgr = apc::datasets::Dataset::make_manager();
  apc::PredicateRegistry reg;
  const apc::CompiledNetwork cn = apc::compile_network(net, *mgr, reg);
  apc::AtomsOptions ao;
  ao.threads = 0;  // the classifier's default construction threads
  apc::AtomUniverse uni;
  const std::int64_t atoms_ns =
      timed(tr, "ap.compute_atoms", req, 0, [&] { uni = apc::compute_atoms(reg, ao); });
  apc::BuildOptions bo;
  bo.threads = 0;
  std::size_t tree_nodes = 0;
  const std::int64_t tree_ns = timed(tr, "aptree.build_tree", req, 0, [&] {
    tree_nodes = apc::build_tree(reg, uni, bo).node_count();
  });
  const auto& ops = mgr->op_stats();
  const double lookups = static_cast<double>(ops.cache_hits + ops.cache_misses);
  rep.add("ap.compute_atoms_s", static_cast<double>(atoms_ns) * 1e-9, "s");
  rep.add("aptree.build_tree_s", static_cast<double>(tree_ns) * 1e-9, "s");
  rep.add("bdd.nodes", static_cast<double>(mgr->allocated_node_count()), "count");
  rep.add("bdd.op_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(ops.cache_hits) / lookups : 0.0, "ratio");
  std::printf("layer construction: atoms %zu, tree nodes %zu, bdd nodes %zu, "
              "op-cache hit %.3f\n",
              uni.alive_count(), tree_nodes, mgr->allocated_node_count(),
              lookups > 0 ? static_cast<double>(ops.cache_hits) / lookups : 0.0);
}

void layer_sweeps(const SweepInputs& in, Tracer& tr, Report& rep) {
  server_sweep(in, tr, rep);
  cluster_sweep(in, tr, rep);
  classifier_publish_sweep(in, tr, rep);
  engine_query_sweep(in, tr, rep);
}

}  // namespace perfbench
