// Stack configuration, request generation, churn-route choice and the
// answer oracle shared by the workloads.
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "server/protocol.hpp"
#include "workload.hpp"

namespace perfbench {

using apc::server::RuleSpec;

apc::engine::QueryEngine::Options engine_options() {
  apc::engine::QueryEngine::Options o;
  o.num_threads = 1;    // one pool worker while measuring
  o.build_threads = 1;  // serial update path; construction is not affected
  return o;
}

apc::server::ShardedCluster::Options cluster_options() {
  apc::server::ShardedCluster::Options o;
  o.shards = 1;
  o.engine = engine_options();
  return o;  // wal_dir empty: no WAL
}

void check_thread_budget(const std::string& workload, std::size_t client_threads,
                         std::size_t server_sessions, std::size_t pool_workers) {
  const std::size_t cpus = usable_cpus();
  const std::size_t need = client_threads + server_sessions + pool_workers;
  std::printf("config: workload=%s shards=1 engine.num_threads=1 build_threads=1 "
              "construction_threads=default wal=off header_cache=default "
              "behavior_table=default compile_program=auto snapshot_delta=auto\n",
              workload.c_str());
  std::printf("config: connections=%zu client_threads=%zu server_sessions=%zu "
              "pool_workers=%zu budget=%zu/%zu cpus\n",
              server_sessions, client_threads, server_sessions, pool_workers, need, cpus);
  if (need > cpus)
    throw std::runtime_error("thread budget exceeded: " + std::to_string(need) +
                             " runnable threads on " + std::to_string(cpus) +
                             " cpus; refusing to run " + workload);
}

std::vector<Batch> make_batches(const std::vector<apc::PacketHeader>& pool,
                                std::size_t boxes, std::size_t count, apc::Rng& rng) {
  std::vector<Batch> out(count);
  for (Batch& b : out) {
    for (std::size_t i = 0; i < kBatchLines; ++i) {
      Item it;
      it.query = (i % 2) == 1;
      it.hi = static_cast<std::uint32_t>(rng.uniform(pool.size()));
      if (it.query) it.ingress = static_cast<apc::BoxId>(rng.uniform(boxes));
      b.wire += it.query ? apc::server::format_query(it.ingress, pool[it.hi])
                         : apc::server::format_classify(pool[it.hi]);
      b.wire += '\n';
      b.items.push_back(it);
    }
    b.wire += "GO\n";
  }
  return out;
}

RuleSpec pick_churn_route(apc::ApClassifier& ref) {
  apc::Rng rng(1);
  const apc::NetworkModel& net = ref.network();
  const std::size_t boxes = net.topology.box_count();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto box = static_cast<apc::BoxId>(rng.uniform(boxes));
    const apc::Fib& fib = net.fib(box);
    if (fib.rules.empty()) continue;
    const apc::ForwardingRule rule = fib.rules[rng.uniform(fib.rules.size())];
    std::size_t same = 0;
    for (const auto& r : fib.rules) same += r.dst == rule.dst;
    if (same != 1) continue;
    const auto res = ref.remove_fib_rule(box, rule);
    ref.insert_fib_rule(box, rule);
    if (res.predicates_changed > 0) return RuleSpec{box, rule};
  }
  throw std::runtime_error("no churn route changes a predicate");
}

bool AtomPartition::check(std::uint32_t got, std::uint32_t ref) {
  if (got == kUnset || ref == kUnset) return false;
  if (got >= got_to_ref_.size()) got_to_ref_.resize(got + 1, kUnset);
  if (ref >= ref_to_got_.size()) ref_to_got_.resize(ref + 1, kUnset);
  std::uint32_t& g = got_to_ref_[got];
  std::uint32_t& r = ref_to_got_[ref];
  if (g == kUnset && r == kUnset) {
    g = ref;
    r = got;
  }
  return g == ref && r == got;
}

ServeOracle::ServeOracle(apc::ApClassifier& ref,
                         const std::vector<apc::PacketHeader>& pool,
                         const RuleSpec* churn_route)
    : churn_(churn_route != nullptr), boxes_(ref.network().topology.box_count()) {
  const auto fill = [&](int s) {
    for (const auto& h : pool) {
      atom_[s].push_back(ref.classify(h));
      for (std::size_t b = 0; b < boxes_; ++b)
        summary_[s].push_back(apc::server::format_behavior_summary(
            ref.query(h, static_cast<apc::BoxId>(b))));
    }
  };
  fill(0);
  if (churn_) {
    ref.remove_fib_rule(churn_route->box, churn_route->rule);
    fill(1);
    ref.insert_fib_rule(churn_route->box, churn_route->rule);
  }
}

bool ServeOracle::classify_ok(AtomPartition& part, std::uint64_t epoch, std::uint32_t hi,
                              std::string_view line) const {
  if (line.size() < 3 || line[0] != 'A' || line[1] != ' ') return false;
  std::uint32_t got = 0;
  const auto [p, ec] = std::from_chars(line.data() + 2, line.data() + line.size(), got);
  if (ec != std::errc() || p != line.data() + line.size()) return false;
  return part.check(got, atom_[state(epoch)][hi]);
}

bool ServeOracle::query_ok(std::uint64_t epoch, std::uint32_t hi, apc::BoxId ingress,
                           std::string_view line) const {
  return line == summary_[state(epoch)][hi * boxes_ + ingress];
}

}  // namespace perfbench
