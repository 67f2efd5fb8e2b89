#include "server/cluster.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>

#include "io/line_parse.hpp"
#include "util/fault_injection.hpp"
#include "util/stats.hpp"

namespace apc::server {

namespace {

/// WAL record: "<seq> <A|R> fib <box> <prefix> <port> <prio>".
std::string make_record(std::uint64_t seq, bool add, const RuleSpec& spec) {
  RuleSpec canon = spec;
  if (canon.rule.priority < 0)
    canon.rule.priority = canon.rule.effective_priority();
  return std::to_string(seq) + ' ' + format_rule(add, canon);
}

struct Record {
  std::uint64_t seq = 0;
  bool add = false;
  RuleSpec spec;
};

Record parse_record(std::string_view rec, std::size_t recno) {
  const std::size_t sp = rec.find(' ');
  if (sp == std::string_view::npos) io::parse_fail(recno, "WAL record missing sequence");
  Record out;
  const std::string_view seq_tok = rec.substr(0, sp);
  // Sequence numbers are 64-bit; parse_uint is 32-bit-bounded, so parse
  // with the same strictness here: digits only, no overflow.
  if (seq_tok.empty()) io::parse_fail(recno, "empty sequence");
  const char* const seq_end = seq_tok.data() + seq_tok.size();
  const auto [ptr, ec] = std::from_chars(seq_tok.data(), seq_end, out.seq);
  if (ec != std::errc{} || ptr != seq_end)
    io::parse_fail(recno, "bad sequence '" + std::string(seq_tok) + "'");
  Request req;
  if (!parse_request(rec.substr(sp + 1), recno, req) ||
      (req.kind != RequestKind::kAddRule && req.kind != RequestKind::kRemoveRule))
    io::parse_fail(recno, "WAL record is not a rule update");
  out.add = req.kind == RequestKind::kAddRule;
  out.spec = req.rule;
  return out;
}

/// Refuses a WAL directory written by the replicated layout: its
/// shard<i>.wal files (i >= 1) hold acknowledged updates that replaying
/// shard0.wal alone would silently drop.
void reject_replica_wals(const std::string& dir) {
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= 9 || name.rfind("shard", 0) != 0 ||
        name.compare(name.size() - 4, 4, ".wal") != 0)
      continue;
    const char* const first = name.data() + 5;
    const char* const last = name.data() + name.size() - 4;
    std::uint64_t i = 0;
    const auto [ptr, err] = std::from_chars(first, last, i);
    if (err == std::errc{} && ptr == last && i >= 1)
      throw Error(ErrorCode::kInvalidArgument,
                  "ShardedCluster: " + it->path().string() +
                      " was written by a multi-replica cluster; replaying only "
                      "shard0.wal would drop its updates");
  }
}

/// Rejects an update the classifier would refuse, BEFORE it is journaled:
/// a logged record that cannot apply would fail every replay of the log.
void check_update(const ApClassifier& clf, bool add, const RuleSpec& spec) {
  const NetworkModel& net = clf.network();
  require(spec.box < net.topology.box_count(), ErrorCode::kInvalidArgument,
          "cluster: update names an unknown box");
  if (add)
    require(spec.rule.egress_port < net.topology.box(spec.box).ports.size(),
            ErrorCode::kInvalidArgument, "cluster: rule references a missing port");
  else
    require(clf.has_fib_rule(spec.box, spec.rule), ErrorCode::kInvalidArgument,
            "cluster: remove names no installed rule");
}

Error batch_shed() {
  return Error(ErrorCode::kUnavailable,
               "cluster: batch shed (engine admission cap reached); retry later");
}

}  // namespace

ShardedCluster::ShardedCluster(const NetworkModel& net, Options opts)
    : opts_(std::move(opts)) {
  require(opts_.shards == 1, ErrorCode::kInvalidArgument,
          "ShardedCluster: shards must be 1 (the cluster holds one engine)");
  opts_.engine.snapshot_path.clear();  // see Options::engine
  mgr_ = std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
  clf_ = std::make_unique<ApClassifier>(net, mgr_, opts_.classifier);
  if (!opts_.wal_dir.empty()) {
    reject_replica_wals(opts_.wal_dir);
    std::vector<std::string> records;
    wal_ = std::make_unique<io::Wal>(opts_.wal_dir + "/shard0.wal", opts_.wal, &records);
    // Replay onto the classifier BEFORE the engine exists, so the initial
    // publish (epoch 0) already reflects the whole journal.
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record r = parse_record(records[i], i + 1);
      next_seq_ = std::max(next_seq_, r.seq + 1);
      if (r.add)
        clf_->insert_fib_rule(r.spec.box, r.spec.rule);
      else
        clf_->remove_fib_rule(r.spec.box, r.spec.rule);
    }
    updates_applied_.store(records.size(), std::memory_order_relaxed);
  }
  engine_ = std::make_shared<engine::QueryEngine>(*clf_, opts_.engine);
}

std::shared_ptr<const engine::QueryEngine> ShardedCluster::shard(std::size_t i) const {
  require(i == 0, ErrorCode::kInvalidArgument,
          "ShardedCluster::shard: the cluster holds one engine (index 0)");
  return engine_;
}

ShardedCluster::BatchResult ShardedCluster::run_batch(
    const std::vector<BatchItem>& items) const {
  const auto t0 = std::chrono::steady_clock::now();
  if (util::fault_fires("cluster.batch"))
    throw Error(ErrorCode::kInternal, "cluster: injected batch fault");
  const engine::QueryEngine::Pinned pinned = engine_->pin();
  const engine::FlatSnapshot& snap = *pinned.snapshot;
  BatchResult out;
  out.epoch = pinned.epoch;
  out.lines.resize(items.size());

  // Classifies run as one engine call; queries as one call per distinct
  // ingress, so they are grouped by ingress (stable within a group).
  std::vector<std::size_t> classify_ix, query_ix;
  for (std::size_t i = 0; i < items.size(); ++i)
    (items[i].is_query ? query_ix : classify_ix).push_back(i);
  std::sort(query_ix.begin(), query_ix.end(), [&](std::size_t a, std::size_t b) {
    return items[a].ingress != items[b].ingress ? items[a].ingress < items[b].ingress
                                                : a < b;
  });

  std::vector<PacketHeader> hs;
  if (!classify_ix.empty()) {
    hs.reserve(classify_ix.size());
    for (const std::size_t i : classify_ix) hs.push_back(items[i].header);
    auto atoms = engine_->try_classify_batch_on(snap, hs.data(), hs.size());
    if (!atoms) throw batch_shed();
    for (std::size_t k = 0; k < classify_ix.size(); ++k)
      out.lines[classify_ix[k]] = "A " + std::to_string((*atoms)[k]);
  }
  for (std::size_t start = 0, end = 0; start < query_ix.size(); start = end) {
    const BoxId ingress = items[query_ix[start]].ingress;
    hs.clear();
    for (end = start; end < query_ix.size() && items[query_ix[end]].ingress == ingress;
         ++end)
      hs.push_back(items[query_ix[end]].header);
    auto behaviors = engine_->try_query_batch_on(snap, hs.data(), hs.size(), ingress);
    if (!behaviors) throw batch_shed();
    for (std::size_t k = start; k < end; ++k)
      out.lines[query_ix[k]] = format_behavior_summary((*behaviors)[k - start]);
  }
  batch_ns_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return out;
}

std::uint64_t ShardedCluster::apply_update(bool add, const RuleSpec& spec) {
  std::lock_guard<std::mutex> lock(update_mu_);
  if (read_only())
    throw Error(ErrorCode::kUnavailable,
                "cluster: read-only until restart (WAL poisoned or an update "
                "failed after journaling); update refused");
  check_update(*clf_, add, spec);
  // Journal before mutate.  The sequence is consumed even when the append
  // fails: a failed-but-possibly-durable frame must never share its number
  // with a later, different record.  Gaps are harmless.
  const std::uint64_t seq = next_seq_++;
  if (wal_) {
    try {
      wal_->append(make_record(seq, add, spec));
    } catch (const Error& e) {
      if (!wal_->poisoned()) throw;  // transient budget exhausted: retry later
      read_only_.store(true, std::memory_order_release);
      wal_poisonings_.fetch_add(1, std::memory_order_relaxed);
      throw Error(ErrorCode::kUnavailable,
                  std::string("cluster: WAL poisoned, read-only until restart; "
                              "this update's outcome is unknown until then (its "
                              "record may already be on disk): ") +
                      e.what());
    }
  }
  try {
    if (util::fault_fires("cluster.update"))
      throw Error(ErrorCode::kInternal, "cluster: injected update fault");
    if (add)
      engine_->insert_fib_rule(spec.box, spec.rule);
    else
      engine_->remove_fib_rule(spec.box, spec.rule);
  } catch (const std::exception& e) {
    // The record is journaled but memory may not reflect it: only a restart
    // that replays the log brings the two back together.
    read_only_.store(true, std::memory_order_release);
    throw Error(ErrorCode::kUnavailable,
                std::string("cluster: update failed after journaling, read-only "
                            "until restart: ") +
                    e.what());
  }
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  return engine_->snapshot_epoch();
}

std::uint64_t ShardedCluster::add_rule(const RuleSpec& spec) {
  return apply_update(true, spec);
}

std::uint64_t ShardedCluster::remove_rule(const RuleSpec& spec) {
  return apply_update(false, spec);
}

obs::MetricsSnapshot ShardedCluster::stats() const {
  // Under the update lock: the engine registry includes classifier callback
  // rows that must not race a mutation.
  std::lock_guard<std::mutex> lock(update_mu_);
  obs::MetricsRegistry reg;
  reg.register_fn("cluster.epoch",
                  [this] { return static_cast<double>(epoch()); }, "count");
  reg.register_fn("cluster.updates_applied",
                  [this] { return static_cast<double>(updates_applied()); },
                  "count");
  reg.register_fn("cluster.read_only", [this] { return read_only() ? 1.0 : 0.0; },
                  "bool");
  reg.register_fn("cluster.wal_poisonings",
                  [this] { return static_cast<double>(wal_poisonings_.load(
                               std::memory_order_relaxed)); },
                  "count");
  reg.register_fn("cluster.peak_rss_bytes",
                  [] { return static_cast<double>(util::peak_rss_bytes()); },
                  "bytes");
  engine_->register_metrics(reg, "engine");
  obs::MetricsSnapshot out = reg.snapshot();
  // Batch service time (an idle cluster's empty histogram reads 0 in every
  // row).
  const obs::LatencyHistogram::Summary batch = batch_ns_.summary();
  out.rows.push_back({"cluster.batch_us.p50", batch.p50 * 1e-3, "us"});
  out.rows.push_back({"cluster.batch_us.p99", batch.p99 * 1e-3, "us"});
  out.rows.push_back(
      {"cluster.batch_us.count", static_cast<double>(batch.count), "count"});
  if (wal_) {
    out.rows.push_back({"cluster.wal_records",
                        static_cast<double>(wal_->records_appended().value()), "count"});
    out.rows.push_back(
        {"cluster.wal_bytes", static_cast<double>(wal_->size_bytes()), "bytes"});
  }
  out.rows.push_back(
      {"wal.retries", wal_ ? static_cast<double>(wal_->retries().value()) : 0.0,
       "count"});
  return out;
}

}  // namespace apc::server
