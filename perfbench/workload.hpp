// The three workloads, the stack configuration they share, the answer
// oracle, and the per-layer sweeps of the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "classifier/classifier.hpp"
#include "engine/engine.hpp"
#include "server/cluster.hpp"
#include "util/rng.hpp"

namespace perfbench {

// ---- Stack configuration (identical in every workload) ----

/// One shard, one pool worker, one build thread during the measured phase;
/// construction keeps the classifier's default threads; WAL off; every
/// other knob at its shipped default.
apc::server::ShardedCluster::Options cluster_options();
apc::engine::QueryEngine::Options engine_options();

/// Prints the stack configuration and the thread budget, and refuses the
/// workload (throws) when client threads + server sessions + pool workers
/// exceed the CPUs this process may use.
void check_thread_budget(const std::string& workload, std::size_t client_threads,
                         std::size_t server_sessions, std::size_t pool_workers);

// ---- Requests ----

/// One C or Q line of a batch; `hi` indexes the workload's header pool.
struct Item {
  bool query = false;
  std::uint32_t hi = 0;
  apc::BoxId ingress = 0;
};

/// A 64-line batch: the bytes sent (C/Q lines then GO) and what they ask.
struct Batch {
  std::string wire;
  std::vector<Item> items;
};

inline constexpr std::size_t kBatchLines = 64;

/// `count` batches of 32 C + 32 Q lines (interleaved) over `pool`, Q lines
/// from uniformly random ingress boxes.
std::vector<Batch> make_batches(const std::vector<apc::PacketHeader>& pool,
                                std::size_t boxes, std::size_t count, apc::Rng& rng);

/// A FIB route whose removal changes at least one port predicate and whose
/// prefix is unique in its box, so "R fib" then "A fib" of it returns the
/// network to exactly its base state.  `ref` is left in its base state.
/// The choice is fixed per network, not drawn from the workload seed:
/// update cost differs twofold between routes (some leave more tombstoned
/// atoms behind per R/A pair), which would swamp run-to-run noise.
apc::server::RuleSpec pick_churn_route(apc::ApClassifier& ref);

// ---- Oracle ----

/// Incremental check of "two headers get the same atom id iff the
/// reference puts them in one atom", within one epoch.
class AtomPartition {
 public:
  bool check(std::uint32_t got, std::uint32_t ref);

 private:
  static constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  std::vector<std::uint32_t> got_to_ref_, ref_to_got_;  ///< indexed by atom id
};

/// Expected answers for the header pool in the base state and, with a
/// churn route, in the base-minus-route state (odd epochs: the updater
/// alternates R then A starting from epoch 0).
class ServeOracle {
 public:
  ServeOracle(apc::ApClassifier& ref, const std::vector<apc::PacketHeader>& pool,
              const apc::server::RuleSpec* churn_route);

  /// The atom-partition check of `epoch` (created on first use).
  AtomPartition& partition(std::uint64_t epoch) { return parts_[epoch]; }
  bool classify_ok(AtomPartition& part, std::uint64_t epoch, std::uint32_t hi,
                   std::string_view line) const;
  bool query_ok(std::uint64_t epoch, std::uint32_t hi, apc::BoxId ingress,
                std::string_view line) const;

 private:
  int state(std::uint64_t epoch) const { return churn_ ? static_cast<int>(epoch & 1) : 0; }

  bool churn_;
  std::size_t boxes_;
  std::vector<apc::AtomId> atom_[2];
  std::vector<std::string> summary_[2];  ///< [hi * boxes + ingress]
  std::unordered_map<std::uint64_t, AtomPartition> parts_;
};

// ---- Per-layer sweeps (traced run) ----

/// Times rules::compile_fib / compile_acl per box, then compute_atoms and
/// build_tree on a fresh manager; adds the rules.*, ap.*, aptree.* and
/// bdd.* rows.
void construction_sweep(const apc::NetworkModel& net, Tracer& tr, Report& rep);

struct SweepInputs {
  apc::ApClassifier* ref = nullptr;  ///< mutated by the replay, left in base state
  apc::server::RuleSpec route;
  const std::vector<apc::PacketHeader>* pool = nullptr;
  const std::vector<Batch>* batches = nullptr;
  apc::server::ShardedCluster* cluster = nullptr;
  bool* cluster_minus = nullptr;  ///< the cluster holds base minus route
  const apc::engine::QueryEngine* engine = nullptr;
  /// Engine batches as the workload's traffic shapes them, each with the
  /// ingress its query_batch uses.
  std::vector<std::vector<apc::PacketHeader>> engine_batches;
  std::vector<apc::BoxId> engine_ingress;
};

/// Times parse/format, cluster pin/run_batch/update, classifier
/// insert/remove with a snapshot publish after each, and the engine batch
/// and kernel calls; adds the server.parse/format, cluster.*, classifier.*
/// and engine.* rows (engine.freeze_ms included, the header-cache hit
/// ratio excluded).
void layer_sweeps(const SweepInputs& in, Tracer& tr, Report& rep);

// ---- Workloads ----

Report run_serve_query(const Args& args, Tracer& tr);
Report run_update_churn(const Args& args, Tracer& tr);
Report run_engine_cold(const Args& args, Tracer& tr);

}  // namespace perfbench
