// ShardedCluster — the serving core behind TcpServer: one AP classifier
// (BddManager + ApClassifier + QueryEngine) and at most one write-ahead log
// (see docs/architecture.md, "Serving layer" and "Overload & failure
// handling").
//
// Epochs.  The cluster epoch is the engine's publish epoch: 0 once
// construction has replayed the WAL, +1 per applied update.  A batch pins
// one snapshot together with its epoch (QueryEngine::pin) and answers every
// item from it, so a reply never mixes two publishes and the epoch it
// reports names the exact state that answered it.
//
// Updates serialize on one mutex: validate, journal the record to the WAL,
// then apply it through the engine, which republishes.  Failure semantics:
//   * a batch the engine sheds (admission cap) fails with kUnavailable;
//     nothing else changes, and the next batch is admitted normally;
//   * a poisoned WAL (a failed fsync) makes the cluster read-only: updates
//     get kUnavailable while queries keep serving, until a restart replays
//     the log.  The update that hit the poison may already be on disk, so
//     its outcome is unknown until that restart;
//   * an engine update that throws after its record was journaled leaves
//     memory behind the log, so it makes the cluster read-only too.
//
// The class name, Options::shards (which must be 1) and shard(0) remain from
// an earlier replicated design so existing callers keep compiling.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "classifier/classifier.hpp"
#include "engine/engine.hpp"
#include "io/wal.hpp"
#include "obs/metrics.hpp"
#include "server/protocol.hpp"

namespace apc::server {

class ShardedCluster {
 public:
  struct Options {
    /// Must be 1 (anything else is kInvalidArgument): the cluster holds one
    /// engine.
    std::size_t shards = 1;
    /// Engine knobs.  snapshot_path is cleared — the WAL is the cluster's
    /// durability story; a warm-restored snapshot could predate the
    /// replayed log and serve stale answers.
    engine::QueryEngine::Options engine;
    ApClassifier::Options classifier;
    /// Directory holding the WAL ("shard0.wal"); empty = no durability
    /// (updates live only in memory).
    std::string wal_dir;
    io::WalOptions wal;
  };

  /// Builds the classifier for `net`, replays `<wal_dir>/shard0.wal` in file
  /// order, then publishes epoch 0.  Throws kInvalidArgument when wal_dir
  /// holds a `shard<i>.wal` with i >= 1: such a directory was written by the
  /// replicated layout, and replaying only shard0.wal would silently drop
  /// acknowledged updates.
  ShardedCluster(const NetworkModel& net, Options opts);

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// The published epoch (never decreases).
  std::uint64_t epoch() const { return engine_->snapshot_epoch(); }
  /// The current snapshot and its epoch, read together.
  engine::QueryEngine::Pinned pin() const { return engine_->pin(); }

  /// One buffered C/Q line awaiting GO.
  struct BatchItem {
    bool is_query = false;  ///< false = classify (C), true = query (Q)
    PacketHeader header;
    BoxId ingress = 0;  ///< queries only
  };
  struct BatchResult {
    std::uint64_t epoch = 0;         ///< the pinned epoch
    std::vector<std::string> lines;  ///< one answer line per item, in order
  };
  /// Answers a mixed batch from ONE pinned snapshot, in input order
  /// ("A <atom>" / format_behavior_summary lines).  Throws
  /// apc::Error(kUnavailable) when the engine sheds the batch.
  BatchResult run_batch(const std::vector<BatchItem>& items) const;

  /// Journals then applies one FIB update; returns the new epoch.  Throws
  /// kInvalidArgument for an update the classifier would refuse (checked
  /// before anything is journaled) and kUnavailable while read-only.
  std::uint64_t add_rule(const RuleSpec& spec);
  std::uint64_t remove_rule(const RuleSpec& spec);

  /// The engine, for differential tests and benchmarks; `i` must be 0.  The
  /// engine references the cluster's classifier: do not use it after the
  /// cluster is gone.
  std::shared_ptr<const engine::QueryEngine> shard(std::size_t i) const;

  /// True once a poisoned WAL or a failed update has stopped updates.
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }
  /// Updates applied (replayed + add + remove) since construction.
  std::uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }

  /// Cluster rows (epoch, updates, read-only, batch latency, WAL) plus the
  /// engine inventory under "engine.".  Materialized under the update lock
  /// so callback rows never race a mutation.
  obs::MetricsSnapshot stats() const;

 private:
  std::uint64_t apply_update(bool add, const RuleSpec& spec);

  Options opts_;
  // Declaration order is destruction order reversed: the engine references
  // the classifier, which references the manager.
  std::shared_ptr<bdd::BddManager> mgr_;
  std::unique_ptr<ApClassifier> clf_;
  std::shared_ptr<engine::QueryEngine> engine_;
  std::unique_ptr<io::Wal> wal_;  ///< guarded by update_mu_
  mutable obs::LatencyHistogram batch_ns_;
  mutable std::mutex update_mu_;
  std::uint64_t next_seq_ = 1;  ///< WAL record sequence; guarded by update_mu_
  std::atomic<bool> read_only_{false};
  std::atomic<std::uint64_t> updates_applied_{0};
  std::atomic<std::uint64_t> wal_poisonings_{0};
};

}  // namespace apc::server
