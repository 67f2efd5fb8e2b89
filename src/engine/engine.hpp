// QueryEngine — snapshot-based concurrent batch query engine.
//
// The paper's headline claim is stage-1 throughput (Figs. 12/14).  This
// engine serves that workload from FlatSnapshots: immutable, manager-free
// freezes of the AP Tree (see snapshot.hpp) published RCU-style.
//
//   readers                 writer (one at a time)
//   -------                 ----------------------
//   s = snapshot()          lock writer mutex
//   s->classify(h) ...      mutate ApClassifier (add/remove predicate,
//   (never blocks,           rule updates, rebuild) — BDD work happens here
//    never sees a           build a fresh FlatSnapshot off to the side
//    half-updated tree)     atomically swap the shared_ptr  (release)
//
// Readers acquire the current snapshot pointer and keep the shared_ptr
// alive for the duration of their batch, so a snapshot retires only after
// its last reader drops it.  Updates therefore never block in-flight
// queries and queries never observe intermediate tree states.
//
// The publication slot is a mutex-guarded shared_ptr rather than
// std::atomic<std::shared_ptr>: libstdc++'s lock-bit implementation
// releases its load() lock with a relaxed RMW, which leaves no provable
// happens-before edge to the next store()'s pointer swap (TSan flags it).
// The guarded slot's critical section is a single refcount bump — queries
// themselves never hold the lock.
//
// classify_batch()/query_batch() fan a vector of headers across a small
// worker pool; every item in one batch is answered from one snapshot, so a
// batch is atomic with respect to updates.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "classifier/classifier.hpp"
#include "engine/snapshot.hpp"
#include "util/task_pool.hpp"

namespace apc::engine {

/// How republication builds the next snapshot from the classifier's
/// accumulated atom delta (ApClassifier::take_atom_delta).
enum class SnapshotDeltaPolicy : std::uint8_t {
  /// Delta build when the dirty fraction is small enough
  /// (Options::delta_max_dirty_fraction), full build otherwise.
  kAuto,
  /// Delta build whenever a valid delta and a previous snapshot exist.
  kAlways,
  /// Always build cold (the pre-delta behavior).
  kNever,
};

class QueryEngine {
 public:
  struct Options {
    /// Worker threads for batch fan-out (the calling thread always
    /// participates too).  0 = hardware_concurrency - 1 workers, so total
    /// batch parallelism matches hardware_concurrency — the same "0 means
    /// all cores" convention as every other threads knob in the repo.
    std::size_t num_threads = 0;
    /// Headers per work chunk when fanning out a batch.
    std::size_t batch_grain = 256;
    /// Construction threads used by every mutation that goes through
    /// update() — atom recomputation and tree rebuilds fan out on this many
    /// threads (see docs/architecture.md, "Parallel construction
    /// pipeline").  0 = keep the classifier's own setting (whose default is
    /// hardware_concurrency).
    std::size_t build_threads = 0;
    /// Memory budget for each snapshot's (atom x ingress) behavior table:
    /// below it the table is precomputed at publish time, above it cells
    /// fill lazily, 0 turns the table off (behavior_of() walks the
    /// topology).  See FlatSnapshot::Options and docs/architecture.md,
    /// "Query path".
    std::size_t behavior_table_budget = 64u << 20;
    /// Per-snapshot header -> atom cache capacity in slots (~64 bytes per
    /// slot; rounded up to a power of two).  0 disables the cache.
    std::size_t header_cache_capacity = 1u << 15;
    /// Header-cache shard count (power of two); 0 = auto-size from
    /// capacity.
    std::size_t header_cache_shards = 0;
    /// Whether each published snapshot compiles its frozen tree+BDDs into a
    /// flat branchless match program (engine/program.hpp) that cache misses
    /// execute instead of the interpreted walk.  kAuto compiles when the
    /// program fits MatchProgram::kAutoProgramBytes; kNever keeps the
    /// interpreted lockstep walk.  Delta publishes share the retiring
    /// snapshot's program when the frozen arrays are unchanged.
    ProgramMode compile_program = ProgramMode::kAuto;
    /// Durable snapshot file (empty = off).  At construction a valid file
    /// here is warm-restored — the engine serves queries from it without
    /// paying the freeze/precompute cost — and every publish (including the
    /// initial one) atomically saves the fresh snapshot back.  A missing or
    /// corrupt file falls back to a normal build; a failed save is counted
    /// and tolerated (serving continues).  See snapshot.hpp and
    /// docs/architecture.md, "Fault tolerance & durability".
    std::string snapshot_path;
    /// Warm restore via mmap (README knob `snapshot_mmap`): map a v2
    /// snapshot file read-only instead of parsing it into the heap, so
    /// restore cost is page faults, not bytes, and the frozen arena is
    /// shared page cache across processes.  Falls back to an owned read
    /// when mmap is compiled out (APC_FORCE_NO_MMAP) or the file is v1.
    bool snapshot_mmap = true;
    /// How much of a mapped snapshot the restore prefaults (madvise
    /// WILLNEED): kHot = tree + match program, kAll = whole arena, kNone =
    /// pure demand paging.  Irrelevant for owned storage.
    PrefaultPolicy snapshot_prefault = PrefaultPolicy::kHot;
    /// Republication strategy: seed each new snapshot's behavior table and
    /// header cache from the retiring one (FlatSnapshot::build_delta) or
    /// start cold.  Delta publication is bit-equivalent to a full build for
    /// every query — only warm-up cost differs.
    SnapshotDeltaPolicy snapshot_delta = SnapshotDeltaPolicy::kAuto;
    /// kAuto threshold: use the delta path when the changed atoms
    /// (killed + added + dirty) are at most this fraction of the live atom
    /// count.  Above it most rows need recomputing anyway and the carry
    /// pass is pure overhead.
    double delta_max_dirty_fraction = 0.5;
    /// Admission cap: at most this many batch queries in flight at once.
    /// Excess classify_batch()/query_batch() calls fail fast with
    /// apc::Error(kUnavailable) (the try_* variants return nullopt instead)
    /// rather than piling onto the pool.  0 = unbounded.
    std::size_t max_pending_batches = 0;
  };

  /// Builds the initial snapshot from `clf`.  The engine keeps a reference:
  /// `clf` must outlive it, and all mutations of `clf` must go through the
  /// engine (or through update()) so they are serialized and republished.
  QueryEngine(ApClassifier& clf, Options opts);
  explicit QueryEngine(ApClassifier& clf) : QueryEngine(clf, Options{}) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // ---- Read side (no locks held while querying) ----
  /// Acquires the current snapshot.  Hold it to answer any number of
  /// queries against one consistent frozen state.
  std::shared_ptr<const FlatSnapshot> snapshot() const { return snap_.load(); }

  AtomId classify(const PacketHeader& h) const { return snapshot()->classify(h); }
  Behavior query(const PacketHeader& h, BoxId ingress) const {
    return snapshot()->query(h, ingress);
  }

  /// Stage-1 classification of a whole batch, fanned across the pool.
  /// The entire batch is answered from a single snapshot.  Throws
  /// apc::Error(kUnavailable) when the admission cap is reached.
  std::vector<AtomId> classify_batch(const std::vector<PacketHeader>& hs) const;
  /// Two-stage queries for a whole batch (middlebox-free networks).
  std::vector<Behavior> query_batch(const std::vector<PacketHeader>& hs,
                                    BoxId ingress) const;
  /// Non-throwing admission variants: nullopt when the engine is saturated
  /// (Options::max_pending_batches) — shed load or retry later.
  std::optional<std::vector<AtomId>> try_classify_batch(
      const std::vector<PacketHeader>& hs) const;
  std::optional<std::vector<Behavior>> try_query_batch(
      const std::vector<PacketHeader>& hs, BoxId ingress) const;

  // ---- Pinned read side (the serving cluster's entry points) ----
  // A batch that mixes classifies and per-ingress queries spans several
  // engine calls, so the cluster pins one snapshot (pin()) and runs every
  // call against that exact snapshot.  These run the same admission (RAII
  // permit — released on every path, including a worker-task throw), pool
  // fan-out, and batch observability as the unpinned variants.
  /// Fan `hs[0..n)` across the pool against caller-pinned snapshot `s`
  /// (which the caller must keep alive).  nullopt when saturated.
  std::optional<std::vector<AtomId>> try_classify_batch_on(
      const FlatSnapshot& s, const PacketHeader* hs, std::size_t n) const;
  /// Two-stage variant; requires a middlebox-free snapshot.
  std::optional<std::vector<Behavior>> try_query_batch_on(
      const FlatSnapshot& s, const PacketHeader* hs, std::size_t n,
      BoxId ingress) const;

  /// Epoch of the currently published snapshot: 0 for the initial one,
  /// +1 per publish.
  std::uint64_t snapshot_epoch() const { return snap_.epoch(); }
  /// The current snapshot together with its epoch, read under one slot
  /// lock, so the pair always names the same publish.
  struct Pinned {
    std::shared_ptr<const FlatSnapshot> snapshot;
    std::uint64_t epoch = 0;
  };
  Pinned pin() const { return snap_.pin(); }

  // ---- Write side (serialized; rebuild-and-swap publication) ----
  AddPredicateResult add_predicate(bdd::Bdd p,
                                   PredicateKind kind = PredicateKind::External,
                                   std::optional<PortId> origin = {});
  void remove_predicate(PredId id);
  ApClassifier::RuleUpdateResult insert_fib_rule(BoxId box, const ForwardingRule& r);
  ApClassifier::RuleUpdateResult remove_fib_rule(BoxId box, const ForwardingRule& r);
  ApClassifier::RuleUpdateResult set_input_acl(BoxId box, std::uint32_t port, Acl acl);
  /// Full reconstruction (optionally distribution-aware using the visit
  /// counts accumulated by retired snapshots), then republish.
  void rebuild(std::optional<BuildMethod> method = {}, bool distribution_aware = false);

  /// Applies an arbitrary mutation to the classifier under the writer lock
  /// and republishes.  Use for updates without a dedicated wrapper.
  /// Snapshot visit counts are drained into the classifier *before* `fn`
  /// runs, so a distribution-aware rebuild sees engine traffic and the
  /// counts are folded while atom ids still mean the same thing.
  template <typename Fn>
  auto update(Fn&& fn) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    drain_visits_locked();
    if constexpr (std::is_void_v<decltype(fn(clf_))>) {
      fn(clf_);
      republish_locked();
    } else {
      auto res = fn(clf_);
      republish_locked();
      return res;
    }
  }

  // ---- Introspection ----
  const ApClassifier& classifier() const { return clf_; }
  std::size_t worker_threads() const { return pool_.thread_count(); }
  std::uint64_t publish_count() const {
    return publish_count_.load(std::memory_order_relaxed);
  }
  /// Publishes that went through FlatSnapshot::build_delta (subset of
  /// publish_count; the rest were full cold builds).
  const obs::Counter& snapshot_delta_publishes() const {
    return snapshot_delta_publishes_;
  }

  // ---- Observability (see src/obs/) ----
  /// Headers answered by classify_batch()/query_batch() since construction.
  /// Monotonic — feed it to obs::QpsMeter for engine-measured throughput.
  const obs::Counter& queries_answered() const { return queries_answered_; }
  /// Seconds since the current snapshot was published.
  double snapshot_age_seconds() const;

  // ---- Durability / degradation introspection ----
  /// Warm restores performed at construction (0 or 1).
  const obs::Counter& snapshot_restores() const { return snapshot_restores_; }
  /// Successful / failed durable snapshot saves.
  const obs::Counter& snapshot_saves() const { return snapshot_saves_; }
  const obs::Counter& snapshot_save_failures() const { return snapshot_save_failures_; }
  /// Batches refused by the admission cap.
  const obs::Counter& batches_rejected() const { return batches_rejected_; }
  /// Batch queries currently in flight (only tracked when the cap is set).
  std::size_t pending_batches() const {
    return pending_batches_.load(std::memory_order_acquire);
  }

  /// RAII admission ticket for one in-flight batch (see
  /// Options::max_pending_batches): every batch entry point holds one while
  /// it runs, released on every path out.  Holding one directly occupies a
  /// slot the way a running batch does, so a test can saturate the cap
  /// deterministically.
  class BatchTicket {
   public:
    explicit BatchTicket(const QueryEngine& eng) : e_(eng), admitted_(eng.admit_batch()) {}
    ~BatchTicket() {
      if (admitted_) e_.release_batch();
    }
    BatchTicket(const BatchTicket&) = delete;
    BatchTicket& operator=(const BatchTicket&) = delete;
    /// False when the cap was already reached (nothing is held).
    explicit operator bool() const { return admitted_; }

   private:
    const QueryEngine& e_;
    const bool admitted_;
  };

  /// Registers the engine's metric inventory under `prefix`: batch latency
  /// histograms, batch sizes, publish count/age, pool counters, and the
  /// underlying classifier's metrics (under `<prefix>.classifier`).
  /// Classifier rows are callbacks into non-atomic state — snapshot the
  /// registry only while no update runs.  stats() does that for you.
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix = "engine") const;
  /// Full metric snapshot, materialized under the writer lock so callback
  /// metrics never race a concurrent update/rebuild.
  obs::MetricsSnapshot stats() const;

 private:
  /// Folds the current snapshot's visit counters into the classifier
  /// (atom ids are still aligned at this point).  Caller holds writer_mu_.
  void drain_visits_locked();
  /// Builds a fresh snapshot from the classifier and publishes it.
  /// Caller holds writer_mu_.
  void republish_locked();
  /// Saves the current snapshot to Options::snapshot_path (no-op when
  /// unset); failures are counted, never thrown.  Caller holds writer_mu_
  /// (or is the constructor).
  void persist_current_locked();

  bool admit_batch() const;
  void release_batch() const;

  /// Mutex-guarded publication slot (see the class comment for why this is
  /// not std::atomic<std::shared_ptr>).  load() copies the pointer under
  /// the lock; store() swaps it and drops the old snapshot outside the
  /// lock, so a snapshot's (potentially large) teardown never blocks
  /// readers acquiring the new one.  Each published snapshot carries an
  /// epoch tag, read together with the pointer by pin().
  class SnapshotSlot {
   public:
    std::shared_ptr<const FlatSnapshot> load() const {
      std::lock_guard<std::mutex> lock(mu_);
      return ptr_;
    }
    std::uint64_t epoch() const {
      std::lock_guard<std::mutex> lock(mu_);
      return epoch_;
    }
    Pinned pin() const {
      std::lock_guard<std::mutex> lock(mu_);
      return {ptr_, epoch_};
    }
    void store(std::shared_ptr<const FlatSnapshot> next, std::uint64_t epoch) {
      std::lock_guard<std::mutex> lock(mu_);
      ptr_.swap(next);  // `next` now holds the retiring snapshot
      epoch_ = epoch;
    }  // the lock is released before `next` drops the retiring snapshot

   private:
    mutable std::mutex mu_;
    std::shared_ptr<const FlatSnapshot> ptr_;
    std::uint64_t epoch_ = 0;
  };

  ApClassifier& clf_;
  Options opts_;
  mutable util::TaskPool pool_;
  mutable std::mutex writer_mu_;
  SnapshotSlot snap_;
  std::atomic<std::uint64_t> publish_count_{0};

  // Batch-granular probes only: one timer + two histogram records per
  // *batch*, never per packet, so the per-query hot path stays untouched.
  mutable obs::LatencyHistogram classify_batch_hist_;  // ns per batch
  mutable obs::LatencyHistogram query_batch_hist_;     // ns per batch
  mutable obs::LatencyHistogram batch_size_hist_;      // headers per batch
  obs::LatencyHistogram publish_hist_;                 // ns per republish
  mutable obs::Counter queries_answered_;
  std::atomic<std::int64_t> last_publish_ns_{0};  // steady_clock epoch ns

  // Durability / degradation (see Options::snapshot_path and
  // Options::max_pending_batches).
  obs::Counter snapshot_restores_;
  obs::Counter snapshot_saves_;
  obs::Counter snapshot_save_failures_;
  mutable std::atomic<std::size_t> pending_batches_{0};
  mutable obs::Counter batches_rejected_;
  obs::Counter snapshot_delta_publishes_;
};

}  // namespace apc::engine
