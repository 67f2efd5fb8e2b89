// A from-scratch reduced ordered binary decision diagram (ROBDD) package.
//
// This is the substrate the paper builds on: every ACL and every forwarding
// port is compiled to a predicate over the packet-header bits, and predicates
// are represented as BDDs (the paper used the JDD Java library; see
// DESIGN.md for the substitution argument).
//
// Design
//  * Nodes live in an integer-indexed pool owned by a BddManager; node 0 is
//    the FALSE terminal and node 1 is TRUE.  Indices are stable for the life
//    of a node, so external handles survive garbage collection.
//  * Hash-consing via an open-chaining unique table guarantees canonicity:
//    two equal functions are the same node index, so equality is O(1).
//  * Binary operations (AND/OR/XOR/DIFF) and NOT are memoized in a
//    direct-mapped operation cache.
//  * External references are RAII `Bdd` handles that reference-count their
//    root node.  Garbage collection is mark-and-sweep from the counted
//    roots and runs only between top-level operations, so internal
//    recursion never needs protection.
//  * Variable order is fixed at construction (header bit order); the packet
//    modules choose an order that puts the most discriminating fields first.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace apc::bdd {

using NodeRef = std::uint32_t;

inline constexpr NodeRef kFalse = 0;
inline constexpr NodeRef kTrue = 1;

class BddManager;

/// RAII reference-counted handle to a BDD root.  Copyable and movable.
/// Equality compares canonical node indices (O(1) thanks to hash-consing).
class Bdd {
 public:
  Bdd() = default;  ///< Null handle; most operations require a bound handle.
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  bool valid() const { return mgr_ != nullptr; }
  bool is_false() const { return ref_ == kFalse; }
  bool is_true() const { return ref_ == kTrue; }

  NodeRef ref() const { return ref_; }
  BddManager* manager() const { return mgr_; }

  Bdd operator&(const Bdd& other) const;
  Bdd operator|(const Bdd& other) const;
  Bdd operator^(const Bdd& other) const;
  Bdd operator!() const;
  /// Set difference: this AND NOT other.
  Bdd minus(const Bdd& other) const;
  /// True iff this implies other (this AND NOT other == false).
  bool implies(const Bdd& other) const;

  bool operator==(const Bdd& other) const {
    return mgr_ == other.mgr_ && ref_ == other.ref_;
  }
  bool operator!=(const Bdd& other) const { return !(*this == other); }

  /// Evaluate under a variable assignment.  `bit(v)` must return the value
  /// of variable v.  O(path length) <= O(num_vars).
  template <typename BitFn>
  bool eval(BitFn&& bit) const;

  /// Number of distinct nodes reachable from this root (incl. terminals).
  std::size_t node_count() const;
  /// Number of satisfying assignments over all manager variables.
  double sat_count() const;

 private:
  friend class BddManager;
  Bdd(BddManager* mgr, NodeRef ref);  // takes ownership of one reference

  BddManager* mgr_ = nullptr;
  NodeRef ref_ = kFalse;
};

class BddManager {
 public:
  /// Creates a manager over `num_vars` boolean variables (header bits).
  explicit BddManager(std::uint32_t num_vars);
  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  std::uint32_t num_vars() const { return num_vars_; }

  Bdd bdd_true();
  Bdd bdd_false();
  /// Literal: variable v.
  Bdd var(std::uint32_t v);
  /// Negative literal: NOT variable v.
  Bdd nvar(std::uint32_t v);

  /// Conjunction of literals: (var, value) pairs.  The workhorse for
  /// prefix/exact-match rule compilation.
  Bdd cube(const std::vector<std::pair<std::uint32_t, bool>>& literals);

  /// Predicate true iff bits [first_var, first_var+width) equal the low
  /// `width` bits of `value` (MSB-first within the field).
  Bdd equals(std::uint32_t first_var, std::uint32_t width, std::uint64_t value);

  /// Predicate true iff the `width`-bit field starting at `first_var`
  /// (MSB-first) is in the inclusive range [lo, hi].
  Bdd in_range(std::uint32_t first_var, std::uint32_t width, std::uint64_t lo,
               std::uint64_t hi);

  /// if-then-else.
  Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// Cofactor: fix variable v to `value`.
  Bdd restrict_var(const Bdd& f, std::uint32_t v, bool value);
  /// Existential quantification over variable v.
  Bdd exists(const Bdd& f, std::uint32_t v);

  /// Variables the function actually depends on.
  std::vector<std::uint32_t> support(const Bdd& f);

  /// One satisfying assignment (values for all variables; variables not on
  /// the chosen path default to 0).  Requires f != false.
  std::vector<std::uint8_t> any_sat(const Bdd& f);
  /// A uniformly-flavored random satisfying assignment: random branch choice
  /// weighted by subtree sat-counts; unconstrained bits randomized.
  /// `rnd()` must return a uint64 of fresh random bits.
  std::vector<std::uint8_t> random_sat(const Bdd& f,
                                       const std::function<std::uint64_t()>& rnd);

  /// Explicit mark-and-sweep garbage collection (also clears op caches).
  void gc();
  /// Runs gc() if the pool has grown past the adaptive threshold.  Safe to
  /// call only between top-level operations (all public ops do internally).
  void maybe_gc();

  /// Caps the pool at `max_nodes` occupied slots.  Once the cap is reached,
  /// any operation needing a fresh node throws apc::Error(kResourceExhausted)
  /// instead of allocating toward OOM; the manager stays consistent and
  /// usable (run gc() and retry, or raise the budget).  0 = unlimited.
  void set_node_budget(std::size_t max_nodes) { node_budget_ = max_nodes; }
  std::size_t node_budget() const { return node_budget_; }

  std::size_t live_node_count() const;          ///< nodes reachable from roots
  std::size_t allocated_node_count() const;     ///< pool slots in use (incl. garbage)
  std::size_t memory_bytes() const;             ///< approximate heap footprint
  std::size_t unique_table_buckets() const { return buckets_.size(); }

  /// Lifetime operation counters (see src/obs/).  Plain (non-atomic)
  /// members: a manager is single-threaded by contract, so the owning
  /// thread's increments are race-free and cost one add each.
  struct OpStats {
    std::uint64_t cache_hits = 0;     ///< op-cache lookups that hit
    std::uint64_t cache_misses = 0;   ///< op-cache lookups that recursed
    std::uint64_t unique_hits = 0;    ///< make_node found an existing node
    std::uint64_t nodes_created = 0;  ///< make_node allocated a fresh node
    std::uint64_t gc_runs = 0;
  };
  const OpStats& op_stats() const { return op_stats_; }
  void reset_op_stats() { op_stats_ = OpStats{}; }

  /// Graphviz dump of `f` for documentation/debugging.
  std::string to_dot(const Bdd& f, const std::string& name = "bdd") const;

  // ---- Internal (used by Bdd handles and tests) ----
  void inc_ref(NodeRef r);
  void dec_ref(NodeRef r);
  std::uint32_t node_var(NodeRef r) const { return nodes_[r].var; }
  NodeRef node_low(NodeRef r) const { return nodes_[r].low; }
  NodeRef node_high(NodeRef r) const { return nodes_[r].high; }
  /// Pool slots ever allocated (live, garbage and free): every valid
  /// NodeRef is below this, so it sizes NodeRef-indexed side arrays.
  std::size_t node_slot_count() const { return nodes_.size(); }

  template <typename BitFn>
  bool eval_ref(NodeRef r, BitFn&& bit) const {
    while (r > kTrue) {
      const Node& n = nodes_[r];
      r = bit(n.var) ? n.high : n.low;
    }
    return r == kTrue;
  }

 private:
  friend class Bdd;

  static constexpr std::uint32_t kTermVar = 0xFFFFFFFFu;
  static constexpr std::uint32_t kFreeVar = 0xFFFFFFFEu;
  static constexpr NodeRef kNil = 0xFFFFFFFFu;

  struct Node {
    std::uint32_t var;
    NodeRef low;
    NodeRef high;
    NodeRef next;  // unique-table chain / free-list link
  };

  enum class Op : std::uint8_t { And = 1, Or, Xor, Diff, Not, Ite, Exists, Restrict };

  struct CacheEntry {
    std::uint64_t key = ~std::uint64_t{0};
    NodeRef a = 0, b = 0, c = 0;
    NodeRef result = 0;
  };

  NodeRef make_node(std::uint32_t var, NodeRef low, NodeRef high);
  NodeRef apply(Op op, NodeRef f, NodeRef g);
  NodeRef apply_terminal(Op op, NodeRef f, NodeRef g, bool& hit);
  NodeRef not_rec(NodeRef f);
  NodeRef ite_rec(NodeRef f, NodeRef g, NodeRef h);
  NodeRef restrict_rec(NodeRef f, std::uint32_t v, bool value);

  std::size_t bucket_of(std::uint32_t var, NodeRef low, NodeRef high) const;
  void rehash(std::size_t new_bucket_count);
  void cache_clear();

  CacheEntry& cache_slot(std::uint64_t key, NodeRef a, NodeRef b, NodeRef c);

  double sat_count_rec(NodeRef r, std::vector<double>& memo) const;

  void mark(NodeRef r, std::vector<bool>& marked) const;

  Bdd wrap(NodeRef r);

  std::uint32_t num_vars_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> refs_;   // external reference counts
  std::vector<NodeRef> buckets_;      // unique table (power-of-two size)
  NodeRef free_head_ = kNil;
  std::size_t free_count_ = 0;
  std::vector<CacheEntry> cache_;     // direct-mapped op cache
  std::size_t next_gc_size_ = 1 << 16;
  std::size_t node_budget_ = 0;  // 0 = unlimited
  bool auto_gc_ = true;
  OpStats op_stats_;
};

/// Rebuilds `src` (owned by some other manager) inside `dst` and returns the
/// new handle.  Managers must have compatible variable counts.  Used by the
/// parallel-reconstruction path, which rebuilds in an isolated manager (the
/// paper runs reconstruction as a separate process, SS VI-B).
Bdd transfer(const Bdd& src, BddManager& dst);

/// Batched transfer: rebuilds every root (all owned by one source manager)
/// inside `dst` with a single shared memo, so subgraphs shared between
/// roots are walked once.  Used by the parallel atom pipeline to move whole
/// partial atom universes between per-thread managers.
std::vector<Bdd> transfer(const std::vector<Bdd>& srcs, BddManager& dst);

/// A manager-free BDD node for flattened (frozen) evaluation.  Children are
/// indices into the same array; slots 0 and 1 are the FALSE/TRUE terminals.
/// No ref counts, no unique table, no GC — an array of these is immutable
/// and safe to read from any number of threads.
struct FlatBddNode {
  std::uint32_t var;
  std::uint32_t lo;
  std::uint32_t hi;
};

/// Exports the subgraphs reachable from `roots` (all on one manager) into a
/// single contiguous node array shared across all roots, appending to
/// `out_nodes` (which is initialized with the two terminal slots if empty).
/// Returns the dense index of each root, in input order.  The export is a
/// pure read of the manager: it takes no references and triggers no GC.
std::vector<std::uint32_t> flatten(const std::vector<Bdd>& roots,
                                   std::vector<FlatBddNode>& out_nodes);

/// Evaluates a flattened BDD: walk from `root` taking `hi` when bit(var) is
/// set, else `lo`, until a terminal.  The loop the concurrent query engine
/// runs — a dependent-load array walk with zero shared mutable state.
template <typename BitFn>
inline bool eval_flat(const FlatBddNode* nodes, std::uint32_t root, BitFn&& bit) {
  while (root > kTrue) {
    const FlatBddNode& n = nodes[root];
    root = bit(n.var) ? n.hi : n.lo;
  }
  return root == kTrue;
}

/// Serializes a BDD to a compact text form ("bdd v1" header + one node per
/// line, children before parents).  Deserializing into any manager with at
/// least as many variables reproduces an equivalent (canonical) function.
/// Useful for caching compiled predicates across runs.
std::string serialize(const Bdd& f);
Bdd deserialize(BddManager& mgr, const std::string& text);

// ---- Bdd inline/template implementations ----

template <typename BitFn>
bool Bdd::eval(BitFn&& bit) const {
  require(mgr_ != nullptr, "eval on null Bdd");
  return mgr_->eval_ref(ref_, std::forward<BitFn>(bit));
}

}  // namespace apc::bdd
