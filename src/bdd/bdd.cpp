#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace apc::bdd {

namespace {
constexpr std::size_t kInitialBuckets = 1 << 12;
constexpr std::size_t kCacheSize = 1 << 17;  // direct-mapped, power of two

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}
}  // namespace

// ---------- Bdd handle ----------

Bdd::Bdd(BddManager* mgr, NodeRef ref) : mgr_(mgr), ref_(ref) {}

Bdd::Bdd(const Bdd& other) : mgr_(other.mgr_), ref_(other.ref_) {
  if (mgr_) mgr_->inc_ref(ref_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), ref_(other.ref_) {
  other.mgr_ = nullptr;
  other.ref_ = kFalse;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  if (other.mgr_) other.mgr_->inc_ref(other.ref_);
  if (mgr_) mgr_->dec_ref(ref_);
  mgr_ = other.mgr_;
  ref_ = other.ref_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_) mgr_->dec_ref(ref_);
  mgr_ = other.mgr_;
  ref_ = other.ref_;
  other.mgr_ = nullptr;
  other.ref_ = kFalse;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_) mgr_->dec_ref(ref_);
}

Bdd Bdd::operator&(const Bdd& other) const {
  require(mgr_ && mgr_ == other.mgr_, "Bdd::operator& across managers");
  Bdd out = mgr_->wrap(mgr_->apply(BddManager::Op::And, ref_, other.ref_));
  mgr_->maybe_gc();
  return out;
}

Bdd Bdd::operator|(const Bdd& other) const {
  require(mgr_ && mgr_ == other.mgr_, "Bdd::operator| across managers");
  Bdd out = mgr_->wrap(mgr_->apply(BddManager::Op::Or, ref_, other.ref_));
  mgr_->maybe_gc();
  return out;
}

Bdd Bdd::operator^(const Bdd& other) const {
  require(mgr_ && mgr_ == other.mgr_, "Bdd::operator^ across managers");
  Bdd out = mgr_->wrap(mgr_->apply(BddManager::Op::Xor, ref_, other.ref_));
  mgr_->maybe_gc();
  return out;
}

Bdd Bdd::operator!() const {
  require(mgr_ != nullptr, "Bdd::operator! on null Bdd");
  Bdd out = mgr_->wrap(mgr_->apply(BddManager::Op::Diff, kTrue, ref_));
  mgr_->maybe_gc();
  return out;
}

Bdd Bdd::minus(const Bdd& other) const {
  require(mgr_ && mgr_ == other.mgr_, "Bdd::minus across managers");
  Bdd out = mgr_->wrap(mgr_->apply(BddManager::Op::Diff, ref_, other.ref_));
  mgr_->maybe_gc();
  return out;
}

bool Bdd::implies(const Bdd& other) const {
  require(mgr_ && mgr_ == other.mgr_, "Bdd::implies across managers");
  // Wrap the apply() result even though only its identity is inspected: an
  // unreferenced NodeRef is exactly what maybe_gc() reclaims, and leaving
  // the temporary uncounted both blocks GC here (pool growth) and invites a
  // use-after-free if any code between apply and use ever collects.
  const Bdd diff = mgr_->wrap(mgr_->apply(BddManager::Op::Diff, ref_, other.ref_));
  mgr_->maybe_gc();
  return diff.is_false();
}

std::size_t Bdd::node_count() const {
  require(mgr_ != nullptr, "node_count on null Bdd");
  std::unordered_set<NodeRef> seen;
  std::vector<NodeRef> stack{ref_};
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (!seen.insert(r).second) continue;
    if (r > kTrue) {
      stack.push_back(mgr_->node_low(r));
      stack.push_back(mgr_->node_high(r));
    }
  }
  return seen.size();
}

double Bdd::sat_count() const {
  require(mgr_ != nullptr, "sat_count on null Bdd");
  std::vector<double> memo;
  return mgr_->sat_count_rec(ref_, memo);
}

// ---------- BddManager ----------

BddManager::BddManager(std::uint32_t num_vars)
    : num_vars_(num_vars),
      buckets_(kInitialBuckets, kNil),
      cache_(kCacheSize) {
  require(num_vars > 0 && num_vars <= 4096, "BddManager: bad variable count");
  // Terminals occupy slots 0 (FALSE) and 1 (TRUE) and are immortal.
  nodes_.push_back({kTermVar, 0, 0, kNil});
  nodes_.push_back({kTermVar, 1, 1, kNil});
  refs_.assign(2, 1);
}

Bdd BddManager::wrap(NodeRef r) {
  inc_ref(r);
  return Bdd(this, r);
}

Bdd BddManager::bdd_true() { return wrap(kTrue); }
Bdd BddManager::bdd_false() { return wrap(kFalse); }

Bdd BddManager::var(std::uint32_t v) {
  require(v < num_vars_, "BddManager::var out of range");
  return wrap(make_node(v, kFalse, kTrue));
}

Bdd BddManager::nvar(std::uint32_t v) {
  require(v < num_vars_, "BddManager::nvar out of range");
  return wrap(make_node(v, kTrue, kFalse));
}

Bdd BddManager::cube(const std::vector<std::pair<std::uint32_t, bool>>& literals) {
  // Build bottom-up in descending variable order so each make_node call is
  // O(1) (children already canonical).
  auto sorted = literals;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  NodeRef acc = kTrue;
  std::uint32_t prev = kTermVar;
  for (const auto& [v, val] : sorted) {
    require(v < num_vars_, "BddManager::cube variable out of range");
    require(v != prev, "BddManager::cube duplicate variable");
    prev = v;
    acc = val ? make_node(v, kFalse, acc) : make_node(v, acc, kFalse);
  }
  return wrap(acc);
}

Bdd BddManager::equals(std::uint32_t first_var, std::uint32_t width,
                       std::uint64_t value) {
  require(width <= 64, "BddManager::equals width > 64");
  require(first_var + width <= num_vars_, "BddManager::equals out of range");
  std::vector<std::pair<std::uint32_t, bool>> lits;
  lits.reserve(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    const bool bit = (value >> (width - 1 - i)) & 1;  // MSB-first layout
    lits.emplace_back(first_var + i, bit);
  }
  return cube(lits);
}

Bdd BddManager::in_range(std::uint32_t first_var, std::uint32_t width,
                         std::uint64_t lo, std::uint64_t hi) {
  require(width <= 63, "BddManager::in_range width > 63");
  require(first_var + width <= num_vars_, "BddManager::in_range out of range");
  require(lo <= hi, "BddManager::in_range lo > hi");
  const std::uint64_t max_val = (std::uint64_t{1} << width) - 1;
  require(hi <= max_val, "BddManager::in_range hi too large");

  // Decompose [lo, hi] into maximal aligned prefixes, OR the cubes.
  Bdd acc = bdd_false();
  std::uint64_t cur = lo;
  while (cur <= hi) {
    // Largest aligned block starting at cur that fits in [cur, hi].
    std::uint32_t block = 0;
    while (block < width) {
      const std::uint64_t size = std::uint64_t{1} << (block + 1);
      if (cur % size != 0) break;
      if (cur + size - 1 > hi) break;
      ++block;
    }
    // Prefix of (width - block) fixed MSBs.
    std::vector<std::pair<std::uint32_t, bool>> lits;
    for (std::uint32_t i = 0; i < width - block; ++i) {
      const bool bit = (cur >> (width - 1 - i)) & 1;
      lits.emplace_back(first_var + i, bit);
    }
    acc = acc | cube(lits);
    const std::uint64_t size = std::uint64_t{1} << block;
    if (cur + size - 1 >= hi) break;  // also guards overflow at the top
    cur += size;
  }
  return acc;
}

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  require(f.manager() == this && g.manager() == this && h.manager() == this,
          "BddManager::ite across managers");
  Bdd out = wrap(ite_rec(f.ref(), g.ref(), h.ref()));
  maybe_gc();
  return out;
}

Bdd BddManager::restrict_var(const Bdd& f, std::uint32_t v, bool value) {
  require(f.manager() == this, "restrict_var across managers");
  require(v < num_vars_, "restrict_var out of range");
  Bdd out = wrap(restrict_rec(f.ref(), v, value));
  maybe_gc();
  return out;
}

Bdd BddManager::exists(const Bdd& f, std::uint32_t v) {
  require(f.manager() == this, "exists across managers");
  const NodeRef lo = restrict_rec(f.ref(), v, false);
  // Protect lo across the second recursion (which may not GC, but keeps the
  // invariant obvious if auto-GC policy ever changes).
  Bdd lo_h = wrap(lo);
  const NodeRef hi = restrict_rec(f.ref(), v, true);
  Bdd hi_h = wrap(hi);
  return lo_h | hi_h;
}

std::vector<std::uint32_t> BddManager::support(const Bdd& f) {
  std::vector<bool> present(num_vars_, false);
  std::unordered_set<NodeRef> seen;
  std::vector<NodeRef> stack{f.ref()};
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (r <= kTrue || !seen.insert(r).second) continue;
    present[nodes_[r].var] = true;
    stack.push_back(nodes_[r].low);
    stack.push_back(nodes_[r].high);
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = 0; v < num_vars_; ++v)
    if (present[v]) out.push_back(v);
  return out;
}

std::vector<std::uint8_t> BddManager::any_sat(const Bdd& f) {
  require(f.manager() == this, "any_sat across managers");
  require(!f.is_false(), "any_sat of FALSE");
  std::vector<std::uint8_t> out(num_vars_, 0);
  NodeRef r = f.ref();
  while (r > kTrue) {
    const Node& n = nodes_[r];
    if (n.high != kFalse) {
      out[n.var] = 1;
      r = n.high;
    } else {
      out[n.var] = 0;
      r = n.low;
    }
  }
  return out;
}

std::vector<std::uint8_t> BddManager::random_sat(
    const Bdd& f, const std::function<std::uint64_t()>& rnd) {
  require(f.manager() == this, "random_sat across managers");
  require(!f.is_false(), "random_sat of FALSE");
  std::vector<double> memo;
  std::vector<std::uint8_t> out(num_vars_, 0);
  // Randomize all bits first; the walk overwrites constrained ones.
  for (std::uint32_t v = 0; v < num_vars_; ++v) out[v] = rnd() & 1;
  NodeRef r = f.ref();
  while (r > kTrue) {
    const Node& n = nodes_[r];
    const double cl = sat_count_rec(n.low, memo);
    const double ch = sat_count_rec(n.high, memo);
    const double total = cl + ch;
    const double pick = (static_cast<double>(rnd() >> 11) * 0x1.0p-53) * total;
    if (pick < ch && n.high != kFalse) {
      out[n.var] = 1;
      r = n.high;
    } else {
      out[n.var] = 0;
      r = n.low;
    }
  }
  return out;
}

// ---------- node pool / unique table ----------

std::size_t BddManager::bucket_of(std::uint32_t var, NodeRef low, NodeRef high) const {
  const std::uint64_t h =
      mix64((std::uint64_t{var} << 40) ^ (std::uint64_t{low} << 20) ^ high);
  return static_cast<std::size_t>(h) & (buckets_.size() - 1);
}

NodeRef BddManager::make_node(std::uint32_t var, NodeRef low, NodeRef high) {
  if (low == high) return low;  // reduction rule
  const std::size_t b = bucket_of(var, low, high);
  for (NodeRef r = buckets_[b]; r != kNil; r = nodes_[r].next) {
    const Node& n = nodes_[r];
    if (n.var == var && n.low == low && n.high == high) {
      ++op_stats_.unique_hits;
      return r;
    }
  }
  // Budget gate (graceful degradation): refuse to grow the pool past the
  // configured cap with a typed error instead of allocating toward OOM.
  // Thrown before any mutation, so the manager stays consistent — created
  // intermediates are unreferenced garbage the next gc() reclaims.
  if (node_budget_ > 0 && nodes_.size() - free_count_ >= node_budget_)
    throw Error(ErrorCode::kResourceExhausted,
                "BDD node budget exhausted (" + std::to_string(node_budget_) +
                    " nodes); raise node_budget or simplify the ruleset");
  ++op_stats_.nodes_created;
  NodeRef r;
  if (free_head_ != kNil) {
    r = free_head_;
    free_head_ = nodes_[r].next;
    --free_count_;
  } else {
    r = static_cast<NodeRef>(nodes_.size());
    nodes_.push_back({});
    refs_.push_back(0);
  }
  nodes_[r] = {var, low, high, buckets_[b]};
  refs_[r] = 0;
  buckets_[b] = r;
  if (nodes_.size() - free_count_ > buckets_.size()) rehash(buckets_.size() * 2);
  return r;
}

void BddManager::rehash(std::size_t new_bucket_count) {
  buckets_.assign(new_bucket_count, kNil);
  for (NodeRef r = 2; r < nodes_.size(); ++r) {
    Node& n = nodes_[r];
    if (n.var == kFreeVar) continue;
    const std::size_t b = bucket_of(n.var, n.low, n.high);
    n.next = buckets_[b];
    buckets_[b] = r;
  }
  // Rebuild the free list, which shared the `next` links.
  free_head_ = kNil;
  free_count_ = 0;
  for (NodeRef r = 2; r < nodes_.size(); ++r) {
    if (nodes_[r].var == kFreeVar) {
      nodes_[r].next = free_head_;
      free_head_ = r;
      ++free_count_;
    }
  }
}

// ---------- operation cache ----------

BddManager::CacheEntry& BddManager::cache_slot(std::uint64_t key, NodeRef a,
                                               NodeRef b, NodeRef c) {
  const std::uint64_t h = mix64(key ^ mix64((std::uint64_t{a} << 42) ^
                                            (std::uint64_t{b} << 21) ^ c));
  return cache_[static_cast<std::size_t>(h) & (kCacheSize - 1)];
}

void BddManager::cache_clear() {
  for (auto& e : cache_) e.key = ~std::uint64_t{0};
}

// ---------- apply / not / ite / restrict ----------

NodeRef BddManager::apply_terminal(Op op, NodeRef f, NodeRef g, bool& hit) {
  hit = true;
  switch (op) {
    case Op::And:
      if (f == kFalse || g == kFalse) return kFalse;
      if (f == kTrue) return g;
      if (g == kTrue) return f;
      if (f == g) return f;
      break;
    case Op::Or:
      if (f == kTrue || g == kTrue) return kTrue;
      if (f == kFalse) return g;
      if (g == kFalse) return f;
      if (f == g) return f;
      break;
    case Op::Xor:
      if (f == g) return kFalse;
      if (f == kFalse) return g;
      if (g == kFalse) return f;
      break;
    case Op::Diff:  // f AND NOT g
      if (f == kFalse || g == kTrue) return kFalse;
      if (f == g) return kFalse;
      if (g == kFalse) return f;
      break;
    default:
      break;
  }
  hit = false;
  return kFalse;
}

NodeRef BddManager::apply(Op op, NodeRef f, NodeRef g) {
  bool hit = false;
  const NodeRef term = apply_terminal(op, f, g, hit);
  if (hit) return term;

  // Commutative ops: canonical operand order improves cache hit rate.
  if ((op == Op::And || op == Op::Or || op == Op::Xor) && f > g) std::swap(f, g);

  const std::uint64_t key = static_cast<std::uint64_t>(op);
  CacheEntry& slot = cache_slot(key, f, g, 0);
  if (slot.key == key && slot.a == f && slot.b == g) {
    ++op_stats_.cache_hits;
    return slot.result;
  }
  ++op_stats_.cache_misses;

  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const std::uint32_t top = std::min(nf.var, ng.var);
  const NodeRef f0 = nf.var == top ? nf.low : f;
  const NodeRef f1 = nf.var == top ? nf.high : f;
  const NodeRef g0 = ng.var == top ? ng.low : g;
  const NodeRef g1 = ng.var == top ? ng.high : g;

  const NodeRef low = apply(op, f0, g0);
  const NodeRef high = apply(op, f1, g1);
  const NodeRef result = make_node(top, low, high);

  slot = {key, f, g, 0, result};
  return result;
}

NodeRef BddManager::ite_rec(NodeRef f, NodeRef g, NodeRef h) {
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const std::uint64_t key = static_cast<std::uint64_t>(Op::Ite);
  CacheEntry& slot = cache_slot(key, f, g, h);
  if (slot.key == key && slot.a == f && slot.b == g && slot.c == h) {
    ++op_stats_.cache_hits;
    return slot.result;
  }
  ++op_stats_.cache_misses;

  std::uint32_t top = nodes_[f].var;
  if (g > kTrue) top = std::min(top, nodes_[g].var);
  if (h > kTrue) top = std::min(top, nodes_[h].var);

  const auto cof = [&](NodeRef r, bool hi) -> NodeRef {
    if (r <= kTrue || nodes_[r].var != top) return r;
    return hi ? nodes_[r].high : nodes_[r].low;
  };

  const NodeRef low = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  const NodeRef high = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  const NodeRef result = make_node(top, low, high);

  slot = {key, f, g, h, result};
  return result;
}

NodeRef BddManager::restrict_rec(NodeRef f, std::uint32_t v, bool value) {
  if (f <= kTrue) return f;
  // Copy the fields: the recursions below may make_node() and reallocate
  // the node pool, which would invalidate a held reference into it.
  const std::uint32_t var = nodes_[f].var;
  const NodeRef f_low = nodes_[f].low;
  const NodeRef f_high = nodes_[f].high;
  if (var > v) return f;  // v does not appear below (ordered BDD)
  if (var == v) return value ? f_high : f_low;

  const std::uint64_t key =
      static_cast<std::uint64_t>(Op::Restrict) | (std::uint64_t{v} << 8) |
      (std::uint64_t{value} << 40);
  CacheEntry& slot = cache_slot(key, f, 0, 0);
  if (slot.key == key && slot.a == f) {
    ++op_stats_.cache_hits;
    return slot.result;
  }
  ++op_stats_.cache_misses;

  const NodeRef low = restrict_rec(f_low, v, value);
  const NodeRef high = restrict_rec(f_high, v, value);
  const NodeRef result = make_node(var, low, high);

  slot = {key, f, 0, 0, result};
  return result;
}

// ---------- sat counting ----------

double BddManager::sat_count_rec(NodeRef r, std::vector<double>& memo) const {
  if (r == kFalse) return 0.0;
  if (r == kTrue) return std::pow(2.0, static_cast<double>(num_vars_));
  if (memo.size() < nodes_.size()) memo.resize(nodes_.size(), -1.0);
  if (memo[r] >= 0.0) return memo[r];
  const Node& n = nodes_[r];
  const double c = 0.5 * (sat_count_rec(n.low, memo) + sat_count_rec(n.high, memo));
  memo[r] = c;
  return c;
}

// ---------- reference counting & GC ----------

void BddManager::inc_ref(NodeRef r) { ++refs_[r]; }

void BddManager::dec_ref(NodeRef r) {
  require(refs_[r] > 0, "Bdd reference count underflow");
  --refs_[r];
}

void BddManager::mark(NodeRef r, std::vector<bool>& marked) const {
  std::vector<NodeRef> stack{r};
  while (!stack.empty()) {
    const NodeRef x = stack.back();
    stack.pop_back();
    if (x <= kTrue || marked[x]) continue;
    marked[x] = true;
    stack.push_back(nodes_[x].low);
    stack.push_back(nodes_[x].high);
  }
}

void BddManager::gc() {
  ++op_stats_.gc_runs;
  std::vector<bool> marked(nodes_.size(), false);
  for (NodeRef r = 2; r < nodes_.size(); ++r)
    if (refs_[r] > 0) mark(r, marked);

  free_head_ = kNil;
  free_count_ = 0;
  for (NodeRef r = 2; r < nodes_.size(); ++r) {
    if (!marked[r] && nodes_[r].var != kFreeVar) nodes_[r].var = kFreeVar;
    if (nodes_[r].var == kFreeVar) {
      nodes_[r].next = free_head_;
      free_head_ = r;
      ++free_count_;
    }
  }

  // Rebuild the unique table over survivors.
  std::size_t bucket_count = buckets_.size();
  const std::size_t live = nodes_.size() - free_count_;
  while (bucket_count > kInitialBuckets && bucket_count / 4 > live)
    bucket_count /= 2;
  buckets_.assign(bucket_count, kNil);
  for (NodeRef r = 2; r < nodes_.size(); ++r) {
    Node& n = nodes_[r];
    if (n.var == kFreeVar) continue;
    const std::size_t b = bucket_of(n.var, n.low, n.high);
    n.next = buckets_[b];
    buckets_[b] = r;
  }

  cache_clear();
  next_gc_size_ = std::max<std::size_t>(2 * live, 1 << 16);
}

void BddManager::maybe_gc() {
  if (auto_gc_ && nodes_.size() - free_count_ >= next_gc_size_) gc();
}

std::size_t BddManager::live_node_count() const {
  std::vector<bool> marked(nodes_.size(), false);
  std::size_t live = 2;
  for (NodeRef r = 2; r < nodes_.size(); ++r)
    if (refs_[r] > 0) mark(r, marked);
  for (NodeRef r = 2; r < nodes_.size(); ++r)
    if (marked[r]) ++live;
  return live;
}

std::size_t BddManager::allocated_node_count() const {
  return nodes_.size() - free_count_;
}

std::size_t BddManager::memory_bytes() const {
  return nodes_.capacity() * sizeof(Node) + refs_.capacity() * sizeof(std::uint32_t) +
         buckets_.capacity() * sizeof(NodeRef) + cache_.capacity() * sizeof(CacheEntry);
}

// ---------- cross-manager transfer ----------

namespace {
// Memoizes RAII handles so every transferred subgraph stays pinned against
// dst's garbage collector for the duration of the transfer.
Bdd transfer_rec(const BddManager& src_mgr, NodeRef src, BddManager& dst,
                 std::unordered_map<NodeRef, Bdd>& memo) {
  if (src == kFalse) return dst.bdd_false();
  if (src == kTrue) return dst.bdd_true();
  const auto it = memo.find(src);
  if (it != memo.end()) return it->second;
  const Bdd low = transfer_rec(src_mgr, src_mgr.node_low(src), dst, memo);
  const Bdd high = transfer_rec(src_mgr, src_mgr.node_high(src), dst, memo);
  const Bdd v = dst.var(src_mgr.node_var(src));
  Bdd r = dst.ite(v, high, low);
  memo.emplace(src, r);
  return r;
}
}  // namespace

Bdd transfer(const Bdd& src, BddManager& dst) {
  require(src.valid(), "transfer: null Bdd");
  require(src.manager()->num_vars() <= dst.num_vars(),
          "transfer: destination manager has fewer variables");
  std::unordered_map<NodeRef, Bdd> memo;
  return transfer_rec(*src.manager(), src.ref(), dst, memo);
}

std::vector<Bdd> transfer(const std::vector<Bdd>& srcs, BddManager& dst) {
  std::vector<Bdd> out;
  out.reserve(srcs.size());
  if (srcs.empty()) return out;
  const BddManager* src_mgr = srcs.front().manager();
  require(src_mgr != nullptr, "transfer: null Bdd");
  require(src_mgr->num_vars() <= dst.num_vars(),
          "transfer: destination manager has fewer variables");
  std::unordered_map<NodeRef, Bdd> memo;
  for (const Bdd& src : srcs) {
    require(src.manager() == src_mgr, "transfer: roots span several managers");
    out.push_back(transfer_rec(*src_mgr, src.ref(), dst, memo));
  }
  return out;
}

// ---------- flatten (manager-free export) ----------

std::vector<std::uint32_t> flatten(const std::vector<Bdd>& roots,
                                   std::vector<FlatBddNode>& out_nodes) {
  if (out_nodes.empty()) {
    out_nodes.push_back({0xFFFFFFFFu, kFalse, kFalse});  // terminal FALSE
    out_nodes.push_back({0xFFFFFFFFu, kTrue, kTrue});    // terminal TRUE
  }
  const BddManager* mgr = nullptr;
  for (const Bdd& r : roots) {
    require(r.valid(), "flatten: null Bdd");
    require(mgr == nullptr || r.manager() == mgr, "flatten: mixed managers");
    mgr = r.manager();
  }

  if (mgr == nullptr) return {};

  // Discover every reachable node once, assigning dense ids on first visit;
  // terminals keep ids 0/1.  `dense` is indexed by NodeRef (kUnseen until
  // discovered).  A node is emitted with its children still as NodeRefs,
  // and one sequential pass patches them to dense ids afterwards, so the
  // manager's pool is read once per node and nothing is hashed.
  constexpr std::uint32_t kUnseen = 0xFFFFFFFFu;
  std::vector<std::uint32_t> dense(mgr->node_slot_count(), kUnseen);
  dense[kFalse] = kFalse;
  dense[kTrue] = kTrue;
  const std::size_t base = out_nodes.size();
  std::vector<NodeRef> stack;
  for (const Bdd& r : roots) stack.push_back(r.ref());
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (dense[r] != kUnseen) continue;
    dense[r] = static_cast<std::uint32_t>(out_nodes.size());
    const NodeRef lo = mgr->node_low(r);
    const NodeRef hi = mgr->node_high(r);
    out_nodes.push_back({mgr->node_var(r), lo, hi});
    stack.push_back(lo);
    stack.push_back(hi);
  }
  for (std::size_t i = base; i < out_nodes.size(); ++i) {
    out_nodes[i].lo = dense[out_nodes[i].lo];
    out_nodes[i].hi = dense[out_nodes[i].hi];
  }

  std::vector<std::uint32_t> out;
  out.reserve(roots.size());
  for (const Bdd& r : roots) out.push_back(dense[r.ref()]);
  return out;
}

// ---------- text serialization ----------

std::string serialize(const Bdd& f) {
  require(f.valid(), "serialize: null Bdd");
  const BddManager& mgr = *f.manager();

  // Topological order, children first.
  std::vector<NodeRef> order;
  std::unordered_set<NodeRef> seen{kFalse, kTrue};
  std::vector<std::pair<NodeRef, bool>> stack{{f.ref(), false}};
  while (!stack.empty()) {
    auto [r, expanded] = stack.back();
    stack.pop_back();
    if (seen.count(r)) continue;
    if (expanded) {
      seen.insert(r);
      order.push_back(r);
      continue;
    }
    stack.push_back({r, true});
    stack.push_back({mgr.node_low(r), false});
    stack.push_back({mgr.node_high(r), false});
  }

  std::ostringstream os;
  os << "bdd v1 " << mgr.num_vars() << " " << f.ref() << "\n";
  for (const NodeRef r : order) {
    os << r << " " << mgr.node_var(r) << " " << mgr.node_low(r) << " "
       << mgr.node_high(r) << "\n";
  }
  return os.str();
}

Bdd deserialize(BddManager& mgr, const std::string& text) {
  std::istringstream is(text);
  std::string magic, version;
  std::uint32_t num_vars = 0;
  NodeRef root = 0;
  is >> magic >> version >> num_vars >> root;
  require(is.good() && magic == "bdd" && version == "v1",
          "deserialize: bad header");
  require(num_vars <= mgr.num_vars(),
          "deserialize: manager has fewer variables than the serialized BDD");

  std::unordered_map<NodeRef, Bdd> built;
  built.emplace(kFalse, mgr.bdd_false());
  built.emplace(kTrue, mgr.bdd_true());

  NodeRef id;
  std::uint32_t var;
  NodeRef low, high;
  while (is >> id >> var >> low >> high) {
    const auto lo = built.find(low);
    const auto hi = built.find(high);
    require(lo != built.end() && hi != built.end(),
            "deserialize: node references undeclared child");
    require(var < num_vars, "deserialize: variable out of range");
    const Bdd v = mgr.var(var);
    built.emplace(id, mgr.ite(v, hi->second, lo->second));
  }
  const auto it = built.find(root);
  require(it != built.end(), "deserialize: root node missing");
  return it->second;
}

// ---------- DOT export ----------

std::string BddManager::to_dot(const Bdd& f, const std::string& name) const {
  std::ostringstream os;
  os << "digraph " << name << " {\n";
  os << "  F [shape=box,label=\"0\"]; T [shape=box,label=\"1\"];\n";
  std::unordered_set<NodeRef> seen;
  std::vector<NodeRef> stack{f.ref()};
  const auto id = [](NodeRef r) -> std::string {
    if (r == kFalse) return "F";
    if (r == kTrue) return "T";
    return "n" + std::to_string(r);
  };
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (r <= kTrue || !seen.insert(r).second) continue;
    const Node& n = nodes_[r];
    os << "  " << id(r) << " [label=\"x" << n.var << "\"];\n";
    os << "  " << id(r) << " -> " << id(n.low) << " [style=dashed];\n";
    os << "  " << id(r) << " -> " << id(n.high) << ";\n";
    stack.push_back(n.low);
    stack.push_back(n.high);
  }
  os << "}\n";
  return os.str();
}

}  // namespace apc::bdd
