// Unit + property tests for the ROBDD package.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"

namespace apc::bdd {
namespace {

TEST(Bdd, TerminalsAreCanonical) {
  BddManager mgr(4);
  EXPECT_TRUE(mgr.bdd_true().is_true());
  EXPECT_TRUE(mgr.bdd_false().is_false());
  EXPECT_EQ(mgr.bdd_true(), mgr.bdd_true());
  EXPECT_NE(mgr.bdd_true(), mgr.bdd_false());
}

TEST(Bdd, VarAndNvarEvaluate) {
  BddManager mgr(4);
  const Bdd x1 = mgr.var(1);
  const Bdd nx1 = mgr.nvar(1);
  const auto bits = [](std::uint32_t v) { return v == 1; };
  EXPECT_TRUE(x1.eval(bits));
  EXPECT_FALSE(nx1.eval(bits));
  const auto zeros = [](std::uint32_t) { return false; };
  EXPECT_FALSE(x1.eval(zeros));
  EXPECT_TRUE(nx1.eval(zeros));
}

TEST(Bdd, NotIsInvolution) {
  BddManager mgr(4);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | mgr.nvar(2);
  EXPECT_EQ(!(!f), f);
}

TEST(Bdd, HashConsingGivesPointerEquality) {
  BddManager mgr(8);
  const Bdd a = mgr.var(0) & mgr.var(1);
  const Bdd b = mgr.var(1) & mgr.var(0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ref(), b.ref());
}

TEST(Bdd, DeMorgan) {
  BddManager mgr(6);
  const Bdd a = mgr.var(2), b = mgr.var(4);
  EXPECT_EQ(!(a & b), (!a) | (!b));
  EXPECT_EQ(!(a | b), (!a) & (!b));
}

TEST(Bdd, MinusAndImplies) {
  BddManager mgr(4);
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd ab = a & b;
  EXPECT_TRUE(ab.implies(a));
  EXPECT_FALSE(a.implies(ab));
  EXPECT_EQ(a.minus(a), mgr.bdd_false());
  EXPECT_EQ(ab.minus(a), mgr.bdd_false());
  EXPECT_EQ((a | b).minus(a), b & !a);
}

TEST(Bdd, XorSemantics) {
  BddManager mgr(4);
  const Bdd a = mgr.var(0), b = mgr.var(1);
  EXPECT_EQ(a ^ a, mgr.bdd_false());
  EXPECT_EQ(a ^ mgr.bdd_false(), a);
  EXPECT_EQ(a ^ b, (a & (!b)) | ((!a) & b));
}

TEST(Bdd, IteSemantics) {
  BddManager mgr(4);
  const Bdd f = mgr.var(0), g = mgr.var(1), h = mgr.var(2);
  EXPECT_EQ(mgr.ite(f, g, h), (f & g) | ((!f) & h));
  EXPECT_EQ(mgr.ite(mgr.bdd_true(), g, h), g);
  EXPECT_EQ(mgr.ite(mgr.bdd_false(), g, h), h);
}

TEST(Bdd, CubeMatchesOnlyItsAssignment) {
  BddManager mgr(8);
  const Bdd c = mgr.cube({{0, true}, {3, false}, {5, true}});
  EXPECT_TRUE(c.eval([](std::uint32_t v) { return v == 0 || v == 5; }));
  EXPECT_FALSE(c.eval([](std::uint32_t v) { return v == 0; }));  // bit5 wrong
  EXPECT_FALSE(c.eval([](std::uint32_t v) { return v <= 5; }));  // bit3 wrong
}

TEST(Bdd, CubeRejectsDuplicatesAndOutOfRange) {
  BddManager mgr(4);
  EXPECT_THROW(mgr.cube({{1, true}, {1, false}}), apc::Error);
  EXPECT_THROW(mgr.cube({{7, true}}), apc::Error);
}

TEST(Bdd, EmptyCubeIsTrue) {
  BddManager mgr(4);
  EXPECT_TRUE(mgr.cube({}).is_true());
}

TEST(Bdd, EqualsField) {
  BddManager mgr(16);
  const Bdd f = mgr.equals(4, 8, 0xA5);
  std::vector<bool> bits(16, false);
  for (int i = 0; i < 8; ++i) bits[4 + i] = (0xA5 >> (7 - i)) & 1;
  EXPECT_TRUE(f.eval([&](std::uint32_t v) { return bits[v]; }));
  bits[4] = !bits[4];
  EXPECT_FALSE(f.eval([&](std::uint32_t v) { return bits[v]; }));
}

TEST(Bdd, InRangeExhaustive) {
  BddManager mgr(6);
  // Many ranges over a 6-bit field, checked against direct comparison.
  for (std::uint64_t lo = 0; lo < 64; lo += 7) {
    for (std::uint64_t hi = lo; hi < 64; hi += 5) {
      const Bdd r = mgr.in_range(0, 6, lo, hi);
      for (std::uint64_t x = 0; x < 64; ++x) {
        const bool expect = x >= lo && x <= hi;
        const bool got = r.eval([&](std::uint32_t v) { return (x >> (5 - v)) & 1; });
        ASSERT_EQ(expect, got) << "range [" << lo << "," << hi << "] x=" << x;
      }
    }
  }
}

TEST(Bdd, InRangeFullDomainIsTrue) {
  BddManager mgr(16);
  EXPECT_TRUE(mgr.in_range(0, 16, 0, 0xFFFF).is_true());
}

TEST(Bdd, InRangeValidation) {
  BddManager mgr(16);
  EXPECT_THROW(mgr.in_range(0, 16, 5, 4), apc::Error);
  EXPECT_THROW(mgr.in_range(0, 4, 0, 16), apc::Error);
}

TEST(Bdd, RestrictVar) {
  BddManager mgr(4);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (mgr.nvar(0) & mgr.var(2));
  EXPECT_EQ(mgr.restrict_var(f, 0, true), mgr.var(1));
  EXPECT_EQ(mgr.restrict_var(f, 0, false), mgr.var(2));
  // Restricting an absent variable is identity.
  EXPECT_EQ(mgr.restrict_var(f, 3, true), f);
}

TEST(Bdd, ExistsQuantification) {
  BddManager mgr(4);
  const Bdd f = mgr.var(0) & mgr.var(1);
  EXPECT_EQ(mgr.exists(f, 0), mgr.var(1));
  EXPECT_EQ(mgr.exists(f, 3), f);
}

TEST(Bdd, Support) {
  BddManager mgr(8);
  const Bdd f = (mgr.var(1) & mgr.var(5)) | mgr.var(3);
  EXPECT_EQ(mgr.support(f), (std::vector<std::uint32_t>{1, 3, 5}));
  EXPECT_TRUE(mgr.support(mgr.bdd_true()).empty());
}

TEST(Bdd, SatCount) {
  BddManager mgr(10);
  EXPECT_DOUBLE_EQ(mgr.bdd_true().sat_count(), 1024.0);
  EXPECT_DOUBLE_EQ(mgr.bdd_false().sat_count(), 0.0);
  EXPECT_DOUBLE_EQ(mgr.var(0).sat_count(), 512.0);
  EXPECT_DOUBLE_EQ((mgr.var(0) & mgr.var(1)).sat_count(), 256.0);
  EXPECT_DOUBLE_EQ((mgr.var(0) | mgr.var(1)).sat_count(), 768.0);
}

TEST(Bdd, AnySatSatisfies) {
  BddManager mgr(8);
  const Bdd f = (mgr.var(0) & mgr.nvar(3)) | (mgr.var(5) & mgr.var(6));
  const auto bits = mgr.any_sat(f);
  EXPECT_TRUE(f.eval([&](std::uint32_t v) { return bits[v] != 0; }));
  EXPECT_THROW(mgr.any_sat(mgr.bdd_false()), apc::Error);
}

TEST(Bdd, RandomSatAlwaysSatisfies) {
  BddManager mgr(12);
  apc::Rng rng(99);
  const Bdd f = (mgr.var(0) & mgr.var(7)) | (mgr.nvar(2) & mgr.var(9) & mgr.nvar(11));
  const auto rnd = [&rng]() { return rng.next(); };
  for (int i = 0; i < 50; ++i) {
    const auto bits = mgr.random_sat(f, rnd);
    ASSERT_TRUE(f.eval([&](std::uint32_t v) { return bits[v] != 0; }));
  }
}

TEST(Bdd, NodeCount) {
  BddManager mgr(8);
  EXPECT_EQ(mgr.bdd_true().node_count(), 1u);
  EXPECT_EQ(mgr.var(0).node_count(), 3u);  // node + both terminals
}

TEST(Bdd, GcKeepsLiveNodesAndFreesGarbage) {
  BddManager mgr(16);
  Bdd keep = mgr.var(0) & mgr.var(1) & mgr.var(2);
  {
    // Create a pile of garbage.
    Bdd junk = mgr.bdd_false();
    for (std::uint32_t i = 0; i < 16; ++i)
      junk = junk | (mgr.var(i) & mgr.nvar((i + 1) % 16));
  }
  const std::size_t before = mgr.allocated_node_count();
  mgr.gc();
  EXPECT_LT(mgr.allocated_node_count(), before);
  // The kept function still evaluates correctly after GC.
  EXPECT_TRUE(keep.eval([](std::uint32_t v) { return v <= 2; }));
  EXPECT_EQ(keep, mgr.var(0) & mgr.var(1) & mgr.var(2));
}

TEST(Bdd, GcPreservesCanonicityUnderChurn) {
  BddManager mgr(10);
  apc::Rng rng(5);
  std::vector<Bdd> kept;
  for (int round = 0; round < 20; ++round) {
    Bdd f = mgr.bdd_true();
    for (int j = 0; j < 6; ++j) {
      const std::uint32_t v = static_cast<std::uint32_t>(rng.uniform(10));
      f = rng.coin() ? (f & mgr.var(v)) : (f | mgr.nvar(v));
    }
    kept.push_back(f);
    if (round % 5 == 4) mgr.gc();
  }
  mgr.gc();
  // Re-deriving an equal function after GC must hit the same node.
  const Bdd redo = (kept[0] | mgr.bdd_false()) & mgr.bdd_true();
  EXPECT_EQ(redo, kept[0]);
}

TEST(Bdd, ImpliesSurvivesGcChurn) {
  // Regression: implies() used to keep the raw Diff result un-refcounted, so
  // a GC between the apply and the terminal check could reclaim it.  It now
  // wraps the temporary and calls maybe_gc() itself, so interleaved GC must
  // neither change answers nor let the pool grow without bound.
  BddManager mgr(12);
  const Bdd narrow = mgr.var(0) & mgr.var(1) & mgr.var(2) & mgr.var(3);
  const Bdd wide = mgr.var(0) & mgr.var(1);
  std::size_t peak = 0;
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(narrow.implies(wide));
    ASSERT_FALSE(wide.implies(narrow));
    ASSERT_TRUE((narrow ^ wide).implies(wide));
    if (round % 7 == 3) mgr.gc();
    peak = std::max(peak, mgr.allocated_node_count());
  }
  mgr.gc();
  // All Diff temporaries were garbage; the pool settles back to the live set.
  EXPECT_LE(mgr.allocated_node_count(), peak);
  EXPECT_TRUE(narrow.implies(wide));
}

TEST(Bdd, FlattenMatchesEvalAndIsManagerFree) {
  BddManager mgr(8);
  apc::Rng rng(17);
  std::vector<Bdd> roots{mgr.bdd_false(), mgr.bdd_true()};
  for (int i = 0; i < 12; ++i) {
    Bdd f = rng.coin() ? mgr.bdd_true() : mgr.var(rng.uniform(8));
    for (int j = 0; j < 5; ++j) {
      const std::uint32_t v = static_cast<std::uint32_t>(rng.uniform(8));
      switch (rng.uniform(3)) {
        case 0: f = f & mgr.var(v); break;
        case 1: f = f | mgr.nvar(v); break;
        default: f = f ^ mgr.var(v); break;
      }
    }
    roots.push_back(f);
  }

  std::vector<FlatBddNode> nodes;
  const std::vector<std::uint32_t> flat_roots = flatten(roots, nodes);
  ASSERT_EQ(flat_roots.size(), roots.size());
  EXPECT_EQ(flat_roots[0], kFalse);
  EXPECT_EQ(flat_roots[1], kTrue);

  // Shared subgraphs stay shared: the dense pool is no bigger than the sum
  // of the individual DAG sizes (and usually much smaller).
  std::size_t sum = 0;
  for (const Bdd& r : roots) sum += r.node_count();
  EXPECT_LE(nodes.size(), sum);

  // The flat walk agrees with the manager walk on every assignment, and a
  // full GC cannot disturb it — the arrays reference no manager state.
  mgr.gc();
  for (std::uint32_t x = 0; x < 256; ++x) {
    const auto bits = [&](std::uint32_t v) { return ((x >> v) & 1) != 0; };
    for (std::size_t i = 0; i < roots.size(); ++i)
      ASSERT_EQ(roots[i].eval(bits),
                eval_flat(nodes.data(), flat_roots[i], bits))
          << "root " << i << " assignment " << x;
  }
}

TEST(Bdd, FlattenOverSparseHighRefsAfterGc) {
  // Churn the pool so the live roots land on high, sparse NodeRefs with
  // freed slots between them — the shape a long-running classifier's
  // manager has after many incremental updates.
  constexpr std::uint32_t kVars = 10;
  BddManager mgr(kVars);
  apc::Rng rng(29);
  const auto random_fn = [&] {
    Bdd f = mgr.var(static_cast<std::uint32_t>(rng.uniform(kVars)));
    for (int j = 0; j < 8; ++j) {
      const Bdd v = mgr.var(static_cast<std::uint32_t>(rng.uniform(kVars)));
      switch (rng.uniform(3)) {
        case 0: f = f & v; break;
        case 1: f = f | !v; break;
        default: f = f ^ v; break;
      }
    }
    return f;
  };
  std::vector<Bdd> roots;
  {
    std::vector<Bdd> garbage;
    for (int i = 0; i < 4000; ++i) garbage.push_back(random_fn());
    for (int i = 0; i < 24; ++i) {
      for (int k = 0; k < 50; ++k) garbage.push_back(random_fn());
      roots.push_back(random_fn());
    }
  }
  mgr.gc();

  // The roots really are sparse: most of the pool below them is free.
  NodeRef max_root = 0;
  for (const Bdd& r : roots) max_root = std::max(max_root, r.ref());
  ASSERT_GT(mgr.node_slot_count(), 2 * mgr.allocated_node_count());
  ASSERT_GT(max_root, mgr.allocated_node_count());

  std::vector<FlatBddNode> nodes;
  const std::vector<std::uint32_t> flat_roots = flatten(roots, nodes);

  // Exactly the reachable nodes (plus the two terminals), no more.
  std::vector<bool> seen(mgr.node_slot_count(), false);
  std::vector<NodeRef> stack;
  std::size_t reachable = 0;
  for (const Bdd& r : roots) stack.push_back(r.ref());
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (r <= kTrue || seen[r]) continue;
    seen[r] = true;
    ++reachable;
    stack.push_back(mgr.node_low(r));
    stack.push_back(mgr.node_high(r));
  }
  EXPECT_EQ(nodes.size(), reachable + 2);

  for (std::uint32_t x = 0; x < (1u << kVars); ++x) {
    const auto bits = [&](std::uint32_t v) { return ((x >> v) & 1) != 0; };
    for (std::size_t i = 0; i < roots.size(); ++i)
      ASSERT_EQ(roots[i].eval(bits), eval_flat(nodes.data(), flat_roots[i], bits))
          << "root " << i << " assignment " << x;
  }

  // Deterministic: a second export is byte-identical (snapshot republish
  // relies on this to carry the compiled program across publishes).
  std::vector<FlatBddNode> again;
  EXPECT_EQ(flatten(roots, again), flat_roots);
  ASSERT_EQ(again.size(), nodes.size());
  EXPECT_EQ(std::memcmp(again.data(), nodes.data(), nodes.size() * sizeof(FlatBddNode)),
            0);
}

TEST(Bdd, HandleCopyAndMoveRefcounting) {
  BddManager mgr(8);
  Bdd a = mgr.var(3);
  Bdd b = a;             // copy
  Bdd c = std::move(a);  // move
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b, c);
  c = b;  // re-assign
  EXPECT_TRUE(b.valid());
  mgr.gc();
  EXPECT_TRUE(c.eval([](std::uint32_t v) { return v == 3; }));
}

TEST(Bdd, TransferAcrossManagers) {
  BddManager src(16), dst(16);
  const Bdd f = (src.var(2) & src.nvar(7)) | (src.var(11) & src.var(13));
  const Bdd g = transfer(f, dst);
  apc::Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    std::vector<bool> bits(16);
    for (std::size_t b = 0; b < bits.size(); ++b) bits[b] = rng.coin();
    const auto fn = [&](std::uint32_t v) { return bits[v]; };
    ASSERT_EQ(f.eval(fn), g.eval(fn));
  }
  EXPECT_EQ(f.node_count(), g.node_count());
}

TEST(Bdd, TransferTerminals) {
  BddManager src(4), dst(4);
  EXPECT_TRUE(transfer(src.bdd_true(), dst).is_true());
  EXPECT_TRUE(transfer(src.bdd_false(), dst).is_false());
}

TEST(Bdd, ToDotContainsNodes) {
  BddManager mgr(4);
  const std::string dot = mgr.to_dot(mgr.var(0) & mgr.var(1), "g");
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("x1"), std::string::npos);
}

TEST(Bdd, CrossManagerOpsRejected) {
  BddManager m1(4), m2(4);
  const Bdd a = m1.var(0), b = m2.var(0);
  EXPECT_THROW(a & b, apc::Error);
  EXPECT_THROW(a.implies(b), apc::Error);
}

TEST(Bdd, MemoryReporting) {
  BddManager mgr(8);
  const std::size_t base = mgr.memory_bytes();
  Bdd f = mgr.bdd_false();
  for (std::uint32_t i = 0; i < 8; ++i) f = f | mgr.var(i);
  EXPECT_GE(mgr.memory_bytes(), base);
  EXPECT_GE(mgr.live_node_count(), 8u);
}

// ---- Property sweep: random expressions vs. truth-table oracle ----

class BddRandomExpr : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddRandomExpr, MatchesTruthTable) {
  constexpr std::uint32_t kVars = 6;
  BddManager mgr(kVars);
  apc::Rng rng(GetParam());

  using Table = std::array<bool, 64>;
  struct Entry {
    Bdd bdd;
    Table table;
  };
  std::vector<Entry> pool;
  for (std::uint32_t v = 0; v < kVars; ++v) {
    Entry e{mgr.var(v), {}};
    for (std::uint32_t x = 0; x < 64; ++x) e.table[x] = (x >> v) & 1;
    pool.push_back(std::move(e));
  }

  for (int step = 0; step < 60; ++step) {
    const Entry a = pool[rng.uniform(pool.size())];
    const Entry b = pool[rng.uniform(pool.size())];
    Entry e{mgr.bdd_false(), {}};
    switch (rng.uniform(4)) {
      case 0:
        e.bdd = a.bdd & b.bdd;
        for (int x = 0; x < 64; ++x) e.table[x] = a.table[x] && b.table[x];
        break;
      case 1:
        e.bdd = a.bdd | b.bdd;
        for (int x = 0; x < 64; ++x) e.table[x] = a.table[x] || b.table[x];
        break;
      case 2:
        e.bdd = a.bdd ^ b.bdd;
        for (int x = 0; x < 64; ++x) e.table[x] = a.table[x] != b.table[x];
        break;
      default:
        e.bdd = !a.bdd;
        for (int x = 0; x < 64; ++x) e.table[x] = !a.table[x];
        break;
    }
    std::size_t sat = 0;
    for (std::uint32_t x = 0; x < 64; ++x) {
      const bool got = e.bdd.eval([&](std::uint32_t v) { return (x >> v) & 1; });
      ASSERT_EQ(e.table[x], got) << "seed=" << GetParam() << " step=" << step;
      if (e.table[x]) ++sat;
    }
    EXPECT_DOUBLE_EQ(e.bdd.sat_count(), static_cast<double>(sat));
    pool.push_back(std::move(e));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomExpr,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace apc::bdd
