#include "classifier/classifier.hpp"

#include <algorithm>
#include <optional>

#include "rules/compiler.hpp"
#include "util/task_pool.hpp"

namespace apc {

namespace {
/// One transient pool shared by the atom computation and the tree build of
/// a single construction (threads - 1 workers; the calling thread helps).
/// Serial (threads == 1) costs nothing: no pool, no threads.
struct BuildPool {
  std::size_t threads;
  std::optional<util::TaskPool> owned;
  util::TaskPool* pool = nullptr;

  explicit BuildPool(std::size_t requested)
      : threads(util::TaskPool::resolve_threads(requested)) {
    if (threads > 1) pool = &owned.emplace(threads - 1);
  }
};
}  // namespace

std::size_t ApClassifier::build_threads() const {
  return util::TaskPool::resolve_threads(opts_.threads);
}

ApClassifier::ApClassifier(const NetworkModel& net, std::shared_ptr<bdd::BddManager> mgr,
                           Options opts)
    : net_(net), mgr_(std::move(mgr)), opts_(opts) {
  require(mgr_ != nullptr, "ApClassifier: null manager");
  if (opts_.node_budget > 0) mgr_->set_node_budget(opts_.node_budget);
  net_.validate();
  compiled_ = compile_network(net_, *mgr_, reg_);
  BuildPool bp(opts_.threads);
  uni_ = compute_atoms(reg_, AtomsOptions{bp.threads, bp.pool, &telemetry_.atoms});
  BuildOptions bo;
  bo.method = opts_.method;
  bo.seed = opts_.seed;
  bo.threads = bp.threads;
  bo.pool = bp.pool;
  bo.stats = &telemetry_.tree;
  tree_ = build_tree(reg_, uni_, bo);
  visit_counts_.reset(uni_.capacity());
}

AtomId ApClassifier::classify(const PacketHeader& h) const {
  const AtomId a = tree_.classify(h, reg_);
  // Relaxed atomic bump: classify() is const and callable from many threads
  // at once.  No growth here — an atom can only appear via an update call,
  // and those grow the counter array before returning.
  if (opts_.track_visits) visit_counts_.bump(a);
  return a;
}

AtomId ApClassifier::classify_counted(const PacketHeader& h, std::size_t& evals) const {
  return tree_.classify(h, reg_, &evals);
}

Behavior ApClassifier::behavior_of(AtomId atom, BoxId ingress) const {
  return compute_behavior(compiled_, net_.topology, reg_, atom, ingress);
}

void ApClassifier::attach_middlebox(Middlebox mb) {
  require(mb.box < net_.topology.box_count(), "attach_middlebox: bad box");
  middleboxes_.push_back(std::move(mb));
}

const Middlebox* ApClassifier::middlebox_at(BoxId b) const {
  for (const auto& mb : middleboxes_)
    if (mb.box == b) return &mb;
  return nullptr;
}

void ApClassifier::forward_step(Pending v, std::vector<Pending>& queue,
                                Behavior& cur) const {
  bool forwarded = false;
  bool acl_blocked = false;
  for (const auto& entry : compiled_.port_preds[v.box]) {
    const PredicateInfo& info = reg_.info(entry.pred);
    if (info.deleted || !info.atoms.test(v.atom)) continue;
    if (entry.out_acl != kNoPred) {
      const PredicateInfo& acl_info = reg_.info(entry.out_acl);
      if (!acl_info.deleted && !acl_info.atoms.test(v.atom)) {
        acl_blocked = true;
        continue;
      }
    }
    forwarded = true;
    const Port& p = net_.topology.box(v.box).ports[entry.port];
    if (p.kind == Port::Kind::Host) {
      cur.edges.push_back({v.box, entry.port, std::nullopt});
      cur.deliveries.push_back({v.box, entry.port});
    } else {
      cur.edges.push_back({v.box, entry.port, p.peer->box});
      queue.push_back({p.peer->box, p.peer->port, v.atom, v.header});
    }
  }
  if (!forwarded) {
    cur.drops.push_back({v.box, acl_blocked ? Drop::Reason::OutputAcl
                                            : Drop::Reason::NoMatchingRule});
  }
}

void ApClassifier::explore(std::vector<Pending> queue, std::vector<bool> visited,
                           Behavior cur, double prob, std::vector<ProbBehavior>& out,
                           int fork_depth) const {
  require(fork_depth < 16, "query: probabilistic fork depth exceeded");
  while (!queue.empty()) {
    Pending v = queue.back();
    queue.pop_back();

    if (visited[v.box]) {
      cur.loop_detected = true;
      continue;
    }
    visited[v.box] = true;

    if (v.in_port) {
      if (const PredId* acl = compiled_.in_acl(v.box, *v.in_port)) {
        const PredicateInfo& info = reg_.info(*acl);
        if (!info.deleted && !info.atoms.test(v.atom)) {
          cur.drops.push_back({v.box, Drop::Reason::InputAcl});
          continue;
        }
      }
    }

    const Middlebox* mb = middlebox_at(v.box);
    const MiddleboxEntry* e = mb ? mb->match(v.atom) : nullptr;
    if (e && e->type == ChangeType::Probabilistic) {
      for (const auto& [p, rw] : e->choices) {
        Pending nv = v;
        nv.header = rw.apply(v.header);
        // Payload-independent alternatives still need a tree re-search:
        // the chosen rewrite decides the new atomic predicate (SS V-E).
        nv.atom = classify(nv.header);
        std::vector<Pending> q2 = queue;
        Behavior cur2 = cur;
        forward_step(nv, q2, cur2);
        explore(std::move(q2), visited, std::move(cur2), prob * p, out,
                fork_depth + 1);
      }
      return;
    }
    if (e) {
      v.header = e->rewrite.apply(v.header);
      v.atom = e->type == ChangeType::Deterministic
                   ? e->next_atom            // Type 1: precomputed in the flow table
                   : classify(v.header);     // Type 2: re-search the AP Tree
    }
    forward_step(v, queue, cur);
  }
  out.push_back({prob, std::move(cur)});
}

std::vector<ProbBehavior> ApClassifier::query_probabilistic(const PacketHeader& h,
                                                            BoxId ingress) const {
  require(ingress < net_.topology.box_count(), "query: bad ingress box");
  const AtomId atom = classify(h);
  std::vector<ProbBehavior> out;
  std::vector<Pending> queue{{ingress, std::nullopt, atom, h}};
  explore(std::move(queue), std::vector<bool>(net_.topology.box_count(), false),
          Behavior{}, 1.0, out, 0);
  return out;
}

Behavior ApClassifier::query(const PacketHeader& h, BoxId ingress) const {
  if (middleboxes_.empty()) {
    // Fast path: stage 1 + pure bitset stage 2.
    return behavior_of(classify(h), ingress);
  }
  auto results = query_probabilistic(h, ingress);
  require(results.size() == 1,
          "query: probabilistic middlebox produced multiple behaviors; "
          "use query_probabilistic");
  return std::move(results.front().behavior);
}

AddPredicateResult ApClassifier::add_predicate(bdd::Bdd p, PredicateKind kind,
                                               std::optional<PortId> origin) {
  return add_predicate_internal(std::move(p), kind, origin);
}

AddPredicateResult ApClassifier::add_predicate_internal(bdd::Bdd p, PredicateKind kind,
                                                        std::optional<PortId> origin) {
  auto res = apc::add_predicate(tree_, reg_, uni_, std::move(p), kind, origin);
  apply_atom_splits(res.splits);
  for (const AtomSplit& s : res.splits) {
    delta_.killed.push_back(s.old_atom);
    delta_.added.push_back(s.in_atom);
    delta_.added.push_back(s.out_atom);
  }
  // Forward/ACL predicates shape stage-2 behavior: every member atom's
  // behavior may change even if the atom itself did not split.  External
  // predicates never enter the compiled network, so they stay clean.
  if (kind != PredicateKind::External) {
    reg_.atoms_of(res.pred_id).for_each(
        [this](std::size_t a) { delta_.dirty.push_back(static_cast<AtomId>(a)); });
  }
  visit_counts_.grow(uni_.capacity());
  return res;
}

void ApClassifier::apply_atom_splits(const std::vector<AtomSplit>& splits) {
  if (splits.empty() || middleboxes_.empty()) return;
  for (Middlebox& mb : middleboxes_) {
    for (MiddleboxEntry& e : mb.entries) {
      for (const AtomSplit& s : splits) {
        // Match fields: both children inherit the tombstoned parent.
        if (e.match_atoms.test(s.old_atom)) {
          e.match_atoms.resize(uni_.capacity());
          e.match_atoms.reset(s.old_atom);
          e.match_atoms.set(s.in_atom);
          e.match_atoms.set(s.out_atom);
        }
        // A Type 1 entry whose precomputed result atom split can no longer
        // name a single atom; demote it to a tree re-search (always
        // semantically correct — the controller would recompute the flow
        // table at leisure, SS V-E).
        if (e.type == ChangeType::Deterministic && e.next_atom == s.old_atom) {
          e.type = ChangeType::PayloadDependent;
        }
      }
    }
  }
}

void ApClassifier::apply_atom_merges(const std::vector<AtomMerge>& merges) {
  if (merges.empty() || middleboxes_.empty()) return;
  for (Middlebox& mb : middleboxes_) {
    for (MiddleboxEntry& e : mb.entries) {
      for (const AtomMerge& m : merges) {
        // A merged atom inherits the union of its operands' match bits.
        // Predicate-derived match sets always hold the operands together
        // (the operands' live-predicate memberships are identical by
        // construction); a hand-built set that split them loses that
        // distinction here — the same information loss a full rebuild's
        // renumbering would cause.
        if (e.match_atoms.test(m.left_atom) || e.match_atoms.test(m.right_atom)) {
          e.match_atoms.resize(uni_.capacity());
          if (m.left_atom < e.match_atoms.size()) e.match_atoms.reset(m.left_atom);
          if (m.right_atom < e.match_atoms.size()) e.match_atoms.reset(m.right_atom);
          e.match_atoms.set(m.merged);
        }
        // A Type 1 entry's precomputed result atom maps exactly.
        if (e.type == ChangeType::Deterministic &&
            (e.next_atom == m.left_atom || e.next_atom == m.right_atom)) {
          e.next_atom = m.merged;
        }
      }
    }
  }
}

DeletePredicateResult ApClassifier::remove_predicate(PredId id) {
  return delete_predicate_internal(id);
}

DeletePredicateResult ApClassifier::delete_predicate_internal(PredId id) {
  const PredicateKind kind = reg_.info(id).kind;
  std::vector<AtomId> old_r;
  if (kind != PredicateKind::External) {
    reg_.atoms_of(id).for_each(
        [&old_r](std::size_t a) { old_r.push_back(static_cast<AtomId>(a)); });
  }
  auto res = apc::delete_predicate(tree_, reg_, uni_, id);
  apply_atom_merges(res.merges);
  for (const AtomMerge& m : res.merges) {
    delta_.killed.push_back(m.left_atom);
    delta_.killed.push_back(m.right_atom);
    delta_.added.push_back(m.merged);
  }
  // The deleted predicate's former members may change behavior (a Forward/
  // ACL entry vanished); merge operands in old_r land in `killed` too, and
  // consumers treat killed ∪ added ∪ dirty uniformly.
  for (const AtomId a : old_r) delta_.dirty.push_back(a);
  visit_counts_.grow(uni_.capacity());
  return res;
}

ApClassifier::RuleUpdateResult ApClassifier::refresh_box_predicates(BoxId box) {
  RuleUpdateResult res;
  auto new_preds = compile_box_forwarding(net_, *mgr_, box);
  auto& entries = compiled_.port_preds[box];

  // Update or delete existing per-port entries.
  std::vector<CompiledNetwork::PortEntry> next;
  next.reserve(new_preds.size());
  std::vector<bool> consumed(entries.size(), false);
  for (auto& [port, pred] : new_preds) {
    const CompiledNetwork::PortEntry* old = nullptr;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].port == port) {
        old = &entries[i];
        consumed[i] = true;
        break;
      }
    }
    if (old && !reg_.is_deleted(old->pred) && reg_.bdd_of(old->pred) == pred) {
      next.push_back(*old);  // unchanged: tree untouched (SS VI-A)
      continue;
    }
    // Changed (or new) predicate: delete the old (merging its atoms back),
    // add the new.
    CompiledNetwork::PortEntry e;
    e.port = port;
    e.out_acl = old ? old->out_acl : kNoPred;
    if (old) delete_predicate_internal(old->pred);
    const auto add = add_predicate_internal(std::move(pred), PredicateKind::Forward,
                                            PortId{box, port});
    e.pred = add.pred_id;
    res.atoms_split += add.leaves_split;
    ++res.predicates_changed;
    next.push_back(e);
  }
  // Ports that lost every effective rule: predicate disappears.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (consumed[i]) continue;
    delete_predicate_internal(entries[i].pred);
    ++res.predicates_changed;
  }
  entries = std::move(next);
  visit_counts_.grow(uni_.capacity());
  return res;
}

namespace {
/// True when every rule resolves purely by prefix length (classic LPM),
/// which admits the incremental delta below.  Custom priorities fall back
/// to a full box recompilation.
bool lpm_only(const Fib& fib, const ForwardingRule& rule) {
  if (rule.priority >= 0) return false;
  for (const auto& r : fib.rules)
    if (r.priority >= 0) return false;
  return true;
}
}  // namespace

/// Header space owned by `box`'s multicast group table (takes precedence
/// over unicast forwarding; the incremental FIB delta must never move it).
bdd::Bdd ApClassifier::multicast_space(BoxId box) const {
  bdd::Bdd mc = mgr_->bdd_false();
  const auto mit = net_.multicast.find(box);
  if (mit != net_.multicast.end()) {
    for (const MulticastRule& r : mit->second)
      mc = mc | prefix_predicate(*mgr_, HeaderLayout::kDstIp, r.group);
  }
  return mc;
}

// Incremental rule->predicate conversion (the method the paper cites as
// [37], SS VI-A).  For an LPM table, a rule's *effective region* is its
// prefix match minus the matches of strictly longer prefixes nested inside
// it; rule insertion moves exactly that region between port predicates, and
// deletion returns it to the longest covering ancestor prefix (or to
// unmatched space).  Only the two or three affected port predicates change;
// if the region is empty (rule fully shadowed) the AP Tree is untouched.

ApClassifier::RuleUpdateResult ApClassifier::insert_fib_rule(BoxId box,
                                                             const ForwardingRule& rule) {
  require(box < net_.topology.box_count(), "insert_fib_rule: bad box");
  require(rule.egress_port < net_.topology.box(box).ports.size(),
          "insert_fib_rule: rule references missing port");
  Fib& fib = net_.fib(box);
  const bool fast = lpm_only(fib, rule);
  fib.rules.push_back(rule);
  if (!fast) return refresh_box_predicates(box);

  // Effective region: match(rule) minus nested longer prefixes; empty if an
  // equal-or-covering prefix already exists (existing rule wins the tie).
  bdd::Bdd region = prefix_predicate(*mgr_, HeaderLayout::kDstIp, rule.dst);
  for (const auto& q : fib.rules) {
    if (&q == &fib.rules.back()) continue;  // the rule just inserted
    if (q.dst.covers(rule.dst)) {
      if (q.dst.len == rule.dst.len) return {};  // exact duplicate: shadowed
      continue;  // shorter ancestor: loses to the new rule inside region
    }
    if (rule.dst.covers(q.dst)) region = region.minus(
        prefix_predicate(*mgr_, HeaderLayout::kDstIp, q.dst));
  }
  region = region.minus(multicast_space(box));
  if (region.is_false()) return {};
  return move_region_to_port(box, region, rule.egress_port);
}

namespace {
/// Index of the first rule in `fib` matching `rule` (prefix, egress port,
/// effective priority), or fib.rules.size() when there is none.
std::size_t find_fib_rule(const Fib& fib, const ForwardingRule& rule) {
  for (std::size_t i = 0; i < fib.rules.size(); ++i)
    if (fib.rules[i].dst == rule.dst && fib.rules[i].egress_port == rule.egress_port &&
        fib.rules[i].effective_priority() == rule.effective_priority())
      return i;
  return fib.rules.size();
}
}  // namespace

bool ApClassifier::has_fib_rule(BoxId box, const ForwardingRule& rule) const {
  if (box >= net_.topology.box_count()) return false;
  const Fib& fib = net_.fib(box);
  return find_fib_rule(fib, rule) < fib.rules.size();
}

ApClassifier::RuleUpdateResult ApClassifier::remove_fib_rule(BoxId box,
                                                             const ForwardingRule& rule) {
  require(box < net_.topology.box_count(), "remove_fib_rule: bad box");
  Fib& fib = net_.fib(box);
  const std::size_t idx = find_fib_rule(fib, rule);
  require(idx < fib.rules.size(), "remove_fib_rule: no matching rule");
  const bool fast = lpm_only(fib, rule);
  fib.rules.erase(fib.rules.begin() + static_cast<std::ptrdiff_t>(idx));
  if (!fast) return refresh_box_predicates(box);

  // Region the deleted rule effectively owned, w.r.t. the remaining rules.
  bdd::Bdd region = prefix_predicate(*mgr_, HeaderLayout::kDstIp, rule.dst);
  const ForwardingRule* ancestor = nullptr;
  for (const auto& q : fib.rules) {
    if (q.dst.covers(rule.dst)) {
      // Covering prefix: an equal one re-owns the whole region immediately;
      // the longest proper ancestor inherits whatever ends up unowned.
      if (!ancestor || q.dst.len > ancestor->dst.len) ancestor = &q;
      continue;
    }
    if (rule.dst.covers(q.dst)) region = region.minus(
        prefix_predicate(*mgr_, HeaderLayout::kDstIp, q.dst));
  }
  region = region.minus(multicast_space(box));
  if (region.is_false()) return {};
  if (ancestor) return move_region_to_port(box, region, ancestor->egress_port);
  return remove_region(box, region);
}

/// Moves `region` of the header space to `target_port`'s predicate on `box`
/// and subtracts it from every other port predicate it intersects.
ApClassifier::RuleUpdateResult ApClassifier::move_region_to_port(
    BoxId box, const bdd::Bdd& region, std::uint32_t target_port) {
  RuleUpdateResult res;
  auto& entries = compiled_.port_preds[box];
  bool target_found = false;
  for (auto& e : entries) {
    const bdd::Bdd& old = reg_.bdd_of(e.pred);
    bdd::Bdd updated;
    if (e.port == target_port) {
      target_found = true;
      if (region.implies(old)) continue;  // already owned: no change
      updated = old | region;
    } else {
      if ((old & region).is_false()) continue;  // unaffected port
      updated = old.minus(region);
    }
    delete_predicate_internal(e.pred);
    if (updated.is_false()) continue;  // entry pruned below via rebuild of list
    const auto add = add_predicate_internal(std::move(updated),
                                            PredicateKind::Forward, PortId{box, e.port});
    e.pred = add.pred_id;
    res.atoms_split += add.leaves_split;
    ++res.predicates_changed;
  }
  // Drop entries whose predicate got deleted and not replaced (went empty).
  for (std::size_t i = 0; i < entries.size();) {
    if (reg_.is_deleted(entries[i].pred)) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      ++res.predicates_changed;
    } else {
      ++i;
    }
  }
  if (!target_found) {
    const auto add = add_predicate_internal(region, PredicateKind::Forward,
                                            PortId{box, target_port});
    CompiledNetwork::PortEntry e;
    e.port = target_port;
    e.pred = add.pred_id;
    e.out_acl = kNoPred;
    const auto it = compiled_.output_acl_pred.find({box, target_port});
    if (it != compiled_.output_acl_pred.end()) e.out_acl = it->second;
    entries.push_back(e);
    res.atoms_split += add.leaves_split;
    ++res.predicates_changed;
  }
  visit_counts_.grow(uni_.capacity());
  return res;
}

/// Removes `region` from whatever port predicates own it (it becomes
/// unmatched space on `box`).
ApClassifier::RuleUpdateResult ApClassifier::remove_region(BoxId box,
                                                           const bdd::Bdd& region) {
  RuleUpdateResult res;
  auto& entries = compiled_.port_preds[box];
  for (std::size_t i = 0; i < entries.size();) {
    auto& e = entries[i];
    const bdd::Bdd& old = reg_.bdd_of(e.pred);
    if ((old & region).is_false()) {
      ++i;
      continue;
    }
    bdd::Bdd updated = old.minus(region);
    delete_predicate_internal(e.pred);
    ++res.predicates_changed;
    if (updated.is_false()) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const auto add = add_predicate_internal(std::move(updated),
                                            PredicateKind::Forward, PortId{box, e.port});
    e.pred = add.pred_id;
    res.atoms_split += add.leaves_split;
    ++i;
  }
  visit_counts_.grow(uni_.capacity());
  return res;
}

ApClassifier::RuleUpdateResult ApClassifier::insert_flow_rule(BoxId box,
                                                              FlowRule rule) {
  require(box < net_.topology.box_count(), "insert_flow_rule: bad box");
  require(box >= net_.fibs.size() || net_.fib(box).rules.empty(),
          "insert_flow_rule: box forwards with a FIB; flow tables are exclusive");
  net_.flow_tables[box].add(std::move(rule));
  net_.validate();
  return refresh_box_predicates(box);
}

ApClassifier::RuleUpdateResult ApClassifier::remove_flow_rule(BoxId box,
                                                              std::size_t index) {
  const auto it = net_.flow_tables.find(box);
  require(it != net_.flow_tables.end() && index < it->second.rules.size(),
          "remove_flow_rule: no such rule");
  it->second.rules.erase(it->second.rules.begin() +
                         static_cast<std::ptrdiff_t>(index));
  return refresh_box_predicates(box);
}

ApClassifier::RuleUpdateResult ApClassifier::set_flow_table(BoxId box,
                                                            FlowTable table) {
  require(box < net_.topology.box_count(), "set_flow_table: bad box");
  require(box >= net_.fibs.size() || net_.fib(box).rules.empty(),
          "set_flow_table: box forwards with a FIB; flow tables are exclusive");
  net_.flow_tables[box] = std::move(table);
  net_.validate();
  return refresh_box_predicates(box);
}

ApClassifier::RuleUpdateResult ApClassifier::set_input_acl(BoxId box,
                                                           std::uint32_t port, Acl acl) {
  require(box < net_.topology.box_count() &&
              port < net_.topology.box(box).ports.size(),
          "set_input_acl: bad port");
  RuleUpdateResult res;
  net_.input_acls[{box, port}] = std::move(acl);
  bdd::Bdd pred = compile_acl(*mgr_, net_.input_acls.at({box, port}));

  const PredId old = compiled_.in_acl_by_port[box][port];
  if (old != kNoPred && !reg_.is_deleted(old) && reg_.bdd_of(old) == pred) return res;

  if (old != kNoPred) delete_predicate_internal(old);
  const auto add = add_predicate_internal(std::move(pred), PredicateKind::AclInput,
                                          PortId{box, port});
  compiled_.in_acl_by_port[box][port] = add.pred_id;
  compiled_.input_acl_pred[{box, port}] = add.pred_id;
  res.atoms_split += add.leaves_split;
  ++res.predicates_changed;
  visit_counts_.grow(uni_.capacity());
  return res;
}

void ApClassifier::rebuild(std::optional<BuildMethod> method, bool distribution_aware) {
  std::vector<double> weights;
  if (distribution_aware) weights = visit_weights();

  // Recompute atoms from live predicates only (deleted slots stay dead) and
  // renumber the universe from scratch (paper SS VI-B).
  AtomUniverse old_uni = std::move(uni_);
  std::vector<double> old_weights = std::move(weights);
  BuildPool bp(opts_.threads);
  uni_ = compute_atoms(reg_, AtomsOptions{bp.threads, bp.pool, &telemetry_.atoms});

  BuildOptions bo;
  bo.method = method.value_or(opts_.method);
  bo.seed = opts_.seed;
  bo.threads = bp.threads;
  bo.pool = bp.pool;
  bo.stats = &telemetry_.tree;

  std::vector<double> new_weights;
  if (distribution_aware) {
    // Carry weights across the renumbering: a new atom inherits the summed
    // weight of the old atoms it intersects (old atoms refine or equal new
    // ones when only deletions happened since counting).
    new_weights.assign(uni_.capacity(), 0.0);
    for (AtomId na = 0; na < uni_.capacity(); ++na) {
      if (!uni_.is_alive(na)) continue;
      double w = 0.0;
      for (AtomId oa = 0; oa < old_uni.capacity(); ++oa) {
        if (!old_uni.is_alive(oa) || oa >= old_weights.size()) continue;
        if (!(uni_.bdd_of(na) & old_uni.bdd_of(oa)).is_false()) w += old_weights[oa];
      }
      new_weights[na] = w > 0.0 ? w : 1.0;
    }
    bo.weights = &new_weights;
  }
  tree_ = build_tree(reg_, uni_, bo);
  visit_counts_.reset(uni_.capacity());
  ++telemetry_.rebuilds;
  // A full rebuild renumbers every atom: the accumulated delta no longer
  // describes the new universe.  Mark it lost so snapshot republication
  // falls back to a from-scratch build.  (rebuild_with_weights keeps the
  // atoms — and therefore the delta — intact.)
  delta_ = AtomDelta{};
  delta_.valid = false;
}

void ApClassifier::rebuild_with_weights(const std::vector<double>& atom_weights,
                                        std::optional<BuildMethod> method) {
  BuildOptions bo;
  bo.method = method.value_or(opts_.method);
  bo.seed = opts_.seed;
  bo.weights = &atom_weights;
  bo.threads = build_threads();
  bo.stats = &telemetry_.tree;
  tree_ = build_tree(reg_, uni_, bo);
  ++telemetry_.rebuilds;
}

void ApClassifier::reset_visit_counts() {
  visit_counts_.reset(uni_.capacity());
}

void ApClassifier::merge_visit_counts(const std::vector<std::uint64_t>& counts) {
  visit_counts_.grow(uni_.capacity());
  for (std::size_t i = 0; i < counts.size(); ++i) visit_counts_.add(i, counts[i]);
}

std::vector<double> ApClassifier::visit_weights() const {
  std::vector<double> w(uni_.capacity(), 1.0);
  for (std::size_t i = 0; i < visit_counts_.size() && i < w.size(); ++i) {
    const std::uint64_t c = visit_counts_.get(i);
    if (c > 0) w[i] = static_cast<double>(c);
  }
  return w;
}

ApClassifier::MemoryBreakdown ApClassifier::memory() const {
  MemoryBreakdown m;
  m.bdd_bytes = mgr_->memory_bytes();
  m.tree_bytes = tree_.memory_bytes();
  for (PredId i = 0; i < reg_.size(); ++i)
    m.registry_bytes += reg_.atoms_of(i).size() / 8 + sizeof(PredicateInfo);
  return m;
}

void ApClassifier::register_metrics(obs::MetricsRegistry& reg,
                                    const std::string& prefix) const {
  // Structure.
  reg.register_fn(prefix + ".predicates",
                  [this] { return static_cast<double>(reg_.live_count()); }, "count");
  reg.register_fn(prefix + ".atoms",
                  [this] { return static_cast<double>(uni_.alive_count()); }, "count");
  reg.register_fn(prefix + ".tree_nodes",
                  [this] { return static_cast<double>(tree_.node_count()); }, "count");
  reg.register_fn(prefix + ".memory_bytes",
                  [this] { return static_cast<double>(memory().total()); }, "bytes");

  // Construction (last build; see BuildTelemetry).
  const BuildTelemetry& t = telemetry_;
  reg.register_fn(prefix + ".build.refine_seconds",
                  [&t] { return t.atoms.refine_seconds; }, "seconds");
  reg.register_fn(prefix + ".build.merge_seconds",
                  [&t] { return t.atoms.merge_seconds; }, "seconds");
  reg.register_fn(prefix + ".build.land_seconds",
                  [&t] { return t.atoms.land_seconds; }, "seconds");
  reg.register_fn(prefix + ".build.groups",
                  [&t] { return static_cast<double>(t.atoms.groups); }, "count");
  reg.register_fn(prefix + ".build.atoms_produced",
                  [&t] { return static_cast<double>(t.atoms.atoms_produced); }, "count");
  reg.register_fn(prefix + ".build.tree_seconds",
                  [&t] { return t.tree.build_seconds; }, "seconds");
  reg.register_counter(prefix + ".build.forks", &t.tree.forks, "count");
  reg.register_fn(prefix + ".rebuilds",
                  [&t] { return static_cast<double>(t.rebuilds); }, "count");

  // BDD manager.
  reg.register_fn(prefix + ".bdd.nodes_allocated",
                  [this] { return static_cast<double>(mgr_->allocated_node_count()); },
                  "count");
  reg.register_fn(prefix + ".bdd.unique_table_buckets",
                  [this] { return static_cast<double>(mgr_->unique_table_buckets()); },
                  "count");
  reg.register_fn(prefix + ".bdd.cache_hits",
                  [this] { return static_cast<double>(mgr_->op_stats().cache_hits); },
                  "count");
  reg.register_fn(prefix + ".bdd.cache_misses",
                  [this] { return static_cast<double>(mgr_->op_stats().cache_misses); },
                  "count");
  reg.register_fn(prefix + ".bdd.unique_hits",
                  [this] { return static_cast<double>(mgr_->op_stats().unique_hits); },
                  "count");
  reg.register_fn(prefix + ".bdd.nodes_created",
                  [this] { return static_cast<double>(mgr_->op_stats().nodes_created); },
                  "count");
  reg.register_fn(prefix + ".bdd.gc_runs",
                  [this] { return static_cast<double>(mgr_->op_stats().gc_runs); },
                  "count");
}

obs::MetricsSnapshot ApClassifier::stats() const {
  obs::MetricsRegistry reg;
  register_metrics(reg);
  return reg.snapshot();
}

}  // namespace apc
