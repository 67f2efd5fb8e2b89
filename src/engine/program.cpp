#include "engine/program.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace apc::engine {

namespace {

/// Jump-field assembly: target-or-atom in the low bits, the instruction's
/// word index duplicated above, leaf flag on top.
std::uint32_t pack_jump(std::uint32_t jump, std::uint32_t word) {
  return (jump & (MatchProgram::kLeafBit | MatchProgram::kTargetMask)) |
         (word << MatchProgram::kWordShift);
}

/// Pass 1 of the compiler: lowers the BDD under one tree node at a time
/// into `code_`, continuations before consumers.  The memo (BDD index ->
/// emitted pc) is only valid while the two terminal continuations are
/// fixed, i.e. within one tree node; instead of clearing it per tree node,
/// each entry carries the stamp of the tree node that wrote it, and a new
/// tree node bumps the stamp.  The memo is indexed by flat BDD node, so a
/// probe is one load.
class Lowerer {
 public:
  Lowerer(const bdd::FlatBddNode* bdd, std::size_t bdd_count, std::size_t cap)
      : bdd_(bdd), memo_(bdd_count), cap_(cap) {}

  /// Lowers the BDD rooted at `root` for a tree node whose true/false
  /// branches continue at the given jumps; returns the node's entry jump.
  std::uint32_t lower(std::uint32_t root, std::uint32_t true_cont,
                      std::uint32_t false_cont) {
    ++epoch_;
    true_cont_ = true_cont;
    false_cont_ = false_cont;
    return jump_to(root);
  }

  bool overflow() const { return overflow_; }
  std::vector<MatchInsn> take_code() { return std::move(code_); }

 private:
  // The entry jump of the BDD rooted at `r`: a continuation when `r` is a
  // terminal, the memoized pc when this tree node already emitted `r`.
  std::uint32_t jump_to(std::uint32_t r) {
    if (r == bdd::kFalse) return false_cont_;
    if (r == bdd::kTrue) return true_cont_;
    if (memo_[r].stamp == epoch_) return memo_[r].pc;
    return emit(r);
  }

  // Emits the program for the BDD rooted at `r` and returns its pc.
  // Recursion depth is bounded by the BDD's variable count (ROBDD paths are
  // strictly variable-increasing), not its node count.
  std::uint32_t emit(std::uint32_t r) {
    if (overflow_) return 0;

    // Coalesce the maximal Click-style chain starting at r: consecutive
    // bit-tests on the same 32-bit header word whose fail edges all reach
    // the same continuation collapse into one mask-and-compare.  Each node
    // contributes its bit to the mask; the bit's required value is 1 when
    // the chain continues through the hi edge and 0 through the lo edge.
    const std::uint32_t word = bdd_[r].var >> 5;
    std::uint32_t mask = 0, value = 0;
    std::uint32_t cur = r;
    bool pass_hi;
    std::uint32_t fail_ref;
    {
      // First link: either edge may be the fail side.  Prefer the choice
      // that lets the chain extend; default to hi-pass (positive literal).
      const bdd::FlatBddNode& n = bdd_[cur];
      const auto extends = [&](std::uint32_t pass, std::uint32_t fail) {
        return pass > bdd::kTrue && (bdd_[pass].var >> 5) == word &&
               (bdd_[pass].lo == fail || bdd_[pass].hi == fail);
      };
      if (extends(n.hi, n.lo)) {
        pass_hi = true;
        fail_ref = n.lo;
      } else if (extends(n.lo, n.hi)) {
        pass_hi = false;
        fail_ref = n.hi;
      } else {
        pass_hi = true;
        fail_ref = n.lo;
      }
    }
    std::uint32_t pass_ref;
    while (true) {
      const bdd::FlatBddNode& n = bdd_[cur];
      const std::uint32_t bit = 1u << (n.var & 31u);
      mask |= bit;
      if (pass_hi) value |= bit;
      pass_ref = pass_hi ? n.hi : n.lo;
      if (pass_ref <= bdd::kTrue) break;
      const bdd::FlatBddNode& nx = bdd_[pass_ref];
      if ((nx.var >> 5) != word) break;
      if (nx.lo == fail_ref) {
        cur = pass_ref;
        pass_hi = true;
      } else if (nx.hi == fail_ref) {
        cur = pass_ref;
        pass_hi = false;
      } else {
        break;
      }
    }

    const std::uint32_t on_match = jump_to(pass_ref);
    const std::uint32_t on_fail = jump_to(fail_ref);
    if (overflow_) return 0;
    if (code_.size() >= cap_) {
      overflow_ = true;
      return 0;
    }
    const std::uint32_t pc = static_cast<std::uint32_t>(code_.size());
    code_.push_back(
        {mask, value, pack_jump(on_match, word), pack_jump(on_fail, word)});
    memo_[r] = {epoch_, pc};
    return pc;
  }

  struct MemoEntry {
    std::uint32_t stamp = 0;  ///< tree-node stamp that wrote `pc`
    std::uint32_t pc = 0;
  };

  const bdd::FlatBddNode* bdd_;
  std::vector<MemoEntry> memo_;
  std::uint32_t epoch_ = 0;
  std::size_t cap_;
  bool overflow_ = false;
  std::uint32_t true_cont_ = 0, false_cont_ = 0;
  std::vector<MatchInsn> code_;
};

}  // namespace

void ProgramImage::write(MatchInsn* dst) const {
  const auto relabel = [&](std::uint32_t jump) {
    if (jump & MatchProgram::kLeafBit) return jump;
    return (jump & ~MatchProgram::kTargetMask) |
           newpc_[jump & MatchProgram::kTargetMask];
  };
  for (const std::uint32_t pc : order_) {
    const MatchInsn& insn = code_[pc];
    *dst++ = {insn.mask, insn.value, relabel(insn.on_match),
              relabel(insn.on_fail)};
  }
}

std::optional<ProgramImage> MatchProgram::lower(
    const bdd::FlatBddNode* bdd_nodes, std::size_t bdd_count,
    const FlatTreeNode* tree, std::size_t tree_count, std::int32_t root,
    std::size_t max_bytes) {
  if (tree_count == 0 || root < 0) return std::nullopt;
  const std::size_t cap =
      max_bytes == 0 ? kMaxInstructions
                     : std::min(kMaxInstructions, max_bytes / sizeof(MatchInsn));

  // Pass 1 — lower, tree nodes in reverse DFS order.  A node's true branch
  // continues at tree[idx + 1] and its false branch at tree[idx].right, and
  // both sit strictly after idx in DFS preorder, so walking idx backwards
  // guarantees every continuation's entry jump is already known.  Leaves
  // need no instruction at all: their entry IS a leaf-encoded jump.
  Lowerer lowerer(bdd_nodes, bdd_count, cap);
  std::vector<std::uint32_t> entry(tree_count, kLeafBit);
  for (std::int32_t idx = static_cast<std::int32_t>(tree_count) - 1; idx >= 0;
       --idx) {
    const FlatTreeNode& t = tree[idx];
    if (t.right == kLeaf) {
      require((t.bdd_root & ~kTargetMask) == 0,
              "MatchProgram: atom id exceeds 27-bit jump encoding");
      entry[idx] = kLeafBit | t.bdd_root;
      continue;
    }
    entry[idx] = lowerer.lower(t.bdd_root, entry[idx + 1], entry[t.right]);
    if (lowerer.overflow()) return std::nullopt;
  }

  // Pass 2 — layout.  Pass 1 emitted continuations before consumers, so the
  // entry sits at the END of `code` and a walk streams backwards.  Renumber
  // in DFS preorder from the entry, match edge first: the all-match path of
  // any walk becomes forward-contiguous, and instructions unreachable from
  // the entry (lowered for tree nodes a constant predicate skips) drop out.
  // The instructions themselves move only in ProgramImage::write().
  ProgramImage img;
  img.code_ = lowerer.take_code();
  constexpr std::uint32_t kUnplaced = 0xFFFFFFFFu;
  img.newpc_.assign(img.code_.size(), kUnplaced);
  img.order_.reserve(img.code_.size());
  if ((entry[root] & kLeafBit) == 0) {
    std::vector<std::uint32_t> stack{entry[root] & kTargetMask};
    while (!stack.empty()) {
      const std::uint32_t pc = stack.back();
      stack.pop_back();
      if (img.newpc_[pc] != kUnplaced) continue;
      img.newpc_[pc] = static_cast<std::uint32_t>(img.order_.size());
      img.order_.push_back(pc);
      const MatchInsn& insn = img.code_[pc];
      if ((insn.on_fail & kLeafBit) == 0)
        stack.push_back(insn.on_fail & kTargetMask);
      if ((insn.on_match & kLeafBit) == 0)  // pushed last: popped (placed) first
        stack.push_back(insn.on_match & kTargetMask);
    }
    img.entry_ = (entry[root] & ~kTargetMask) | img.newpc_[entry[root] & kTargetMask];
  } else {
    img.entry_ = entry[root];
  }
  return img;
}

std::shared_ptr<const MatchProgram> MatchProgram::compile(
    const bdd::FlatBddNode* bdd_nodes, std::size_t bdd_count,
    const FlatTreeNode* tree, std::size_t tree_count, std::int32_t root,
    std::size_t max_bytes) {
  Stopwatch sw;
  const std::optional<ProgramImage> img =
      lower(bdd_nodes, bdd_count, tree, tree_count, root, max_bytes);
  if (!img) return nullptr;
  auto prog = std::shared_ptr<MatchProgram>(new MatchProgram());
  prog->insns_.resize(img->instruction_count());
  img->write(prog->insns_.data());
  prog->entry_ = img->entry();
  prog->code_ = prog->insns_.data();
  prog->code_count_ = prog->insns_.size();
  prog->compile_seconds_ = sw.seconds();
  return prog;
}

std::shared_ptr<const MatchProgram> MatchProgram::adopt(
    const MatchInsn* code, std::size_t count, std::uint32_t entry,
    std::shared_ptr<const void> keepalive, double compile_seconds) {
  require(keepalive != nullptr, "MatchProgram::adopt: keepalive required");
  auto prog = std::shared_ptr<MatchProgram>(new MatchProgram());
  prog->code_ = code;
  prog->code_count_ = count;
  prog->keepalive_ = std::move(keepalive);
  prog->entry_ = entry;
  prog->compile_seconds_ = compile_seconds;
  return prog;
}

void MatchProgram::run_batch(const PacketHeader* hs, const std::size_t* which,
                             std::size_t n, AtomId* out,
                             KernelKind kernel) const {
  if (n == 0) return;
  if (kernel == KernelKind::kAvx2 && avx2_available())
    run_batch_avx2(hs, which, n, out);
  else
    run_batch_scalar(hs, which, n, out);
}

#if !defined(APC_HAVE_AVX2_KERNEL)
// AVX2 kernel compiled out (non-x86 target or -DAPC_ENABLE_AVX2=OFF): the
// dispatcher only ever sees the scalar path.
bool MatchProgram::avx2_available() { return false; }
void MatchProgram::run_batch_avx2(const PacketHeader* hs,
                                  const std::size_t* which, std::size_t n,
                                  AtomId* out) const {
  run_batch_scalar(hs, which, n, out);
}
#endif

}  // namespace apc::engine
