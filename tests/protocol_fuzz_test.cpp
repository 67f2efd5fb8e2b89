// Seeded mutation fuzzing of the text parsers (no libFuzzer needed): valid
// protocol lines and network-file directives are mutated with byte flips,
// inserts, deletes and truncations, and every variant is fed to
// server::parse_request (which WAL replay also runs on each record's
// payload) and to io::read_network_string.
//
// Invariant: an input either parses or throws apc::Error(kParse) — nothing
// crashes, reads out of bounds (run it under ASan/UBSan) or throws any
// other error.  Every accepted C/Q/A/R line must round-trip through the
// formatters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/network_io.hpp"
#include "packet/ipv4.hpp"
#include "server/protocol.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

constexpr int kMutantsPerSeed = 3000;

// Bytes the mutator favours: separators, comment and sign characters,
// digits and hex letters, and the bytes UTF-8 validation cares about.
constexpr unsigned char kInteresting[] = {
    ' ', '\t', '\v', '\f', '\r', '\n', '#', '-', '+', '/', '.', '0', '1', '9',
    'a', 'f', 'F', 'x', 'z', 0x00, 0x7F, 0x80, 0xBF, 0xC0, 0xC3, 0xE0, 0xED,
    0xF0, 0xF4, 0xFF};

unsigned char random_byte(Rng& rng) {
  if (rng.coin(0.7)) return kInteresting[rng.uniform(sizeof kInteresting)];
  return static_cast<unsigned char>(rng.uniform(256));
}

/// Applies 1-4 random edits: flip a bit, overwrite, insert, delete, or
/// truncate.
std::string mutate(std::string s, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = s.empty() ? 0 : rng.uniform(s.size());
    switch (rng.uniform(5)) {
      case 0:
        if (!s.empty()) s[pos] = static_cast<char>(s[pos] ^ (1u << rng.uniform(8)));
        break;
      case 1:
        if (!s.empty()) s[pos] = static_cast<char>(random_byte(rng));
        break;
      case 2:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos),
                 static_cast<char>(random_byte(rng)));
        break;
      case 3:
        if (!s.empty()) s.erase(pos, 1 + rng.uniform(3));
        break;
      default:
        s.resize(pos);
        break;
    }
  }
  return s;
}

/// Feeds one line to parse_request and checks the invariant.
void check_request(const std::string& line) {
  server::Request req;
  bool parsed = false;
  try {
    parsed = server::parse_request(line, 1, req);
  } catch (const Error& e) {
    ASSERT_EQ(e.code(), ErrorCode::kParse) << e.what() << " for: " << line;
    return;
  } catch (const std::exception& e) {
    FAIL() << "untyped " << e.what() << " for: " << line;
  }
  if (!parsed) return;
  server::Request back;
  switch (req.kind) {
    case server::RequestKind::kClassify:
      ASSERT_TRUE(server::parse_request(server::format_classify(req.header), 1, back));
      EXPECT_EQ(back.kind, req.kind);
      EXPECT_EQ(back.header, req.header) << line;
      break;
    case server::RequestKind::kQuery:
      ASSERT_TRUE(server::parse_request(server::format_query(req.ingress, req.header), 1,
                                        back));
      EXPECT_EQ(back.kind, req.kind);
      EXPECT_EQ(back.ingress, req.ingress) << line;
      EXPECT_EQ(back.header, req.header) << line;
      break;
    case server::RequestKind::kAddRule:
    case server::RequestKind::kRemoveRule: {
      const bool add = req.kind == server::RequestKind::kAddRule;
      ASSERT_TRUE(server::parse_request(server::format_rule(add, req.rule), 1, back));
      EXPECT_EQ(back.kind, req.kind);
      EXPECT_EQ(back.rule.box, req.rule.box);
      EXPECT_EQ(back.rule.rule.dst, req.rule.rule.dst) << line;
      EXPECT_EQ(back.rule.rule.egress_port, req.rule.rule.egress_port);
      EXPECT_EQ(back.rule.rule.priority, req.rule.rule.priority);
      break;
    }
    default:
      break;
  }
}

TEST(ProtocolFuzz, MutatedRequestLinesParseOrFailTyped) {
  const std::vector<std::string> seeds = {
      "C a000001 c0a80001 5000000000000 0 0",
      "C ffffffffffffffff ffffffffffffffff ffffffffffffffff ffffffffffffffff "
      "ffffffffffffffff",
      "Q 7 a000001 c0a80001 1b000500 6 0",
      "Q 4294967295 0 0 0 0 0",
      "A fib 3 10.1.2.0/24 2 40",
      "R fib 0 0.0.0.0/0 1",
      "A fib 4294967295 255.255.255.255/32 4294967295 2147483647",
      "GO",
      "STATS",
      "EPOCH",
      "  # comment",
  };
  Rng rng(0x5eed);
  for (const std::string& seed : seeds) {
    check_request(seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      check_request(mutate(seed, rng));
      if (HasFatalFailure()) return;
    }
  }
}

void check_network(const std::string& text) {
  try {
    (void)io::read_network_string(text);
  } catch (const Error& e) {
    ASSERT_EQ(e.code(), ErrorCode::kParse) << e.what() << " for:\n" << text;
  } catch (const std::exception& e) {
    FAIL() << "untyped " << e.what() << " for:\n" << text;
  }
}

TEST(ProtocolFuzz, MutatedNetworkFileDirectivesParseOrFailTyped) {
  // One valid file; each mutant edits a single directive in place.
  const std::vector<std::string> lines = {
      "# fuzz seed network",
      "box a",
      "box b",
      "box c",
      "link a b",
      "link b c",
      "hostport a h1",
      "hostport c",
      "fib a 10.0.0.0/8 0",
      "fib b 10.1.0.0/16 1 7",
      "flowrule c 5 forward 0 exact 96 8 6 prefix 0 32 167772160 8 range 64 16 80 443",
      "flowrule c 1 drop",
      "mcast a 224.0.0.0/4 0 1",
      "acl in b 0 default permit",
      "aclrule in b 0 deny src 10.0.0.0/8 dst 0.0.0.0/0 sport 0-65535 dport 22-22 proto 6",
      "acl out a 0 default deny",
      "aclrule out a 0 permit src 0.0.0.0/0 dst 10.1.0.0/16 sport 0-65535 dport 0-65535 "
      "proto any",
  };
  const auto join = [&](std::size_t at, const std::string& replacement) {
    std::string text;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      text += i == at ? replacement : lines[i];
      text += '\n';
    }
    return text;
  };
  ASSERT_NO_THROW((void)io::read_network_string(join(lines.size(), "")));
  Rng rng(0xf11e);
  for (std::size_t at = 0; at < lines.size(); ++at) {
    for (int i = 0; i < kMutantsPerSeed / 4; ++i) {
      check_network(join(at, mutate(lines[at], rng)));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace apc
