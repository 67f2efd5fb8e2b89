#include "server/protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "io/line_parse.hpp"

namespace apc::server {

namespace {

using io::parse_fail;
using io::parse_hex64;
using io::parse_uint;

/// Parses the 5 hex header words at tokens[first..first+5).
PacketHeader parse_header(const std::vector<std::string_view>& toks, std::size_t first,
                          std::size_t lineno) {
  if (toks.size() != first + PacketHeader::kWords)
    parse_fail(lineno, "expected 5 header words");
  std::array<std::uint64_t, PacketHeader::kWords> w;
  for (std::uint32_t i = 0; i < PacketHeader::kWords; ++i)
    w[i] = parse_hex64(toks[first + i], lineno, "header word");
  return PacketHeader::from_words(w);
}

/// Parses "fib <box> <prefix> <port> [prio]" at tokens[1..].
RuleSpec parse_rule(const std::vector<std::string_view>& toks, std::size_t lineno) {
  if (toks.size() < 5 || toks.size() > 6) parse_fail(lineno, "expected: fib <box> <prefix> <port> [prio]");
  if (toks[1] != "fib")
    parse_fail(lineno, "unknown rule table '" + std::string(toks[1]) + "' (only 'fib')");
  RuleSpec spec;
  spec.box = parse_uint(toks[2], lineno, "box id");
  try {
    spec.rule.dst = parse_prefix(toks[3]);
  } catch (const Error& e) {
    parse_fail(lineno, std::string("bad prefix: ") + e.what());
  }
  spec.rule.egress_port = parse_uint(toks[4], lineno, "egress port");
  if (toks.size() == 6)
    spec.rule.priority = static_cast<std::int32_t>(
        parse_uint(toks[5], lineno, "priority", 0x7FFFFFFFull));
  return spec;
}

/// Appends " <hex>" for each header word (lowercase, no leading zeros).
void append_words(std::string& out, const PacketHeader& h) {
  char buf[PacketHeader::kWords * 17];
  char* p = buf;
  for (const std::uint64_t w : h.words()) {
    *p++ = ' ';
    p = std::to_chars(p, buf + sizeof buf, w, 16).ptr;
  }
  out.append(buf, p);
}

}  // namespace

bool parse_request(std::string_view line, std::size_t lineno, Request& out) {
  io::check_line(line, lineno);
  // One token vector per thread, reused across lines: after the first
  // line a request is split and decoded without touching the heap.
  thread_local std::vector<std::string_view> toks;
  io::tokenize(line, toks);
  if (toks.empty()) return false;  // blank / comment-only: nothing to do
  const std::string_view op = toks[0];
  if (op == "C") {
    out.kind = RequestKind::kClassify;
    out.header = parse_header(toks, 1, lineno);
  } else if (op == "Q") {
    if (toks.size() < 2) parse_fail(lineno, "Q needs an ingress box id");
    out.kind = RequestKind::kQuery;
    out.ingress = parse_uint(toks[1], lineno, "ingress box id");
    out.header = parse_header(toks, 2, lineno);
  } else if (op == "GO") {
    if (toks.size() != 1) parse_fail(lineno, "GO takes no arguments");
    out.kind = RequestKind::kGo;
  } else if (op == "A" || op == "R") {
    out.kind = op == "A" ? RequestKind::kAddRule : RequestKind::kRemoveRule;
    out.rule = parse_rule(toks, lineno);
  } else if (op == "STATS") {
    if (toks.size() != 1) parse_fail(lineno, "STATS takes no arguments");
    out.kind = RequestKind::kStats;
  } else if (op == "EPOCH") {
    if (toks.size() != 1) parse_fail(lineno, "EPOCH takes no arguments");
    out.kind = RequestKind::kEpoch;
  } else {
    parse_fail(lineno, "unknown directive '" + std::string(op) + "'");
  }
  return true;
}

std::string format_classify(const PacketHeader& h) {
  std::string out = "C";
  append_words(out, h);
  return out;
}

std::string format_query(BoxId ingress, const PacketHeader& h) {
  std::string out = "Q " + std::to_string(ingress);
  append_words(out, h);
  return out;
}

std::string format_rule(bool add, const RuleSpec& spec) {
  std::string out = add ? "A fib " : "R fib ";
  out += std::to_string(spec.box);
  out += ' ';
  out += format_prefix(spec.rule.dst);
  out += ' ';
  out += std::to_string(spec.rule.egress_port);
  if (spec.rule.priority >= 0) {
    out += ' ';
    out += std::to_string(spec.rule.priority);
  }
  return out;
}

std::string format_behavior_summary(const Behavior& b) {
  // Stable content digest so two clients comparing answer lines detect a
  // *different* behavior, not just a different shape: fold every hop and
  // delivery into one 64-bit FNV-1a value.
  std::uint64_t x = 1469598103934665603ull;
  const auto mix = [&x](std::uint64_t v) {
    x ^= v;
    x *= 1099511628211ull;
  };
  for (const auto& e : b.edges) {
    mix(e.box);
    mix(e.out_port);
    mix(e.to ? *e.to + 1 : 0);
  }
  for (const auto& d : b.deliveries) {
    mix(d.box);
    mix(d.port);
  }
  for (const auto& d : b.drops) {
    mix(d.box);
    mix(static_cast<std::uint64_t>(d.reason));
  }
  // "B <edges> <deliveries> <drops> <loop> <digest>": at most 83 bytes.
  char buf[96];
  char* p = buf;
  const auto put = [&](std::uint64_t v, int base) {
    p = std::to_chars(p, buf + sizeof buf, v, base).ptr;
  };
  *p++ = 'B';
  *p++ = ' ';
  put(b.edges.size(), 10);
  *p++ = ' ';
  put(b.deliveries.size(), 10);
  *p++ = ' ';
  put(b.drops.size(), 10);
  *p++ = ' ';
  *p++ = b.loop_detected ? '1' : '0';
  *p++ = ' ';
  put(x, 16);
  return std::string(buf, p);
}

std::string format_stat_value(double v) {
  char buf[40];
  // Doubles hold every integer up to 2^53 exactly and every *representable*
  // integral value exactly; "%.0f" prints those digits verbatim, so a u64
  // counter that survived the double conversion round-trips.  The 2^63
  // bound keeps the output within a fixed digit count (and anything larger
  // has already lost integer precision on the way into the double).
  if (std::isfinite(v) && std::nearbyint(v) == v && std::fabs(v) < 9.2e18) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  return buf;
}

}  // namespace apc::server
