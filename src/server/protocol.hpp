// Wire protocol of the TCP serving layer (see docs/architecture.md,
// "Serving layer").
//
// The protocol is line-oriented text — one directive per '\n'-terminated
// line, Click/ChatterSocket style — so a shell, a test, and the closed-loop
// bench all speak it with no codec.  Requests:
//
//   C <w0> <w1> <w2> <w3> <w4>            stage-1 classify (5 hex words)
//   Q <ingress> <w0> <w1> <w2> <w3> <w4>  two-stage query from a box
//   GO                                    execute the batched C/Q lines
//   A fib <box> <prefix> <port> [prio]    install a FIB rule
//   R fib <box> <prefix> <port> [prio]    remove a FIB rule
//   STATS                                 metric snapshot
//   EPOCH                                 current cluster epoch
//
// C/Q lines buffer into the connection's pending batch; GO executes the
// whole batch against ONE pinned cluster epoch and streams the answers
// back.  Responses lead with a numeric status line:
//
//   201 <epoch> <n>   batch executed; n answer lines follow, in order
//   200 <epoch>       update applied / EPOCH answer
//   202 <n>           STATS; n "name value" lines follow
//   400 <message>     parse error (this line only; the batch is kept)
//   408 <message>     idle/write deadline hit; the server closes the line
//   503 <message>     admission shed / connection-cap shed / draining
//                     (retry later), or an update refused while the
//                     cluster is read-only
//   500 <message>     internal error
//
// Parsing reuses the hardened io/line_parse helpers: 64 KiB line cap,
// structural UTF-8 validation, bounded integer parses with typed
// apc::Error(kParse) failures.  The line is scanned in place (the server
// passes a view into its recv buffer) into a reused token vector, so a
// well-formed line is decoded without allocating.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "classifier/behavior.hpp"
#include "packet/header.hpp"
#include "rules/rules.hpp"

namespace apc::server {

enum class RequestKind : std::uint8_t {
  kClassify,    ///< C — buffer a stage-1 classify into the batch
  kQuery,       ///< Q — buffer a two-stage query into the batch
  kGo,          ///< GO — execute the pending batch
  kAddRule,     ///< A fib — install a forwarding rule
  kRemoveRule,  ///< R fib — remove a forwarding rule
  kStats,       ///< STATS — metric snapshot
  kEpoch,       ///< EPOCH — current cluster epoch
};

/// A FIB update carried by an A/R line.
struct RuleSpec {
  BoxId box = 0;
  ForwardingRule rule;
};

/// One parsed request line.  Only the fields of the active kind are
/// meaningful.
struct Request {
  RequestKind kind = RequestKind::kGo;
  PacketHeader header;   ///< kClassify / kQuery
  BoxId ingress = 0;     ///< kQuery
  RuleSpec rule;         ///< kAddRule / kRemoveRule
};

/// Parses one protocol line (without its terminator).  Blank and
/// comment-only lines have no request — callers skip them (returns false).
/// Malformed input throws apc::Error(kParse) with `lineno` in the message.
bool parse_request(std::string_view line, std::size_t lineno, Request& out);

/// Round-trip formatting (tests and the bench client build lines with
/// these; answers embed format_behavior_summary).
std::string format_classify(const PacketHeader& h);
std::string format_query(BoxId ingress, const PacketHeader& h);
std::string format_rule(bool add, const RuleSpec& spec);
/// One-line behavior digest: "B <edges> <deliveries> <drops> <loop>" — a
/// stable scalar summary two epoch-differential clients can compare.
std::string format_behavior_summary(const Behavior& b);

/// Formats one STATS row value.  Integral values (counters, epochs, byte
/// totals) print as exact integers — "%.10g" would silently round a u64
/// above 2^10 significant digits — while genuine reals keep the compact
/// 10-significant-digit form.
std::string format_stat_value(double v);

}  // namespace apc::server
