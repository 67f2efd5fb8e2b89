// Bounded exponential backoff with jitter for transient-failure retry loops
// (WAL append/fsync retries).
//
// The policy is the classic capped geometric schedule: attempt k sleeps
// base * multiplier^k, clamped to `max`, then scaled by a uniform jitter
// factor in [1 - jitter, 1 + jitter] so a fleet of retriers that failed
// together does not retry together (thundering herd).  Jitter draws from
// apc::Rng, the repo-wide deterministic generator, so tests can pin a seed
// and assert exact schedules.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace apc::util {

/// The retry schedule: how many attempts, and how long between them.
struct BackoffPolicy {
  /// Delay before the first retry.
  std::chrono::microseconds base{1000};
  /// Ceiling on any single delay (pre-jitter).
  std::chrono::microseconds max{100000};
  /// Geometric growth factor between consecutive retries.
  double multiplier = 2.0;
  /// Uniform jitter half-width: each delay is scaled by [1-j, 1+j].
  double jitter = 0.25;
  /// Retries allowed after the initial attempt; 0 = never retry.
  std::size_t max_retries = 4;

  /// The (jittered) delay before retry number `attempt` (0-based).
  std::chrono::microseconds delay(std::size_t attempt, Rng& rng) const {
    double d = static_cast<double>(base.count());
    const double cap = static_cast<double>(max.count());
    for (std::size_t i = 0; i < attempt && d < cap; ++i) d *= multiplier;
    d = std::min(d, cap);
    d *= 1.0 + jitter * (2.0 * rng.uniform01() - 1.0);
    d = std::clamp(d, 0.0, cap * (1.0 + jitter));
    return std::chrono::microseconds(static_cast<std::int64_t>(std::llround(d)));
  }
};

/// One retry loop's state: counts attempts against the policy budget and
/// hands out successive delays.  Not thread-safe; make one per loop.
class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy, std::uint64_t seed = 0x5eedb0ffull)
      : policy_(policy), rng_(seed) {}

  /// True once the retry budget is spent (next_delay was called
  /// max_retries times since construction/reset).
  bool exhausted() const { return attempt_ >= policy_.max_retries; }
  /// Retries handed out so far.
  std::size_t attempts() const { return attempt_; }

  /// The delay to sleep before the next retry; advances the attempt count.
  std::chrono::microseconds next_delay() { return policy_.delay(attempt_++, rng_); }

  void reset() { attempt_ = 0; }

 private:
  BackoffPolicy policy_;
  Rng rng_;
  std::size_t attempt_ = 0;
};

}  // namespace apc::util
