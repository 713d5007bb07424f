#ifndef ROBOPT_EXEC_PLATFORM_HEALTH_H_
#define ROBOPT_EXEC_PLATFORM_HEALTH_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "platform/platform.h"

namespace robopt {

class MetricsRegistry;

/// Circuit-breaker state of one platform (the classic three-state machine).
enum class BreakerState : uint8_t {
  kClosed = 0,  ///< Healthy: requests flow, failures are counted.
  kOpen,        ///< Tripped: requests are rejected until the cooldown ends.
  kHalfOpen,    ///< Probing: requests flow; the next outcome decides.
};

const char* ToString(BreakerState state);

/// Per-platform breaker thresholds. Cooldown is measured on the registry's
/// *virtual* clock (AdvanceClock), the same clock the executor charges, so
/// breaker tests and benches are fully deterministic — no wall time.
struct BreakerOptions {
  /// Consecutive operator-level failures that trip a closed breaker.
  int failure_threshold = 5;
  /// Virtual seconds an open breaker waits before allowing a half-open
  /// probe.
  double cooldown_s = 30.0;
};

/// Read-only view of one breaker for stats and tests.
struct BreakerSnapshot {
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  uint64_t trips = 0;       ///< closed/half-open -> open transitions.
  uint64_t recoveries = 0;  ///< half-open -> closed transitions.
  uint64_t rejected = 0;    ///< Requests refused while open.
  double opened_at_s = 0.0;
};

/// Thread-safe registry of per-platform circuit breakers over a shared
/// virtual clock. Executors call AllowRequest / RecordSuccess /
/// RecordFailure around every operator run and AdvanceClock with each
/// completed execution's virtual runtime; the serving layer reads
/// OpenMask() to mask dead platforms out of re-optimization.
///
/// State machine per platform:
///   closed --[failure_threshold consecutive failures]--> open
///   open   --[cooldown_s of virtual time]--> half-open (next request is
///            the probe; the transition happens lazily inside
///            AllowRequest/state/OpenMask)
///   half-open --[probe success]--> closed    (a recovery)
///   half-open --[probe failure]--> open      (a new trip, cooldown restarts)
class PlatformHealth {
 public:
  explicit PlatformHealth(BreakerOptions options = {});

  /// True when `platform` may serve a request. An open breaker whose
  /// cooldown has elapsed transitions to half-open and admits the request
  /// as its probe; otherwise the rejection is counted and false returned.
  bool AllowRequest(PlatformId platform);

  /// Records one successful operator run: resets the consecutive-failure
  /// count; closes a half-open breaker (a recovery).
  void RecordSuccess(PlatformId platform);

  /// Records one failed operator run (injected fault, OOM): increments the
  /// consecutive-failure count and trips the breaker at the threshold; a
  /// half-open breaker re-opens immediately.
  void RecordFailure(PlatformId platform);

  /// Advances the shared virtual clock (non-finite or negative deltas are
  /// ignored — an OOM's +inf cost must not fast-forward every cooldown).
  void AdvanceClock(double virtual_seconds);

  double now_s() const;

  /// Current state, applying the open -> half-open cooldown transition.
  BreakerState state(PlatformId platform);

  BreakerSnapshot snapshot(PlatformId platform) const;

  /// Bitmask (bit i = platform id i) of platforms whose breaker is open
  /// right now, after applying cooldown transitions. Half-open platforms
  /// are *not* included: the next query routed there is the probe.
  /// Lock-free when no breaker is open — the serving layer calls this on
  /// every Optimize(), so the healthy path must not contend on mu_.
  uint64_t OpenMask();

  uint64_t total_trips() const;
  uint64_t total_recoveries() const;

  /// Monotone counter bumped on every breaker trip, readable without the
  /// lock. The serving layer compares it against the last value it
  /// reconciled on request entry: unchanged (the overwhelmingly common
  /// case) means no new trips to sweep from its plan caches, so the healthy
  /// hot path costs one acquire load instead of a shared mutex. It reads it
  /// once more before caching a freshly optimized plan: a moved epoch means
  /// a trip overlapped the optimize, and the plan is not cached.
  uint64_t trip_epoch() const {
    return trip_epoch_.load(std::memory_order_acquire);
  }

  /// Mirrors the first `num_platforms` breakers into per-platform
  /// robopt_breaker_* gauges (label suffix {platform="i"}) plus the shared
  /// virtual clock. Gauges are *Set* from snapshots — the breaker structs
  /// remain the source of truth and re-exporting is idempotent.
  void ExportTo(MetricsRegistry* registry, int num_platforms);

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    uint64_t trips = 0;
    uint64_t recoveries = 0;
    uint64_t rejected = 0;
    double opened_at_s = 0.0;
  };

  /// Applies the open -> half-open transition if the cooldown elapsed.
  /// Caller holds mu_.
  void MaybeHalfOpenLocked(int platform);
  void TripLocked(int platform);

  const BreakerOptions options_;
  mutable std::mutex mu_;  ///< Guards the clock and every breaker.
  double now_s_ = 0.0;
  std::array<Breaker, kMaxPlatforms> breakers_;
  /// Mirror of the open bits, written only under mu_ (set in TripLocked,
  /// cleared on open -> half-open). Read lock-free by OpenMask(): a zero
  /// mask means no breaker is open, hence no lazy transition to apply.
  std::atomic<uint64_t> open_mask_{0};
  /// Bumped in TripLocked; see trip_epoch().
  std::atomic<uint64_t> trip_epoch_{0};
};

}  // namespace robopt

#endif  // ROBOPT_EXEC_PLATFORM_HEALTH_H_
