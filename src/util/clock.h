// Time vocabulary used throughout flexstream.
//
// Two distinct notions of time exist in a stream system and must not be
// mixed up:
//  * Wall time (steady_clock) — used by schedulers, rate-controlled sources
//    and benchmarks to pace and measure real execution.
//  * Application time — the logical timestamp carried inside each Tuple,
//    expressed in microseconds. Window operators use application time so
//    that experiments are deterministic and can be run faster than real
//    time (see DESIGN.md, "Substitutions").

#ifndef FLEXSTREAM_UTIL_CLOCK_H_
#define FLEXSTREAM_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace flexstream {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;
using Duration = SteadyClock::duration;

/// Application time: microseconds on a logical stream timeline.
using AppTime = int64_t;

inline constexpr AppTime kMicrosPerSecond = 1'000'000;
inline constexpr AppTime kMicrosPerMinute = 60 * kMicrosPerSecond;

inline TimePoint Now() { return SteadyClock::now(); }

inline double ToSeconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}

inline double ToMillis(Duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

inline int64_t ToMicros(Duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

inline Duration FromMicros(int64_t micros) {
  return std::chrono::microseconds(micros);
}

inline Duration FromSecondsD(double seconds) {
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(seconds));
}

/// Injectable time source, for code whose timing decisions must be
/// testable in virtual time: the SLO controller's hysteresis (DESIGN.md
/// §15) and a source's batch linger bound (DESIGN.md §11). Production uses
/// RealClock, a thin shim over Now(); tests use VirtualClock or their own
/// scripted subclass (e.g. one that counts reads).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimePoint Now() = 0;
};

/// The production clock: real steady time.
class RealClock : public Clock {
 public:
  TimePoint Now() override { return flexstream::Now(); }
};

/// Deterministic test clock. Starts at the steady-clock epoch and only
/// moves when told to. Not thread-safe: advance it from the thread that
/// reads it (virtual-time tests are single-threaded by construction).
class VirtualClock : public Clock {
 public:
  TimePoint Now() override { return now_; }
  void Advance(Duration d) { now_ += d; }

 private:
  TimePoint now_{};
};

/// Sleeps until the given deadline. Short remaining waits spin to keep
/// rate-controlled sources accurate at high rates.
void SleepUntil(TimePoint deadline);

/// A restartable timer over the steady clock.
class Stopwatch {
 public:
  Stopwatch() : start_(Now()) {}

  void Restart() { start_ = Now(); }

  Duration Elapsed() const { return Now() - start_; }
  double ElapsedSeconds() const { return ToSeconds(Elapsed()); }
  double ElapsedMillis() const { return ToMillis(Elapsed()); }
  int64_t ElapsedMicros() const { return ToMicros(Elapsed()); }

 private:
  TimePoint start_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_UTIL_CLOCK_H_
