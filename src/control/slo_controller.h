// Closed-loop SLO guardian: elastic control with a graceful-degradation
// ladder (DESIGN.md §15).
//
// The controller watches one number — the p99 end-to-end latency of the
// current control interval (from the LatencySink histograms, differenced
// with Histogram::DeltaSince) — against a target, and actuates through an
// explicit ladder of progressively more drastic levers:
//
//   rung 1  grow the level-3 thread pool (ThreadScheduler::SetMaxRunning)
//   rung 2  raise the emit batch size (amortize per-element overhead)
//   rung 3  reshard hot stateful operators up (ResizeShard, state-carrying)
//   rung 4  flip the overload policy to load shedding — the only rung that
//           gives up result completeness, engaged last, with exact drop
//           accounting in the decision log
//
// and back down in reverse order. Three mechanisms make the loop provably
// non-oscillating under steady load:
//   * EWMA smoothing of the p99 input — one noisy interval cannot trigger.
//   * A hysteresis band: escalation triggers at p99 > target, but
//     de-escalation requires p99 < deescalate_fraction * target for
//     deescalate_intervals consecutive intervals. Anywhere in between, the
//     controller holds — zero actions.
//   * Minimum dwell: after any action, no de-escalation for min_dwell.
// Under a steady load the smoothed p99 converges; once it lands either
// inside the band or below it with no lever engaged, the action stream
// stops (the no-oscillation tests pin this: square-wave load => action
// count bounded by the number of load edges, steady load => zero actions
// after convergence).
//
// The controller is deliberately decoupled from the engine: it talks to a
// MetricsProbe (what is the world doing) and an Actuator (pull this
// lever), both abstract. src/control/engine_hooks.h binds them to a live
// StreamEngine; tests and the simulator bind fakes and a VirtualClock.
// This header therefore includes nothing from api/ — stats/report.h can
// include it for BuildControlTable without a cycle.

#ifndef FLEXSTREAM_CONTROL_SLO_CONTROLLER_H_
#define FLEXSTREAM_CONTROL_SLO_CONTROLLER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/status.h"

namespace flexstream {

/// What the controller reads each interval. Produced by a MetricsProbe.
struct ControlMetrics {
  /// p99 of the results completed during this interval, microseconds.
  /// Meaningless when interval_count == 0.
  double interval_p99_micros = 0.0;
  /// Results completed during this interval.
  int64_t interval_count = 0;
  /// Results completed per second over the interval (diagnostics).
  double throughput_per_sec = 0.0;
  /// Hottest-stage utilization rho = c(v)/d(v) over the measured EWMAs;
  /// > 1 means the stage cannot keep up (paper Section 5.1.2).
  double max_utilization = 0.0;
  /// Name of the node with max_utilization.
  std::string hottest_stage;
  /// Elements currently buffered in the engine's queues.
  size_t backlog = 0;
  /// Elements shed by overload policies since the previous sample.
  int64_t dropped_delta = 0;
};

class MetricsProbe {
 public:
  virtual ~MetricsProbe() = default;
  virtual ControlMetrics Sample() = 0;
};

/// The levers. Engine binding in engine_hooks.h; each setter returns the
/// engine's structured refusal verbatim on failure, and the controller
/// logs it in the decision record and treats that lever as unavailable.
class Actuator {
 public:
  virtual ~Actuator() = default;
  /// True while the engine is mid-recovery; the controller suspends.
  virtual bool recovering() const { return false; }
  virtual Status SetMaxThreads(int max_running) = 0;
  virtual Status SetBatchSize(size_t batch_size) = 0;
  virtual Status SetShards(size_t shards) = 0;
  virtual Status SetShedding(bool enabled) = 0;
};

struct SloOptions {
  /// The SLO: end-to-end p99 latency target, microseconds.
  double target_p99_micros = 50'000.0;
  /// How often the background thread ticks (TickOnce is also public for
  /// virtual-time driving).
  Duration control_interval = std::chrono::milliseconds(500);
  /// EWMA weight for the smoothed p99 (1.0 = trust each interval fully).
  double ewma_alpha = 0.4;
  /// De-escalation threshold as a fraction of the target; the band
  /// [fraction * target, target] is the action-free hysteresis zone.
  double deescalate_fraction = 0.6;
  /// Consecutive calm intervals required before stepping one rung down.
  int deescalate_intervals = 3;
  /// Minimum time after any action before a de-escalation may fire.
  Duration min_dwell = std::chrono::seconds(2);
  /// Rung 1: the pool size the engine started with, and the ceiling the
  /// controller may grow it to (doubling per interval).
  int base_threads = 1;
  int max_threads = 4;
  /// Rung 2: starting emit batch size and ceiling (x4 per interval).
  size_t base_batch_size = 1;
  size_t max_batch_size = 64;
  /// Rung 3: the shard count of the graph's (single) resharded cell.
  /// base_shards == 0 means the graph has no shard cell; rung skipped.
  size_t base_shards = 0;
  size_t max_shards = 4;
  bool allow_reshard = false;
  /// Rung 4: permission to shed. When false the ladder tops out at 3.
  bool allow_shedding = true;
  /// Consecutive breach intervals required before the heavy rungs (3, 4)
  /// may engage — a transient spike never sheds or resharads.
  int heavy_rung_patience = 3;
  /// A backlog this deep with zero completions in the interval counts as
  /// a breach even though no p99 exists (the pipeline is stalled).
  size_t stall_backlog = 1024;
  /// Decision-log ring capacity (oldest entries dropped beyond this).
  size_t decision_log_limit = 512;
};

/// One row of the per-interval decision log (BuildControlTable renders
/// these; the soak bench dumps them into BENCH_control.json).
struct ControlDecision {
  int64_t interval = 0;
  /// Why: "p99 81ms > slo 50ms", "calm 3/3", "steady", "recovery", ...
  std::string trigger;
  int rung_before = 0;
  int rung_after = 0;
  /// What: "grow threads 1->2", "batch 4->16", "shed on", "hold", ...
  std::string action;
  /// The actuator's verdict (structured refusals preserved verbatim).
  Status outcome = Status::Ok();
  double p99_micros = 0.0;    // raw interval p99 (0 when no completions)
  double smoothed_p99 = 0.0;  // the EWMA the trigger compared
  size_t backlog = 0;
  int64_t dropped_delta = 0;  // exact shed accounting once rung 4 engages
};

class SloController {
 public:
  /// `probe` and `actuator` must outlive the controller. `clock` may be
  /// null (a RealClock is owned internally); pass a VirtualClock to
  /// drive intervals in virtual time.
  SloController(SloOptions options, MetricsProbe* probe, Actuator* actuator,
                Clock* clock = nullptr);
  ~SloController();

  SloController(const SloController&) = delete;
  SloController& operator=(const SloController&) = delete;

  /// One control interval: sample, decide, actuate, log. Thread-safe;
  /// called by the background thread or directly by virtual-time tests.
  ControlDecision TickOnce();

  /// Background loop at options().control_interval (real time — tests
  /// that use a virtual clock call TickOnce themselves). Idempotent.
  void Start();
  void Stop();

  const SloOptions& options() const { return options_; }

  /// Highest currently-engaged rung (0 = everything at baseline).
  int current_rung() const;
  /// Count of real actuations (holds and suspensions excluded).
  int64_t actions_taken() const;
  /// Total elements shed while rung 4 was engaged (exact accounting).
  int64_t shed_while_degraded() const;
  /// Copy of the decision log (ring-capped at decision_log_limit).
  std::vector<ControlDecision> decisions() const;

  /// One-line state summary for watchdog stall reports and
  /// DiagnosticSnapshot: "slo-control: rung 2 (threads 4, batch 16, ...)".
  std::string DescribeState() const;

 private:
  /// Levers currently engaged above baseline, highest first.
  int EngagedRungLocked() const;
  void EscalateLocked(TimePoint now, ControlDecision* d);
  void DeescalateLocked(TimePoint now, ControlDecision* d);
  void CommitActionLocked(TimePoint now, const Status& outcome,
                          ControlDecision* d);
  void RecordLocked(ControlDecision decision);
  void RunLoop();

  const SloOptions options_;
  MetricsProbe* const probe_;
  Actuator* const actuator_;
  RealClock owned_clock_;
  Clock* const clock_;

  mutable std::mutex mutex_;
  int64_t tick_ = 0;
  double smoothed_p99_ = 0.0;
  bool have_smoothed_ = false;
  int calm_streak_ = 0;
  int breach_streak_ = 0;
  TimePoint last_action_time_{};
  bool any_action_yet_ = false;
  // Current lever positions (the engaged rung is derived from these).
  int current_threads_;
  size_t current_batch_;
  size_t current_shards_;
  bool shedding_ = false;
  // Levers that refused structurally (e.g. non-HMTS engine): skipped for
  // the rest of the run instead of re-failing every interval.
  bool threads_dead_ = false;
  bool reshard_dead_ = false;
  bool shedding_dead_ = false;
  int64_t actions_taken_ = 0;
  int64_t shed_while_degraded_ = 0;
  std::deque<ControlDecision> decisions_;

  std::mutex loop_mutex_;
  std::condition_variable loop_cv_;
  bool stop_requested_ = false;
  std::thread loop_thread_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_CONTROL_SLO_CONTROLLER_H_
