#include "control/slo_controller.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace flexstream {

namespace {

std::string Micros(double us) {
  std::ostringstream os;
  if (us >= 10'000.0) {
    os << static_cast<int64_t>(us / 1000.0) << "ms";
  } else {
    os << static_cast<int64_t>(us) << "us";
  }
  return os.str();
}

}  // namespace

SloController::SloController(SloOptions options, MetricsProbe* probe,
                             Actuator* actuator, Clock* clock)
    : options_(std::move(options)),
      probe_(probe),
      actuator_(actuator),
      clock_(clock != nullptr ? clock : &owned_clock_),
      current_threads_(options_.base_threads),
      current_batch_(options_.base_batch_size),
      current_shards_(options_.base_shards) {
  CHECK(probe_ != nullptr);
  CHECK(actuator_ != nullptr);
  CHECK_GT(options_.target_p99_micros, 0.0);
  CHECK_GT(options_.ewma_alpha, 0.0);
  CHECK_LE(options_.ewma_alpha, 1.0);
  CHECK_GT(options_.deescalate_fraction, 0.0);
  CHECK_LT(options_.deescalate_fraction, 1.0);
  CHECK_GE(options_.deescalate_intervals, 1);
  CHECK_GE(options_.heavy_rung_patience, 1);
  CHECK_GE(options_.base_threads, 1);
  CHECK_GE(options_.base_batch_size, 1u);
}

SloController::~SloController() { Stop(); }

int SloController::EngagedRungLocked() const {
  if (shedding_) return 4;
  if (options_.base_shards > 0 && current_shards_ > options_.base_shards) {
    return 3;
  }
  if (current_batch_ > options_.base_batch_size) return 2;
  if (current_threads_ > options_.base_threads) return 1;
  return 0;
}

void SloController::CommitActionLocked(TimePoint now, const Status& outcome,
                                       ControlDecision* d) {
  d->outcome = outcome;
  d->rung_after = EngagedRungLocked();
  ++actions_taken_;
  last_action_time_ = now;
  any_action_yet_ = true;
}

void SloController::EscalateLocked(TimePoint now, ControlDecision* d) {
  std::string refusals;
  // Rung 1: grow the level-3 slot pool (doubling, capped).
  if (!threads_dead_ && current_threads_ < options_.max_threads) {
    const int next = std::min(options_.max_threads, current_threads_ * 2);
    const Status s = actuator_->SetMaxThreads(next);
    if (s.ok()) {
      d->action = "grow threads " + std::to_string(current_threads_) + "->" +
                  std::to_string(next) + refusals;
      current_threads_ = next;
      CommitActionLocked(now, s, d);
      return;
    }
    // Structural refusal (non-HMTS engine): retire the lever instead of
    // re-failing every interval; keep the message in this decision.
    threads_dead_ = true;
    refusals += " [threads refused: " + s.message() + "]";
  }
  // Rung 2: raise the emit batch size (x4, capped).
  if (current_batch_ < options_.max_batch_size) {
    const size_t next = std::min(options_.max_batch_size, current_batch_ * 4);
    const Status s = actuator_->SetBatchSize(next);
    if (s.ok()) {
      d->action = "batch " + std::to_string(current_batch_) + "->" +
                  std::to_string(next) + refusals;
      current_batch_ = next;
      CommitActionLocked(now, s, d);
      return;
    }
    // Batch refusals can be transient (engine reconfiguring); retry later.
    refusals += " [batch refused: " + s.message() + "]";
  }
  // Heavy rungs (reshard, shed) need persistent overload, never a spike.
  if (breach_streak_ < options_.heavy_rung_patience) {
    d->action = "hold (heavy rungs await persistence " +
                std::to_string(breach_streak_) + "/" +
                std::to_string(options_.heavy_rung_patience) + ")" + refusals;
    d->rung_after = EngagedRungLocked();
    return;
  }
  // Rung 3: reshard the hot stateful cell up (doubling, capped).
  if (options_.allow_reshard && !reshard_dead_ && options_.base_shards > 0 &&
      current_shards_ < options_.max_shards) {
    const size_t next = std::min(options_.max_shards, current_shards_ * 2);
    const Status s = actuator_->SetShards(next);
    if (s.ok()) {
      d->action = "reshard " + std::to_string(current_shards_) + "->" +
                  std::to_string(next) + refusals;
      current_shards_ = next;
      CommitActionLocked(now, s, d);
      return;
    }
    if (s.code() == StatusCode::kUnimplemented) reshard_dead_ = true;
    refusals += " [reshard refused: " + s.message() + "]";
  }
  // Rung 4: give up completeness — shed load, with exact accounting.
  if (options_.allow_shedding && !shedding_dead_ && !shedding_) {
    const Status s = actuator_->SetShedding(true);
    if (s.ok()) {
      d->action = "shed on (overload policy -> shed-newest)" + refusals;
      shedding_ = true;
      CommitActionLocked(now, s, d);
      return;
    }
    shedding_dead_ = true;
    refusals += " [shed refused: " + s.message() + "]";
  }
  d->action = "hold (ladder saturated)" + refusals;
  d->rung_after = EngagedRungLocked();
}

void SloController::DeescalateLocked(TimePoint now, ControlDecision* d) {
  Status s = Status::Ok();
  std::string action;
  // Reverse order: restore completeness first, release capacity last.
  if (shedding_) {
    s = actuator_->SetShedding(false);
    if (s.ok()) {
      shedding_ = false;
      action = "shed off (overload policy -> block)";
    }
  } else if (options_.base_shards > 0 &&
             current_shards_ > options_.base_shards) {
    const size_t next = std::max(options_.base_shards, current_shards_ / 2);
    s = actuator_->SetShards(next);
    if (s.ok()) {
      action = "reshard " + std::to_string(current_shards_) + "->" +
               std::to_string(next);
      current_shards_ = next;
    }
  } else if (current_batch_ > options_.base_batch_size) {
    const size_t next = std::max(options_.base_batch_size, current_batch_ / 4);
    s = actuator_->SetBatchSize(next);
    if (s.ok()) {
      action = "batch " + std::to_string(current_batch_) + "->" +
               std::to_string(next);
      current_batch_ = next;
    }
  } else if (current_threads_ > options_.base_threads) {
    const int next = std::max(options_.base_threads, current_threads_ / 2);
    s = actuator_->SetMaxThreads(next);
    if (s.ok()) {
      action = "shrink threads " + std::to_string(current_threads_) + "->" +
               std::to_string(next);
      current_threads_ = next;
    }
  }
  if (s.ok() && !action.empty()) {
    d->action = action;
    CommitActionLocked(now, s, d);
    // Each step down restarts the calm count — one rung per calm window.
    calm_streak_ = 0;
  } else {
    d->action = "hold (de-escalation refused)";
    d->outcome = s;
    d->rung_after = EngagedRungLocked();
  }
}

ControlDecision SloController::TickOnce() {
  std::lock_guard<std::mutex> lock(mutex_);
  const TimePoint now = clock_->Now();
  ControlDecision d;
  d.interval = ++tick_;
  d.rung_before = EngagedRungLocked();
  d.rung_after = d.rung_before;

  // Recovery wins: the engine is rewinding/rebuilding, so both the
  // metrics and any actuation would race the restore. Count the interval
  // toward neither calm nor breach.
  if (actuator_->recovering()) {
    d.trigger = "recovery in flight";
    d.action = "suspended";
    d.smoothed_p99 = smoothed_p99_;
    RecordLocked(d);
    return d;
  }

  const ControlMetrics m = probe_->Sample();
  d.p99_micros = m.interval_count > 0 ? m.interval_p99_micros : 0.0;
  d.backlog = m.backlog;
  d.dropped_delta = m.dropped_delta;
  if (shedding_ && m.dropped_delta > 0) {
    shed_while_degraded_ += m.dropped_delta;
  }

  bool breach = false;
  bool calm = false;
  if (m.interval_count > 0) {
    if (!have_smoothed_) {
      smoothed_p99_ = m.interval_p99_micros;
      have_smoothed_ = true;
    } else {
      smoothed_p99_ +=
          options_.ewma_alpha * (m.interval_p99_micros - smoothed_p99_);
    }
    breach = smoothed_p99_ > options_.target_p99_micros;
    calm = smoothed_p99_ <
           options_.deescalate_fraction * options_.target_p99_micros;
  } else if (m.backlog >= options_.stall_backlog) {
    breach = true;  // nothing completing but work is piling up: stalled
  } else {
    calm = true;  // idle interval
  }
  d.smoothed_p99 = smoothed_p99_;

  if (breach) {
    ++breach_streak_;
    calm_streak_ = 0;
    std::ostringstream trig;
    if (m.interval_count > 0) {
      trig << "p99 " << Micros(smoothed_p99_) << " > slo "
           << Micros(options_.target_p99_micros);
    } else {
      trig << "stalled: backlog " << m.backlog << ", no completions";
    }
    if (m.max_utilization > 0.0 && !m.hottest_stage.empty()) {
      trig << ", hot " << m.hottest_stage << " rho="
           << (std::round(m.max_utilization * 100.0) / 100.0);
    }
    d.trigger = trig.str();
    EscalateLocked(now, &d);
  } else if (calm) {
    ++calm_streak_;
    breach_streak_ = 0;
    const int rung = EngagedRungLocked();
    if (rung == 0) {
      d.trigger = "steady";
      d.action = "hold";
    } else {
      d.trigger = "calm " +
                  std::to_string(std::min(calm_streak_,
                                          options_.deescalate_intervals)) +
                  "/" + std::to_string(options_.deescalate_intervals);
      const bool dwell_ok =
          !any_action_yet_ || now - last_action_time_ >= options_.min_dwell;
      if (calm_streak_ >= options_.deescalate_intervals && dwell_ok) {
        DeescalateLocked(now, &d);
      } else {
        d.action = dwell_ok ? "hold" : "hold (dwell)";
      }
    }
  } else {
    // The hysteresis band: above the de-escalation threshold, below the
    // SLO. By design nothing happens here, whatever the rung.
    breach_streak_ = 0;
    calm_streak_ = 0;
    d.trigger = "in band (p99 " + Micros(smoothed_p99_) + ")";
    d.action = "hold";
  }

  RecordLocked(d);
  return d;
}

void SloController::RecordLocked(ControlDecision decision) {
  decisions_.push_back(std::move(decision));
  while (decisions_.size() > options_.decision_log_limit) {
    decisions_.pop_front();
  }
}

int SloController::current_rung() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return EngagedRungLocked();
}

int64_t SloController::actions_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return actions_taken_;
}

int64_t SloController::shed_while_degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_while_degraded_;
}

std::vector<ControlDecision> SloController::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<ControlDecision>(decisions_.begin(), decisions_.end());
}

std::string SloController::DescribeState() const {
  // try_lock: this is called from the watchdog thread mid-stall-report;
  // blocking on a controller mid-actuation (which may itself be waiting
  // on engine internals) could close a lock cycle through the watchdog.
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return "slo-control: (actuating)";
  std::ostringstream os;
  os << "slo-control: rung " << EngagedRungLocked() << " (threads "
     << current_threads_ << ", batch " << current_batch_;
  if (options_.base_shards > 0) os << ", shards " << current_shards_;
  os << ", shedding " << (shedding_ ? "on" : "off") << "), smoothed p99 "
     << Micros(smoothed_p99_) << " / slo " << Micros(options_.target_p99_micros)
     << ", actions " << actions_taken_;
  if (shed_while_degraded_ > 0) os << ", shed " << shed_while_degraded_;
  return os.str();
}

void SloController::Start() {
  std::lock_guard<std::mutex> lock(loop_mutex_);
  if (loop_thread_.joinable()) return;
  stop_requested_ = false;
  loop_thread_ = std::thread([this] { RunLoop(); });
}

void SloController::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    if (!loop_thread_.joinable()) return;
    stop_requested_ = true;
    to_join = std::move(loop_thread_);
  }
  loop_cv_.notify_all();
  to_join.join();
}

void SloController::RunLoop() {
  std::unique_lock<std::mutex> lock(loop_mutex_);
  while (!stop_requested_) {
    if (loop_cv_.wait_for(lock, options_.control_interval,
                          [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    TickOnce();
    lock.lock();
  }
}

}  // namespace flexstream
