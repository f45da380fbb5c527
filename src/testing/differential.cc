#include "testing/differential.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "api/shard.h"
#include "control/engine_hooks.h"
#include "control/slo_controller.h"
#include "graph/dot_export.h"
#include "operators/map_op.h"
#include "operators/selection.h"
#include "sched/strategy.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"

namespace flexstream {
namespace {

constexpr auto kRunTimeout = std::chrono::seconds(120);

/// Deterministic metrics fake for the slo_controller axis: four breach
/// samples (p99 at 4x the target), four calm samples (p99 at a tenth),
/// repeating. With alpha = 1 and single-interval de-escalation this walks
/// the controller up and back down rungs 1-2 continuously for the whole
/// run, so live actuations land at arbitrary points of the stream.
class SquareWaveProbe : public MetricsProbe {
 public:
  explicit SquareWaveProbe(double target_p99) : target_p99_(target_p99) {}

  ControlMetrics Sample() override {
    ControlMetrics m;
    m.interval_count = 100;
    m.interval_p99_micros =
        (tick_++ / 4) % 2 == 0 ? target_p99_ * 4.0 : target_p99_ * 0.1;
    return m;
  }

 private:
  const double target_p99_;
  int64_t tick_ = 0;
};

const char* TestFaultToString(QueueOp::TestFault fault) {
  switch (fault) {
    case QueueOp::TestFault::kNone:
      return "none";
    case QueueOp::TestFault::kReorderDrainBatch:
      return "reorder-drain-batch";
  }
  return "unknown";
}

bool TestFaultFromString(const std::string& name, QueueOp::TestFault* fault) {
  for (QueueOp::TestFault candidate :
       {QueueOp::TestFault::kNone, QueueOp::TestFault::kReorderDrainBatch}) {
    if (name == TestFaultToString(candidate)) {
      *fault = candidate;
      return true;
    }
  }
  return false;
}

ExecutableDagOptions DagOptionsForSpec(const DiffSpec& spec) {
  ExecutableDagOptions options;
  options.dag.node_count = spec.node_count;
  options.dag.source_count = spec.source_count;
  options.dag.second_input_probability = spec.second_input_probability;
  options.max_burn_micros = spec.max_burn_micros;
  return options;
}

EngineOptions EngineOptionsForConfig(const DiffConfig& config) {
  EngineOptions options;
  options.mode = config.mode;
  options.strategy = config.strategy;
  options.placement = config.placement;
  options.queue_path = config.queue_path;
  options.queue_ring_capacity = config.ring_capacity;
  options.queue_max_elements = config.queue_max_elements;
  options.overload_policy = config.overload_policy;
  options.checkpoint_epoch_interval = config.checkpoint_epoch_interval;
  options.emit_batch_size = config.emit_batch_size;
  options.columnar = config.columnar;
  if (config.watchdog) {
    // Comfortably above the partitions' 100ms idle-poll failsafe, so a
    // chaos-suppressed wakeup recovered by the poll never reads as a stall.
    options.ts.watchdog_interval = std::chrono::milliseconds(500);
  }
  return options;
}

/// The ragged-batch axis's linger clock: every read advances 1 us, and
/// one read in four jumps past kBatchLinger. A source whose batch spans a
/// jump looks slow, so it checks the bound on every push until a batch
/// fills jump-free; the jumps then cut partial batches at seeded random
/// positions.
class RaggedLingerClock : public Clock {
 public:
  explicit RaggedLingerClock(uint64_t seed) : rng_(seed) {}

  TimePoint Now() override {
    now_ += std::chrono::microseconds(1);
    if (rng_.Bernoulli(0.25)) now_ += kBatchLinger;
    return now_;
  }

 private:
  Rng rng_;
  TimePoint now_{};
};

ChaosOptions ChaosOptionsForConfig(const DiffConfig& config) {
  ChaosOptions chaos;
  chaos.seed = config.chaos_seed;
  chaos.transient_rate = config.chaos_transient_rate;
  chaos.delay_rate = config.chaos_delay_rate;
  chaos.delay_micros = 30.0;
  chaos.suppress_every_n_wakeups = config.chaos_suppress_every_n;
  chaos.kill_operator = config.chaos_kill_operator;
  chaos.kill_after = config.chaos_kill_after;
  chaos.kills = config.chaos_kills;
  return chaos;
}

std::string DescribeSpec(const DiffSpec& spec) {
  std::ostringstream os;
  os << "seed=" << spec.seed << " nodes=" << spec.node_count
     << " sources=" << spec.source_count << " feed=" << spec.feed_count;
  return os.str();
}

std::string FirstDifference(const std::vector<Tuple>& want,
                            const std::vector<Tuple>& got) {
  const size_t n = std::min(want.size(), got.size());
  for (size_t i = 0; i < n; ++i) {
    if (want[i] != got[i]) {
      std::ostringstream os;
      os << "index " << i << ": golden " << want[i] << " vs candidate "
         << got[i];
      return os.str();
    }
  }
  std::ostringstream os;
  os << "size " << want.size() << " vs " << got.size();
  return os.str();
}

std::string ResolveArtifactDir(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("FLEXSTREAM_DIFF_ARTIFACT_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  return "diff_failures";
}

/// Writes DOT + replay artifacts for a failure; best-effort (artifact I/O
/// must never turn a real mismatch into a crash).
void DumpArtifacts(const DiffSpec& spec, const DiffConfig& config,
                   const std::string& dir, DiffFailure* failure) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    LOG(WARNING) << "cannot create artifact dir " << dir << ": "
                 << ec.message();
    return;
  }
  std::ostringstream base;
  base << "seed" << spec.seed << "_" << config.Name();
  const std::filesystem::path dot_path =
      std::filesystem::path(dir) / (base.str() + ".dot");
  const std::filesystem::path replay_path =
      std::filesystem::path(dir) / (base.str() + ".replay");

  ExecutableDag dag = BuildDagForSpec(spec);
  if (std::ofstream dot(dot_path); dot) {
    dot << ToDot(*dag.graph);
    failure->dot_path = dot_path.string();
  }
  if (std::ofstream replay(replay_path); replay) {
    replay << FormatReplay(spec, config);
    failure->replay_path = replay_path.string();
  }
}

}  // namespace

std::string DiffConfig::Name() const {
  std::ostringstream os;
  os << ExecutionModeToString(mode);
  if (mode == ExecutionMode::kGts || mode == ExecutionMode::kOts ||
      mode == ExecutionMode::kHmts) {
    os << "+" << StrategyKindToString(strategy);
  }
  if (mode == ExecutionMode::kHmts) {
    os << "+" << PlacementKindToString(placement);
  }
  if (queue_path != QueuePathMode::kAuto) {
    os << "+" << QueuePathModeToString(queue_path);
  }
  if (ring_capacity != QueueOp::kDefaultRingCapacity) {
    os << "+ring" << ring_capacity;
  }
  if (feed_before_start) os << "+burst";
  if (fault != QueueOp::TestFault::kNone) {
    os << "+fault:" << TestFaultToString(fault);
  }
  if (queue_max_elements != 0) {
    os << "+bound" << queue_max_elements << ":"
       << OverloadPolicyToString(overload_policy);
  }
  if (chaos_transient_rate > 0.0) os << "+chaos-t" << chaos_transient_rate;
  if (chaos_delay_rate > 0.0) os << "+chaos-d" << chaos_delay_rate;
  if (chaos_suppress_every_n > 0) {
    os << "+chaos-w" << chaos_suppress_every_n;
  }
  if (checkpoint_epoch_interval > 0) os << "+ckpt" << checkpoint_epoch_interval;
  if (!chaos_kill_operator.empty()) {
    os << "+kill:" << chaos_kill_operator << "@" << chaos_kill_after << "x"
       << chaos_kills;
  }
  if (watchdog) os << "+watchdog";
  if (emit_batch_size > 1) os << "+batch" << emit_batch_size;
  if (columnar) os << "+col";
  if (ragged_batches) os << "+ragged";
  if (shard_count > 0) {
    os << "+shard" << shard_count << (shard_unordered ? "u" : "o");
    if (kill_shard_replica >= 0) os << "+killrep" << kill_shard_replica;
  }
  if (cold_restarts > 0) os << "+cold" << cold_restarts;
  if (!disk_fault.empty()) os << "+disk:" << disk_fault;
  if (slo_controller) os << "+sloctl";
  return os.str();
}

DiffConfig GoldenConfig() {
  DiffConfig config;
  config.mode = ExecutionMode::kSourceDriven;
  return config;
}

std::vector<DiffConfig> DefaultConfigMatrix() {
  std::vector<DiffConfig> configs;
  auto add = [&configs](ExecutionMode mode, StrategyKind strategy,
                        PlacementKind placement, QueuePathMode queue_path,
                        size_t ring, bool burst) {
    DiffConfig config;
    config.mode = mode;
    config.strategy = strategy;
    config.placement = placement;
    config.queue_path = queue_path;
    config.ring_capacity = ring;
    config.feed_before_start = burst;
    configs.push_back(config);
  };
  const size_t kRing = QueueOp::kDefaultRingCapacity;
  const auto kStall = PlacementKind::kStallAvoiding;

  // Single-threaded DI with a queue per source.
  add(ExecutionMode::kDirect, StrategyKind::kFifo, kStall,
      QueuePathMode::kAuto, kRing, false);

  // GTS: every strategy, down both queue paths.
  for (StrategyKind strategy :
       {StrategyKind::kFifo, StrategyKind::kRoundRobin, StrategyKind::kChain,
        StrategyKind::kSegment}) {
    add(ExecutionMode::kGts, strategy, kStall, QueuePathMode::kAuto, kRing,
        false);
    add(ExecutionMode::kGts, strategy, kStall, QueuePathMode::kForceMpsc,
        kRing, false);
  }
  // GTS with a tiny ring: every enqueue run exercises spillover and the
  // seq-merge drain; plus the burst-arrival variant.
  add(ExecutionMode::kGts, StrategyKind::kFifo, kStall, QueuePathMode::kAuto,
      2, false);
  add(ExecutionMode::kGts, StrategyKind::kFifo, kStall, QueuePathMode::kAuto,
      kRing, true);

  // OTS: strategy is irrelevant (one thread per queue) — vary the paths.
  add(ExecutionMode::kOts, StrategyKind::kFifo, kStall, QueuePathMode::kAuto,
      kRing, false);
  add(ExecutionMode::kOts, StrategyKind::kFifo, kStall,
      QueuePathMode::kForceMpsc, kRing, false);
  add(ExecutionMode::kOts, StrategyKind::kFifo, kStall, QueuePathMode::kAuto,
      2, false);
  add(ExecutionMode::kOts, StrategyKind::kFifo, kStall, QueuePathMode::kAuto,
      kRing, true);

  // HMTS: every strategy under the stall-avoiding placement (auto + tiny
  // ring), then the alternative placement algorithms.
  for (StrategyKind strategy :
       {StrategyKind::kFifo, StrategyKind::kRoundRobin, StrategyKind::kChain,
        StrategyKind::kSegment}) {
    add(ExecutionMode::kHmts, strategy, kStall, QueuePathMode::kAuto, kRing,
        false);
    add(ExecutionMode::kHmts, strategy, kStall, QueuePathMode::kAuto, 2,
        false);
  }
  add(ExecutionMode::kHmts, StrategyKind::kFifo, kStall,
      QueuePathMode::kForceMpsc, kRing, false);
  add(ExecutionMode::kHmts, StrategyKind::kFifo, kStall, QueuePathMode::kAuto,
      kRing, true);
  add(ExecutionMode::kHmts, StrategyKind::kFifo, PlacementKind::kChain,
      QueuePathMode::kAuto, kRing, false);
  add(ExecutionMode::kHmts, StrategyKind::kFifo, PlacementKind::kSegment,
      QueuePathMode::kAuto, kRing, false);

  // Batch delivery axis: sources bundle elements into TupleBatches and
  // queues hand each drained run downstream as one ReceiveBatch call.
  // Results must stay byte-identical to per-tuple execution for every
  // batch size, down both queue paths, through spillover, and under
  // burst arrival (where whole-stream batches pile into the queues).
  auto add_batch = [&configs](ExecutionMode mode, QueuePathMode queue_path,
                              size_t ring, bool burst, size_t batch) {
    DiffConfig config;
    config.mode = mode;
    config.queue_path = queue_path;
    config.ring_capacity = ring;
    config.feed_before_start = burst;
    config.emit_batch_size = batch;
    configs.push_back(config);
  };
  for (size_t batch : {size_t{8}, size_t{64}}) {
    add_batch(ExecutionMode::kDirect, QueuePathMode::kAuto, kRing, false,
              batch);
    add_batch(ExecutionMode::kGts, QueuePathMode::kAuto, kRing, false, batch);
    add_batch(ExecutionMode::kGts, QueuePathMode::kForceMpsc, kRing, false,
              batch);
    // Tiny ring: every batch enqueue overflows into the spillover deque,
    // so drains exercise the seq-merge path with batch delivery on.
    add_batch(ExecutionMode::kGts, QueuePathMode::kAuto, 2, false, batch);
    add_batch(ExecutionMode::kOts, QueuePathMode::kAuto, kRing, false, batch);
    add_batch(ExecutionMode::kHmts, QueuePathMode::kAuto, kRing, false, batch);
  }
  add_batch(ExecutionMode::kHmts, QueuePathMode::kForceMpsc, kRing, false, 64);
  add_batch(ExecutionMode::kGts, QueuePathMode::kAuto, kRing, true, 64);

  // Columnar axis (DESIGN.md §17): the same topologies with the typed
  // columnar layer on — sources scatter accumulated elements into
  // ColumnarBatches, typed kernels run vectorized with in-place
  // compaction, queues box whole batches, and fallback boundaries
  // materialize back to rows. Representation must never change results:
  // byte-identical to the row-wise path everywhere.
  auto add_col = [&configs](ExecutionMode mode, QueuePathMode queue_path,
                            size_t ring, bool burst, size_t batch) {
    DiffConfig config;
    config.mode = mode;
    config.queue_path = queue_path;
    config.ring_capacity = ring;
    config.feed_before_start = burst;
    config.emit_batch_size = batch;
    config.columnar = true;
    configs.push_back(config);
  };
  for (size_t batch : {size_t{8}, size_t{64}}) {
    add_col(ExecutionMode::kDirect, QueuePathMode::kAuto, kRing, false, batch);
    add_col(ExecutionMode::kGts, QueuePathMode::kAuto, kRing, false, batch);
    add_col(ExecutionMode::kHmts, QueuePathMode::kAuto, kRing, false, batch);
  }
  add_col(ExecutionMode::kGts, QueuePathMode::kForceMpsc, kRing, false, 64);
  // Tiny ring: every boxed batch lands in the spillover deque, so drains
  // exercise the seq-merge path with boxed items in flight.
  add_col(ExecutionMode::kGts, QueuePathMode::kAuto, 2, false, 64);
  add_col(ExecutionMode::kOts, QueuePathMode::kAuto, kRing, false, 64);
  add_col(ExecutionMode::kGts, QueuePathMode::kAuto, kRing, true, 64);

  // Ragged-batch axis: a fake linger clock cuts partial batches at random
  // positions, row-wise and columnar, under every scheduled architecture.
  for (ExecutionMode mode :
       {ExecutionMode::kGts, ExecutionMode::kOts, ExecutionMode::kHmts}) {
    for (bool columnar : {false, true}) {
      DiffConfig config;
      config.mode = mode;
      config.emit_batch_size = 8;
      config.columnar = columnar;
      config.ragged_batches = true;
      configs.push_back(config);
    }
  }

  // Elastic control axis: the SLO controller escalates/de-escalates
  // rungs 1-2 live throughout the run. kHmts exercises real thread-pool
  // resizes + batch flips; kGts structurally refuses the thread lever
  // (retiring it) and actuates batch only. Results must stay identical.
  {
    DiffConfig config;
    config.mode = ExecutionMode::kHmts;
    config.slo_controller = true;
    configs.push_back(config);
    config.mode = ExecutionMode::kGts;
    configs.push_back(config);
  }
  return configs;
}

std::vector<DiffConfig> ChaosConfigMatrix() {
  std::vector<DiffConfig> configs;
  // Full chaos cocktail — transient faults, delays, lost wakeups — across
  // every architecture x strategy. All of it must be absorbed without any
  // result deviation: retries succeed, the idle-poll failsafe recovers
  // wakeups, delays only stretch interleavings.
  for (ExecutionMode mode :
       {ExecutionMode::kGts, ExecutionMode::kOts, ExecutionMode::kHmts}) {
    for (StrategyKind strategy :
         {StrategyKind::kFifo, StrategyKind::kRoundRobin,
          StrategyKind::kChain, StrategyKind::kSegment}) {
      // OTS ignores the level-2 strategy (one queue per partition); one
      // representative is enough.
      if (mode == ExecutionMode::kOts && strategy != StrategyKind::kFifo) {
        continue;
      }
      DiffConfig config;
      config.mode = mode;
      config.strategy = strategy;
      config.chaos_transient_rate = 0.02;
      config.chaos_delay_rate = 0.01;
      config.chaos_suppress_every_n = 7;
      config.watchdog = mode == ExecutionMode::kHmts;
      configs.push_back(config);
    }
  }
  // Bounded queues under chaos: kBlock must deliver everything (exact
  // match); the shed policies may only lose what their drop counters
  // declare (sub-multiset compare).
  for (OverloadPolicy policy :
       {OverloadPolicy::kBlock, OverloadPolicy::kShedNewest,
        OverloadPolicy::kShedOldest}) {
    DiffConfig config;
    config.mode = ExecutionMode::kHmts;
    config.queue_max_elements = 8;
    config.overload_policy = policy;
    config.chaos_transient_rate = 0.01;
    config.watchdog = true;
    configs.push_back(config);
  }
  // Batch delivery under chaos: transient faults are voted per element
  // inside each batch at the hooked operators while bounded kShedNewest
  // queues shed per element — drop counters must still account for every
  // missing tuple exactly.
  {
    DiffConfig config;
    config.mode = ExecutionMode::kHmts;
    config.emit_batch_size = 64;
    config.queue_max_elements = 8;
    config.overload_policy = OverloadPolicy::kShedNewest;
    config.chaos_transient_rate = 0.02;
    config.watchdog = true;
    configs.push_back(config);
  }
  // Columnar under chaos: fault hooks arm the columnar fallback gate on
  // every hooked operator, so batches materialize to rows there while
  // untouched stretches stay columnar; bounded shed queues materialize at
  // the door. Drop counters must still account for every missing tuple.
  {
    DiffConfig config;
    config.mode = ExecutionMode::kHmts;
    config.emit_batch_size = 64;
    config.columnar = true;
    config.chaos_transient_rate = 0.02;
    config.chaos_delay_rate = 0.01;
    config.chaos_suppress_every_n = 7;
    config.watchdog = true;
    configs.push_back(config);
  }
  {
    DiffConfig config;
    config.mode = ExecutionMode::kGts;
    config.emit_batch_size = 64;
    config.columnar = true;
    config.queue_max_elements = 8;
    config.overload_policy = OverloadPolicy::kShedNewest;
    config.chaos_transient_rate = 0.02;
    configs.push_back(config);
  }
  // Controller x chaos: live rung-1/2 actuation while transient faults,
  // delays, and lost wakeups fire. Elasticity and fault absorption must
  // compose without any result deviation (and no watchdog stalls).
  {
    DiffConfig config;
    config.mode = ExecutionMode::kHmts;
    config.slo_controller = true;
    config.chaos_transient_rate = 0.02;
    config.chaos_delay_rate = 0.01;
    config.chaos_suppress_every_n = 7;
    config.watchdog = true;
    configs.push_back(config);
  }
  return configs;
}

std::vector<DiffConfig> RecoveryConfigMatrix(const std::string& kill_operator,
                                             int64_t kill_after) {
  std::vector<DiffConfig> configs;
  auto add = [&](ExecutionMode mode, StrategyKind strategy) -> DiffConfig& {
    DiffConfig config;
    config.mode = mode;
    config.strategy = strategy;
    config.checkpoint_epoch_interval = 50;
    config.chaos_kill_operator = kill_operator;
    config.chaos_kill_after = kill_after;
    configs.push_back(config);
    return configs.back();
  };
  // Every scheduled architecture absorbs the kill; FIFO and Chain cover
  // the two scheduling families (arrival-ordered vs priority).
  for (ExecutionMode mode :
       {ExecutionMode::kGts, ExecutionMode::kOts, ExecutionMode::kHmts}) {
    for (StrategyKind strategy : {StrategyKind::kFifo, StrategyKind::kChain}) {
      if (mode == ExecutionMode::kOts && strategy != StrategyKind::kFifo) {
        continue;  // OTS ignores the level-2 strategy
      }
      add(mode, strategy);
    }
  }
  // Single-threaded DI with source queues.
  add(ExecutionMode::kDirect, StrategyKind::kFifo);
  // Both cross-thread queue paths must replay identically.
  add(ExecutionMode::kGts, StrategyKind::kFifo).queue_path =
      QueuePathMode::kForceMpsc;
  // Bounded kBlock queues: backpressure + recovery, still exact (kBlock
  // never sheds, so the exact oracle applies).
  {
    DiffConfig& config = add(ExecutionMode::kHmts, StrategyKind::kFifo);
    config.queue_max_elements = 64;
    config.overload_policy = OverloadPolicy::kBlock;
  }
  // Double kill: the operator dies again right after the first recovery's
  // replay; two rewinds must still converge to golden.
  add(ExecutionMode::kHmts, StrategyKind::kFifo).chaos_kills = 2;
  // Batch delivery + kill/revive: batches split at every epoch barrier and
  // the fault hook votes per element inside a batch, so the kill lands
  // mid-batch (delivery 120 is the 21st element of a 50-element epoch's
  // batch) and rewind + replay must restore exactly the same committed
  // prefix as the per-tuple path.
  add(ExecutionMode::kHmts, StrategyKind::kFifo).emit_batch_size = 64;
  add(ExecutionMode::kGts, StrategyKind::kFifo).emit_batch_size = 8;
  // Columnar + kill/revive: columnar kernels stay on between barriers,
  // the fault-hooked operator takes the row path, and blocked channels
  // buffer materialized rows, so rewind + replay must restore exactly the
  // same committed prefix as the per-tuple path.
  {
    DiffConfig& config = add(ExecutionMode::kHmts, StrategyKind::kFifo);
    config.emit_batch_size = 64;
    config.columnar = true;
  }
  {
    DiffConfig& config = add(ExecutionMode::kGts, StrategyKind::kFifo);
    config.emit_batch_size = 8;
    config.columnar = true;
  }
  // Ragged batches + kill/revive: linger flushes cut batches at random
  // positions, including during the replay, which must still restore the
  // exact committed prefix.
  for (ExecutionMode mode :
       {ExecutionMode::kGts, ExecutionMode::kOts, ExecutionMode::kHmts}) {
    for (bool columnar : {false, true}) {
      DiffConfig& config = add(mode, StrategyKind::kFifo);
      config.emit_batch_size = 8;
      config.columnar = columnar;
      config.ragged_batches = true;
    }
  }
  return configs;
}

ExecutableDag BuildDagForSpec(const DiffSpec& spec) {
  return BuildExecutableDag(DagOptionsForSpec(spec), spec.seed);
}

std::vector<DiffConfig> ShardConfigMatrix() {
  std::vector<DiffConfig> configs;
  // Ordered sharding across every scheduled architecture, both shard
  // widths, per-tuple and batch delivery. The exact-sequence oracle stays
  // fully armed: the sequencing Router + kSequence merge must reproduce
  // the unsharded golden output byte-for-byte.
  for (ExecutionMode mode :
       {ExecutionMode::kGts, ExecutionMode::kOts, ExecutionMode::kHmts}) {
    for (int shards : {2, 4}) {
      for (size_t batch : {size_t{1}, size_t{64}}) {
        DiffConfig config;
        config.mode = mode;
        config.shard_count = shards;
        config.emit_batch_size = batch;
        configs.push_back(config);
      }
    }
  }
  // Columnar sharding: replica emit-seq stamping forces the row fallback
  // inside replicas while the rest of the pipeline stays columnar; the
  // sequencing Router + ordered merge must still reproduce the unsharded
  // golden byte-for-byte.
  for (ExecutionMode mode : {ExecutionMode::kGts, ExecutionMode::kHmts}) {
    DiffConfig config;
    config.mode = mode;
    config.shard_count = 2;
    config.emit_batch_size = 64;
    config.columnar = true;
    configs.push_back(config);
  }
  // Arrival-order merge: no buffering, nondeterministic interleaving — all
  // sinks demote to the multiset oracle.
  for (int shards : {2, 4}) {
    DiffConfig config;
    config.mode = ExecutionMode::kHmts;
    config.shard_count = shards;
    config.shard_unordered = true;
    configs.push_back(config);
  }
  // Kill one replica mid-run under checkpointing: epoch rewind + replay
  // must restore the sharded pipeline to an exact golden match.
  {
    DiffConfig config;
    config.mode = ExecutionMode::kHmts;
    config.shard_count = 2;
    config.checkpoint_epoch_interval = 50;
    config.kill_shard_replica = 1;
    config.chaos_kill_after = 40;
    configs.push_back(config);
  }
  // The same kill on batch delivery, row and columnar: replica 0 is
  // fault-hooked and seq-stamping, so it votes and stamps per element
  // inside each batch, and delivery 37 lands mid-batch.
  for (bool columnar : {false, true}) {
    DiffConfig config;
    config.mode = ExecutionMode::kHmts;
    config.shard_count = 2;
    config.emit_batch_size = 64;
    config.columnar = columnar;
    config.checkpoint_epoch_interval = 50;
    config.kill_shard_replica = 0;
    config.chaos_kill_after = 37;
    configs.push_back(config);
  }
  return configs;
}

std::vector<DiffConfig> DurabilityConfigMatrix() {
  std::vector<DiffConfig> configs;
  auto add = [&](ExecutionMode mode) -> DiffConfig& {
    DiffConfig config;
    config.mode = mode;
    config.checkpoint_epoch_interval = 50;
    config.cold_restarts = 1;
    configs.push_back(config);
    return configs.back();
  };
  // One process death + disk restore under every architecture. kDirect
  // and the scheduled modes all share the same durable protocol; the
  // restored graph must resume to an exact golden match.
  add(ExecutionMode::kGts);
  add(ExecutionMode::kOts);
  add(ExecutionMode::kHmts);
  add(ExecutionMode::kDirect);
  // Both cross-thread queue paths must restore identically.
  add(ExecutionMode::kGts).queue_path = QueuePathMode::kForceMpsc;
  // Batch delivery: barriers still split batches, so the durable cursors
  // land on the same element boundaries as the per-tuple path.
  add(ExecutionMode::kHmts).emit_batch_size = 64;
  // Columnar + cold restart: columnar engages between barriers while the
  // durable cursors land on identical element boundaries; every
  // incarnation must restore to an exact golden match.
  {
    DiffConfig& config = add(ExecutionMode::kHmts);
    config.emit_batch_size = 64;
    config.columnar = true;
  }
  // Two process deaths: the second incarnation restores, makes fresh
  // progress, persists new epochs, dies again — and the third must
  // restore from epochs written *after* a restore.
  add(ExecutionMode::kHmts).cold_restarts = 2;
  // Disk-fault sweep: each fault forces ColdRestart down the fallback
  // path (previous intact epoch, or a fresh start when nothing survived).
  for (const char* fault :
       {"torn-write", "corrupt-epoch", "enospc", "fsync-fail"}) {
    add(ExecutionMode::kHmts).disk_fault = fault;
  }
  return configs;
}

namespace {

/// One on-disk checkpoint directory per cold-restart scenario, unique
/// across concurrent test processes and scenarios within one process.
std::string MakeScenarioCheckpointDir() {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream name;
  name << "flexstream_diff_ckpt_" << ::getpid() << "_"
       << counter.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::temp_directory_path() / name.str()).string();
}

ChaosOptions DiskChaosForFault(const std::string& fault) {
  ChaosOptions chaos;
  if (fault == "torn-write") {
    chaos.disk_torn_write_epoch = 2;
  } else if (fault == "corrupt-epoch") {
    chaos.disk_corrupt_epoch = 2;
  } else if (fault == "enospc") {
    // Large enough that early epochs usually persist, small enough that
    // the budget exhausts mid-run; either way the fallback must hold.
    chaos.disk_enospc_after_bytes = 128 * 1024;
  } else if (fault == "fsync-fail") {
    chaos.disk_fsync_fail_epoch = 2;
  } else {
    CHECK(fault.empty()) << "unknown disk_fault '" << fault << "'";
  }
  return chaos;
}

/// Cold-restart scenario: `cold_restarts + 1` engine incarnations over one
/// durable checkpoint directory. Non-final incarnations feed a growing
/// prefix of the seeded stream, wait for a fresh durable commit, and are
/// destroyed without closing the sources — engine, graph, and every bit of
/// volatile state are gone, exactly what a process death leaves behind.
/// The final incarnation restores from disk, re-drives the full input
/// (sources swallow the committed prefix via their durable cursors), runs
/// to EOS, and reports its sink outputs for the golden compare.
SinkOutputs RunWithColdRestarts(const DiffSpec& spec,
                                const DiffConfig& config) {
  CHECK(config.checkpoint_epoch_interval > 0)
      << "cold_restarts requires checkpointing";
  CHECK(config.shard_count == 0) << "cold_restarts x shard not supported";
  CHECK(!config.chaos_enabled()) << "cold_restarts x op chaos not supported";
  CHECK(!config.ragged_batches) << "cold_restarts x ragged not supported";

  const std::string dir = MakeScenarioCheckpointDir();
  // One faulty env spans every incarnation so cumulative budgets (ENOSPC)
  // and epoch-keyed faults behave like a real disk across restarts.
  const ChaosOptions disk_chaos = DiskChaosForFault(config.disk_fault);
  std::unique_ptr<FaultyStorageEnv> faulty_env;
  if (disk_chaos.any_disk_chaos()) {
    faulty_env =
        std::make_unique<FaultyStorageEnv>(LocalStorageEnv(), disk_chaos);
  }

  SinkOutputs out;
  const int phases = config.cold_restarts + 1;
  for (int phase = 0; phase < phases; ++phase) {
    ExecutableDag dag = BuildDagForSpec(spec);
    StreamEngine engine(dag.graph.get());
    EngineOptions options = EngineOptionsForConfig(config);
    options.durable_checkpoint_dir = dir;
    options.storage_env = faulty_env.get();
    CHECK_OK(engine.Configure(options));
    uint64_t restored = 0;
    if (phase > 0) {
      Result<uint64_t> r = engine.ColdRestart();
      CHECK_OK(r.status());
      restored = *r;
    }
    CHECK_OK(engine.Start());
    if (phase + 1 < phases) {
      // Feed a prefix of the stream, no Close: the sources stay open when
      // this incarnation dies, like a producer that outlives the crash.
      FeedSourcesPrefix(dag, spec.seed,
                        spec.feed_count * (phase + 1) / phases);
      // Best-effort wait for one *new* durable commit so the restart has
      // fresh state to restore. Result identity does not depend on how
      // far the commit got — a restore from any epoch (even a fresh
      // start) replays to the same answer — so a timeout just proceeds.
      const TimePoint deadline = Now() + std::chrono::seconds(10);
      while (engine.recovery()->coordinator().committed_epoch() <=
                 restored &&
             Now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Grace for the commit listener's store write to land; killing
      // inside the write window is also legal (that is what the CRC
      // protocol is for), just less interesting as the common case.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      engine.Stop();
      continue;  // engine + graph destroyed: the "process" is dead
    }
    // Final incarnation: full deterministic re-drive + EOS. The sources
    // swallow their committed prefix and re-deliver the suffix.
    out.order_checked = dag.order_checked;
    FeedSources(dag, spec.seed, spec.feed_count);
    out.completed = engine.WaitUntilFinishedFor(kRunTimeout);
    engine.Stop();
    out.dropped = engine.DroppedElements();
    out.run_result = engine.RunResult();
    if (const RecoveryManager* recovery = engine.recovery()) {
      out.recoveries = recovery->completed_recoveries();
      out.committed_epoch = recovery->coordinator().committed_epoch();
      out.replayed_elements = recovery->replayed_elements();
    }
    for (CollectingSink* sink : dag.sinks) {
      out.per_sink.push_back(sink->TakeResults());
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

}  // namespace

SinkOutputs RunUnderConfig(const DiffSpec& spec, const DiffConfig& config) {
  if (config.cold_restarts > 0) return RunWithColdRestarts(spec, config);
  ExecutableDag dag = BuildDagForSpec(spec);
  SinkOutputs out;
  out.order_checked = dag.order_checked;

  if (config.mode == ExecutionMode::kSourceDriven) {
    // Queue-free DI: the feeding thread executes the whole graph.
    FeedSources(dag, spec.seed, spec.feed_count);
    for (CollectingSink* sink : dag.sinks) {
      out.per_sink.push_back(sink->TakeResults());
    }
    return out;
  }

  std::string shard_target;
  if (config.shard_count > 0) {
    // Rewrite before the engine sees the graph: split the first
    // Selection/Map (graph order) into key-partitioned replicas behind a
    // sequencing Router, re-merged downstream (api/shard.h). The golden
    // run stays unsharded, so the comparison checks the rewrite itself.
    Operator* target = nullptr;
    for (Node* node : dag.graph->nodes()) {
      if (auto* selection = dynamic_cast<Selection*>(node)) {
        target = selection;
        break;
      }
      if (auto* map = dynamic_cast<MapOp*>(node)) {
        target = map;
        break;
      }
    }
    CHECK(target != nullptr) << "spec graph has no shardable operator";
    shard_target = target->name();
    ShardOptions shard;
    shard.shards = static_cast<size_t>(config.shard_count);
    shard.key_attrs = {0};
    shard.ordered = !config.shard_unordered;
    CHECK_OK(ShardOperator(dag.graph.get(), target, shard).status());
    if (config.shard_unordered) {
      // Replica outputs interleave nondeterministically through the
      // arrival-order merge; no downstream sink keeps a guaranteed
      // sequence.
      out.order_checked.assign(out.order_checked.size(), false);
    }
  }

  std::vector<std::unique_ptr<RaggedLingerClock>> ragged_clocks;
  if (config.ragged_batches) {
    for (size_t i = 0; i < dag.sources.size(); ++i) {
      ragged_clocks.push_back(
          std::make_unique<RaggedLingerClock>(config.chaos_seed + i));
      dag.sources[i]->SetLingerClock(ragged_clocks.back().get());
    }
  }
  StreamEngine engine(dag.graph.get());
  CHECK_OK(engine.Configure(EngineOptionsForConfig(config)));
  if (config.fault != QueueOp::TestFault::kNone) {
    for (QueueOp* queue : engine.queues()) queue->SetTestFault(config.fault);
  }
  ChaosOptions chaos_options = ChaosOptionsForConfig(config);
  if (config.kill_shard_replica >= 0) {
    // Replica names only exist after the rewrite above.
    CHECK(config.shard_count > config.kill_shard_replica)
        << "kill_shard_replica requires shard_count > replica index";
    chaos_options.kill_operator =
        shard_target + ".shard" + std::to_string(config.kill_shard_replica);
  }
  ChaosInjector chaos(chaos_options);
  if (config.chaos_enabled()) {
    chaos.Arm(dag.graph.get(), engine.queues());
  }
  // SLO-controller axis: a live controller fed by the square-wave fake
  // escalates and de-escalates rungs 1-2 against this engine throughout
  // the run. Shedding/resharding disabled — results must stay identical.
  std::unique_ptr<EngineActuator> slo_actuator;
  std::unique_ptr<SquareWaveProbe> slo_probe;
  std::unique_ptr<SloController> slo;
  if (config.slo_controller) {
    SloOptions slo_options;
    slo_options.target_p99_micros = 10'000.0;
    slo_options.control_interval = std::chrono::milliseconds(2);
    slo_options.ewma_alpha = 1.0;
    slo_options.deescalate_fraction = 0.5;
    slo_options.deescalate_intervals = 1;
    slo_options.min_dwell = Duration::zero();
    slo_options.base_threads = 1;
    slo_options.max_threads = 3;
    slo_options.base_batch_size = std::max<size_t>(1, config.emit_batch_size);
    slo_options.max_batch_size = 32;
    slo_options.allow_reshard = false;
    slo_options.allow_shedding = false;
    slo_actuator = std::make_unique<EngineActuator>(&engine);
    slo_probe =
        std::make_unique<SquareWaveProbe>(slo_options.target_p99_micros);
    slo = std::make_unique<SloController>(slo_options, slo_probe.get(),
                                          slo_actuator.get());
    slo->Start();
  }
  if (config.feed_before_start) {
    // Queues absorb the whole stream before any worker runs, so the first
    // drains see large batches.
    FeedSources(dag, spec.seed, spec.feed_count);
    CHECK_OK(engine.Start());
  } else {
    CHECK_OK(engine.Start());
    FeedSources(dag, spec.seed, spec.feed_count);
  }
  out.completed = engine.WaitUntilFinishedFor(kRunTimeout);
  if (slo != nullptr) slo->Stop();
  engine.Stop();
  out.dropped = engine.DroppedElements();
  out.run_result = engine.RunResult();
  if (const RecoveryManager* recovery = engine.recovery()) {
    out.recoveries = recovery->completed_recoveries();
    out.committed_epoch = recovery->coordinator().committed_epoch();
    out.replayed_elements = recovery->replayed_elements();
  }
  if (engine.hmts() != nullptr) {
    out.watchdog_stalls = engine.hmts()->thread_scheduler().stall_events();
  }
  for (Node* node : dag.graph->nodes()) {
    if (const Operator* op = dynamic_cast<const Operator*>(node)) {
      out.fault_retries += op->fault_retries();
    }
  }
  for (const Source* source : dag.sources) {
    out.linger_flushes += source->flushes(FlushReason::kLinger);
  }
  chaos.Disarm();
  for (CollectingSink* sink : dag.sinks) {
    out.per_sink.push_back(sink->TakeResults());
  }
  return out;
}

namespace {

/// True when `got` is a subsequence of `want` (order preserved, elements
/// possibly missing).
bool IsSubsequence(const std::vector<Tuple>& want,
                   const std::vector<Tuple>& got) {
  size_t gi = 0;
  for (size_t wi = 0; wi < want.size() && gi < got.size(); ++wi) {
    if (want[wi] == got[gi]) ++gi;
  }
  return gi == got.size();
}

}  // namespace

std::string CompareOutputs(const SinkOutputs& golden,
                           const SinkOutputs& candidate) {
  if (!candidate.completed) {
    return "candidate run timed out before draining to EOS";
  }
  if (!candidate.run_result.ok()) {
    return "candidate run failed: " + candidate.run_result.message();
  }
  CHECK_EQ(golden.per_sink.size(), candidate.per_sink.size());
  // Declared load shedding relaxes the oracle: outputs must be explainable
  // as "golden minus shed elements" — never reordered, duplicated, or
  // invented. With zero sheds the comparison stays exact, shed policy or
  // not.
  const bool shed = candidate.dropped > 0;
  for (size_t i = 0; i < golden.per_sink.size(); ++i) {
    const std::vector<Tuple>& want = golden.per_sink[i];
    const std::vector<Tuple>& got = candidate.per_sink[i];
    // A candidate may demote a sink to multiset compare (e.g. an
    // arrival-order shard merge interleaves replicas nondeterministically);
    // otherwise golden's flags decide.
    const bool ordered =
        i < golden.order_checked.size() && golden.order_checked[i] &&
        (i >= candidate.order_checked.size() || candidate.order_checked[i]);
    if (ordered) {
      if (shed ? !IsSubsequence(want, got) : want != got) {
        std::ostringstream os;
        os << "sink " << i << ": "
           << (shed ? "not a subsequence of golden under declared sheds "
                    : "sequence mismatch on order-preserving pipeline ")
           << "(" << FirstDifference(want, got) << ")";
        return os.str();
      }
      continue;
    }
    std::vector<Tuple> want_sorted = want;
    std::vector<Tuple> got_sorted = got;
    std::sort(want_sorted.begin(), want_sorted.end());
    std::sort(got_sorted.begin(), got_sorted.end());
    if (shed) {
      if (!std::includes(want_sorted.begin(), want_sorted.end(),
                         got_sorted.begin(), got_sorted.end())) {
        std::ostringstream os;
        os << "sink " << i << ": output is not a sub-multiset of golden "
           << "under declared sheds ("
           << FirstDifference(want_sorted, got_sorted) << ")";
        return os.str();
      }
      continue;
    }
    if (want_sorted != got_sorted) {
      std::ostringstream os;
      os << "sink " << i << ": multiset mismatch ("
         << FirstDifference(want_sorted, got_sorted) << ")";
      return os.str();
    }
  }
  return "";
}

namespace {

/// Runs candidate vs golden once; non-empty on mismatch.
std::string RunOnce(const DiffSpec& spec, const DiffConfig& config) {
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());
  const SinkOutputs candidate = RunUnderConfig(spec, config);
  return CompareOutputs(golden, candidate);
}

/// True when any of `retries` attempts mismatches (thread schedules vary,
/// so a shrunk scenario may need several runs to re-trigger).
bool StillFails(const DiffSpec& spec, const DiffConfig& config, int retries,
                std::string* message) {
  for (int attempt = 0; attempt < std::max(retries, 1); ++attempt) {
    std::string mismatch = RunOnce(spec, config);
    if (!mismatch.empty()) {
      *message = std::move(mismatch);
      return true;
    }
  }
  return false;
}

}  // namespace

DiffSpec ShrinkFailingSpec(const DiffSpec& spec, const DiffConfig& config,
                           int retries) {
  DiffSpec best = spec;
  const int min_nodes = spec.source_count + 2;
  const int min_feed = 16;
  bool progressed = true;
  std::string message;
  while (progressed) {
    progressed = false;
    if (best.node_count / 2 >= min_nodes) {
      DiffSpec candidate = best;
      candidate.node_count /= 2;
      if (StillFails(candidate, config, retries, &message)) {
        best = candidate;
        progressed = true;
        continue;
      }
    }
    if (best.feed_count / 2 >= min_feed) {
      DiffSpec candidate = best;
      candidate.feed_count /= 2;
      if (StillFails(candidate, config, retries, &message)) {
        best = candidate;
        progressed = true;
      }
    }
  }
  return best;
}

DiffReport RunDifferential(const DiffSpec& spec,
                           const std::vector<DiffConfig>& configs,
                           const DiffRunOptions& options) {
  DiffReport report;
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());
  for (const DiffConfig& config : configs) {
    ++report.configs_run;
    const SinkOutputs candidate = RunUnderConfig(spec, config);
    std::string mismatch = CompareOutputs(golden, candidate);
    if (mismatch.empty()) continue;

    DiffFailure failure;
    failure.spec = options.shrink
                       ? ShrinkFailingSpec(spec, config, options.shrink_retries)
                       : spec;
    failure.config = config;
    failure.message = mismatch;
    DumpArtifacts(failure.spec, config, ResolveArtifactDir(options.artifact_dir),
                  &failure);
    LOG(ERROR) << "differential mismatch [" << config.Name() << " | "
               << DescribeSpec(failure.spec) << "]: " << mismatch
               << (failure.replay_path.empty()
                       ? ""
                       : " (replay: " + failure.replay_path + ")");
    report.failures.push_back(std::move(failure));
    report.ok = false;
  }
  return report;
}

std::string FormatReplay(const DiffSpec& spec, const DiffConfig& config) {
  std::ostringstream os;
  os << "# flexstream differential replay\n"
     << "# re-run with: FLEXSTREAM_DIFF_REPLAY=<this file> "
     << "flexstream_differential_test\n"
     << "seed=" << spec.seed << "\n"
     << "node_count=" << spec.node_count << "\n"
     << "source_count=" << spec.source_count << "\n"
     << "second_input_probability=" << spec.second_input_probability << "\n"
     << "feed_count=" << spec.feed_count << "\n"
     << "max_burn_micros=" << spec.max_burn_micros << "\n"
     << "mode=" << ExecutionModeToString(config.mode) << "\n"
     << "strategy=" << StrategyKindToString(config.strategy) << "\n"
     << "placement=" << PlacementKindToString(config.placement) << "\n"
     << "queue_path=" << QueuePathModeToString(config.queue_path) << "\n"
     << "ring_capacity=" << config.ring_capacity << "\n"
     << "feed_before_start=" << (config.feed_before_start ? 1 : 0) << "\n"
     << "fault=" << TestFaultToString(config.fault) << "\n"
     << "queue_max_elements=" << config.queue_max_elements << "\n"
     << "overload_policy=" << OverloadPolicyToString(config.overload_policy)
     << "\n"
     << "chaos_transient_rate=" << config.chaos_transient_rate << "\n"
     << "chaos_delay_rate=" << config.chaos_delay_rate << "\n"
     << "chaos_suppress_every_n=" << config.chaos_suppress_every_n << "\n"
     << "chaos_seed=" << config.chaos_seed << "\n"
     << "checkpoint_epoch_interval=" << config.checkpoint_epoch_interval
     << "\n"
     << "chaos_kill_operator=" << config.chaos_kill_operator << "\n"
     << "chaos_kill_after=" << config.chaos_kill_after << "\n"
     << "chaos_kills=" << config.chaos_kills << "\n"
     << "watchdog=" << (config.watchdog ? 1 : 0) << "\n"
     << "emit_batch_size=" << config.emit_batch_size << "\n"
     << "columnar=" << (config.columnar ? 1 : 0) << "\n"
     << "ragged_batches=" << (config.ragged_batches ? 1 : 0) << "\n"
     << "shard_count=" << config.shard_count << "\n"
     << "shard_unordered=" << (config.shard_unordered ? 1 : 0) << "\n"
     << "kill_shard_replica=" << config.kill_shard_replica << "\n"
     << "cold_restarts=" << config.cold_restarts << "\n"
     << "disk_fault=" << config.disk_fault << "\n"
     << "slo_controller=" << (config.slo_controller ? 1 : 0) << "\n";
  return os.str();
}

bool ParseReplay(const std::string& text, DiffSpec* spec, DiffConfig* config,
                 std::string* error) {
  *spec = DiffSpec();
  *config = DiffConfig();
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  auto fail = [error, &line_no](const std::string& why) {
    if (error != nullptr) {
      *error = "replay line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) return fail("expected key=value");
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    try {
      if (key == "seed") {
        spec->seed = std::stoull(value);
      } else if (key == "node_count") {
        spec->node_count = std::stoi(value);
      } else if (key == "source_count") {
        spec->source_count = std::stoi(value);
      } else if (key == "second_input_probability") {
        spec->second_input_probability = std::stod(value);
      } else if (key == "feed_count") {
        spec->feed_count = std::stoi(value);
      } else if (key == "max_burn_micros") {
        spec->max_burn_micros = std::stod(value);
      } else if (key == "mode") {
        if (!ExecutionModeFromString(value, &config->mode)) {
          return fail("unknown mode '" + value + "'");
        }
      } else if (key == "strategy") {
        if (!StrategyKindFromString(value, &config->strategy)) {
          return fail("unknown strategy '" + value + "'");
        }
      } else if (key == "placement") {
        if (!PlacementKindFromString(value, &config->placement)) {
          return fail("unknown placement '" + value + "'");
        }
      } else if (key == "queue_path") {
        if (!QueuePathModeFromString(value, &config->queue_path)) {
          return fail("unknown queue_path '" + value + "'");
        }
      } else if (key == "ring_capacity") {
        config->ring_capacity = std::stoull(value);
      } else if (key == "feed_before_start") {
        config->feed_before_start = std::stoi(value) != 0;
      } else if (key == "fault") {
        if (!TestFaultFromString(value, &config->fault)) {
          return fail("unknown fault '" + value + "'");
        }
      } else if (key == "queue_max_elements") {
        config->queue_max_elements = std::stoull(value);
      } else if (key == "overload_policy") {
        if (!OverloadPolicyFromString(value, &config->overload_policy)) {
          return fail("unknown overload_policy '" + value + "'");
        }
      } else if (key == "chaos_transient_rate") {
        config->chaos_transient_rate = std::stod(value);
      } else if (key == "chaos_delay_rate") {
        config->chaos_delay_rate = std::stod(value);
      } else if (key == "chaos_suppress_every_n") {
        config->chaos_suppress_every_n = std::stoi(value);
      } else if (key == "chaos_seed") {
        config->chaos_seed = std::stoull(value);
      } else if (key == "checkpoint_epoch_interval") {
        config->checkpoint_epoch_interval = std::stoull(value);
      } else if (key == "chaos_kill_operator") {
        config->chaos_kill_operator = value;
      } else if (key == "chaos_kill_after") {
        config->chaos_kill_after = std::stoll(value);
      } else if (key == "chaos_kills") {
        config->chaos_kills = std::stoi(value);
      } else if (key == "watchdog") {
        config->watchdog = std::stoi(value) != 0;
      } else if (key == "emit_batch_size") {
        config->emit_batch_size = std::stoull(value);
      } else if (key == "columnar") {
        config->columnar = std::stoi(value) != 0;
      } else if (key == "ragged_batches") {
        config->ragged_batches = std::stoi(value) != 0;
      } else if (key == "shard_count") {
        config->shard_count = std::stoi(value);
      } else if (key == "shard_unordered") {
        config->shard_unordered = std::stoi(value) != 0;
      } else if (key == "kill_shard_replica") {
        config->kill_shard_replica = std::stoi(value);
      } else if (key == "cold_restarts") {
        config->cold_restarts = std::stoi(value);
      } else if (key == "disk_fault") {
        config->disk_fault = value;
      } else if (key == "slo_controller") {
        config->slo_controller = std::stoi(value) != 0;
      } else {
        return fail("unknown key '" + key + "'");
      }
    } catch (const std::exception& e) {
      return fail("cannot parse value '" + value + "': " + e.what());
    }
  }
  if (spec->node_count < spec->source_count + 1 || spec->source_count < 1 ||
      spec->feed_count < 1) {
    line_no = 0;
    return fail("inconsistent spec values");
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace flexstream
