#include "api/stream_engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "operators/sink.h"
#include "operators/source.h"
#include "placement/chain_vo_builder.h"
#include "placement/segment_vo_builder.h"
#include "placement/static_queue_placement.h"
#include "stats/capacity.h"
#include "util/logging.h"

namespace flexstream {

const char* ExecutionModeToString(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSourceDriven:
      return "source-driven";
    case ExecutionMode::kDirect:
      return "di";
    case ExecutionMode::kGts:
      return "gts";
    case ExecutionMode::kOts:
      return "ots";
    case ExecutionMode::kHmts:
      return "hmts";
  }
  return "unknown";
}

const char* PlacementKindToString(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kStallAvoiding:
      return "stall-avoiding";
    case PlacementKind::kChain:
      return "chain";
    case PlacementKind::kSegment:
      return "segment";
  }
  return "unknown";
}

bool ExecutionModeFromString(const std::string& name, ExecutionMode* mode) {
  for (ExecutionMode m :
       {ExecutionMode::kSourceDriven, ExecutionMode::kDirect,
        ExecutionMode::kGts, ExecutionMode::kOts, ExecutionMode::kHmts}) {
    if (name == ExecutionModeToString(m)) {
      *mode = m;
      return true;
    }
  }
  return false;
}

bool PlacementKindFromString(const std::string& name, PlacementKind* kind) {
  for (PlacementKind k : {PlacementKind::kStallAvoiding, PlacementKind::kChain,
                          PlacementKind::kSegment}) {
    if (name == PlacementKindToString(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

StreamEngine::StreamEngine(QueryGraph* graph) : graph_(graph) {
  CHECK(graph != nullptr);
}

StreamEngine::~StreamEngine() {
  Stop();
  // Operators hold a raw pointer to run_status_; the graph outlives the
  // engine, so detach before the member dies.
  for (Node* node : graph_->nodes()) {
    if (Operator* op = dynamic_cast<Operator*>(node)) {
      op->SetRunStatus(nullptr);
    }
  }
}

void StreamEngine::CollectSinks() {
  sinks_.clear();
  for (Node* node : graph_->nodes()) {
    if (Sink* sink = dynamic_cast<Sink*>(node)) {
      if (node->fan_in() > 0) sinks_.push_back(sink);
    }
  }
}

Status StreamEngine::ComputeQueueEdges(
    const EngineOptions& options,
    std::vector<std::pair<Node*, Operator*>>* edges) {
  edges->clear();
  switch (options.mode) {
    case ExecutionMode::kSourceDriven:
      return Status::Ok();
    case ExecutionMode::kDirect:
      for (Node* node : graph_->nodes()) {
        if (!node->is_source()) continue;
        for (const auto& edge : node->outputs()) {
          edges->emplace_back(node, edge.target);
        }
      }
      return Status::Ok();
    case ExecutionMode::kGts:
    case ExecutionMode::kOts:
      // Full decoupling: every operator is decoupled (Section 6.4). Sinks
      // are not scheduled units — they consume results via DI from the
      // operator that produced them, so results surface the moment the
      // producing operator runs (Figure 10's FIFO curve depends on this).
      for (Node* node : graph_->nodes()) {
        if (node->is_queue()) continue;
        for (const auto& edge : node->outputs()) {
          if (static_cast<const Node*>(edge.target)->is_sink()) continue;
          edges->emplace_back(node, edge.target);
        }
      }
      return Status::Ok();
    case ExecutionMode::kHmts: {
      // Derive d(v) from source metadata when available; measured
      // statistics remain the fallback.
      (void)PropagateRates(graph_);
      Partitioning placed = [&] {
        switch (options.placement) {
          case PlacementKind::kChain:
            return ChainVoPlacement(*graph_);
          case PlacementKind::kSegment:
            return SegmentVoPlacement(*graph_);
          case PlacementKind::kStallAvoiding:
          default:
            return StaticQueuePlacement(*graph_);
        }
      }();
      // Executable placements always decouple after sources: the source's
      // autonomous thread must never execute partition operators (it
      // would race with the partition's own worker). Remove sources from
      // their groups, then re-split each group into connected components
      // (a group held together only by its source falls apart).
      // Placement-solo operators (shard replicas, src/api/shard.h) are
      // treated like sources: pre-assigned their own group and excluded
      // from flood-fill, so every replica gets its own partition/thread
      // and the split/merge stay with their surrounding components.
      auto is_solo = [](const Node* n) {
        const auto* op = dynamic_cast<const Operator*>(n);
        return op != nullptr && op->placement_solo();
      };
      std::unordered_map<const Node*, int> assignment;
      int next_group = 0;
      for (Node* node : graph_->nodes()) {
        if (node->is_source() || is_solo(node)) {
          assignment[node] = next_group++;
        }
      }
      std::unordered_set<const Node*> visited;
      for (Node* node : graph_->nodes()) {
        if (node->is_source() || is_solo(node) || visited.count(node)) {
          continue;
        }
        const int old_group = placed.GroupOf(node);
        if (old_group < 0) continue;
        // Flood-fill the component of `node` within its original group,
        // over non-source members only.
        const int component = next_group++;
        std::vector<Node*> frontier{node};
        visited.insert(node);
        while (!frontier.empty()) {
          Node* n = frontier.back();
          frontier.pop_back();
          assignment[n] = component;
          auto visit = [&](Node* other) {
            if (other->is_source() || is_solo(other) || visited.count(other)) {
              return;
            }
            if (placed.GroupOf(other) != old_group) return;
            visited.insert(other);
            frontier.push_back(other);
          };
          for (const auto& edge : n->outputs()) {
            visit(static_cast<Node*>(edge.target));
          }
          for (const auto& edge : n->inputs()) {
            visit(edge.source);
          }
        }
      }
      partitioning_ = std::make_unique<Partitioning>(
          Partitioning::FromAssignment(graph_, assignment));
      Status s = partitioning_->Validate();
      if (!s.ok()) return s;
      for (auto& edge : partitioning_->CrossEdges()) {
        edges->push_back(edge);
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable");
}

Status StreamEngine::BuildExecutors(const EngineOptions& options) {
  hmts_.reset();
  std::vector<HmtsExecutor::PartitionSpec> specs;
  switch (options.mode) {
    case ExecutionMode::kSourceDriven:
      // No scheduler at all; serialize shared operators since several
      // source threads may traverse them concurrently.
      for (Node* node : graph_->nodes()) {
        if (Operator* op = dynamic_cast<Operator*>(node)) {
          if (!node->is_source()) op->SetSerializedReceive(true);
        }
      }
      return Status::Ok();
    case ExecutionMode::kDirect:
    case ExecutionMode::kGts:
      // GTS: one partition holding every queue (Section 4.1.1).
      specs.resize(1);
      specs[0].name = "gts";
      specs[0].queues = queues_;
      specs[0].strategy = options.strategy;
      break;
    case ExecutionMode::kOts: {
      // Sinks run via DI inside their producers' operator threads; a sink
      // shared by operators in different threads needs its Receive
      // serialized.
      for (Node* node : graph_->nodes()) {
        if (node->is_sink() && node->fan_in() > 1) {
          if (Operator* op = dynamic_cast<Operator*>(node)) {
            op->SetSerializedReceive(true);
          }
        }
      }
      // One thread per *operator*: "an operator thread obtains elements
      // from its input queues" (Section 4.1.2) — a multi-input operator's
      // queues share its thread, which also keeps every operator
      // single-threaded.
      std::map<Node::Id, HmtsExecutor::PartitionSpec> by_consumer;
      for (QueueOp* queue : queues_) {
        CHECK(queue->fan_out() >= 1) << "dangling queue "
                                     << queue->DebugString();
        const Node* consumer =
            static_cast<const Node*>(queue->outputs()[0].target);
        HmtsExecutor::PartitionSpec& spec = by_consumer[consumer->id()];
        spec.name = "ots:" + consumer->name();
        spec.queues.push_back(queue);
      }
      for (auto& [id, spec] : by_consumer) specs.push_back(std::move(spec));
      break;
    }
    case ExecutionMode::kHmts: {
      CHECK(partitioning_ != nullptr);
      // Group entry queues by the partition of their consumer.
      std::map<int, std::vector<QueueOp*>> by_group;
      for (QueueOp* queue : queues_) {
        CHECK_EQ(queue->fan_out(), 1u);
        const Node* consumer =
            static_cast<const Node*>(queue->outputs()[0].target);
        const int group = partitioning_->GroupOf(consumer);
        if (group < 0) {
          return Status::Internal("queue consumer not in any partition: " +
                                  consumer->DebugString());
        }
        by_group[group].push_back(queue);
      }
      specs.reserve(by_group.size());
      for (auto& [group, group_queues] : by_group) {
        HmtsExecutor::PartitionSpec spec;
        spec.name = "p" + std::to_string(group);
        spec.queues = std::move(group_queues);
        spec.strategy = options.strategy;
        specs.push_back(std::move(spec));
      }
      break;
    }
  }
  // Only HMTS partitions compete for level-3 slots; GTS and OTS threads
  // are scheduled by the operating system (Section 4.2.2).
  hmts_ = std::make_unique<HmtsExecutor>(
      std::move(specs), options.ts, options.partition,
      /*take_slots=*/options.mode == ExecutionMode::kHmts);
  hmts_->SetRunStatus(&run_status_);
  // Rebuilds (recovery, SwitchTo) keep the controller's stall annotation
  // on the fresh level-3 scheduler.
  if (diagnostic_annotator_ != nullptr) {
    hmts_->thread_scheduler().SetStallAnnotator(diagnostic_annotator_);
  }
  return Status::Ok();
}

Status StreamEngine::Configure(const EngineOptions& options) {
  if (configured_) {
    return Status::FailedPrecondition(
        "engine already configured; use SwitchTo or Deconfigure");
  }
  if (!graph_->Queues().empty()) {
    return Status::FailedPrecondition(
        "graph already contains queues; StreamEngine owns queue placement");
  }
  Status s = graph_->Validate();
  if (!s.ok()) return s;

  std::vector<std::pair<Node*, Operator*>> edges;
  s = ComputeQueueEdges(options, &edges);
  if (!s.ok()) return s;

  queues_.clear();
  for (auto& [from, to] : edges) {
    QueueOp* queue = graph_->Add<QueueOp>(
        "q" + std::to_string(next_queue_id_++), options.queue_ring_capacity);
    s = graph_->InsertBetween(from, queue, to);
    if (!s.ok()) return s;
    queues_.push_back(queue);
  }
  // One queue per cross edge: each placed queue has exactly one producing
  // context (its upstream partition or source), so each gets the
  // lock-free ring — unless queue_ring_capacity is 0. A kShedOldest bound
  // below drops the ring again.
  for (QueueOp* queue : queues_) {
    DCHECK(queue->inputs().size() == 1) << queue->DebugString();
    queue->SetSingleProducer(true);
  }
  if (options.queue_max_elements != 0) {
    for (QueueOp* queue : queues_) {
      queue->SetBound(options.queue_max_elements, options.overload_policy,
                      options.block_wait_timeout);
    }
  }
  // Batch execution path (DESIGN.md §11): sources accumulate pushes into
  // TupleBatches and the placed queues forward each drained run as one
  // downstream ReceiveBatch call. A batch size of 1 (the default) keeps
  // the per-tuple path everywhere.
  for (Node* node : graph_->nodes()) {
    if (Source* source = dynamic_cast<Source*>(node)) {
      source->SetEmitBatchSize(options.emit_batch_size);
    }
  }
  if (options.emit_batch_size > 1) {
    for (QueueOp* queue : queues_) queue->SetBatchDelivery(true);
  }
  // Columnar batch layer (DESIGN.md §17): sources scatter into typed
  // ColumnarBatches. Each batch carries its own schema; every operator's
  // door checks it on arrival.
  if (options.columnar && options.emit_batch_size > 1) {
    for (Node* node : graph_->nodes()) {
      if (Source* source = dynamic_cast<Source*>(node)) {
        source->SetColumnarEmit(true);
      }
    }
  }
  // Every operator (queues included — their kBlock waits poll it) reports
  // failures into the engine's run status and shares the retry backoff
  // policy.
  run_status_.Reset();
  for (Node* node : graph_->nodes()) {
    if (Operator* op = dynamic_cast<Operator*>(node)) {
      op->SetRunStatus(&run_status_);
      op->SetRetryBackoff(options.retry_backoff);
    }
  }

  s = BuildExecutors(options);
  if (!s.ok()) return s;

  CollectSinks();

  // Checkpointing last: the queues are placed, so barrier channels line up
  // with the final topology.
  if (options.checkpoint_epoch_interval > 0) {
    RecoveryManager::Options ropts;
    ropts.epoch_interval = options.checkpoint_epoch_interval;
    ropts.max_attempts = options.max_recovery_attempts;
    ropts.replay_buffer_max_elements = options.replay_buffer_max_elements;
    ropts.durable_dir = options.durable_checkpoint_dir;
    ropts.storage_env = options.storage_env;
    ropts.durable_retain_epochs = options.durable_retain_epochs;
    recovery_ = std::make_unique<RecoveryManager>(ropts);
    s = recovery_->Arm(graph_);
    if (!s.ok()) {
      recovery_.reset();
      return s;
    }
  }

  options_ = options;
  configured_ = true;
  started_ = false;
  return Status::Ok();
}

Status StreamEngine::Start() {
  if (!configured_) return Status::FailedPrecondition("not configured");
  if (started_) return Status::FailedPrecondition("already started");
  if (hmts_ != nullptr) hmts_->Start();
  started_ = true;
  return Status::Ok();
}

Result<uint64_t> StreamEngine::ColdRestart() {
  if (!configured_) {
    return Status::FailedPrecondition("cold restart: engine not configured");
  }
  if (started_) {
    return Status::FailedPrecondition("cold restart: engine already started");
  }
  if (recovery_ == nullptr || recovery_->snapshot_store() == nullptr) {
    return Status::FailedPrecondition(
        "cold restart: no durable checkpoint directory configured");
  }
  return recovery_->RestoreFromDisk();
}

bool StreamEngine::AllPartitionsDone() const {
  return hmts_ == nullptr || hmts_->Done();
}

StreamEngine::WaitOutcome StreamEngine::WaitOnce(const TimePoint* deadline) {
  // Sliced sink waits so a mid-run operator failure ends the wait instead
  // of hanging forever on a sink that will never close. The slice bounds
  // how long a failure goes unnoticed, and until recovery pauses the
  // sources they push past every kBlock bound (a failed run releases the
  // waits), so it is kept as short as the partition poll below.
  for (Sink* sink : sinks_) {
    while (true) {
      if (run_status_.failed()) return WaitOutcome::kFailed;
      Duration slice = std::chrono::milliseconds(1);
      if (deadline != nullptr) {
        const Duration remaining = *deadline - Now();
        if (remaining <= Duration::zero()) {
          LOG(WARNING) << "wait timed out waiting for sink '" << sink->name()
                       << "'; partition snapshot:\n"
                       << DiagnosticSnapshot();
          return WaitOutcome::kTimedOut;
        }
        slice = std::min(remaining, slice);
      }
      if (sink->WaitUntilClosedFor(slice)) break;
    }
  }
  while (!AllPartitionsDone()) {
    if (run_status_.failed()) return WaitOutcome::kFailed;
    if (deadline != nullptr && Now() >= *deadline) {
      LOG(WARNING) << "wait timed out waiting for partitions to drain; "
                      "partition snapshot:\n"
                   << DiagnosticSnapshot();
      return WaitOutcome::kTimedOut;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A failure can arrive after EOS has propagated (e.g. poisoned data the
  // sinks never saw); a "completed" run with a recorded failure is still a
  // failed run and recovers like a mid-run failure.
  return run_status_.failed() ? WaitOutcome::kFailed : WaitOutcome::kFinished;
}

void StreamEngine::WaitUntilFinished() {
  while (true) {
    switch (WaitOnce(nullptr)) {
      case WaitOutcome::kFinished:
        Stop();
        return;
      case WaitOutcome::kFailed:
        if (AttemptRecovery()) continue;
        AbortOnFailure();
        return;
      case WaitOutcome::kTimedOut:
        return;  // unreachable without a deadline
    }
  }
}

bool StreamEngine::WaitUntilFinishedFor(Duration timeout) {
  const TimePoint deadline = Now() + timeout;
  while (true) {
    switch (WaitOnce(&deadline)) {
      case WaitOutcome::kFinished:
        Stop();
        return true;
      case WaitOutcome::kFailed:
        if (AttemptRecovery()) continue;
        AbortOnFailure();
        return true;  // run over (abnormally) — see RunResult()
      case WaitOutcome::kTimedOut:
        return false;
    }
  }
}

bool StreamEngine::AttemptRecovery() {
  if (recovery_ == nullptr) return false;
  if (!recovery_->BeginAttempt()) {
    const Status truncation = recovery_->replay_truncation_status();
    LOG(WARNING) << "recovery unavailable ("
                 << (!truncation.ok() ? truncation.message()
                                      : "attempt budget exhausted")
                 << ") after failure: " << run_status_.first().message();
    return false;
  }
  const TimePoint start = Now();
  const uint64_t epoch = recovery_->coordinator().committed_epoch();
  LOG(WARNING) << "operator failure — recovering from committed epoch "
               << epoch << ": " << run_status_.first().message();
  // The SLO controller polls this flag and suspends actuation for the
  // duration of the rebuild (pause -> restore -> restart -> replay).
  // Raising it under the actuation mutex hand-shakes with the live
  // actuation hooks: they hold the mutex for a whole actuation and refuse
  // once the flag is up, so no actuation races the executor teardown.
  {
    std::lock_guard<std::mutex> lock(actuation_mutex_);
    recovering_.store(true, std::memory_order_release);
  }
  // Unwedge any producer blocked on a bounded queue (sticky until the
  // queues reset below), then quiesce the source threads and the workers.
  for (QueueOp* q : queues_) q->CancelProducerWaits();
  recovery_->PauseSources();
  Stop();
  recovery_->RestoreCommittedState();
  run_status_.Reset();
  Status s = BuildExecutors(options_);
  if (s.ok()) s = Start();
  if (!s.ok()) {
    LOG(ERROR) << "recovery restart failed: " << s.message();
    recovery_->ResumeSources();
    recovering_.store(false, std::memory_order_release);
    return false;
  }
  recovery_->ReplaySources();
  recovery_->ResumeSources();
  recovery_->FinishAttempt(
      std::chrono::duration_cast<std::chrono::microseconds>(Now() - start)
          .count());
  recovering_.store(false, std::memory_order_release);
  return true;
}

void StreamEngine::AbortOnFailure() {
  for (QueueOp* q : queues_) q->CancelProducerWaits();
  Stop();
}

std::string StreamEngine::DiagnosticSnapshot() {
  std::vector<Partition*> partitions;
  if (hmts_ != nullptr) partitions = hmts_->Partitions();
  std::string report = partitions.empty() ? "  (no scheduled partitions)\n"
                                          : DescribePartitions(partitions);
  if (diagnostic_annotator_ != nullptr) {
    const std::string note = diagnostic_annotator_();
    if (!note.empty()) report += "  " + note + "\n";
  }
  return report;
}

void StreamEngine::SetDiagnosticAnnotator(
    std::function<std::string()> annotator) {
  diagnostic_annotator_ = std::move(annotator);
  if (hmts_ != nullptr) {
    hmts_->thread_scheduler().SetStallAnnotator(diagnostic_annotator_);
  }
}

Status StreamEngine::SetMaxRunningThreads(int max_running) {
  std::lock_guard<std::mutex> lock(actuation_mutex_);
  if (recovering()) {
    return Status::FailedPrecondition(
        "SetMaxRunningThreads refused: a recovery attempt is in flight; "
        "retry after it completes");
  }
  if (!configured_) {
    return Status::FailedPrecondition(
        "SetMaxRunningThreads refused: engine is not configured");
  }
  if (max_running < 1) {
    return Status::InvalidArgument(
        "SetMaxRunningThreads refused: max_running must be >= 1, got " +
        std::to_string(max_running));
  }
  if (options_.mode != ExecutionMode::kHmts || hmts_ == nullptr) {
    return Status::FailedPrecondition(
        std::string("SetMaxRunningThreads refused: execution mode is ") +
        ExecutionModeToString(options_.mode) +
        " (the level-3 slot pool exists only under hmts)");
  }
  hmts_->thread_scheduler().SetMaxRunning(max_running);
  // Persist so a recovery rebuild (BuildExecutors from options_) keeps it.
  options_.ts.max_running = max_running;
  return Status::Ok();
}

Status StreamEngine::SetEmitBatchSizeLive(size_t batch_size) {
  std::lock_guard<std::mutex> lock(actuation_mutex_);
  if (recovering()) {
    return Status::FailedPrecondition(
        "SetEmitBatchSizeLive refused: a recovery attempt is in flight; "
        "retry after it completes");
  }
  if (!configured_) {
    return Status::FailedPrecondition(
        "SetEmitBatchSizeLive refused: engine is not configured");
  }
  if (batch_size == 0) batch_size = 1;
  for (Node* node : graph_->nodes()) {
    if (Source* source = dynamic_cast<Source*>(node)) {
      source->RequestEmitBatchSize(batch_size);
    }
  }
  for (QueueOp* queue : queues_) queue->SetBatchDelivery(batch_size > 1);
  options_.emit_batch_size = batch_size;
  return Status::Ok();
}

Status StreamEngine::SetOverloadPolicyLive(OverloadPolicy policy) {
  std::lock_guard<std::mutex> lock(actuation_mutex_);
  if (recovering()) {
    return Status::FailedPrecondition(
        "SetOverloadPolicyLive refused: a recovery attempt is in flight; "
        "retry after it completes");
  }
  if (!configured_) {
    return Status::FailedPrecondition(
        "SetOverloadPolicyLive refused: engine is not configured");
  }
  if (options_.queue_max_elements == 0) {
    return Status::FailedPrecondition(
        "SetOverloadPolicyLive refused: queues are unbounded "
        "(queue_max_elements == 0), so there is no overload decision to "
        "govern");
  }
  for (QueueOp* queue : queues_) {
    Status s = queue->SetOverloadPolicyLive(policy);
    if (!s.ok()) return s;
  }
  options_.overload_policy = policy;
  return Status::Ok();
}

int64_t StreamEngine::DroppedElements() const {
  int64_t total = 0;
  for (const QueueOp* q : queues_) total += q->dropped();
  return total;
}

void StreamEngine::Stop() {
  if (hmts_ != nullptr) {
    hmts_->RequestStop();
    hmts_->Join();
  }
  started_ = false;
}

Status StreamEngine::SwitchTo(const EngineOptions& options) {
  if (!configured_) {
    return Status::FailedPrecondition(
        std::string("SwitchTo(-> ") + ExecutionModeToString(options.mode) +
        ") refused: engine is not configured; call Configure first");
  }
  if (recovering()) {
    return Status::FailedPrecondition(
        std::string("SwitchTo(") + ExecutionModeToString(options_.mode) +
        " -> " + ExecutionModeToString(options.mode) +
        ") refused: a recovery attempt is in flight; retry after it "
        "completes");
  }
  if (recovery_ != nullptr) {
    return Status::FailedPrecondition(
        std::string("SwitchTo(") + ExecutionModeToString(options_.mode) +
        " -> " + ExecutionModeToString(options.mode) +
        ") refused: checkpointing is armed (committed epoch " +
        std::to_string(recovery_->coordinator().committed_epoch()) +
        "); a switch would discard barrier alignment and replay buffers — "
        "call Deconfigure first");
  }
  const bool was_started = started_;
  Stop();

  // The in-place switch rebuilds only the executors, so it may change only
  // what BuildExecutors reads.
  EngineOptions executors_only = options_;
  executors_only.mode = options.mode;
  executors_only.strategy = options.strategy;
  executors_only.ts = options.ts;
  executors_only.partition = options.partition;
  const auto gts_or_ots = [](ExecutionMode m) {
    return m == ExecutionMode::kGts || m == ExecutionMode::kOts;
  };
  if (gts_or_ots(options_.mode) && gts_or_ots(options.mode) &&
      executors_only == options) {
    // Queues stay in place (the paper's instant OTS <-> GTS switch,
    // Section 4.2.2); only the level-2/3 machinery is rebuilt, so sources
    // may keep pushing throughout.
    Status s = BuildExecutors(options);
    if (!s.ok()) return s;
    options_ = options;
  } else {
    // Structural switch: drain and remove the old queues, then place anew.
    // Contract: sources are paused while this runs (Section 5.1.3).
    Status s = Deconfigure();
    if (!s.ok()) return s;
    s = Configure(options);
    if (!s.ok()) return s;
  }
  if (was_started) return Start();
  return Status::Ok();
}

Status StreamEngine::Deconfigure() {
  if (!configured_) return Status::FailedPrecondition("not configured");
  if (started_) Stop();
  if (recovery_ != nullptr) {
    recovery_->Disarm();
    recovery_.reset();
  }
  // Sources return to per-tuple delivery first; resetting the batch size
  // flushes any pending batch into the still-placed queues so the drain
  // below sees every element.
  for (Node* node : graph_->nodes()) {
    if (Source* source = dynamic_cast<Source*>(node)) {
      source->SetEmitBatchSize(1);
      source->SetColumnarEmit(false);
    }
  }
  // Drain in topological order so elements pushed downstream land in
  // queues that have not been removed yet.
  Result<std::vector<Node*>> order = graph_->TopologicalOrder();
  if (!order.ok()) return order.status();
  for (Node* node : *order) {
    QueueOp* queue = dynamic_cast<QueueOp*>(node);
    if (queue == nullptr || queue->fan_in() == 0) continue;
    while (queue->HeadSeq() != QueueOp::kNoSeq) {
      queue->DrainBatch(1024);
    }
    queue->SetEnqueueListener(nullptr);
    Status s = graph_->SpliceOut(queue);
    if (!s.ok()) return s;
  }
  for (Node* node : graph_->nodes()) {
    if (Operator* op = dynamic_cast<Operator*>(node)) {
      op->SetSerializedReceive(false);
      op->SetRunStatus(nullptr);
    }
  }
  hmts_.reset();
  queues_.clear();
  partitioning_.reset();
  sinks_.clear();
  configured_ = false;
  return Status::Ok();
}

Status StreamEngine::ResetForRerun() {
  Status s = Deconfigure();
  if (!s.ok()) return s;
  graph_->ResetAll();
  return Status::Ok();
}

size_t StreamEngine::QueuedElements() const {
  size_t total = 0;
  for (const QueueOp* q : queues_) total += q->Size();
  return total;
}

size_t StreamEngine::WorkerThreadCount() const {
  return hmts_ != nullptr ? hmts_->partition_count() : 0;
}

}  // namespace flexstream
