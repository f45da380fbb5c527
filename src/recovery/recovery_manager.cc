#include "recovery/recovery_manager.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/node.h"
#include "graph/query_graph.h"
#include "operators/operator.h"
#include "operators/source.h"
#include "util/logging.h"

namespace flexstream {

RecoveryManager::RecoveryManager(Options options)
    : options_(std::move(options)) {
  CHECK(options_.epoch_interval > 0)
      << "RecoveryManager requires a checkpoint epoch interval";
}

RecoveryManager::~RecoveryManager() { Disarm(); }

Status RecoveryManager::Arm(QueryGraph* graph) {
  CHECK(graph != nullptr);
  CHECK(graph_ == nullptr) << "RecoveryManager already armed";
  const bool durable = !options_.durable_dir.empty();
  if (durable) {
    // Validate before touching the graph: durable checkpointing needs
    // every record/cursor name unique (restore matches by name).
    std::set<std::string> names;
    for (Node* node : graph->nodes()) {
      if (node->is_queue()) continue;
      if (node->inputs().empty() && node->outputs().empty() &&
          !node->is_source()) {
        continue;
      }
      auto* op = dynamic_cast<Operator*>(node);
      if (op == nullptr) continue;
      const bool stateful = dynamic_cast<StatefulOperator*>(op) != nullptr;
      if ((stateful || node->is_source()) &&
          !names.insert(op->name()).second) {
        return Status::FailedPrecondition(
            "durable checkpoints: duplicate operator name '" + op->name() +
            "' (records are matched by name on restore)");
      }
    }
    auto store = std::make_unique<SnapshotStore>(SnapshotStore::Options{
        options_.durable_dir, options_.storage_env,
        std::max(1, options_.durable_retain_epochs)});
    Status opened = store->Open();
    if (!opened.ok()) return opened;
    store_ = std::move(store);
  }
  graph_ = graph;
  coordinator_.SetCommitListener([this](uint64_t epoch) {
    if (store_ != nullptr) PersistEpoch(epoch);
    for (auto& buffer : buffers_) buffer->TrimThrough(epoch);
  });
  for (Node* node : graph->nodes()) {
    if (node->is_source()) {
      auto* source = dynamic_cast<Source*>(node);
      CHECK(source != nullptr);
      sources_.push_back(source);
      buffers_.push_back(std::make_unique<ReplayBuffer>(
          source, options_.replay_buffer_max_elements));
      source->ArmEpochs(options_.epoch_interval, buffers_.back().get(),
                        &gate_);
      continue;
    }
    if (node->is_queue()) continue;  // queues forward barriers, never align
    // A fully detached node (the prototype ShardOperator leaves behind)
    // never sees a barrier; registering it would block every commit.
    if (node->inputs().empty() && node->outputs().empty()) continue;
    auto* op = dynamic_cast<Operator*>(node);
    CHECK(op != nullptr);
    op->SetEpochCallback(
        [this, op](uint64_t epoch) { coordinator_.OnAligned(op, epoch); });
    coordinator_.Register(op, dynamic_cast<StatefulOperator*>(op),
                          node->is_sink());
  }
  return Status::Ok();
}

void RecoveryManager::PersistEpoch(uint64_t epoch) {
  // Deep-copy the committed state atomically; the graph keeps committing
  // newer epochs while we serialize. A copy whose epoch moved past ours
  // means a newer commit superseded this one — its own listener call
  // persists it, so this one is simply skipped.
  CheckpointCoordinator::CommittedState state = coordinator_.CommittedCopy();
  if (state.epoch != epoch) return;
  EpochSnapshot snapshot;
  snapshot.epoch = epoch;
  snapshot.operators.reserve(state.snapshots.size());
  for (const auto& [op, op_snapshot] : state.snapshots) {
    auto* stateful = dynamic_cast<StatefulOperator*>(op);
    DCHECK(stateful != nullptr);
    DurableRecord record;
    record.name = op->name();
    Status encoded = stateful->EncodeState(op_snapshot, &record.payload);
    if (!encoded.ok()) {
      LOG(WARNING) << "durable checkpoint: encoding state of '" << op->name()
                   << "' for epoch " << epoch
                   << " failed: " << encoded.ToString();
      persist_failures_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    snapshot.operators.push_back(std::move(record));
  }
  std::sort(snapshot.operators.begin(), snapshot.operators.end(),
            [](const DurableRecord& a, const DurableRecord& b) {
              return a.name < b.name;
            });
  for (size_t i = 0; i < sources_.size(); ++i) {
    DurableCursor cursor;
    cursor.name = sources_[i]->name();
    cursor.elements = buffers_[i]->RecordedThrough(epoch);
    cursor.closed = buffers_[i]->recorded_close(&cursor.close_timestamp);
    snapshot.cursors.push_back(std::move(cursor));
  }
  Status written = store_->WriteEpoch(snapshot);
  if (!written.ok() && written.code() != StatusCode::kAlreadyExists) {
    // AlreadyExists = a concurrently committed newer epoch won the write
    // race; anything else is a real persist failure. Either way the run
    // continues — cold restart falls back to the last persisted epoch.
    LOG(WARNING) << "durable checkpoint: writing epoch " << epoch
                 << " failed: " << written.ToString();
    persist_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

Result<uint64_t> RecoveryManager::RestoreFromDisk() {
  CHECK(graph_ != nullptr) << "RestoreFromDisk requires an armed graph";
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "durable checkpoints not configured (no durable_dir)");
  }
  Result<EpochSnapshot> loaded = store_->LoadNewestIntact();
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      return uint64_t{0};  // empty store: fresh start
    }
    return std::move(loaded).status();
  }
  const uint64_t epoch = loaded->epoch;
  // Match durable records and cursors against the armed graph by name.
  std::unordered_map<std::string, std::pair<Operator*, StatefulOperator*>>
      stateful_by_name;
  for (Node* node : graph_->nodes()) {
    if (node->is_source() || node->is_queue()) continue;
    auto* op = dynamic_cast<Operator*>(node);
    if (op == nullptr) continue;
    auto* stateful = dynamic_cast<StatefulOperator*>(op);
    if (stateful != nullptr) stateful_by_name[op->name()] = {op, stateful};
  }
  std::unordered_map<Operator*, OperatorSnapshot> snapshots;
  for (const DurableRecord& record : loaded->operators) {
    auto it = stateful_by_name.find(record.name);
    if (it == stateful_by_name.end()) {
      return Status::FailedPrecondition(
          "durable epoch " + std::to_string(epoch) +
          " holds a record for unknown operator '" + record.name +
          "' — the rebuilt graph does not match the checkpointed one");
    }
    Result<OperatorSnapshot> decoded =
        it->second.second->DecodeState(record.payload);
    if (!decoded.ok()) {
      return Status::Internal(
          "durable epoch " + std::to_string(epoch) + " record '" +
          record.name + "' failed to decode: " +
          std::move(decoded).status().ToString());
    }
    decoded->epoch = epoch;
    snapshots[it->second.first] = std::move(decoded).value();
  }
  std::unordered_map<std::string, const DurableCursor*> cursors_by_name;
  for (const DurableCursor& cursor : loaded->cursors) {
    cursors_by_name[cursor.name] = &cursor;
  }
  for (Source* source : sources_) {
    if (cursors_by_name.find(source->name()) == cursors_by_name.end()) {
      return Status::FailedPrecondition(
          "durable epoch " + std::to_string(epoch) +
          " holds no replay cursor for source '" + source->name() + "'");
    }
  }
  // All records validated — now mutate the graph: wipe, rewind, install.
  coordinator_.SetRestoredState(epoch, std::move(snapshots));
  ResetToCommittedEpoch();
  // The rebuilt sources start counting epochs at the restored boundary.
  for (Source* source : sources_) source->RewindTo(epoch);
  // The replay buffers never see the resume-skipped prefix, so seed their
  // recorded counts with the restored cursors — cursors persisted by this
  // incarnation stay stream-absolute and a later cold restart skips the
  // right amount.
  for (size_t i = 0; i < sources_.size(); ++i) {
    const uint64_t cursor = cursors_by_name[sources_[i]->name()]->elements;
    sources_[i]->SetResumeSkip(cursor);
    buffers_[i]->SetRecordedBase(cursor);
  }
  // If we fell back past a corrupt newer epoch, drop it from the store so
  // the resumed run can re-commit (and re-persist) those epochs.
  Status truncated = store_->TruncateAfter(epoch);
  if (!truncated.ok()) {
    LOG(WARNING) << "durable checkpoint: truncating store after epoch "
                 << epoch << " failed: " << truncated.ToString();
  }
  return epoch;
}

Status RecoveryManager::replay_truncation_status() const {
  for (const auto& buffer : buffers_) {
    Status status = buffer->truncation_status();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

void RecoveryManager::Disarm() {
  if (graph_ == nullptr) return;
  for (Source* source : sources_) source->DisarmEpochs();
  for (Node* node : graph_->nodes()) {
    if (node->is_source() || node->is_queue()) continue;
    auto* op = dynamic_cast<Operator*>(node);
    if (op != nullptr) op->SetEpochCallback(nullptr);
  }
  sources_.clear();
  buffers_.clear();
  store_.reset();
  graph_ = nullptr;
}

bool RecoveryManager::CanAttempt() const {
  return attempts_.load(std::memory_order_relaxed) < options_.max_attempts &&
         !any_buffer_truncated();
}

bool RecoveryManager::BeginAttempt() {
  if (!CanAttempt()) return false;
  attempts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RecoveryManager::FinishAttempt(int64_t latency_micros) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  last_latency_micros_.store(latency_micros, std::memory_order_relaxed);
}

void RecoveryManager::PauseSources() {
  CHECK(pause_lock_ == nullptr) << "sources already paused";
  // Blocks until every in-flight (shared-locked) flush/Close drains.
  pause_lock_ = std::make_unique<std::unique_lock<std::shared_mutex>>(gate_);
}

void RecoveryManager::ResumeSources() {
  CHECK(pause_lock_ != nullptr) << "sources not paused";
  pause_lock_.reset();
}

void RecoveryManager::RestoreCommittedState() {
  CHECK(graph_ != nullptr);
  CHECK(pause_lock_ != nullptr) << "restore requires quiesced sources";
  // The rewound run re-aligns and re-closes everything past the committed
  // epoch; the coordinator's pre-restore pending state is stale.
  coordinator_.OnRestore();
  ResetToCommittedEpoch();
}

void RecoveryManager::ResetToCommittedEpoch() {
  const uint64_t epoch = coordinator_.committed_epoch();
  // 1. Wipe every node back to pristine (windows, hash tables, EOS
  //    counters, queue contents, alignment state). Armed sources keep
  //    their driver-owned pending batch and epoch counters: nothing
  //    pending has entered the graph, and the replay re-emits every
  //    flushed batch past the committed epoch with its barrier.
  for (Node* node : graph_->nodes()) node->Reset();
  // 2. Re-install the committed snapshots; everything stateful without a
  //    committed entry (closed before the epoch, or registered later)
  //    stays empty.
  for (const auto& [op, snapshot] : coordinator_.committed()) {
    auto* stateful = dynamic_cast<StatefulOperator*>(op);
    CHECK(stateful != nullptr);
    stateful->RestoreState(snapshot);
  }
  // 3. Fast-forward the alignment baselines so the next barrier each
  //    operator sees (epoch+1, regenerated during replay) chains onto the
  //    restored epoch.
  for (Node* node : graph_->nodes()) {
    if (node->is_source() || node->is_queue()) continue;
    auto* op = dynamic_cast<Operator*>(node);
    if (op != nullptr) op->SetRecoveredEpoch(epoch);
  }
}

void RecoveryManager::ReplaySources() {
  CHECK(pause_lock_ != nullptr) << "replay requires the gate held";
  for (auto& buffer : buffers_) buffer->Replay();
}

int64_t RecoveryManager::replayed_elements() const {
  int64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->replayed_elements();
  return total;
}

size_t RecoveryManager::replay_depth() const {
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->depth();
  return total;
}

size_t RecoveryManager::replay_peak_depth() const {
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->peak_depth();
  return total;
}

bool RecoveryManager::any_buffer_truncated() const {
  for (const auto& buffer : buffers_) {
    if (buffer->truncated()) return true;
  }
  return false;
}

}  // namespace flexstream
