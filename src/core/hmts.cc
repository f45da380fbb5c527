#include "core/hmts.h"

#include "util/logging.h"

namespace flexstream {

HmtsExecutor::HmtsExecutor(std::vector<PartitionSpec> specs,
                           ThreadScheduler::Options ts_options,
                           Partition::Options partition_options,
                           bool take_slots)
    : ts_(ts_options) {
  partitions_.reserve(specs.size());
  for (PartitionSpec& spec : specs) {
    auto partition = std::make_unique<Partition>(
        spec.name, std::move(spec.queues), MakeStrategy(spec.strategy),
        partition_options);
    if (take_slots) {
      partition->set_thread_scheduler(&ts_);
      ts_.Register(partition.get(), spec.priority);
    }
    partitions_.push_back(std::move(partition));
  }
}

HmtsExecutor::~HmtsExecutor() {
  RequestStop();
  Join();
  // Member destruction order (partitions_ before ts_, reverse of
  // declaration) keeps ts_ alive until every worker has exited.
}

void HmtsExecutor::Start() {
  CHECK(!started_) << "HmtsExecutor already started";
  started_ = true;
  for (auto& p : partitions_) p->Start();
  if (ts_.options().watchdog_interval > Duration::zero()) {
    ts_.StartWatchdog(Partitions());
  }
}

void HmtsExecutor::RequestStop() {
  ts_.StopWatchdog();
  for (auto& p : partitions_) p->RequestStop();
}

void HmtsExecutor::Join() {
  for (auto& p : partitions_) p->Join();
  started_ = false;
}

void HmtsExecutor::SetRunStatus(RunStatus* run_status) {
  for (auto& p : partitions_) p->SetRunStatus(run_status);
}

std::vector<Partition*> HmtsExecutor::Partitions() {
  std::vector<Partition*> out;
  out.reserve(partitions_.size());
  for (auto& p : partitions_) out.push_back(p.get());
  return out;
}

bool HmtsExecutor::Done() const {
  for (const auto& p : partitions_) {
    if (!p->Done()) return false;
  }
  return true;
}

void HmtsExecutor::SetPriority(size_t i, double priority) {
  CHECK_LT(i, partitions_.size());
  ts_.SetPriority(partitions_[i].get(), priority);
}

}  // namespace flexstream
