#include "sched/worker_pool.h"

#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "operators/operator.h"
#include "queue/queue_op.h"
#include "util/logging.h"

namespace flexstream {

struct PoolJob {
  std::function<void()> fn;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
};

namespace {

struct Worker {
  std::condition_variable cv;  // signalled under Pool::mutex
  std::shared_ptr<PoolJob> job;
};

struct Pool {
  std::mutex mutex;
  std::vector<Worker*> idle;
  int64_t created = 0;
};

Pool& GlobalPool() {
  // Never destroyed: parked workers wait on its mutex until process exit.
  static Pool* pool = new Pool();
  return *pool;
}

void WorkerLoop(Worker* worker, std::shared_ptr<PoolJob> job) {
  Pool& pool = GlobalPool();
  for (;;) {
    QueueOp::SetCurrentDrainContext(nullptr);
    QueueOp::SetCurrentSlotYielder(nullptr);
    Operator::ClearDeliverySender();
    job->fn();
    job->fn = nullptr;  // captures die before join() returns
    // Park before signalling: a joiner that starts the next run right
    // away finds this worker idle instead of creating a thread.
    bool park;
    {
      std::lock_guard<std::mutex> lock(pool.mutex);
      park = pool.idle.size() < WorkerPool::kMaxIdleWorkers;
      if (park) pool.idle.push_back(worker);
    }
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      job->done = true;
    }
    job->cv.notify_all();
    job.reset();
    if (!park) break;
    std::unique_lock<std::mutex> lock(pool.mutex);
    worker->cv.wait(lock, [&] { return worker->job != nullptr; });
    job = std::move(worker->job);
  }
  delete worker;
}

}  // namespace

PooledThread::PooledThread(std::function<void()> fn)
    : job_(std::make_shared<PoolJob>()) {
  job_->fn = std::move(fn);
  Pool& pool = GlobalPool();
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    if (!pool.idle.empty()) {
      Worker* worker = pool.idle.back();  // LIFO: the warmest thread
      pool.idle.pop_back();
      worker->job = job_;
      worker->cv.notify_one();
      return;
    }
    ++pool.created;
  }
  std::thread(WorkerLoop, new Worker(), job_).detach();
}

PooledThread& PooledThread::operator=(PooledThread&& other) noexcept {
  CHECK(!joinable()) << "assigning over a joinable PooledThread";
  job_ = std::move(other.job_);
  return *this;
}

PooledThread::~PooledThread() {
  CHECK(!joinable()) << "destroying a joinable PooledThread";
}

void PooledThread::join() {
  CHECK(joinable()) << "join on a non-joinable PooledThread";
  {
    std::unique_lock<std::mutex> lock(job_->mutex);
    job_->cv.wait(lock, [&] { return job_->done; });
  }
  job_.reset();
}

int64_t WorkerPool::threads_created() {
  Pool& pool = GlobalPool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  return pool.created;
}

size_t WorkerPool::idle_workers() {
  Pool& pool = GlobalPool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  return pool.idle.size();
}

}  // namespace flexstream
