#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/obs.hpp"
#include "serve/protocol.hpp"

namespace b2h::serve {

namespace {

/// Registry-backed queue instruments, resolved once (instrument lookup
/// takes a mutex; these are touched on every submit/execute).
/// serve.queue_depth is the live queued-not-running count, serve.in_flight
/// the closures currently executing on workers, serve.execute_ms the run
/// time of each executed closure (once per job, however many waiters it
/// serves).
struct QueueMetrics {
  obs::Gauge& queue_depth;
  obs::Gauge& in_flight;
  obs::Histogram& execute_ms;

  static QueueMetrics& Get() {
    static QueueMetrics& metrics = *new QueueMetrics{
        obs::Registry::Global().gauge("serve.queue_depth"),
        obs::Registry::Global().gauge("serve.in_flight"),
        obs::Registry::Global().histogram("serve.execute_ms")};
    return metrics;
  }
};

}  // namespace

Scheduler::Scheduler(Options options) : options_(options) {
  // Like the server's serve.* instruments: a fresh daemon's execute
  // histogram starts empty.
  QueueMetrics::Get().execute_ms.Reset();
  const unsigned workers = std::max(1u, options_.workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() { Stop(); }

Scheduler::Outcome Scheduler::Run(const std::string& key,
                                  std::function<JobResult()> work,
                                  int deadline_ms) {
  return Run(key, std::move(work), deadline_ms, nullptr);
}

Scheduler::Outcome Scheduler::Run(const std::string& key,
                                  std::function<JobResult()> work,
                                  int deadline_ms,
                                  const std::function<void()>& poll) {
  const std::uint64_t submitted_ns = obs::Stopwatch::Now();
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) return {OutcomeCode::kShuttingDown, nullptr, false};

  std::shared_ptr<Job> job;
  bool coalesced = false;
  const auto it = in_flight_.find(key);
  if (it != in_flight_.end()) {
    // Single-flight: identical work is already queued or running — attach.
    job = it->second;
    coalesced = true;
    ++stats_.coalesced;
  } else {
    if (queue_.size() >= options_.max_queue) {
      ++stats_.rejected_overload;
      return {OutcomeCode::kOverloaded, nullptr, false};
    }
    job = std::make_shared<Job>();
    job->key = key;
    job->work = std::move(work);
    in_flight_.emplace(key, job);
    queue_.push_back(job);
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    QueueMetrics::Get().queue_depth.Set(
        static_cast<std::int64_t>(queue_.size()));
    queue_cv_.notify_one();
  }
  ++stats_.submitted;

  // Called with the lock held: job->started_ns is written under it.
  const auto outcome = [&](OutcomeCode code) {
    const std::uint64_t started =
        job->started_ns != 0 ? job->started_ns : obs::Stopwatch::Now();
    if (code == OutcomeCode::kDeadline) ++stats_.deadline_expired;
    return Outcome{code,
                   code == OutcomeCode::kDone ? job->result : nullptr,
                   coalesced,
                   started > submitted_ns ? started - submitted_ns : 0};
  };
  const auto finished = [&job] { return job->done; };
  if (poll == nullptr) {
    if (deadline_ms < 0) {
      job->done_cv.wait(lock, finished);
    } else if (!job->done_cv.wait_for(lock,
                                      std::chrono::milliseconds(deadline_ms),
                                      finished)) {
      // The waiter gives up; the job object stays queued/running and will
      // complete into the caches for the next identical request.
      return outcome(OutcomeCode::kDeadline);
    }
    return outcome(OutcomeCode::kDone);
  }

  // Polling wait: wake at least every kPollIntervalMs, run `poll` with the
  // mutex released (it may block on a socket write), re-check on relock.
  using Clock = std::chrono::steady_clock;
  const bool has_deadline = deadline_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(has_deadline ? deadline_ms : 0);
  while (!job->done) {
    Clock::time_point wake =
        Clock::now() + std::chrono::milliseconds(kPollIntervalMs);
    if (has_deadline && deadline < wake) wake = deadline;
    job->done_cv.wait_until(lock, wake, finished);
    if (job->done) break;
    if (has_deadline && Clock::now() >= deadline) {
      return outcome(OutcomeCode::kDeadline);
    }
    lock.unlock();
    poll();
    lock.lock();
  }
  return outcome(OutcomeCode::kDone);
}

void Scheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;  // Stop() already failed everything queued
    const std::shared_ptr<Job> job = queue_.front();
    queue_.pop_front();
    QueueMetrics& metrics = QueueMetrics::Get();
    metrics.queue_depth.Set(static_cast<std::int64_t>(queue_.size()));
    metrics.in_flight.Add(1);
    job->started_ns = obs::Stopwatch::Now();
    lock.unlock();

    JobResult result;
    try {
      obs::ScopedSpan span("serve.execute", "serve");
      span.Arg("key", job->key);
      result = job->work();
    } catch (const std::exception& e) {
      result = {false, kErrInternal,
                std::string("work closure threw: ") + e.what(), ""};
    } catch (...) {
      result = {false, kErrInternal, "work closure threw", ""};
    }
    metrics.execute_ms.Observe(
        static_cast<double>(obs::Stopwatch::Now() - job->started_ns) / 1e6);
    metrics.in_flight.Add(-1);

    lock.lock();
    job->result = std::make_shared<const JobResult>(std::move(result));
    job->done = true;
    in_flight_.erase(job->key);
    ++stats_.executed;
    job->done_cv.notify_all();
  }
}

void Scheduler::Stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Second Stop(): workers already told to exit; fall through to join.
    } else {
      stopping_ = true;
      // Fail everything admitted but not yet started; running jobs finish
      // normally (their waiters get real results even during shutdown).
      for (const std::shared_ptr<Job>& job : queue_) {
        job->result = std::make_shared<const JobResult>(JobResult{
            false, kErrShuttingDown, "server is shutting down", ""});
        job->done = true;
        in_flight_.erase(job->key);
        job->done_cv.notify_all();
      }
      queue_.clear();
      QueueMetrics::Get().queue_depth.Set(0);
    }
    queue_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

Scheduler::Stats Scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace b2h::serve
