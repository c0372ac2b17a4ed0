#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lls {

/// Fixed-size task-queue thread pool.
///
/// Work enters the pool only through `parallel_for`, whose helper tasks
/// run on one of `size()` worker threads. A pool of size 0 is a valid
/// degenerate pool: every index runs inline on the calling thread, which
/// gives callers a single code path for serial and concurrent execution. A
/// helper queued after shutdown has begun (the destructor is running) also
/// runs inline, so it is never stranded in a queue no worker will drain
/// again.
///
/// `parallel_for` dispatches a half-open index range across the workers
/// with the *calling thread participating*, so a pool of size N applies
/// N+1 threads to the range. Indices are handed out through a shared
/// atomic cursor (work-stealing in the limit of chunk size 1): workers
/// that finish early keep pulling indices, so uneven per-index cost does
/// not serialize the loop. The first exception thrown by any iteration
/// stops the hand-out of further indices and is rethrown on the calling
/// thread once every started iteration has returned.
///
/// `parallel_for` is reentrant: the body may call `parallel_for` on the
/// same pool (nested fan-out, such as a cone task fanning out its per-cube
/// proof tasks). The waiter never blocks while the queue holds work — it
/// *helps*, popping and running queued tasks until its own helpers have
/// finished — so nested calls cannot deadlock on workers that are all
/// waiting for helpers only they could run.
class ThreadPool {
public:
    explicit ThreadPool(std::size_t num_threads) {
        workers_.reserve(num_threads);
        for (std::size_t i = 0; i < num_threads; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto& w : workers_) w.join();
    }

    std::size_t size() const { return workers_.size(); }

    /// Number of jobs to use when the caller asked for "all of the machine".
    static std::size_t hardware_jobs() {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 1 : n;
    }

    /// Runs `body(i)` for every i in [begin, end). Blocks until the whole
    /// range is done; rethrows the first exception any iteration threw.
    /// Safe to call from inside a pool task (see class comment).
    template <typename F>
    void parallel_for(std::size_t begin, std::size_t end, F&& body) {
        if (begin >= end) return;
        const std::size_t span = end - begin;

        // Shared between the caller and its helper tasks. Helpers hold the
        // control block by shared_ptr: a helper that outlives this frame is
        // impossible (the caller waits for `pending` to reach 0), but the
        // shared_ptr keeps the teardown order trivially safe anyway.
        struct Control {
            std::atomic<std::size_t> cursor;
            std::atomic<std::size_t> pending{0};  // helpers not yet finished
            std::atomic<bool> failed{false};
            std::exception_ptr first_error;
            std::mutex error_mutex;
        };
        auto ctrl = std::make_shared<Control>();
        ctrl->cursor.store(begin, std::memory_order_relaxed);

        auto drain = [ctrl, end, &body]() {
            for (;;) {
                const std::size_t i = ctrl->cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= end || ctrl->failed.load(std::memory_order_relaxed)) return;
                try {
                    body(i);
                } catch (...) {
                    {
                        std::lock_guard<std::mutex> lock(ctrl->error_mutex);
                        if (!ctrl->first_error) ctrl->first_error = std::current_exception();
                    }
                    ctrl->failed.store(true, std::memory_order_relaxed);
                }
            }
        };

        // One helper task per worker is enough: each helper drains the
        // shared cursor until the range is exhausted. `pending` is set
        // before any helper can run; the release decrement + acquire load
        // below publish each helper's writes to the waiting caller.
        const std::size_t num_helpers = workers_.empty() ? 0 : std::min(workers_.size(), span);
        ctrl->pending.store(num_helpers, std::memory_order_relaxed);
        for (std::size_t t = 0; t < num_helpers; ++t) {
            auto helper = [this, ctrl, drain] {
                drain();
                if (ctrl->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                    // Last helper out: the caller may be asleep in the
                    // help-while-waiting loop below. Taking the pool mutex
                    // before notifying pairs with the caller's predicate
                    // check, so the wakeup cannot be missed.
                    std::lock_guard<std::mutex> lock(mutex_);
                    wake_.notify_all();
                }
            };
            if (!enqueue(helper)) helper();
        }
        drain();

        // Help while waiting: instead of blocking on the helpers (which
        // deadlocks nested calls — every worker would wait on queued tasks
        // only a worker could run), keep popping and running queued tasks.
        // The popped task may be one of our own helpers or another
        // parallel_for's — all are safe to run inline, and running them is
        // exactly what guarantees global progress. Only when the queue is
        // empty does the caller sleep, and then the work it waits for is
        // already running on other threads.
        if (ctrl->pending.load(std::memory_order_acquire) != 0) {
            std::unique_lock<std::mutex> lock(mutex_);
            while (ctrl->pending.load(std::memory_order_acquire) != 0) {
                if (!queue_.empty()) {
                    std::function<void()> task = std::move(queue_.front());
                    queue_.pop_front();
                    lock.unlock();
                    run_contained(task);
                    lock.lock();
                    continue;
                }
                const auto idle_start = std::chrono::steady_clock::now();
                wake_.wait(lock, [this, &ctrl] {
                    return !queue_.empty() ||
                           ctrl->pending.load(std::memory_order_acquire) == 0;
                });
                idle_wait_nanos_.fetch_add(
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - idle_start)
                            .count()),
                    std::memory_order_relaxed);
            }
        }

        if (ctrl->first_error) std::rethrow_exception(ctrl->first_error);
    }

    /// Total time threads spent asleep inside `parallel_for`'s
    /// help-while-waiting loop — waiting with an empty queue for helpers
    /// running elsewhere (the engine's `engine.intracone.idle_wait`).
    std::uint64_t idle_wait_nanos() const {
        return idle_wait_nanos_.load(std::memory_order_relaxed);
    }

private:
    /// Queues `task` and wakes a worker. Returns false — task NOT queued —
    /// when the pool has no workers or shutdown has begun (a parallel_for
    /// called from a task still running during destruction); the caller
    /// must run it inline.
    bool enqueue(std::function<void()> task) {
        if (workers_.empty()) return false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) return false;
            queue_.push_back(std::move(task));
        }
        wake_.notify_one();
        return true;
    }

    /// Runs a queued task with the worker-loop backstop: parallel_for's
    /// per-body catch captures user exceptions itself, so anything escaping
    /// here is wrapper failure (e.g. std::bad_alloc storing an exception)
    /// and must not take down the running thread — a dead worker strands
    /// the helpers its waiters count on.
    static void run_contained(std::function<void()>& task) {
        try {
            task();
        } catch (...) {
        }
    }

    void worker_loop() {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
                if (queue_.empty()) return;  // stopping_ and drained
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            run_contained(task);
        }
    }

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::atomic<std::uint64_t> idle_wait_nanos_{0};
};

}  // namespace lls
