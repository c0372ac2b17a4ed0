#pragma once

// Graceful shutdown on SIGTERM/SIGINT, kept out of the library: no engine,
// solver or checker code knows about it, and every evaluation runs to
// completion or faults. A signal ends the process instead.
//
// SignalShutdown blocks both signals in the thread that constructs it, so
// construct it before the process starts any other thread (threads inherit
// the mask). Its own thread waits for them in sigwait. On the first signal
// that thread
//   1. restores the default action and unblocks both signals in itself, so
//      a second signal kills the process (exit status 128+signo);
//   2. takes the commit lock, so a write held under `commit()` finishes
//      first;
//   3. runs the callback, unless `disarm()` came first. The callback runs
//      on that thread with the commit lock held, and ends the process
//      (`_exit`). Disarmed, the thread releases the lock and parks in
//      pause(): it is the one thread with both signals unblocked, so a
//      second signal still kills the process.
//
// It is what `lls_opt` turns SIGTERM into: the epilogue, then exit 30
// (docs/ENGINE.md, "Graceful shutdown").

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

namespace lls {

class SignalShutdown {
public:
    explicit SignalShutdown(std::function<void(int signo)> on_signal)
        : state_(std::make_shared<State>()) {
        state_->on_signal = std::move(on_signal);
        sigset_t signals;
        sigemptyset(&signals);
        sigaddset(&signals, SIGTERM);
        sigaddset(&signals, SIGINT);
        pthread_sigmask(SIG_BLOCK, &signals, nullptr);
        // Detached, with a share of the state: it may outlive this object.
        std::thread([state = state_, signals] {
            int signo = 0;
            sigwait(&signals, &signo);
            std::signal(SIGTERM, SIG_DFL);
            std::signal(SIGINT, SIG_DFL);
            pthread_sigmask(SIG_UNBLOCK, &signals, nullptr);
            {
                const std::lock_guard<std::mutex> lock(state->commit);
                if (state->armed) state->on_signal(signo);
            }
            for (;;) pause();  // disarmed: wait for the second signal
        }).detach();
    }

    /// Disarms under the commit lock, so a callback already running ends the
    /// process before what it reads goes out of scope.
    ~SignalShutdown() {
        const std::lock_guard<std::mutex> lock(state_->commit);
        state_->armed = false;
    }

    SignalShutdown(const SignalShutdown&) = delete;
    SignalShutdown& operator=(const SignalShutdown&) = delete;

    /// The commit lock: a signal waits for it, so what is written while it
    /// is held is never cut short.
    [[nodiscard]] std::unique_lock<std::mutex> commit() {
        return std::unique_lock<std::mutex>(state_->commit);
    }

    /// From now on a first signal does nothing (a second still kills). Call
    /// it inside the `commit()` section that ends the run, so no signal can
    /// fall between the two.
    void disarm() { state_->armed = false; }

private:
    struct State {
        std::mutex commit;
        std::atomic<bool> armed{true};
        std::function<void(int)> on_signal;
    };
    std::shared_ptr<State> state_;
};

}  // namespace lls
