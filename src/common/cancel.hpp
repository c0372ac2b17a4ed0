#pragma once

// Cooperative cancellation: one source, one carrier, one cheap poll.
//
//   - CancelToken: the process- or batch-level "stop now" request (SIGTERM /
//     SIGINT installs one). Cross-thread, sticky, relaxed-atomic.
//   - CancelScope: installs a token for the current thread; the polls read
//     it from a thread-local.
//
// Hot loops call `poll_cancellation(stage)` once per iteration — SAT decide
// loop, decomposition / simplification / exact-synthesis inner loops. The
// poll reads one thread-local pointer and one relaxed atomic; with no scope
// installed it is a single predictable branch. When the token was
// requested, the poll throws LlsError{Cancelled}, which the engine treats
// as a shutdown: it stops dispatching and discards the in-flight round.
//
// Scopes nest via RAII save/restore, which keeps them correct under the
// thread pool's help-while-waiting execution: a worker that inlines
// another cone's task installs that task's scope and restores its own on
// return.

#include <atomic>

#include "common/error.hpp"

namespace lls {

/// Sticky cross-thread cancellation request. `request()` may be called
/// from any thread — including a signal handler: it is a single relaxed
/// atomic store, which is async-signal-safe.
class CancelToken {
public:
    void request() { requested_.store(true, std::memory_order_relaxed); }
    bool requested() const { return requested_.load(std::memory_order_relaxed); }

private:
    std::atomic<bool> requested_{false};
};

namespace detail {
/// The token of the innermost CancelScope on this thread, or null.
inline const CancelToken*& cancel_token() {
    thread_local const CancelToken* token = nullptr;
    return token;
}
}  // namespace detail

/// RAII scope: installs `token` (may be null) for the current thread and
/// restores the previous one on destruction. The token must outlive the
/// scope.
class CancelScope {
public:
    explicit CancelScope(const CancelToken* token) : saved_(detail::cancel_token()) {
        detail::cancel_token() = token;
    }
    ~CancelScope() { detail::cancel_token() = saved_; }

    CancelScope(const CancelScope&) = delete;
    CancelScope& operator=(const CancelScope&) = delete;

private:
    const CancelToken* saved_;
};

/// The token of the current thread's innermost scope, or null. Work fanned
/// out to other threads installs it in a CancelScope of its own.
inline const CancelToken* current_cancel_token() { return detail::cancel_token(); }

/// True when the active scope's token was requested. No-throw; safe to
/// call with no scope installed (returns false).
inline bool cancel_pending() {
    const CancelToken* token = current_cancel_token();
    return token != nullptr && token->requested();
}

/// The poll hot loops call: throws LlsError{Cancelled} at `stage` when the
/// active token was requested, otherwise returns immediately.
inline void poll_cancellation(const char* stage) {
    if (cancel_pending()) throw LlsError(ErrorKind::Cancelled, "cancellation requested", stage);
}

}  // namespace lls
