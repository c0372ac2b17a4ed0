// Unit tests of the cooperative-cancellation primitives
// (common/cancel.hpp): token requests across threads, scope nesting under
// help-while-waiting, and the poll's throw behavior. The engine-level
// behavior (graceful shutdown, batch items marked cancelled) lives in
// test_engine.cpp.

#include "common/cancel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/error.hpp"

namespace lls {
namespace {

TEST(CancelToken, StickyAndCrossThread) {
    CancelToken token;
    EXPECT_FALSE(token.requested());
    std::thread requester([&] { token.request(); });
    requester.join();
    EXPECT_TRUE(token.requested());
    // Sticky: once requested, always requested.
    EXPECT_TRUE(token.requested());
}

TEST(CancelScope, NoScopeMeansNoCancellation) {
    // Polls are unconditional in the hot loops; without a scope they must
    // be inert, not crash or throw.
    for (int i = 0; i < 1000; ++i) EXPECT_FALSE(cancel_pending());
    EXPECT_NO_THROW(poll_cancellation("test"));
}

TEST(CancelScope, TokenRequestSurfacesInPoll) {
    CancelToken token;
    const CancelScope scope(&token);
    EXPECT_NO_THROW(poll_cancellation("test"));
    token.request();
    EXPECT_TRUE(cancel_pending());
    try {
        poll_cancellation("sat");
        FAIL() << "poll_cancellation did not throw";
    } catch (const LlsError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
        EXPECT_EQ(e.stage(), "sat");
    }
}

TEST(CancelScope, CrossThreadRequestCancelsWorker) {
    CancelToken token;
    std::atomic<bool> worker_saw_cancel{false};
    std::thread worker([&] {
        const CancelScope scope(&token);
        // Spin until the main thread's request lands; bounded so a broken
        // token fails the test instead of hanging it.
        for (int i = 0; i < 10000000 && !cancel_pending(); ++i) {
            std::this_thread::yield();
        }
        worker_saw_cancel = cancel_pending();
    });
    token.request();
    worker.join();
    EXPECT_TRUE(worker_saw_cancel);
}

TEST(CancelScope, NestingSavesAndRestores) {
    // A pool worker that inlines another task (help-while-waiting) installs
    // the inner task's scope; on return the outer scope's token must come
    // back exactly.
    CancelToken outer_token, inner_token;
    outer_token.request();
    const CancelScope outer(&outer_token);
    EXPECT_TRUE(cancel_pending());
    {
        const CancelScope inner(&inner_token);
        EXPECT_FALSE(cancel_pending());  // inner scope is clean
        EXPECT_NO_THROW(poll_cancellation("test"));
    }
    EXPECT_TRUE(cancel_pending());  // outer token restored with the outer scope
    EXPECT_THROW(poll_cancellation("test"), LlsError);
}

TEST(CancelPoll, CheapWhenUnarmed) {
    // Smoke bound, not a benchmark: ten million no-scope polls must finish
    // in well under a second — catches an accidental clock read or lock on
    // the common path (a steady_clock::now() per poll would take seconds).
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 10000000; ++i) {
        if (cancel_pending()) FAIL() << "spurious cancellation";
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1000);
}

}  // namespace
}  // namespace lls
