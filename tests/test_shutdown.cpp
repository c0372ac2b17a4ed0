// Tests of the signal thread that ends lls_opt on SIGTERM/SIGINT
// (common/shutdown.hpp). Each case forks a child, while the test process
// has no other thread, sets up a SignalShutdown there and watches how the
// child ends. Parent and child step each other through two pipes. Every
// child is bounded by alarm(), so a broken shutdown fails its case (killed
// by SIGALRM) instead of hanging it.

#include "common/shutdown.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <functional>
#include <string>

namespace lls {
namespace {

/// One byte through a pipe; -1 when the other end is closed.
void tell(int fd, char c) { (void)!write(fd, &c, 1); }
int hear(int fd) {
    char c = 0;
    return read(fd, &c, 1) == 1 ? c : -1;
}

/// A forked child running `body(to_parent, from_parent)`, then `_exit(0)`.
class Child {
public:
    explicit Child(const std::function<void(int, int)>& body) {
        int up[2], down[2];
        if (pipe(up) != 0 || pipe(down) != 0) return;
        pid_ = fork();
        if (pid_ == 0) {
            alarm(10);
            close(up[0]);
            close(down[1]);
            body(up[1], down[0]);
            _exit(0);
        }
        close(up[1]);
        close(down[0]);
        from_child_ = up[0];
        to_child_ = down[1];
    }
    ~Child() {
        if (pid_ > 0 && status_ < 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
        close(from_child_);
        close(to_child_);
    }

    pid_t pid() const { return pid_; }
    int hear() const { return lls::hear(from_child_); }
    void tell(char c) const { lls::tell(to_child_, c); }
    /// The child's wait status, once it has ended.
    int status() {
        if (status_ < 0) waitpid(pid_, &status_, 0);
        return status_;
    }

private:
    pid_t pid_ = -1;
    int from_child_ = -1;
    int to_child_ = -1;
    int status_ = -1;
};

bool exited_with(int status, int code) { return WIFEXITED(status) && WEXITSTATUS(status) == code; }

TEST(SignalShutdown, SigtermRunsTheCallbackAndExits30) {
    Child child([](int to_parent, int) {
        SignalShutdown shutdown([to_parent](int signo) {
            tell(to_parent, static_cast<char>(signo));
            _exit(30);
        });
        tell(to_parent, 'r');
        for (;;) pause();
    });
    ASSERT_GT(child.pid(), 0);
    ASSERT_EQ(child.hear(), 'r');
    kill(child.pid(), SIGTERM);
    EXPECT_EQ(child.hear(), SIGTERM);  // the callback's argument
    const int status = child.status();
    EXPECT_TRUE(exited_with(status, 30)) << "wait status " << status;
}

TEST(SignalShutdown, SignalWaitsForTheCommitInProgress) {
    // The signal is sent while the child holds the commit lock, before it
    // starts a slow write; the file must still be whole when it exits 30.
    constexpr int kChunks = 256, kChunkBytes = 4096;
    const std::string path =
        ::testing::TempDir() + "lls_test_shutdown_" + std::to_string(getpid()) + ".bin";
    Child child([&](int to_parent, int from_parent) {
        SignalShutdown shutdown([](int) { _exit(30); });
        {
            const auto lock = shutdown.commit();
            tell(to_parent, 'c');
            hear(from_parent);  // the signal is out
            const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            const std::string chunk(kChunkBytes, 'x');
            for (int i = 0; i < kChunks; ++i) {
                (void)!write(fd, chunk.data(), chunk.size());
                usleep(200);
            }
            close(fd);
        }
        for (;;) pause();
    });
    ASSERT_GT(child.pid(), 0);
    ASSERT_EQ(child.hear(), 'c');
    kill(child.pid(), SIGTERM);
    child.tell('s');
    const int status = child.status();
    EXPECT_TRUE(exited_with(status, 30)) << "wait status " << status;
    struct stat st {};
    ASSERT_EQ(stat(path.c_str(), &st), 0);
    EXPECT_EQ(st.st_size, static_cast<off_t>(kChunks) * kChunkBytes);
    std::remove(path.c_str());
}

TEST(SignalShutdown, DisarmedSignalChangesNothing) {
    Child child([](int to_parent, int from_parent) {
        SignalShutdown shutdown([](int) { _exit(30); });
        shutdown.disarm();
        tell(to_parent, 'd');
        hear(from_parent);  // the signal is out
        // Once the signal thread has taken it, give a callback that should
        // not run the time to show itself.
        sigset_t pending;
        do {
            usleep(1000);
            sigpending(&pending);
        } while (sigismember(&pending, SIGTERM));
        usleep(200000);
        _exit(0);
    });
    ASSERT_GT(child.pid(), 0);
    ASSERT_EQ(child.hear(), 'd');
    kill(child.pid(), SIGTERM);
    child.tell('s');
    const int status = child.status();
    EXPECT_TRUE(exited_with(status, 0)) << "wait status " << status;
}

TEST(SignalShutdown, SecondSignalKillsAfterDisarm) {
    // The first signal is a no-op once disarmed; the second must still end
    // the child, although every thread but the signal thread blocks it.
    Child child([](int to_parent, int from_parent) {
        SignalShutdown shutdown([](int) { _exit(30); });
        shutdown.disarm();
        tell(to_parent, 'd');
        hear(from_parent);  // SIGTERM is out
        sigset_t pending;
        do {
            usleep(1000);
            sigpending(&pending);
        } while (sigismember(&pending, SIGTERM));
        tell(to_parent, 't');  // the signal thread has taken it
        for (;;) pause();
    });
    ASSERT_GT(child.pid(), 0);
    ASSERT_EQ(child.hear(), 'd');
    kill(child.pid(), SIGTERM);
    child.tell('s');
    ASSERT_EQ(child.hear(), 't');
    kill(child.pid(), SIGINT);
    const int status = child.status();
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGINT) << "wait status " << status;
}

TEST(SignalShutdown, SecondSignalKillsWhileTheCallbackRuns) {
    Child child([](int to_parent, int) {
        SignalShutdown shutdown([to_parent](int) {
            tell(to_parent, 'x');
            for (;;) pause();  // an epilogue that never ends
        });
        tell(to_parent, 'r');
        for (;;) pause();
    });
    ASSERT_GT(child.pid(), 0);
    ASSERT_EQ(child.hear(), 'r');
    kill(child.pid(), SIGTERM);
    ASSERT_EQ(child.hear(), 'x');
    kill(child.pid(), SIGINT);
    const int status = child.status();
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGINT) << "wait status " << status;
}

}  // namespace
}  // namespace lls
