/**
 * @file
 * The loopback Listener under vnoised, the HTTP gateway, the faultnet
 * proxy and vnoise_router, tested alone (no kit, no protocol): port 0
 * binds an ephemeral port, finished connections are reaped while the
 * listener runs, and stop() joins every handler — idle, blocked
 * mid-read, or allowed to finish writing after a read-side-only
 * shutdown — and is idempotent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/listener.hh"
#include "service/protocol.hh"

namespace
{

using namespace vn::service;

/** Poll `done` every 10 ms for up to 3 s; true once it holds. */
template <typename Predicate>
bool
eventually(Predicate done)
{
    for (int i = 0; i < 300; ++i) {
        if (done())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return done();
}

/** A handler that reads until EOF, counting entries and exits. */
struct ReadUntilEof
{
    std::atomic<int> entered{0};
    std::atomic<int> exited{0};

    Listener::Handler
    handler()
    {
        return [this](int fd, uint64_t) {
            entered.fetch_add(1);
            char buf[64];
            while (::read(fd, buf, sizeof(buf)) > 0) {
            }
            exited.fetch_add(1);
        };
    }
};

TEST(Listener, PortZeroBindsAnEphemeralPort)
{
    ReadUntilEof probe;
    Listener listener("test", probe.handler());
    listener.start(0);
    EXPECT_GT(listener.port(), 0);

    int fd = dialLoopback(listener.port());
    ASSERT_GE(fd, 0) << "the bound port accepts connections";
    EXPECT_TRUE(eventually([&] { return probe.entered.load() == 1; }));
    ::close(fd);
    listener.stop();
}

TEST(Listener, FinishedConnectionsAreReapedWithoutStop)
{
    constexpr int kCycles = 16;
    std::mutex indices_mutex;
    std::vector<uint64_t> indices;
    Listener listener("test", [&](int fd, uint64_t index) {
        {
            std::lock_guard<std::mutex> lock(indices_mutex);
            indices.push_back(index);
        }
        std::string payload;
        while (readFrame(fd, payload, 1024) == FrameStatus::Ok)
            writeFrame(fd, payload);
    });
    listener.start(0);

    for (int i = 0; i < kCycles; ++i) {
        int fd = dialLoopback(listener.port());
        ASSERT_GE(fd, 0);
        std::string echo;
        ASSERT_TRUE(writeFrame(fd, "hello"));
        ASSERT_EQ(readFrame(fd, echo, 1024), FrameStatus::Ok);
        EXPECT_EQ(echo, "hello");
        ::close(fd);
    }
    EXPECT_EQ(listener.accepted(), static_cast<uint64_t>(kCycles));
    // Reaping is asynchronous: the accept thread joins each finished
    // handler when its wake byte arrives.
    EXPECT_TRUE(eventually([&] { return listener.liveConnections() == 0; }))
        << listener.liveConnections() << " connection(s) never reaped";

    std::lock_guard<std::mutex> lock(indices_mutex);
    std::sort(indices.begin(), indices.end());
    for (int i = 0; i < kCycles; ++i)
        EXPECT_EQ(indices[static_cast<size_t>(i)],
                  static_cast<uint64_t>(i))
            << "accept ordinals are 0-based and never reused";
    listener.stop();
}

TEST(Listener, StopJoinsIdleAndBlockedHandlersAndIsIdempotent)
{
    ReadUntilEof probe;
    std::atomic<int> truncated{0};
    Listener listener("test", [&](int fd, uint64_t index) {
        if (index < 2) {
            probe.handler()(fd, index); // idle: no byte ever arrives
            return;
        }
        // Blocked mid-frame: the header promised bytes that never come.
        std::string payload;
        if (readFrame(fd, payload, 1024) == FrameStatus::Truncated)
            truncated.fetch_add(1);
    });
    listener.start(0);

    std::vector<int> clients;
    for (int i = 0; i < 3; ++i) {
        int fd = dialLoopback(listener.port());
        ASSERT_GE(fd, 0);
        clients.push_back(fd);
    }
    const char partial[] = {0, 0, 0, 9, 'x'};
    ASSERT_TRUE(sendAll(clients[2], partial, sizeof(partial)));
    ASSERT_TRUE(eventually([&] {
        return probe.entered.load() == 2 && listener.accepted() == 3;
    }));
    EXPECT_EQ(listener.liveConnections(), 3u);

    listener.stop();
    EXPECT_EQ(probe.exited.load(), 2) << "idle handlers were joined";
    EXPECT_EQ(truncated.load(), 1) << "the blocked read was woken";
    EXPECT_EQ(listener.liveConnections(), 0u);

    listener.stop(); // a second stop() does nothing
    EXPECT_EQ(listener.liveConnections(), 0u);
    for (int fd : clients)
        ::close(fd);
}

TEST(Listener, ReadSideStopLetsAHandlerFinishWriting)
{
    // The router's drain: shutting only the read side wakes a reader
    // without taking away the socket its in-flight reply goes out on.
    Listener listener("test", [](int fd, uint64_t) {
        char buf[64];
        while (::read(fd, buf, sizeof(buf)) > 0) {
        }
        writeFrame(fd, "goodbye");
    });
    listener.start(0);
    int fd = dialLoopback(listener.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(eventually([&] { return listener.accepted() == 1; }));

    listener.stop(SHUT_RD);
    std::string last;
    EXPECT_EQ(readFrame(fd, last, 1024), FrameStatus::Ok);
    EXPECT_EQ(last, "goodbye");
    EXPECT_EQ(readFrame(fd, last, 1024), FrameStatus::Eof);
    ::close(fd);
}

TEST(Listener, DialToAClosedPortFailsWithErrno)
{
    Listener listener("test", [](int, uint64_t) {});
    listener.start(0);
    int port = listener.port();
    listener.stop();

    errno = 0;
    EXPECT_EQ(dialLoopback(port), -1);
    EXPECT_EQ(errno, ECONNREFUSED);
}

} // namespace
