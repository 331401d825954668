// Tests for the io_uring reactor backend. This is a dedicated binary
// because the process-wide Reactor reads SIMFS_REACTOR_BACKEND exactly
// once, on first use — the env override below must land before any other
// test touches a transport.
#include "msg/message.hpp"
#include "msg/transport.hpp"
#include "msg/uring.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

namespace simfs::msg {
namespace {

using namespace std::chrono_literals;

/// Installed before main() runs — and therefore before the shared Reactor
/// can possibly have been constructed by any static initializer ordering
/// trick in the tests themselves.
const bool kEnvInstalled = [] {
  ::setenv("SIMFS_REACTOR_BACKEND", "uring", 1);
  // Keep the data plane on the socket: these tests target the reactor
  // backend, and shm would bypass it entirely after the upgrade.
  ::setenv("SIMFS_SHM", "0", 1);
  return true;
}();

class UringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(kEnvInstalled);
    if (!uring::supported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel/container; "
                      "backend fell back to "
                   << reactorBackendName();
    }
    ASSERT_EQ(reactorBackendName(), "uring")
        << "SIMFS_REACTOR_BACKEND=uring did not take effect";
    path_ = "/tmp/simfs_uring_test_" + std::to_string(::getpid()) + ".sock";
  }
  std::string path_;
};

Message request(std::uint64_t id, std::size_t textBytes) {
  Message m;
  m.type = MsgType::kOpenBatchReq;
  m.requestId = id;
  m.context = "cosmo-5min";
  m.text = std::string(textBytes, 'u');
  return m;
}

TEST_F(UringTest, RequestReplyRoundTrip) {
  UnixSocketServer server(path_);
  std::mutex mu;
  std::vector<std::unique_ptr<Transport>> conns;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    auto* raw = conn.get();
                    raw->setHandler([raw](Message&& m) {
                      m.type = MsgType::kOpenBatchAck;
                      (void)raw->send(m);
                    });
                    std::lock_guard lock(mu);
                    conns.push_back(std::move(conn));
                  })
                  .isOk());

  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());
  std::mutex rmu;
  std::condition_variable rcv;
  std::vector<Message> replies;
  (*client)->setHandler([&](Message&& m) {
    std::lock_guard lock(rmu);
    replies.push_back(std::move(m));
    rcv.notify_all();
  });
  ASSERT_TRUE((*client)->send(request(7, 32)).isOk());
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, 5s, [&] { return !replies.empty(); }));
  }
  EXPECT_EQ(replies[0].type, MsgType::kOpenBatchAck);
  EXPECT_EQ(replies[0].requestId, 7u);
  (*client)->close();
  server.stop();
}

TEST_F(UringTest, LargeFramesCrossProvidedBufferBoundaries) {
  // Frames far larger than any provided-buffer slab must reassemble
  // correctly through the multishot recv path.
  UnixSocketServer server(path_);
  std::mutex mu;
  std::vector<std::unique_ptr<Transport>> conns;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    auto* raw = conn.get();
                    raw->setHandler([raw](Message&& m) { (void)raw->send(m); });
                    std::lock_guard lock(mu);
                    conns.push_back(std::move(conn));
                  })
                  .isOk());
  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());
  std::mutex rmu;
  std::condition_variable rcv;
  std::vector<Message> replies;
  (*client)->setHandler([&](Message&& m) {
    std::lock_guard lock(rmu);
    replies.push_back(std::move(m));
    rcv.notify_all();
  });
  for (const std::size_t bytes :
       {std::size_t{1}, std::size_t{64} << 10, std::size_t{5} << 20}) {
    const auto msg = request(bytes, bytes);
    ASSERT_TRUE((*client)->send(msg).isOk());
    {
      std::unique_lock lock(rmu);
      ASSERT_TRUE(rcv.wait_for(lock, 10s, [&] { return !replies.empty(); }));
    }
    EXPECT_EQ(replies[0].text, msg.text);
    replies.clear();
  }
  (*client)->close();
  server.stop();
}

TEST_F(UringTest, ManyMessagesKeepOrderUnderBatchedWrites) {
  UnixSocketServer server(path_);
  std::mutex mu;
  std::vector<std::unique_ptr<Transport>> conns;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    auto* raw = conn.get();
                    raw->setHandler([raw](Message&& m) { (void)raw->send(m); });
                    std::lock_guard lock(mu);
                    conns.push_back(std::move(conn));
                  })
                  .isOk());
  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());
  std::mutex rmu;
  std::condition_variable rcv;
  std::vector<std::uint64_t> ids;
  (*client)->setHandler([&](Message&& m) {
    std::lock_guard lock(rmu);
    ids.push_back(m.requestId);
    rcv.notify_all();
  });
  constexpr int kCount = 2000;
  for (int i = 0; i < kCount; ++i) {
    // Mixed sizes: some inline-sized, some spilling, to batch writev
    // submissions in every shape.
    ASSERT_TRUE((*client)
                    ->send(request(static_cast<std::uint64_t>(i),
                                   static_cast<std::size_t>(i % 7) * 300))
                    .isOk());
  }
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(
        rcv.wait_for(lock, 30s, [&] { return ids.size() == kCount; }));
  }
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(ids[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i));
  }
  (*client)->close();
  server.stop();
}

TEST_F(UringTest, CloseHandlerFiresOnPeerDrop) {
  UnixSocketServer server(path_);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<Transport>> conns;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    std::lock_guard lock(mu);
                    conns.push_back(std::move(conn));
                    cv.notify_all();
                  })
                  .isOk());
  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());
  std::mutex rmu;
  std::condition_variable rcv;
  bool closed = false;
  (*client)->setHandler([](Message&&) {});
  (*client)->setCloseHandler([&] {
    std::lock_guard lock(rmu);
    closed = true;
    rcv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return !conns.empty(); }));
    conns.clear();  // server drops the connection
  }
  {
    std::unique_lock lock(rmu);
    EXPECT_TRUE(rcv.wait_for(lock, 10s, [&] { return closed; }));
  }
  EXPECT_FALSE((*client)->isOpen());
  server.stop();
}

}  // namespace
}  // namespace simfs::msg
