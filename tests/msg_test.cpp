// Unit tests for the DV<->DVLib protocol: message codec and transports.
#include "common/rng.hpp"
#include "msg/message.hpp"
#include "msg/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace simfs::msg {
namespace {

Message sampleMessage() {
  Message m;
  m.type = MsgType::kOpenBatchReq;
  m.requestId = 77;
  m.context = "cosmo-5min";
  m.files = {"out_0000000001.snc", "out_0000000002.snc"};
  m.code = static_cast<std::int32_t>(StatusCode::kOk);
  m.intArg = 123456789;
  m.text = "hello";
  return m;
}

TEST(MessageCodecTest, RoundTrip) {
  const auto m = sampleMessage();
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
}

TEST(MessageCodecTest, EmptyFieldsRoundTrip) {
  Message m;
  m.type = MsgType::kError;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
}

TEST(MessageCodecTest, NegativeIntArgSurvives) {
  Message m;
  m.type = MsgType::kOpenBatchAck;
  m.intArg = -42;
  m.code = -7;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(decoded->intArg, -42);
  EXPECT_EQ(decoded->code, -7);
}

TEST(MessageCodecTest, RejectsTruncatedBuffers) {
  const auto full = encode(sampleMessage());
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, full.size() / 2,
                          full.size() - 1}) {
    EXPECT_FALSE(decode(std::string_view(full).substr(0, len)).isOk())
        << "len=" << len;
  }
}

TEST(MessageCodecTest, RejectsTrailingGarbage) {
  auto buf = encode(sampleMessage());
  buf.push_back('x');
  EXPECT_FALSE(decode(buf).isOk());
}

TEST(MessageCodecTest, FramePrefixesLength) {
  const auto framed = frame("abcd");
  ASSERT_EQ(framed.size(), 8u);
  EXPECT_EQ(static_cast<unsigned char>(framed[0]), 4);
  EXPECT_EQ(framed.substr(4), "abcd");
}

// Fuzz-style robustness: arbitrary buffers must decode cleanly or fail
// cleanly — a hostile/corrupted peer cannot crash the daemon.
TEST(MessageCodecTest, FuzzedBuffersFailCleanly) {
  simfs::Rng rng(0xF022);
  for (int i = 0; i < 2000; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniformInt(0, 256));
    std::string buf(len, '\0');
    for (auto& c : buf) c = static_cast<char>(rng.uniformInt(0, 255));
    const auto m = decode(buf);  // must not crash or overread
    if (m.isOk()) {
      // If it decoded, re-encoding must reproduce the buffer exactly.
      EXPECT_EQ(encode(*m), buf);
    }
  }
}

TEST(MessageCodecTest, MutatedValidBuffersFailOrRoundTrip) {
  simfs::Rng rng(0xF023);
  const auto base = encode(sampleMessage());
  for (int i = 0; i < 2000; ++i) {
    std::string buf = base;
    const auto pos = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(buf.size()) - 1));
    buf[pos] = static_cast<char>(rng.uniformInt(0, 255));
    const auto m = decode(buf);
    if (m.isOk()) {
      EXPECT_EQ(encode(*m), buf);
    }
  }
}

// --- federation wire surface (kRedirect / kRingUpdate) ----------------------

Message sampleRedirect() {
  Message m;
  m.type = MsgType::kRedirect;
  m.requestId = 41;
  m.context = "cosmo-5min";
  m.text = "dv2";  // owner node id
  m.files = {"dv0=/tmp/dv0.sock", "dv1=/tmp/dv1.sock", "dv2=/tmp/dv2.sock"};
  m.intArg = 9;  // ring version
  return m;
}

TEST(MessageCodecTest, ForwardHopCountSurvives) {
  Message m;
  m.type = MsgType::kSimFileClosed;
  m.context = "cosmo-5min";
  m.files = {"out_0000000001.snc"};
  m.hops = 1;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  EXPECT_EQ(decoded->hops, 1u);
}

TEST(MessageCodecTest, RedirectRoundTrip) {
  const auto m = sampleRedirect();
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  EXPECT_EQ(decoded->text, "dv2");
  EXPECT_EQ(decoded->files.size(), 3u);
  EXPECT_EQ(decoded->intArg, 9);
}

TEST(MessageCodecTest, RingUpdateRoundTrip) {
  Message m;
  m.type = MsgType::kRingUpdate;
  m.requestId = 0;  // push (no matching request)
  m.text = "dv0";
  m.files = {"dv0=/tmp/dv0.sock", "dv1=/tmp/dv1.sock"};
  m.intArg = 3;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
}

TEST(MessageCodecTest, RingReqRoundTrip) {
  Message m;
  m.type = MsgType::kRingReq;
  m.requestId = 12;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
}

// Hostile-length hardening on the new messages, mirroring the PR 2 decode
// bounds: a forged ring-entry count must fail cleanly, not drive a huge
// reserve() or an overread.
TEST(MessageCodecTest, RedirectWithForgedEntryCountFailsCleanly) {
  auto buf = encode(sampleRedirect());
  // The file-count u32 sits right after the two length-prefixed strings
  // (context, text) and the fixed header (type, requestId, code, intArg,
  // intArg2, hops). Recompute its offset and forge the count sky-high
  // while keeping the buffer length unchanged.
  const std::size_t header = 2 + 8 + 4 + 8 + 8 + 2;
  const std::size_t ctxField = 4 + sampleRedirect().context.size();
  const std::size_t textField = 4 + sampleRedirect().text.size();
  const std::size_t countAt = header + ctxField + textField;
  ASSERT_LT(countAt + 4, buf.size());
  for (int i = 0; i < 4; ++i) buf[countAt + i] = static_cast<char>(0xFF);
  EXPECT_FALSE(decode(buf).isOk());
}

TEST(MessageCodecTest, RedirectTruncatedEntriesFailCleanly) {
  const auto full = encode(sampleRedirect());
  for (std::size_t cut = 1; cut < 24; ++cut) {
    EXPECT_FALSE(
        decode(std::string_view(full).substr(0, full.size() - cut)).isOk())
        << "cut=" << cut;
  }
}

// --- replica lease plane (kLeaseGrant / kLeaseRevoke / kLeaseAck) -----------

Message sampleLeaseGrant() {
  Message m;
  m.type = MsgType::kLeaseGrant;
  m.requestId = 81;
  m.context = "cosmo-5min";
  m.intArg = 7;        // lease generation
  m.text = "dv0";      // granting node's id
  m.ints = {0, 1, 2, 5, 13};  // resident StepIndex values now covered
  m.hops = 1;
  return m;
}

TEST(MessageCodecTest, LeaseGrantRoundTrip) {
  const auto m = sampleLeaseGrant();
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  // The zero-copy receive path (what the replica's dispatch actually
  // reads) sees the same generation, node id and step list.
  const auto wire = encode(m);
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.isOk());
  EXPECT_EQ(view->type(), MsgType::kLeaseGrant);
  EXPECT_EQ(view->intArg(), 7);
  EXPECT_EQ(view->text(), "dv0");
  EXPECT_EQ(view->intCount(), 5u);
  EXPECT_EQ(*view->intsBegin(), 0);
}

TEST(MessageCodecTest, LeaseRevokeRoundTrip) {
  Message m;
  m.type = MsgType::kLeaseRevoke;
  m.requestId = 82;
  m.context = "cosmo-5min";
  m.intArg = 8;  // generation, already bumped past outstanding grants
  m.text = "dv0";
  m.ints = {5};  // the step about to be evicted
  m.hops = 1;
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);

  // An EMPTY step list is the whole-context wipe used for resync after a
  // peer link re-establishes — it must survive the wire distinctly from
  // "no ints field at all" ever meaning something else.
  m.ints.clear();
  decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  EXPECT_TRUE(decoded->ints.empty());
}

TEST(MessageCodecTest, LeaseAckRoundTrip) {
  Message m;
  m.type = MsgType::kLeaseAck;
  m.requestId = 82;
  m.context = "cosmo-5min";
  m.code = static_cast<std::int32_t>(StatusCode::kOk);
  m.intArg = 8;   // echoed generation
  m.intArg2 = 1;  // acking a revoke
  m.text = "dv1";
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  const auto wire = encode(m);
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.isOk());
  EXPECT_EQ(view->intArg(), 8);
  EXPECT_EQ(view->intArg2(), 1);
}

// Hostile-length hardening: the step list rides the ints field, so a
// forged count from a compromised peer must fail cleanly before any
// reserve() or overread — the lease plane is daemon-to-daemon, but a
// daemon must survive a hostile peer exactly like a hostile client.
TEST(MessageCodecTest, LeaseGrantWithForgedStepCountFailsCleanly) {
  const auto m = sampleLeaseGrant();
  auto buf = encode(m);
  const std::size_t countAt = buf.size() - (4 + 8 * m.ints.size());
  for (int i = 0; i < 4; ++i) buf[countAt + i] = static_cast<char>(0xFF);
  EXPECT_FALSE(decode(buf).isOk());
}

TEST(MessageCodecTest, LeaseGrantTruncatedStepsFailCleanly) {
  const auto full = encode(sampleLeaseGrant());
  for (std::size_t cut = 1; cut <= 4 + 8 * 5; ++cut) {
    EXPECT_FALSE(
        decode(std::string_view(full).substr(0, full.size() - cut)).isOk())
        << "cut=" << cut;
  }
}

TEST(MessageCodecTest, MutatedLeaseGrantFailsOrRoundTrips) {
  const auto base = encode(sampleLeaseGrant());
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (const unsigned char v : {0x00, 0x01, 0x7F, 0xFF}) {
      std::string buf = base;
      buf[pos] = static_cast<char>(v);
      const auto m = decode(buf);
      if (m.isOk()) EXPECT_EQ(encode(*m), buf);
    }
  }
}

// --- replica-extended redirect (intArg2 = R) --------------------------------

TEST(MessageCodecTest, RedirectCarriesReplicaCount) {
  auto m = sampleRedirect();
  m.intArg2 = 2;  // federation's read-replica count R
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  const auto wire = encode(m);
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.isOk());
  EXPECT_EQ(view->intArg2(), 2);
}

TEST(MessageCodecTest, LegacyRedirectIsBytePinned) {
  // R rides the previously-unused intArg2, so a replica-aware daemon
  // with replicas disabled (R = 0) must emit redirects byte-identical
  // to a pre-replica daemon's — old clients see nothing new, and new
  // clients decode R = 0 from old daemons.
  auto withReplicasOff = sampleRedirect();
  withReplicasOff.intArg2 = 0;  // what buildRedirect sets when R == 0
  EXPECT_EQ(encode(withReplicasOff), encode(sampleRedirect()));
  const auto decoded = decode(encode(sampleRedirect()));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(decoded->intArg2, 0);
}

// --- the interest and release ops (kOpenBatchReq/Ack, kReleaseReq/Ack) -------

Message sampleOpenBatchAck() {
  Message m;
  m.type = MsgType::kOpenBatchAck;
  m.requestId = 55;
  m.files = {"out_0000000001.snc", "out_0000000002.snc",
             "out_0000000003.snc"};
  // Per-file outcome pairs: [code*2 + available, estimated wait].
  m.ints = {1, 0, 0, 1500, static_cast<std::int64_t>(StatusCode::kOutOfRange) * 2, 0};
  m.code = static_cast<std::int32_t>(StatusCode::kOutOfRange);
  m.text = "step outside timeline";
  m.intArg = 1;     // immediately available
  m.intArg2 = 1500; // max estimated wait
  return m;
}

TEST(MessageCodecTest, OpenBatchRoundTrip) {
  Message req;
  req.type = MsgType::kOpenBatchReq;
  req.requestId = 54;
  req.files = {"out_0000000001.snc", "out_0000000002.snc"};
  const auto decodedReq = decode(encode(req));
  ASSERT_TRUE(decodedReq.isOk());
  EXPECT_EQ(*decodedReq, req);

  const auto ack = sampleOpenBatchAck();
  const auto decodedAck = decode(encode(ack));
  ASSERT_TRUE(decodedAck.isOk());
  EXPECT_EQ(*decodedAck, ack);
  EXPECT_EQ(decodedAck->ints.size(), 6u);
  EXPECT_EQ(decodedAck->ints[3], 1500);
}

TEST(MessageCodecTest, ReleaseRoundTrip) {
  Message req;
  req.type = MsgType::kReleaseReq;
  req.requestId = 60;
  req.files = {"out_0000000009.snc", "out_0000000010.snc"};
  const auto decoded = decode(encode(req));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, req);

  Message ack;
  ack.type = MsgType::kReleaseAck;
  ack.requestId = 60;
  ack.intArg = 2;  // registrations freed
  const auto decodedAck = decode(encode(ack));
  ASSERT_TRUE(decodedAck.isOk());
  EXPECT_EQ(*decodedAck, ack);
}

TEST(MessageCodecTest, NegativeIntsSurvive) {
  Message m;
  m.type = MsgType::kOpenBatchAck;
  m.ints = {-1, std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max()};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
}

// Hostile-length hardening on the new ints field, mirroring the file-list
// bounds: a forged count must fail cleanly, not drive a huge reserve() or
// an overread.
TEST(MessageCodecTest, OpenBatchAckWithForgedIntCountFailsCleanly) {
  const auto m = sampleOpenBatchAck();
  auto buf = encode(m);
  // The int-count u32 sits 4 + 8 * n bytes from the end of the buffer.
  const std::size_t countAt = buf.size() - (4 + 8 * m.ints.size());
  for (int i = 0; i < 4; ++i) buf[countAt + i] = static_cast<char>(0xFF);
  EXPECT_FALSE(decode(buf).isOk());
}

TEST(MessageCodecTest, OpenBatchAckTruncatedIntsFailCleanly) {
  const auto full = encode(sampleOpenBatchAck());
  // Cut anywhere inside the ints region (and its count prefix).
  for (std::size_t cut = 1; cut <= 4 + 8 * 6; ++cut) {
    EXPECT_FALSE(
        decode(std::string_view(full).substr(0, full.size() - cut)).isOk())
        << "cut=" << cut;
  }
}

TEST(MessageCodecTest, PingPongRoundTrip) {
  Message ping;
  ping.type = MsgType::kPing;
  ping.requestId = 9;
  ping.intArg = 41;   // heartbeat sequence
  ping.text = "dv0";  // sender's node id
  auto decoded = decode(encode(ping));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, ping);

  Message pong;
  pong.type = MsgType::kPong;
  pong.requestId = 9;
  pong.code = static_cast<std::int32_t>(StatusCode::kOk);
  pong.intArg = 41;  // echoed sequence
  pong.text = "dv1";
  decoded = decode(encode(pong));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, pong);
  // The zero-copy receive path sees the same scalars.
  const auto wire = encode(pong);
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.isOk());
  EXPECT_EQ(view->type(), MsgType::kPong);
  EXPECT_EQ(view->intArg(), 41);
  EXPECT_EQ(view->text(), "dv1");
}

TEST(MessageCodecTest, OpenBatchDeadlineRoundTrip) {
  Message m;
  m.type = MsgType::kOpenBatchReq;
  m.requestId = 1234;
  m.files = {"out_0000000001.snc", "out_0000000002.snc"};
  m.intArg2 = 2'500'000'000;  // relative deadline budget (ns)
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  const auto wire = encode(m);
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.isOk());
  EXPECT_EQ(view->intArg2(), 2'500'000'000);
}

// A heartbeat from a hostile/corrupted peer must fail cleanly: mutate
// every byte of a valid ping and require decode to reject or round-trip,
// never crash or overread (same contract the fuzz test pins for data
// messages).
TEST(MessageCodecTest, MutatedPingFailsOrRoundTrips) {
  Message ping;
  ping.type = MsgType::kPing;
  ping.requestId = 7;
  ping.intArg = 3;
  ping.text = "dv2";
  const auto base = encode(ping);
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (const unsigned char v : {0x00, 0x01, 0x7F, 0xFF}) {
      std::string buf = base;
      buf[pos] = static_cast<char>(v);
      const auto m = decode(buf);
      if (m.isOk()) EXPECT_EQ(encode(*m), buf);
    }
  }
}

TEST(InProcTransportTest, DeliversBothDirections) {
  auto [a, b] = makeInProcPair();
  std::vector<Message> atB;
  std::vector<Message> atA;
  b->setHandler([&](Message&& m) { atB.push_back(std::move(m)); });
  a->setHandler([&](Message&& m) { atA.push_back(std::move(m)); });
  ASSERT_TRUE(a->send(sampleMessage()).isOk());
  Message reply;
  reply.type = MsgType::kOpenBatchAck;
  ASSERT_TRUE(b->send(reply).isOk());
  ASSERT_EQ(atB.size(), 1u);
  EXPECT_EQ(atB[0].type, MsgType::kOpenBatchReq);
  ASSERT_EQ(atA.size(), 1u);
  EXPECT_EQ(atA[0].type, MsgType::kOpenBatchAck);
}

TEST(InProcTransportTest, BuffersMessagesSentBeforeHandler) {
  // The old contract dropped (failed) pre-handler sends, which raced
  // connection setup; they are now buffered and replayed by setHandler.
  auto [a, b] = makeInProcPair();
  ASSERT_TRUE(a->send(sampleMessage()).isOk());
  Message second;
  second.type = MsgType::kOpenBatchReq;
  second.requestId = 99;
  ASSERT_TRUE(a->send(second).isOk());
  std::vector<Message> atB;
  b->setHandler([&](Message&& m) { atB.push_back(std::move(m)); });
  // Replay happens before setHandler returns, in send order.
  ASSERT_EQ(atB.size(), 2u);
  EXPECT_EQ(atB[0].type, MsgType::kOpenBatchReq);
  EXPECT_EQ(atB[1].requestId, 99u);
  // Later sends are delivered directly.
  ASSERT_TRUE(a->send(sampleMessage()).isOk());
  EXPECT_EQ(atB.size(), 3u);
}

TEST(InProcTransportTest, CloseStopsDelivery) {
  auto [a, b] = makeInProcPair();
  b->setHandler([](Message&&) {});
  a->close();
  EXPECT_FALSE(a->isOpen());
  EXPECT_EQ(a->send(sampleMessage()).code(), StatusCode::kUnavailable);
}

class UnixSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/simfs_test_" + std::to_string(::getpid()) + ".sock";
  }
  std::string path_;
};

TEST_F(UnixSocketTest, RequestReplyOverSocket) {
  UnixSocketServer server(path_);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<Transport>> serverConns;

  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    // Echo server: bounce every message back.
                    auto* raw = conn.get();
                    raw->setHandler([raw](Message&& m) {
                      m.type = MsgType::kOpenBatchAck;
                      (void)raw->send(m);
                    });
                    std::lock_guard lock(mu);
                    serverConns.push_back(std::move(conn));
                    cv.notify_all();
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

  ASSERT_TRUE((*client)->send(sampleMessage()).isOk());
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, std::chrono::seconds(5),
                             [&] { return !replies.empty(); }));
  }
  EXPECT_EQ(replies[0].type, MsgType::kOpenBatchAck);
  EXPECT_EQ(replies[0].requestId, 77u);
  EXPECT_EQ(replies[0].files.size(), 2u);

  (*client)->close();
  server.stop();
}

TEST_F(UnixSocketTest, BuffersFramesUntilServerInstallsHandler) {
  // Regression test for the documented transport race: frames that arrive
  // before the receive handler is installed must be buffered and replayed,
  // not dropped. The server deliberately delays setHandler until the
  // client's messages are already on the wire.
  UnixSocketServer server(path_);
  std::mutex mu;
  std::condition_variable cv;
  std::unique_ptr<Transport> serverConn;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    std::lock_guard lock(mu);
                    serverConn = std::move(conn);
                    cv.notify_all();
                  })
                  .isOk());
  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.type = MsgType::kOpenBatchReq;
    m.requestId = static_cast<std::uint64_t>(i);
    ASSERT_TRUE((*client)->send(m).isOk());
  }
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return serverConn != nullptr; }));
  }
  // Let the frames reach the reactor before any handler exists.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<std::uint64_t> seen;
  std::mutex smu;
  std::condition_variable scv;
  serverConn->setHandler([&](Message&& m) {
    std::lock_guard lock(smu);
    seen.push_back(m.requestId);
    scv.notify_all();
  });
  {
    std::unique_lock lock(smu);
    ASSERT_TRUE(scv.wait_for(lock, std::chrono::seconds(5),
                             [&] { return seen.size() == 3u; }));
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(seen[i], static_cast<std::uint64_t>(i));
  (*client)->close();
  server.stop();
}

TEST_F(UnixSocketTest, LargeFramesSurviveWritevBatching) {
  // Multi-megabyte frames force partial writev()s and EPOLLOUT re-arming
  // in the reactor; they must arrive intact and in order.
  UnixSocketServer server(path_);
  std::vector<std::unique_ptr<Transport>> serverConns;
  std::mutex mu;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    auto* raw = conn.get();
                    raw->setHandler([raw](Message&& m) { (void)raw->send(m); });
                    std::lock_guard lock(mu);
                    serverConns.push_back(std::move(conn));
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

  simfs::Rng rng(0xBEEF);
  std::vector<Message> sent;
  for (int i = 0; i < 4; ++i) {
    Message m;
    m.type = MsgType::kSimFileClosed;
    m.requestId = static_cast<std::uint64_t>(i);
    std::string payload(1u << 21, '\0');  // 2 MiB
    for (auto& c : payload) c = static_cast<char>(rng.uniformInt(0, 255));
    m.files = {payload};
    ASSERT_TRUE((*client)->send(m).isOk());
    sent.push_back(std::move(m));
  }
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, std::chrono::seconds(20),
                             [&] { return replies.size() == sent.size(); }));
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(replies[i], sent[i]) << "frame " << i;
  }
  (*client)->close();
  server.stop();
}

TEST_F(UnixSocketTest, ConnectToMissingSocketFails) {
  const auto client = unixSocketConnect("/tmp/simfs_no_such.sock");
  EXPECT_FALSE(client.isOk());
}

TEST_F(UnixSocketTest, ManyMessagesInOrder) {
  UnixSocketServer server(path_);
  std::vector<std::unique_ptr<Transport>> serverConns;
  std::mutex mu;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    auto* raw = conn.get();
                    raw->setHandler([raw](Message&& m) { (void)raw->send(m); });
                    std::lock_guard lock(mu);
                    serverConns.push_back(std::move(conn));
                  })
                  .isOk());
  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());

  std::mutex rmu;
  std::condition_variable rcv;
  std::vector<std::uint64_t> seen;
  (*client)->setHandler([&](Message&& m) {
    std::lock_guard lock(rmu);
    seen.push_back(m.requestId);
    rcv.notify_all();
  });

  const int n = 200;
  for (int i = 0; i < n; ++i) {
    Message m;
    m.type = MsgType::kOpenBatchReq;
    m.requestId = static_cast<std::uint64_t>(i);
    ASSERT_TRUE((*client)->send(m).isOk());
  }
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, std::chrono::seconds(10),
                             [&] { return seen.size() == n; }));
  }
  for (int i = 0; i < n; ++i) EXPECT_EQ(seen[i], static_cast<std::uint64_t>(i));
  (*client)->close();
  server.stop();
}

TEST_F(UnixSocketTest, LegacyHelloDowngradeIsBytePinned) {
  // Negotiation must be invisible to peers that predate it. With the shm
  // offer suppressed, a client hello crosses the wire byte-identical to
  // the pre-negotiation protocol, and the ack a daemon sends back to a
  // hello that advertised nothing is byte-identical to the ack a
  // pre-negotiation daemon would have built — intArg2 stays untouched, so
  // old clients (which never read it) and new clients (which read
  // kLegacy) both settle on the socket path.
  ::setenv("SIMFS_SHM", "0", 1);
  UnixSocketServer server(path_);
  std::mutex mu;
  std::vector<std::unique_ptr<Transport>> serverConns;
  std::vector<Message> heard;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    auto* raw = conn.get();
                    raw->setHandler([&, raw](Message&& m) {
                      {
                        std::lock_guard lock(mu);
                        heard.push_back(m);
                      }
                      // The daemon's negotiation branch: answer in
                      // intArg2 only when the hello advertised caps.
                      Message ack;
                      ack.type = MsgType::kHelloAck;
                      ack.requestId = m.requestId;
                      if ((m.intArg2 & kHelloCapShm) != 0) {
                        ack.intArg2 =
                            static_cast<std::int64_t>(TransportChoice::kShm);
                      }
                      (void)raw->send(ack);
                    });
                    std::lock_guard lock(mu);
                    serverConns.push_back(std::move(conn));
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

  Message hello;
  hello.type = MsgType::kHello;
  hello.requestId = 9;
  hello.context = "cosmo-5min";
  hello.intArg = static_cast<std::int64_t>(ClientRole::kAnalysis);
  ASSERT_TRUE((*client)->send(hello).isOk());
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, std::chrono::seconds(5),
                             [&] { return !replies.empty(); }));
  }
  {
    std::lock_guard lock(mu);
    ASSERT_EQ(heard.size(), 1u);
    // Client side of the pin: the hello the daemon heard encodes exactly
    // as the one the caller handed to send() — no capability bit, no shm
    // key smuggled in by the transport wrapper.
    EXPECT_EQ(encode(heard[0]), encode(hello));
    EXPECT_EQ(heard[0].intArg2 & kHelloCapShm, 0);
  }
  // Daemon side of the pin: the ack matches a hand-built pre-negotiation
  // ack byte for byte, and decodes to the kLegacy choice.
  Message oldAck;
  oldAck.type = MsgType::kHelloAck;
  oldAck.requestId = 9;
  EXPECT_EQ(encode(replies[0]), encode(oldAck));
  EXPECT_EQ(replies[0].intArg2,
            static_cast<std::int64_t>(TransportChoice::kLegacy));
  EXPECT_EQ((*client)->kindName(), "socket");
  (*client)->close();
  server.stop();
  ::unsetenv("SIMFS_SHM");
}

// --- context geometry (kGeometryReq / kGeometryAck) -------------------------

Message sampleGeometryAck() {
  Message m;
  m.type = MsgType::kGeometryAck;
  m.requestId = 91;
  m.context = "cosmo-5min";
  m.ints = {1, 4, 128, 64, 10};  // deltaD, deltaR, numTimesteps, bytes, pad
  m.files = {"out_", ".snc"};
  m.intArg = 128;  // numOutputSteps
  m.code = static_cast<std::int32_t>(StatusCode::kOk);
  m.text = "dv0";
  return m;
}

TEST(MessageCodecTest, GeometryRoundTrip) {
  Message req;
  req.type = MsgType::kGeometryReq;
  req.requestId = 90;
  req.context = "cosmo-5min";
  const auto decodedReq = decode(encode(req));
  ASSERT_TRUE(decodedReq.isOk());
  EXPECT_EQ(*decodedReq, req);

  const auto ack = sampleGeometryAck();
  const auto decodedAck = decode(encode(ack));
  ASSERT_TRUE(decodedAck.isOk());
  EXPECT_EQ(*decodedAck, ack);
  ASSERT_EQ(decodedAck->ints.size(), 5u);
  EXPECT_EQ(decodedAck->ints[3], 64);
  EXPECT_EQ(decodedAck->files[0], "out_");
}

TEST(MessageCodecTest, GeometryEnumerationRoundTrip) {
  Message m;
  m.type = MsgType::kGeometryAck;
  m.requestId = 92;
  m.files = {"ctx0", "ctx1", "ctx2"};
  m.intArg = 3;
  m.code = static_cast<std::int32_t>(StatusCode::kOk);
  m.text = "dv0";
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
}

TEST(MessageCodecTest, GeometryAckWithForgedIntCountFailsCleanly) {
  const auto m = sampleGeometryAck();
  auto buf = encode(m);
  const std::size_t countAt = buf.size() - (4 + 8 * m.ints.size());
  for (int i = 0; i < 4; ++i) buf[countAt + i] = static_cast<char>(0xFF);
  EXPECT_FALSE(decode(buf).isOk());
}

TEST(MessageCodecTest, GeometryAckTruncatedFailsCleanly) {
  const auto full = encode(sampleGeometryAck());
  for (std::size_t cut = 1; cut <= 4 + 8 * 5; ++cut) {
    EXPECT_FALSE(
        decode(std::string_view(full).substr(0, full.size() - cut)).isOk())
        << "cut=" << cut;
  }
}

TEST(MessageCodecTest, MutatedGeometryAckFailsOrRoundTrips) {
  const auto base = encode(sampleGeometryAck());
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (const unsigned char v : {0x00, 0x01, 0x7F, 0xFF}) {
      std::string buf = base;
      buf[pos] = static_cast<char>(v);
      const auto m = decode(buf);
      if (m.isOk()) EXPECT_EQ(encode(*m), buf);
    }
  }
}

TEST(MessageCodecTest, GeometryTypesAppendAfterLegacyOps) {
  // The geometry ops were APPENDED to MsgType, so every pre-existing
  // op keeps its wire value and old-peer encodings stay byte-identical.
  // These pins fail loudly if someone reorders the enum.
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kHello), 1);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kOpenBatchReq), 25);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kPing), 29);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kLeaseAck), 33);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kGeometryReq), 34);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kGeometryAck), 35);
}

TEST(MessageCodecTest, EverySurvivingTypeKeepsItsWireValue) {
  // Retiring the redundant open/acquire/close/cancel ops left gaps
  // (3-7, 13-14, 27-28) that must stay unassigned; every surviving type
  // keeps the number old peers already speak.
  const std::pair<MsgType, std::uint16_t> pins[] = {
      {MsgType::kHello, 1},
      {MsgType::kHelloAck, 2},
      {MsgType::kReleaseReq, 8},
      {MsgType::kReleaseAck, 9},
      {MsgType::kBitrepReq, 10},
      {MsgType::kBitrepAck, 11},
      {MsgType::kFileReady, 12},
      {MsgType::kSimFileClosed, 15},
      {MsgType::kSimFinished, 16},
      {MsgType::kStatusReq, 17},
      {MsgType::kStatusAck, 18},
      {MsgType::kError, 19},
      {MsgType::kShardStatsReq, 20},
      {MsgType::kShardStatsAck, 21},
      {MsgType::kRedirect, 22},
      {MsgType::kRingReq, 23},
      {MsgType::kRingUpdate, 24},
      {MsgType::kOpenBatchReq, 25},
      {MsgType::kOpenBatchAck, 26},
      {MsgType::kPing, 29},
      {MsgType::kPong, 30},
      {MsgType::kLeaseGrant, 31},
      {MsgType::kLeaseRevoke, 32},
      {MsgType::kLeaseAck, 33},
      {MsgType::kGeometryReq, 34},
      {MsgType::kGeometryAck, 35},
      {MsgType::kRingPropose, 36},
      {MsgType::kRingProposeAck, 37},
      {MsgType::kRingCommit, 38},
      {MsgType::kRingCommitAck, 39},
      {MsgType::kContextHandoff, 40},
      {MsgType::kContextHandoffAck, 41},
  };
  for (const auto& [type, value] : pins) {
    EXPECT_EQ(static_cast<std::uint16_t>(type), value) << "pin " << value;
  }
}

TEST(MessageCodecTest, ElasticMembershipTypesAppendAfterGeometryOps) {
  // The elastic-membership ops were APPENDED after the geometry ops;
  // these pins fail loudly if someone reorders the enum and silently
  // breaks mixed-version rings.
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kRingPropose), 36);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kRingProposeAck), 37);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kRingCommit), 38);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kRingCommitAck), 39);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kContextHandoff), 40);
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kContextHandoffAck), 41);
  // The capability bit and the advertised version range are wire
  // contract too: a renumbered cap bit would collide with kHelloCapShm /
  // kHelloCapReplica on old daemons.
  EXPECT_EQ(kHelloCapVersion, 4);
  EXPECT_EQ(kProtocolVersionMin, 1);
  EXPECT_EQ(kProtocolVersionMax, 2);
}

// --- elastic membership (kRingPropose .. kContextHandoffAck) ----------------

Message sampleRingPropose() {
  Message m;
  m.type = MsgType::kRingPropose;
  m.requestId = 101;
  m.files = {"dv0=/tmp/dv0.sock", "dv1=/tmp/dv1.sock", "dv3=/tmp/dv3.sock"};
  m.intArg = 5;  // proposed ring version
  return m;
}

Message sampleHandoff() {
  Message m;
  m.type = MsgType::kContextHandoff;
  m.requestId = 103;
  m.context = "cosmo-5min";
  m.intArg = 5;    // epoch (the proposed ring version)
  m.text = "dv0";  // sending (old owner) node id
  m.ints = {0, 1, 2, 17, 42};  // resident steps in this frame
  return m;
}

TEST(MessageCodecTest, RingProposeRoundTrip) {
  const auto m = sampleRingPropose();
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  // The ack: version echo, moved count, and the ctx:old>new work list.
  Message ack;
  ack.type = MsgType::kRingProposeAck;
  ack.requestId = 101;
  ack.intArg = 5;
  ack.intArg2 = 2;
  ack.files = {"cosmo-5min:dv0>dv3", "ocean-1h:dv1>dv3"};
  ack.text = "dv0";
  const auto ackBack = decode(encode(ack));
  ASSERT_TRUE(ackBack.isOk());
  EXPECT_EQ(*ackBack, ack);
}

TEST(MessageCodecTest, RingCommitRoundTrip) {
  // A commit is self-contained (same payload shape as the propose): a
  // node that missed the propose can still apply it.
  auto m = sampleRingPropose();
  m.type = MsgType::kRingCommit;
  m.requestId = 102;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, m);
  Message ack;
  ack.type = MsgType::kRingCommitAck;
  ack.requestId = 102;
  ack.intArg = 5;
  ack.text = "dv1";
  const auto ackBack = decode(encode(ack));
  ASSERT_TRUE(ackBack.isOk());
  EXPECT_EQ(*ackBack, ack);
}

TEST(MessageCodecTest, ContextHandoffFramesRoundTrip) {
  // Data frame: intArg2 bit0 clear, ints = resident steps.
  const auto data = sampleHandoff();
  const auto dataBack = decode(encode(data));
  ASSERT_TRUE(dataBack.isOk());
  EXPECT_EQ(*dataBack, data);
  // Final frame: intArg2 bit0 set, ints = [leaseGen, refs, (step, n)...].
  Message fin = sampleHandoff();
  fin.intArg2 = 1;
  fin.ints = {9, 3, 17, 2, 42, 1};
  const auto finBack = decode(encode(fin));
  ASSERT_TRUE(finBack.isOk());
  EXPECT_EQ(*finBack, fin);
  // The ack, both shapes: per-frame ok and the final (intArg2 = 1)
  // commit-point ack, plus an epoch-fence rejection.
  Message ack;
  ack.type = MsgType::kContextHandoffAck;
  ack.requestId = 103;
  ack.context = "cosmo-5min";
  ack.intArg = 5;
  ack.intArg2 = 1;
  ack.text = "dv3";
  const auto ackBack = decode(encode(ack));
  ASSERT_TRUE(ackBack.isOk());
  EXPECT_EQ(*ackBack, ack);
  ack.code = static_cast<std::int32_t>(StatusCode::kFailedPrecondition);
  ack.text = "dv: stale handoff epoch 4 (committed v5)";
  const auto rejBack = decode(encode(ack));
  ASSERT_TRUE(rejBack.isOk());
  EXPECT_EQ(*rejBack, ack);
}

TEST(MessageCodecTest, RingProposeWithForgedEntryCountFailsCleanly) {
  auto buf = encode(sampleRingPropose());
  // files-count u32 follows the fixed header and the two (empty)
  // length-prefixed strings — same layout walk as the redirect pin.
  const std::size_t header = 2 + 8 + 4 + 8 + 8 + 2;
  const std::size_t countAt = header + 4 + 4;  // empty context + empty text
  ASSERT_LT(countAt + 4, buf.size());
  for (int i = 0; i < 4; ++i) buf[countAt + i] = static_cast<char>(0xFF);
  EXPECT_FALSE(decode(buf).isOk());
}

TEST(MessageCodecTest, ContextHandoffTruncatedFailsCleanly) {
  const auto full = encode(sampleHandoff());
  for (std::size_t cut = 1; cut < 24 && cut < full.size(); ++cut) {
    EXPECT_FALSE(
        decode(std::string_view(full).substr(0, full.size() - cut)).isOk())
        << "cut=" << cut;
  }
}

TEST(MessageCodecTest, MutatedHandoffFailsOrRoundTrips) {
  const auto base = encode(sampleHandoff());
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (const unsigned char v : {0x00, 0x01, 0x7F, 0xFF}) {
      std::string buf = base;
      buf[pos] = static_cast<char>(v);
      const auto m = decode(buf);
      // Rejected cleanly, or accepted AND re-encodes to the same bytes —
      // never a silently-truncated step list mid-handoff.
      if (m.isOk()) EXPECT_EQ(encode(*m), buf);
    }
  }
}

TEST(MessageCodecTest, VersionedHelloIsAdditive) {
  // The version handshake rides existing fields (a cap bit + the ints
  // vector), so a hello WITHOUT it must encode byte-identically to the
  // pre-negotiation hello — pinned here from the encode side; the
  // socket-level downgrade pin covers the daemon's answer.
  Message legacy;
  legacy.type = MsgType::kHello;
  legacy.requestId = 9;
  legacy.context = "cosmo-5min";
  legacy.intArg = static_cast<std::int64_t>(ClientRole::kAnalysis);
  Message versioned = legacy;
  versioned.intArg2 |= kHelloCapVersion;
  versioned.ints = {kProtocolVersionMin, kProtocolVersionMax};
  EXPECT_NE(encode(versioned), encode(legacy));
  versioned.intArg2 &= ~kHelloCapVersion;
  versioned.ints.clear();
  EXPECT_EQ(encode(versioned), encode(legacy));
  // And the versioned form survives the codec.
  Message again = legacy;
  again.intArg2 |= kHelloCapVersion;
  again.ints = {kProtocolVersionMin, kProtocolVersionMax};
  const auto decoded = decode(encode(again));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, again);
}

TEST(MessageCodecTest, LegacyAckBytesUnchangedByGeometryOps) {
  // A lease ack (the last pre-geometry op) built today must encode to
  // the exact bytes a pre-geometry build produced: same type id, same
  // field order, no new fields smuggled into the frame.
  Message m;
  m.type = MsgType::kLeaseAck;
  m.requestId = 82;
  m.context = "cosmo-5min";
  m.code = static_cast<std::int32_t>(StatusCode::kOk);
  m.intArg = 8;
  m.intArg2 = 1;
  m.text = "dv1";
  const auto wire = encode(m);
  // Type id is the first field after the fixed header layout the codec
  // uses; pin it through a decode (layout-agnostic) plus the enum pin
  // above (layout-defining).
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(decoded->type, MsgType::kLeaseAck);
  EXPECT_EQ(*decoded, m);
}

}  // namespace
}  // namespace simfs::msg
