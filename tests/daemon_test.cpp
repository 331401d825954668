// End-to-end daemon tests over real Unix-domain sockets: a DVLib client in
// this process, the daemon serving connections, a threaded fleet producing
// files — the full Fig. 4 message sequence on a live transport.
#include "analysis/trace_tool.hpp"
#include "dv/daemon.hpp"
#include "dvlib/iolib.hpp"
#include "dvlib/session.hpp"
#include "dvlib/simfs_client.hpp"
#include "msg/transport.hpp"
#include "simulator/threaded_fleet.hpp"
#include "vfs/file_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

namespace simfs::dv {
namespace {

using simmodel::ContextConfig;
using simmodel::PerfModel;
using simmodel::StepGeometry;

ContextConfig socketConfig() {
  ContextConfig cfg;
  cfg.name = "sock";
  cfg.geometry = StepGeometry(1, 4, 64);
  cfg.outputStepBytes = 64;
  cfg.sMax = 4;
  cfg.perf = PerfModel(2, 5 * vtime::kMillisecond, 10 * vtime::kMillisecond);
  return cfg;
}

class SocketDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/simfs_daemon_" + std::to_string(::getpid()) + ".sock";
    cfg_ = socketConfig();
    daemon_ = std::make_unique<Daemon>();
    fleet_ = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *daemon_, store_, /*timeScale=*/1.0);
    ASSERT_TRUE(
        daemon_
            ->registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg_))
            .isOk());
    fleet_->registerContext(cfg_);
    daemon_->setLauncher(fleet_.get());
    ASSERT_TRUE(daemon_->listen(path_).isOk());
  }

  void TearDown() override {
    fleet_.reset();
    daemon_.reset();
  }

  std::string path_;
  ContextConfig cfg_;
  vfs::MemFileStore store_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<simulator::ThreadedSimulatorFleet> fleet_;
};

TEST_F(SocketDaemonTest, FullMissFlowOverSocket) {
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
  ASSERT_TRUE(client.isOk()) << client.status().toString();

  dvlib::SimfsStatus status;
  ASSERT_TRUE((*client)->acquire({"out_0000000006.snc"}, &status).isOk());
  EXPECT_TRUE(store_.exists("out_0000000006.snc"));
  ASSERT_TRUE((*client)->release("out_0000000006.snc").isOk());
  (*client)->finalize();
}

TEST_F(SocketDaemonTest, MultipleConcurrentClients) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto conn = msg::unixSocketConnect(path_);
      if (!conn.isOk()) {
        ++failures;
        return;
      }
      auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
      if (!client.isOk()) {
        ++failures;
        return;
      }
      // Each client walks a different region; some intervals overlap.
      for (int i = 0; i < 6; ++i) {
        const auto step = static_cast<StepIndex>(c * 4 + i);
        const auto file = socketConfig().codec.outputFile(step);
        if (!(*client)->acquire({file}).isOk() ||
            !(*client)->release(file).isOk()) {
          ++failures;
          return;
        }
      }
      (*client)->finalize();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(daemon_->stats().stepsProduced, 0u);
}

TEST_F(SocketDaemonTest, ClientDisconnectReleasesState) {
  {
    auto conn = msg::unixSocketConnect(path_);
    ASSERT_TRUE(conn.isOk());
    auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
    ASSERT_TRUE(client.isOk());
    ASSERT_TRUE((*client)->acquire({"out_0000000002.snc"}).isOk());
    // Client vanishes while holding a reference.
    (*client)->finalize();
  }
  // Give the daemon a moment to observe the disconnect.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // A fresh client can still work; the dead client's reference is gone.
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
  ASSERT_TRUE(client.isOk());
  ASSERT_TRUE((*client)->acquire({"out_0000000002.snc"}).isOk());
  ASSERT_TRUE((*client)->release("out_0000000002.snc").isOk());
  (*client)->finalize();
}

TEST_F(SocketDaemonTest, StatusRequestReportsCounters) {
  // Produce some activity first.
  {
    auto conn = msg::unixSocketConnect(path_);
    ASSERT_TRUE(conn.isOk());
    auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
    ASSERT_TRUE(client.isOk());
    ASSERT_TRUE((*client)->acquire({"out_0000000001.snc"}).isOk());
    ASSERT_TRUE((*client)->release("out_0000000001.snc").isOk());
    (*client)->finalize();
  }
  // Raw kStatusReq, the simfsctl introspection path.
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  msg::Message reply;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    reply = std::move(m);
    got = true;
    cv.notify_all();
  });
  msg::Message req;
  req.type = msg::MsgType::kStatusReq;
  ASSERT_TRUE((*conn)->send(req).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return got; }));
  }
  EXPECT_EQ(reply.type, msg::MsgType::kStatusAck);
  EXPECT_NE(reply.text.find("opens="), std::string::npos);
  EXPECT_NE(reply.text.find("misses="), std::string::npos);
  EXPECT_GT(reply.intArg, 0);  // steps were produced
  ASSERT_EQ(reply.files.size(), 1u);
  EXPECT_EQ(reply.files[0], "sock");
  (*conn)->close();
}

TEST_F(SocketDaemonTest, PipelinedHelloThenOpenIsServedInOrder) {
  // A client may stream kHello and kOpenBatchReq in one burst without waiting
  // for kHelloAck; the daemon must serve both, in order, on the context's
  // shard (the seed's synchronous handler guaranteed this too).
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> replies;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    replies.push_back(std::move(m));
    cv.notify_all();
  });
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
  ASSERT_TRUE((*conn)->send(hello).isOk());
  msg::Message open;
  open.type = msg::MsgType::kOpenBatchReq;
  open.requestId = 2;
  open.files = {"out_0000000001.snc"};
  ASSERT_TRUE((*conn)->send(open).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return replies.size() >= 2u; }));
  }
  EXPECT_EQ(replies[0].type, msg::MsgType::kHelloAck);
  EXPECT_EQ(replies[0].code, 0);
  EXPECT_EQ(replies[1].type, msg::MsgType::kOpenBatchAck);
  EXPECT_EQ(replies[1].code, 0) << replies[1].text;
  (*conn)->close();
}

/// A raw protocol connection: sends hand-built frames and waits for the
/// reply carrying a given requestId.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    auto t = msg::unixSocketConnect(path);
    if (!t.isOk()) {
      ADD_FAILURE() << t.status().toString();
      return;
    }
    t_ = std::move(*t);
    t_->setHandler([this](msg::Message&& m) {
      std::lock_guard lock(mu_);
      replies_.push_back(std::move(m));
      cv_.notify_all();
    });
  }
  ~RawConn() {
    if (t_) t_->close();
  }

  /// Sends `m` and returns its reply; a reply that never arrives (within
  /// five seconds) reads as kError/kUnavailable.
  msg::Message call(const msg::Message& m) {
    msg::Message none;
    none.code = static_cast<std::int32_t>(StatusCode::kUnavailable);
    if (!t_ || !t_->send(m).isOk()) return none;
    const auto byId = [id = m.requestId](const msg::Message& r) {
      return r.requestId == id;
    };
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(5), [&] {
          return std::any_of(replies_.begin(), replies_.end(), byId);
        })) {
      return none;
    }
    return *std::find_if(replies_.begin(), replies_.end(), byId);
  }

 private:
  std::unique_ptr<msg::Transport> t_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<msg::Message> replies_;
};

msg::Message helloOf(msg::ClientRole role, std::vector<std::int64_t> offer) {
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  hello.intArg = static_cast<std::int64_t>(role);
  hello.intArg2 = msg::kHelloCapVersion;
  hello.ints = std::move(offer);
  return hello;
}

TEST_F(SocketDaemonTest, SimulatorAndAnalysisHellosNegotiateTheSameVersion) {
  // One version pick serves both roles: the same offer must get the same
  // answer whether a simulator or an analysis sends it. A one-element
  // offer {v} means [v, v]; no offer means a version-1-only client.
  const std::vector<std::vector<std::int64_t>> offers = {
      {}, {1}, {2}, {1, 2}, {2, 2}, {1, 1}, {1, 9}, {3}, {3, 4}};
  for (const auto& offer : offers) {
    RawConn sim(path_);
    RawConn ana(path_);
    const auto simAck = sim.call(helloOf(msg::ClientRole::kSimulator, offer));
    const auto anaAck = ana.call(helloOf(msg::ClientRole::kAnalysis, offer));
    ASSERT_EQ(simAck.type, msg::MsgType::kHelloAck);
    ASSERT_EQ(anaAck.type, msg::MsgType::kHelloAck);
    EXPECT_EQ(simAck.code, anaAck.code) << "offer size " << offer.size();
    EXPECT_EQ(simAck.ints, anaAck.ints) << "offer size " << offer.size();
  }
  // Spot-check the answers themselves.
  RawConn a(path_);
  EXPECT_EQ(a.call(helloOf(msg::ClientRole::kSimulator, {2})).ints,
            (std::vector<std::int64_t>{2}));
  RawConn b(path_);
  EXPECT_EQ(b.call(helloOf(msg::ClientRole::kAnalysis, {1})).ints,
            (std::vector<std::int64_t>{1}));
  RawConn c(path_);
  EXPECT_EQ(static_cast<StatusCode>(
                c.call(helloOf(msg::ClientRole::kSimulator, {3})).code),
            StatusCode::kFailedPrecondition);
}

TEST_F(SocketDaemonTest, OldClientReservedCapOfferGetsThePreNegotiationAck) {
  // A client built when kHelloCapShm offered a shared-memory data plane
  // still sets that bit and names a segment key in text. The bit is
  // reserved now: the daemon ignores it and answers over the socket with
  // exactly the ack a pre-negotiation daemon sent (intArg2 == 0), which
  // the old client's negotiator reads as "stay on the socket".
  RawConn conn(path_);
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
  hello.intArg2 = msg::kHelloCapShm;
  hello.text = "/simfs-segment-1234-1";
  const auto ack = conn.call(hello);
  ASSERT_EQ(ack.type, msg::MsgType::kHelloAck);
  ASSERT_EQ(ack.code, 0) << ack.text;
  EXPECT_EQ(ack.intArg2, 0);
  msg::Message preNegotiation;
  preNegotiation.type = msg::MsgType::kHelloAck;
  preNegotiation.requestId = 1;
  preNegotiation.intArg = ack.intArg;  // the assigned client id
  EXPECT_EQ(msg::encode(ack), msg::encode(preNegotiation));

  // The session is bound and served on the socket.
  msg::Message open;
  open.type = msg::MsgType::kOpenBatchReq;
  open.requestId = 2;
  open.files = {"out_0000000002.snc"};
  const auto opened = conn.call(open);
  EXPECT_EQ(opened.type, msg::MsgType::kOpenBatchAck);
  EXPECT_EQ(opened.code, 0) << opened.text;
}

TEST_F(SocketDaemonTest, RetiredMessageTypeGetsErrorAndChangesNothing) {
  // Type 3 was the per-file open. A frame still carrying it must be
  // answered with kError and must neither register nor release anything.
  const std::string file = "out_0000000001.snc";
  RawConn conn(path_);
  msg::Message hello = helloOf(msg::ClientRole::kAnalysis, {1, 2});
  ASSERT_EQ(conn.call(hello).code, 0);
  msg::Message open;
  open.type = msg::MsgType::kOpenBatchReq;
  open.requestId = 2;
  open.files = {file};
  ASSERT_EQ(conn.call(open).code, 0);

  const DvStats before = daemon_->stats();
  msg::Message retired;
  retired.type = static_cast<msg::MsgType>(3);
  retired.requestId = 3;
  retired.files = {file};
  const auto reply = conn.call(retired);
  EXPECT_EQ(reply.type, msg::MsgType::kError);
  EXPECT_NE(reply.code, 0);
  const DvStats after = daemon_->stats();
  EXPECT_EQ(after.opens, before.opens);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);

  // The open's one registration is still there, exactly once: the first
  // release frees it, the second finds nothing.
  msg::Message release;
  release.type = msg::MsgType::kReleaseReq;
  release.requestId = 4;
  release.files = {file};
  const auto first = conn.call(release);
  EXPECT_EQ(first.type, msg::MsgType::kReleaseAck);
  EXPECT_EQ(first.code, 0) << first.text;
  EXPECT_EQ(first.intArg, 1);
  release.requestId = 5;
  const auto second = conn.call(release);
  EXPECT_EQ(static_cast<StatusCode>(second.code),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(second.intArg, 0);
}

TEST_F(SocketDaemonTest, ShardStatsReportPerShardCounters) {
  // Generate some served traffic first.
  {
    auto conn = msg::unixSocketConnect(path_);
    ASSERT_TRUE(conn.isOk());
    auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
    ASSERT_TRUE(client.isOk());
    ASSERT_TRUE((*client)->acquire({"out_0000000003.snc"}).isOk());
    ASSERT_TRUE((*client)->release("out_0000000003.snc").isOk());
    (*client)->finalize();
  }
  // The simfsctl introspection path: raw kShardStatsReq over the wire.
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  msg::Message reply;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    reply = std::move(m);
    got = true;
    cv.notify_all();
  });
  msg::Message req;
  req.type = msg::MsgType::kShardStatsReq;
  ASSERT_TRUE((*conn)->send(req).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return got; }));
  }
  EXPECT_EQ(reply.type, msg::MsgType::kShardStatsAck);
  EXPECT_EQ(static_cast<std::size_t>(reply.intArg), daemon_->shardCount());
  ASSERT_EQ(reply.files.size(), daemon_->shardCount());
  EXPECT_NE(reply.text.find("shards="), std::string::npos);
  // The one context lives on exactly one shard; that shard served the
  // traffic above and holds the produced steps.
  bool sawServing = false;
  for (const auto& line : reply.files) {
    EXPECT_NE(line.find("shard="), std::string::npos);
    if (line.find("contexts=sock") != std::string::npos) {
      sawServing = true;
      EXPECT_NE(line.find("resident_steps="), std::string::npos);
      EXPECT_EQ(line.find("served=0;"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(sawServing);
  // The in-process view agrees with the wire view.
  const auto counters = daemon_->shardCounters();
  ASSERT_EQ(counters.size(), daemon_->shardCount());
  std::uint64_t served = 0;
  std::size_t resident = 0;
  for (const auto& c : counters) {
    served += c.served;
    resident += c.residentSteps;
  }
  EXPECT_GT(served, 0u);
  EXPECT_GT(resident, 0u);
  (*conn)->close();
}

TEST_F(SocketDaemonTest, ShardCountersFeedTheAutotuner) {
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
  ASSERT_TRUE(client.isOk());
  for (StepIndex s = 0; s < 6; s += 2) {
    const std::string file = cfg_.codec.outputFile(s);
    ASSERT_TRUE((*client)->acquire({file}).isOk());
    ASSERT_TRUE((*client)->release(file).isOk());
  }
  (*client)->finalize();

  // The shard owning the context exposes the live TuneWindow feed.
  const auto counters = daemon_->shardCounters();
  const Daemon::ShardCounters* owner = nullptr;
  for (const auto& c : counters) {
    if (!c.contexts.empty()) owner = &c;
  }
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->accesses, 3u);
  EXPECT_GT(owner->misses, 0u);
  EXPECT_GT(owner->resimSteps, 0u);

  // Diffing two samples yields the observation window; all-zero "prev"
  // is the first window. The tuner consumes it directly.
  const auto window = Daemon::tuneWindowOf(*owner, Daemon::ShardCounters{});
  EXPECT_EQ(window.accesses, owner->accesses);
  EXPECT_EQ(window.misses, owner->misses);
  EXPECT_EQ(window.resimulatedSteps, owner->resimSteps);
  CacheAutotuner::Config tcfg;
  tcfg.scenario = cost::cosmoScenario();
  tcfg.rates = cost::azureRates();
  tcfg.minCacheSteps = 100;
  tcfg.maxCacheSteps = tcfg.scenario.numOutputSteps;
  CacheAutotuner tuner(tcfg, 500);
  const auto decision = tuner.observe(window);
  EXPECT_GE(decision.recommendedCacheSteps, tcfg.minCacheSteps);
  EXPECT_LE(decision.recommendedCacheSteps, tcfg.maxCacheSteps);

  // And the same counters travel the wire (simfsctl stats).
  auto raw = msg::unixSocketConnect(path_);
  ASSERT_TRUE(raw.isOk());
  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  msg::Message reply;
  (*raw)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    reply = std::move(m);
    got = true;
    cv.notify_all();
  });
  msg::Message req;
  req.type = msg::MsgType::kShardStatsReq;
  ASSERT_TRUE((*raw)->send(req).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return got; }));
  }
  bool sawFeed = false;
  for (const auto& line : reply.files) {
    if (line.find("contexts=sock") == std::string::npos) continue;
    sawFeed = true;
    EXPECT_NE(line.find("accesses=3"), std::string::npos) << line;
    EXPECT_NE(line.find("misses="), std::string::npos) << line;
    EXPECT_NE(line.find("resim_steps="), std::string::npos) << line;
    EXPECT_NE(line.find("shed=0"), std::string::npos) << line;
  }
  EXPECT_TRUE(sawFeed);
  (*raw)->close();
}

TEST(DaemonBackpressureTest, ShedsClientRequestsOverQueueCap) {
  // A launcher that parks the (single) worker inside launch() — holding
  // the shard lock — so the shard queue backs up deterministically.
  struct BlockingLauncher final : SimLauncher {
    void launch(SimJobId, const simmodel::JobSpec&) override {
      std::unique_lock lock(mutex);
      blocked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    void kill(SimJobId) override {}
    std::mutex mutex;
    std::condition_variable cv;
    bool blocked = false;
    bool release = false;
  } launcher;

  Daemon::Options options;
  options.shards = 1;
  options.workers = 1;
  options.queueCap = 1;
  Daemon daemon(options);
  const auto cfg = socketConfig();
  ASSERT_TRUE(
      daemon.registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
          .isOk());
  daemon.setLauncher(&launcher);
  EXPECT_EQ(daemon.queueCap(), 1u);

  auto conn = daemon.connectInProc();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> replies;
  conn->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    replies.push_back(std::move(m));
    cv.notify_all();
  });
  const auto replyFor = [&](std::uint64_t id) -> const msg::Message* {
    for (const auto& r : replies) {
      if (r.requestId == id) return &r;
    }
    return nullptr;
  };

  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
  ASSERT_TRUE(conn->send(hello).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return replyFor(1) != nullptr; }));
  }

  // Open a missing step: the worker dives into launch() and stays there.
  msg::Message open;
  open.type = msg::MsgType::kOpenBatchReq;
  open.requestId = 2;
  open.files = {cfg.codec.outputFile(0)};
  ASSERT_TRUE(conn->send(open).isOk());
  {
    std::unique_lock lock(launcher.mutex);
    ASSERT_TRUE(launcher.cv.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return launcher.blocked; }));
  }

  // One request fits the queue; the next is shed with kUnavailable —
  // synchronously, while the worker is still stuck.
  open.requestId = 3;
  ASSERT_TRUE(conn->send(open).isOk());
  open.requestId = 4;
  ASSERT_TRUE(conn->send(open).isOk());
  {
    std::lock_guard lock(mu);
    const msg::Message* shedReply = replyFor(4);
    ASSERT_NE(shedReply, nullptr) << "shed reply must not wait for the worker";
    EXPECT_EQ(shedReply->type, msg::MsgType::kOpenBatchAck);
    EXPECT_EQ(static_cast<StatusCode>(shedReply->code),
              StatusCode::kUnavailable);
    EXPECT_EQ(replyFor(3), nullptr) << "within-cap request must not be shed";
  }

  // A release past the cap is queued, not shed, acked or not: it frees a
  // registration, and shedding it would leave the step pinned.
  msg::Message release;
  release.type = msg::MsgType::kReleaseReq;
  release.requestId = 5;
  release.files = open.files;
  ASSERT_TRUE(conn->send(release).isOk());
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(replyFor(5), nullptr) << "a release must wait for the worker";
  }

  // Unblock: the queued (not shed) requests are then served normally.
  {
    std::lock_guard lock(launcher.mutex);
    launcher.release = true;
  }
  launcher.cv.notify_all();
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] {
      return replyFor(2) != nullptr && replyFor(3) != nullptr &&
             replyFor(5) != nullptr;
    }));
    EXPECT_EQ(static_cast<StatusCode>(replyFor(2)->code), StatusCode::kOk);
    EXPECT_EQ(static_cast<StatusCode>(replyFor(3)->code), StatusCode::kOk);
    // Served after both opens: it drops one of their two waiter entries.
    EXPECT_EQ(replyFor(5)->type, msg::MsgType::kReleaseAck);
    EXPECT_EQ(static_cast<StatusCode>(replyFor(5)->code), StatusCode::kOk)
        << replyFor(5)->text;
    EXPECT_EQ(replyFor(5)->intArg, 1);
  }
  // (Read only after the worker released the shard lock: shardCounters
  // briefly takes every shard mutex.)
  EXPECT_EQ(daemon.shardCounters()[0].shed, 1u);
  conn->close();
}

TEST_F(SocketDaemonTest, TraceToolRunsOverLiveStack) {
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
  ASSERT_TRUE(client.isOk());

  // Produce SNC1 fields so the analysis can reduce them.
  fleet_->setProducer([](const simmodel::JobSpec&, StepIndex step) {
    std::vector<double> field(8, static_cast<double>(step) * 0.5);
    return dvlib::encodeField(field);
  });

  analysis::TraceAnalysisTool tool(**client, store_, cfg_.codec);
  const auto report = tool.run(trace::makeForwardTrace(0, 10, 64));
  ASSERT_TRUE(report.isOk());
  EXPECT_EQ(report->accesses, 10u);
  EXPECT_EQ(report->failures, 0u);
  EXPECT_GT(report->meanOfMeans, 0.0);
  (*client)->finalize();
}

/// Live threads of this process, one /proc/self/task entry each.
std::size_t liveThreads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ThreadedFleetTest, SequentialJobsLeaveABoundedThreadCount) {
  ContextConfig cfg = socketConfig();
  cfg.name = "reap";
  cfg.geometry = StepGeometry(1, 4, 256);
  cfg.prefetchEnabled = false;  // exactly one demand job per miss
  vfs::MemFileStore store;
  Daemon daemon;
  simulator::ThreadedSimulatorFleet fleet(daemon, store, /*timeScale=*/0.01);
  ASSERT_TRUE(
      daemon.registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
          .isOk());
  fleet.registerContext(cfg);
  daemon.setLauncher(&fleet);
  auto session = dvlib::Session::connect(daemon.connectInProc(), cfg.name);
  ASSERT_TRUE(session.isOk());
  const std::size_t baseline = liveThreads();

  const auto quiesce = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (fleet.activeJobs() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  constexpr int kJobs = 16;
  for (int i = 0; i < kJobs; ++i) {
    // A demand job runs to the restart after the next one, so every
    // other restart interval: each acquire misses and launches a short
    // job, run to completion before the next one.
    const std::string file = cfg.codec.outputFile(8 * i);
    ASSERT_TRUE((*session)->acquire({file}).isOk()) << file;
    ASSERT_TRUE((*session)->release(file).isOk());
    quiesce();
  }
  ASSERT_EQ(fleet.activeJobs(), 0u);
  EXPECT_GE(fleet.launched(), static_cast<std::uint64_t>(kJobs));
  // Every launch joined the jobs already finished: the fleet holds at
  // most the last job or two, not one thread per job ever launched.
  EXPECT_LE(fleet.heldThreads(), 2u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (liveThreads() > baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(liveThreads(), baseline);
  (*session)->finalize();
}

}  // namespace
}  // namespace simfs::dv
