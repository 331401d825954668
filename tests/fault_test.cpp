// Failure-domain tests: a federated DV under injected transport faults
// and node kills must degrade, not wedge.
//
//   * With recv delays and probabilistic send failures injected
//     process-wide (the SIMFS_FAULTS machinery, driven through
//     fault::configure), clients that retry at the application level
//     complete every access, and every accessed step ends up available
//     on its ring owner — fault recovery changes latency, never the
//     final state.
//   * Killing a ring member mid-run bounds the damage to its own
//     failure domain: clients of its contexts complete with errors
//     within the retry budget (no hangs), while the surviving nodes
//     serve exactly the availability a fault-free run of the same
//     accesses produces.
//
// All faults are seeded, so a given schedule replays; assertions are on
// recovery, not luck.
#include "cluster/ring.hpp"
#include "common/fault.hpp"
#include "dv/daemon.hpp"
#include "dvlib/router.hpp"
#include "dvlib/session.hpp"
#include "dvlib/simfs_client.hpp"
#include "msg/transport.hpp"
#include "simulator/threaded_fleet.hpp"
#include "vfs/file_store.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace simfs::dv {
namespace {

using simmodel::ContextConfig;
using simmodel::PerfModel;
using simmodel::StepGeometry;

constexpr int kNodes = 3;
constexpr int kContexts = 6;
constexpr StepIndex kStepSpan = 48;

std::string contextName(int i) { return "ctx" + std::to_string(i); }

ContextConfig faultConfig(int i) {
  ContextConfig cfg;
  cfg.name = contextName(i);
  cfg.geometry = StepGeometry(1, 4, 64);
  cfg.outputStepBytes = 64;
  cfg.cacheQuotaBytes = 0;  // no eviction: availability is the produced union
  cfg.sMax = 8;
  cfg.prefetchEnabled = false;
  cfg.perf = PerfModel(2, 1 * vtime::kMillisecond, 2 * vtime::kMillisecond);
  return cfg;
}

/// Deterministic per-context access schedules; phase 1 runs before the
/// node kill, phase 3 after it (phase 2 is the dead-node probe).
std::vector<StepIndex> accessesOf(int ctx, int phase) {
  std::vector<StepIndex> steps;
  if (phase == 1) {
    for (int k = 0; k < 6; ++k) {
      steps.push_back(static_cast<StepIndex>((ctx * 7 + k * 3) % kStepSpan));
    }
  } else {
    for (int k = 0; k < 4; ++k) {
      steps.push_back(
          static_cast<StepIndex>((ctx * 5 + k * 11 + 1) % kStepSpan));
    }
  }
  return steps;
}

struct Node {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<vfs::MemFileStore> store;
  std::unique_ptr<simulator::ThreadedSimulatorFleet> fleet;
  std::string socketPath;
};

std::string socketPathFor(const std::string& tag, int i) {
  return "/tmp/simfs_fault_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(i) + ".sock";
}

cluster::Ring fullRing(const std::string& tag) {
  std::vector<cluster::NodeInfo> members;
  for (int i = 0; i < kNodes; ++i) {
    members.push_back({"dv" + std::to_string(i), socketPathFor(tag, i)});
  }
  return cluster::Ring::make(std::move(members), /*version=*/2).value();
}

std::vector<Node> startCluster(const std::string& tag,
                               const cluster::Ring& ring) {
  std::vector<Node> nodes;
  for (int i = 0; i < kNodes; ++i) {
    Node node;
    Daemon::Options options;
    options.shards = 2;
    options.workers = 2;
    options.nodeId = "dv" + std::to_string(i);
    options.ring = ring;
    node.daemon = std::make_unique<Daemon>(options);
    node.store = std::make_unique<vfs::MemFileStore>();
    node.fleet = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *node.daemon, *node.store, /*timeScale=*/1.0);
    for (int c = 0; c < kContexts; ++c) {
      const auto cfg = faultConfig(c);
      EXPECT_TRUE(node.daemon
                      ->registerContext(
                          std::make_unique<simmodel::SyntheticDriver>(cfg))
                      .isOk());
      node.fleet->registerContext(cfg);
    }
    node.daemon->setLauncher(node.fleet.get());
    node.socketPath = socketPathFor(tag, i);
    EXPECT_TRUE(node.daemon->listen(node.socketPath).isOk());
    nodes.push_back(std::move(node));
  }
  return nodes;
}

void stopNode(Node& node) {
  node.fleet.reset();  // kill + join before the daemon goes away
  node.daemon->stop();
  node.daemon.reset();
}

void quiesce(std::vector<Node>& nodes) {
  const auto quiet = [&] {
    for (auto& n : nodes) {
      if (!n.daemon) continue;  // killed mid-test
      if (n.fleet->activeJobs() > 0) return false;
      for (const auto& c : n.daemon->shardCounters()) {
        if (c.queued > 0 || c.served < c.enqueued) return false;
      }
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!quiet() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(quiet()) << "cluster did not quiesce";
}

void killCluster(std::vector<Node>& nodes) {
  for (auto& n : nodes) {
    if (n.daemon) stopNode(n);
  }
}

/// One sequential client per context: acquires every step of `phase`,
/// retrying at the application level (a connection loss fails acked
/// acquires with a retryable error telling the caller to reopen).
void runPhase(const cluster::Ring& ring, int phase,
              const std::string& skipOwner, std::atomic<int>& failures) {
  auto router = dvlib::NodeRouter::overUnixSockets(ring);
  std::vector<std::thread> threads;
  for (int ctx = 0; ctx < kContexts; ++ctx) {
    if (!skipOwner.empty() && ring.ownerOf(contextName(ctx)).id == skipOwner) {
      continue;
    }
    threads.emplace_back([&, ctx] {
      auto client = dvlib::SimFSClient::connect(router, contextName(ctx));
      if (!client.isOk()) {
        ++failures;
        return;
      }
      (*client)->session()->setRetryPolicy(/*budget=*/6,
                                           /*baseBackoffNs=*/1'000'000);
      const auto cfg = faultConfig(ctx);
      for (const StepIndex step : accessesOf(ctx, phase)) {
        const std::string file = cfg.codec.outputFile(step);
        bool done = false;
        for (int attempt = 0; attempt < 10 && !done; ++attempt) {
          if ((*client)->acquire({file}).isOk() &&
              (*client)->release(file).isOk()) {
            done = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (!done) ++failures;
      }
      (*client)->finalize();
    });
  }
  for (auto& t : threads) t.join();
}

TEST(FaultTest, InjectedTransportFaultsAreRecoveredNotSurfaced) {
  // recv delays stretch every frame dispatch; send failures hard-close
  // connections mid-batch (the transport converts an injected send fault
  // into a sticky close, exactly like a peer reset). Seeded: the
  // schedule replays.
  fault::configure("recv:delay:100us;send:fail:0.02", /*seed=*/7);
  const cluster::Ring ring = fullRing("inj");
  auto nodes = startCluster("inj", ring);

  std::atomic<int> failures{0};
  runPhase(ring, /*phase=*/1, /*skipOwner=*/"", failures);
  EXPECT_EQ(failures.load(), 0)
      << "faults must be absorbed by retries, not surfaced";
  quiesce(nodes);
  fault::reset();

  // Recovery changes latency, never the outcome: every accessed step is
  // available on its ring owner (and only there).
  for (int ctx = 0; ctx < kContexts; ++ctx) {
    const int owner = std::stoi(ring.ownerOf(contextName(ctx)).id.substr(2));
    for (const StepIndex step : accessesOf(ctx, 1)) {
      EXPECT_TRUE(nodes[owner].daemon->isAvailable(contextName(ctx), step))
          << "ctx " << ctx << " step " << step;
    }
  }
  killCluster(nodes);
}

TEST(FaultTest, NodeKillBoundsErrorsAndPreservesSurvivorAvailability) {
  // Two identical clusters driven with identical accesses: A stays
  // healthy (the fault-free oracle), B loses a node between phases.
  const cluster::Ring ringA = fullRing("oracle");
  const cluster::Ring ringB = fullRing("victim");
  auto clusterA = startCluster("oracle", ringA);
  auto clusterB = startCluster("victim", ringB);
  const std::string victim = ringB.ownerOf(contextName(0)).id;
  const int victimIdx = victim.back() - '0';

  std::atomic<int> failures{0};
  runPhase(ringA, /*phase=*/1, /*skipOwner=*/"", failures);
  runPhase(ringB, /*phase=*/1, /*skipOwner=*/"", failures);
  ASSERT_EQ(failures.load(), 0);
  quiesce(clusterA);
  quiesce(clusterB);

  stopNode(clusterB[victimIdx]);

  // Phase 2: the dead node's failure domain. A client of a victim-owned
  // context must complete with an error within the retry budget — never
  // hang. (Depending on where the teardown caught it, that is a refused
  // dial at connect or a kUnreachable after the reconnect budget.)
  {
    const auto t0 = std::chrono::steady_clock::now();
    auto router = dvlib::NodeRouter::overUnixSockets(ringB);
    auto dead = dvlib::SimFSClient::connect(router, contextName(0));
    if (dead.isOk()) {
      (*dead)->session()->setRetryPolicy(/*budget=*/2,
                                         /*baseBackoffNs=*/2'000'000);
      const std::string file = faultConfig(0).codec.outputFile(40);
      EXPECT_FALSE((*dead)->acquire({file}).isOk());
      (*dead)->finalize();
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(20))
        << "dead-node ops must complete within the retry budget";
  }

  // Phase 3: surviving failure domains are untouched — the same new
  // accesses succeed on both clusters.
  runPhase(ringA, /*phase=*/3, /*skipOwner=*/victim, failures);
  runPhase(ringB, /*phase=*/3, /*skipOwner=*/victim, failures);
  EXPECT_EQ(failures.load(), 0);
  quiesce(clusterA);
  quiesce(clusterB);

  // Equivalence: for every surviving context, the kill-run cluster holds
  // exactly the availability set of the fault-free run.
  for (int ctx = 0; ctx < kContexts; ++ctx) {
    if (ringB.ownerOf(contextName(ctx)).id == victim) continue;
    const int owner = std::stoi(ringB.ownerOf(contextName(ctx)).id.substr(2));
    const auto steps = faultConfig(ctx).geometry.numOutputSteps();
    for (StepIndex s = 0; s < steps; ++s) {
      EXPECT_EQ(clusterB[owner].daemon->isAvailable(contextName(ctx), s),
                clusterA[owner].daemon->isAvailable(contextName(ctx), s))
          << "ctx " << ctx << " step " << s;
    }
  }
  killCluster(clusterA);
  killCluster(clusterB);
}

TEST(FaultTest, SocketPeerSigkillMidFloodIsContained) {
  // A socket client that dies without unwinding (SIGKILL mid-ping-flood)
  // must be contained: the daemon reaps the session and the context keeps
  // serving fresh clients — no wedge, no poisoned shard.
  if (::access("./simfsctl", X_OK) != 0) {
    GTEST_SKIP() << "simfsctl binary not next to the test runner";
  }
  const std::string path = socketPathFor("sockkill", 0);
  Daemon::Options options;
  options.shards = 2;
  options.workers = 2;
  Daemon daemon(options);
  vfs::MemFileStore store;
  simulator::ThreadedSimulatorFleet fleet(daemon, store, /*timeScale=*/1.0);
  const auto cfg = faultConfig(0);
  ASSERT_TRUE(
      daemon.registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
          .isOk());
  fleet.registerContext(cfg);
  daemon.setLauncher(&fleet);
  ASSERT_TRUE(daemon.listen(path).isOk());

  // Per-transport connection counters travel in the kShardStatsAck
  // header; an in-proc probe reads them without disturbing the socket
  // side under test.
  const auto statsText = [&]() -> std::string {
    auto conn = daemon.connectInProc();
    std::mutex mu;
    std::condition_variable cv;
    std::string text;
    bool got = false;
    conn->setHandler([&](msg::Message&& m) {
      std::lock_guard lock(mu);
      text = m.text;
      got = true;
      cv.notify_all();
    });
    msg::Message req;
    req.type = msg::MsgType::kShardStatsReq;
    req.requestId = 1;
    EXPECT_TRUE(conn->send(req).isOk());
    std::unique_lock lock(mu);
    EXPECT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return got; }));
    return text;
  };

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Flood the daemon with pings over one socket connection until
    // killed; the count is effectively "forever".
    ::execl("./simfsctl", "simfsctl", "ping", path.c_str(), "2000000000",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Wait until the daemon accepted the child's socket (the in-proc stats
  // probes count as conn_other), then let the flood run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool sawChild = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (statsText().find("conn_socket=1;") != std::string::npos) {
      sawChild = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(sawChild) << "child never connected to the daemon";
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Containment: a fresh socket client completes a full acquire/release
  // on the same context within the retry budget.
  {
    auto conn = msg::unixSocketConnect(path);
    ASSERT_TRUE(conn.isOk());
    auto session =
        dvlib::Session::connect(std::move(*conn), contextName(0));
    ASSERT_TRUE(session.isOk());
    const std::string file = cfg.codec.outputFile(3);
    bool done = false;
    for (int attempt = 0; attempt < 10 && !done; ++attempt) {
      if ((*session)->acquire({file}).isOk() &&
          (*session)->release(file).isOk()) {
        done = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    EXPECT_TRUE(done) << "daemon wedged after socket peer SIGKILL";
    (*session)->finalize();
  }
  // The verification client counts too: the cumulative counter kept
  // counting past the crash instead of wedging at 1.
  EXPECT_NE(statsText().find("conn_socket=2;"), std::string::npos)
      << "stats: " << statsText();
}

TEST(FaultTest, ReceiverSigkillMidHandoffAbortsAndOldOwnerResumes) {
  // The elastic-membership crash case: a handoff RECEIVER dies (kill -9,
  // no unwind) while the old owner is still streaming context state to
  // it. The epoch fence resolves this deterministically — the transfer
  // was never committed, so the old owner aborts it, keeps authority,
  // and every client op (including acquires that were waiting while the
  // stream ran) completes as if the join was never attempted.
  if (::access("./simfs_daemon", X_OK) != 0) {
    GTEST_SKIP() << "simfs_daemon binary not next to the test runner";
  }
  // One step per frame and 20ms of injected delay ahead of each send
  // guarantees the stream is mid-flight when the receiver dies; a 300ms
  // ack deadline makes the abort prompt. Knobs are read at daemon
  // construction, so set them first.
  ::setenv("SIMFS_HANDOFF_TIMEOUT_MS", "300", 1);
  ::setenv("SIMFS_HANDOFF_BATCH", "1", 1);
  fault::configure("handoff:delay:20ms", /*seed=*/11);

  const std::string ownerSock = socketPathFor("hk", 0);
  const std::string joinerSock = socketPathFor("hk", 1);
  Node owner;
  {
    Daemon::Options options;
    options.shards = 2;
    options.workers = 2;
    options.nodeId = "dv0";
    options.ring = cluster::Ring::make({{"dv0", ownerSock}}, 1).value();
    owner.daemon = std::make_unique<Daemon>(options);
    owner.store = std::make_unique<vfs::MemFileStore>();
    owner.fleet = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *owner.daemon, *owner.store, /*timeScale=*/1.0);
    for (int c = 0; c < kContexts; ++c) {
      const auto cfg = faultConfig(c);
      ASSERT_TRUE(owner.daemon
                      ->registerContext(
                          std::make_unique<simmodel::SyntheticDriver>(cfg))
                      .isOk());
      owner.fleet->registerContext(cfg);
    }
    owner.daemon->setLauncher(owner.fleet.get());
    owner.socketPath = ownerSock;
    ASSERT_TRUE(owner.daemon->listen(ownerSock).isOk());
  }
  ::unsetenv("SIMFS_HANDOFF_TIMEOUT_MS");
  ::unsetenv("SIMFS_HANDOFF_BATCH");

  // The receiving node is a REAL process so kill -9 is a real crash.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const std::string ringSpec = "dv1=" + joinerSock;
    ::execl("./simfs_daemon", "simfs_daemon", "--socket", joinerSock.c_str(),
            "--node", "dv1", "--ring", ringSpec.c_str(), "--contexts", "6",
            "--steps", "48", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool up = false;
    while (!up && std::chrono::steady_clock::now() < deadline) {
      auto probe = msg::unixSocketConnect(joinerSock);
      if (probe.isOk()) {
        (*probe)->close();
        up = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_TRUE(up) << "joiner daemon never came up";
  }

  const auto ringV1 = owner.daemon->ring();
  const auto ring2 = ringV1.withNode({"dv1", joinerSock}, 2).value();
  int moving = -1;
  for (int c = 0; c < kContexts && moving < 0; ++c) {
    if (ring2.ownerOf(contextName(c)).id == "dv1") moving = c;
  }
  ASSERT_GE(moving, 0) << "the joiner must attract at least one context";
  const auto cfg = faultConfig(moving);

  // Warm the moving context: ~20 resident steps means >= 20 one-step
  // frames, each behind a 20ms injected delay — several hundred ms of
  // stream to crash into.
  {
    auto router = dvlib::NodeRouter::overUnixSockets(ringV1);
    auto client = dvlib::SimFSClient::connect(router, contextName(moving));
    ASSERT_TRUE(client.isOk());
    for (int k = 0; k < 20; ++k) {
      const std::string file =
          cfg.codec.outputFile(static_cast<StepIndex>((k * 2) % kStepSpan));
      ASSERT_TRUE((*client)->acquire({file}).isOk());
      ASSERT_TRUE((*client)->release(file).isOk());
    }
    (*client)->finalize();
  }

  // A client that keeps acquiring cold steps while the handoff streams:
  // these are the waiters that must not be lost.
  std::atomic<bool> waiterOk{true};
  std::thread waiter([&] {
    auto router = dvlib::NodeRouter::overUnixSockets(ringV1);
    auto client = dvlib::SimFSClient::connect(router, contextName(moving));
    if (!client.isOk()) {
      waiterOk = false;
      return;
    }
    for (int k = 0; k < 6; ++k) {
      const std::string file =
          cfg.codec.outputFile(static_cast<StepIndex>((k * 5 + 1) % kStepSpan));
      if (!(*client)->acquire({file}).isOk() ||
          !(*client)->release(file).isOk()) {
        waiterOk = false;
        return;
      }
    }
    (*client)->finalize();
  });

  // Propose the join; the owner starts streaming its moving contexts.
  {
    auto conn = owner.daemon->connectInProc();
    std::mutex mu;
    std::condition_variable cv;
    std::optional<msg::Message> ack;
    conn->setHandler([&](msg::Message&& m) {
      std::lock_guard lock(mu);
      ack = std::move(m);
      cv.notify_all();
    });
    msg::Message propose;
    propose.type = msg::MsgType::kRingPropose;
    propose.requestId = 1;
    propose.files = ring2.encodeEntries();
    propose.intArg = static_cast<std::int64_t>(ring2.version());
    ASSERT_TRUE(conn->send(propose).isOk());
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return ack.has_value(); }));
    ASSERT_EQ(ack->code, 0) << ack->text;
    ASSERT_GT(ack->intArg2, 0);
  }
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (owner.daemon->federationCounters().handoffsInflight == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(owner.daemon->federationCounters().handoffsInflight, 0u)
        << "handoff never started streaming";
  }

  // Crash the receiver mid-stream.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // The uncommitted transfer aborts within the ack deadline; authority
  // never moved (the ring is still at the pre-propose version).
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    auto fed = owner.daemon->federationCounters();
    while ((fed.handoffsInflight != 0 || fed.handoffsAborted == 0) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      fed = owner.daemon->federationCounters();
    }
    EXPECT_EQ(fed.handoffsInflight, 0u);
    EXPECT_GE(fed.handoffsAborted, 1u) << "crashed handoff must abort";
    EXPECT_EQ(fed.handoffsCommitted, 0u)
        << "nothing may commit without a kRingCommit";
  }
  EXPECT_EQ(owner.daemon->ring().version(), ringV1.version());

  waiter.join();
  EXPECT_TRUE(waiterOk.load()) << "a waiter was lost across the aborted join";

  // Old owner resumes: a fresh client completes a cold acquire on the
  // very context that was mid-handoff.
  {
    auto router = dvlib::NodeRouter::overUnixSockets(ringV1);
    auto client = dvlib::SimFSClient::connect(router, contextName(moving));
    ASSERT_TRUE(client.isOk());
    const std::string file = cfg.codec.outputFile(47);
    EXPECT_TRUE((*client)->acquire({file}).isOk());
    EXPECT_TRUE((*client)->release(file).isOk());
    (*client)->finalize();
  }
  fault::reset();
  stopNode(owner);
}

}  // namespace
}  // namespace simfs::dv
