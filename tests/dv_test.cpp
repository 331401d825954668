// Unit tests for the DataVirtualizer core (Sec. III), driven directly with
// a mock launcher — no engine, no threads: every event is an explicit call.
#include "dv/data_virtualizer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

namespace simfs::dv {
namespace {

using simmodel::ContextConfig;
using simmodel::PerfModel;
using simmodel::StepGeometry;

/// Records launches/kills; the test fires the simulator events manually.
class MockLauncher final : public SimLauncher {
 public:
  struct Launch {
    SimJobId id;
    simmodel::JobSpec spec;
  };
  void launch(SimJobId job, const simmodel::JobSpec& spec) override {
    launches.push_back({job, spec});
  }
  void kill(SimJobId job) override { kills.push_back(job); }

  std::vector<Launch> launches;
  std::vector<SimJobId> kills;
};

ContextConfig testConfig() {
  ContextConfig cfg;
  cfg.name = "ctx";
  cfg.geometry = StepGeometry(1, 4, 64);  // 64 steps, intervals of 4
  cfg.outputStepBytes = 10;
  cfg.cacheQuotaBytes = 80;  // 8 cached steps
  cfg.policy = simmodel::PolicyKind::kLru;
  cfg.sMax = 4;
  cfg.prefetchEnabled = false;  // prefetching covered in scenario tests
  cfg.perf = PerfModel(4, vtime::kSecond, 2 * vtime::kSecond);
  return cfg;
}

class DvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dv_ = std::make_unique<DataVirtualizer>(clock_);
    dv_->setLauncher(&launcher_);
    dv_->setNotifyFn([this](ClientId c, const std::string& f, const Status& s) {
      notifications_.push_back({c, f, s});
    });
    dv_->setEvictFn([this](const std::string& ctx, const std::string& f) {
      evicted_.push_back(f);
      (void)ctx;
    });
    ASSERT_TRUE(dv_->registerContext(
                       std::make_unique<simmodel::SyntheticDriver>(testConfig()))
                    .isOk());
  }

  /// Simulates the fleet producing every step of a launched job.
  void produceAll(const MockLauncher::Launch& l) {
    dv_->simulationStarted(l.id);
    const auto codec = testConfig().codec;
    for (StepIndex s = l.spec.startStep; s <= l.spec.stopStep; ++s) {
      dv_->simulationFileWritten(l.id, codec.outputFile(s));
    }
    dv_->simulationFinished(l.id, Status::ok());
  }

  struct Notification {
    ClientId client;
    std::string file;
    Status status;
  };

  ManualClock clock_;
  MockLauncher launcher_;
  std::unique_ptr<DataVirtualizer> dv_;
  std::vector<Notification> notifications_;
  std::vector<std::string> evicted_;
};

TEST_F(DvTest, ConnectUnknownContextFails) {
  EXPECT_FALSE(dv_->clientConnect("nope").isOk());
}

TEST_F(DvTest, DuplicateContextRejected) {
  EXPECT_EQ(dv_->registerContext(
                   std::make_unique<simmodel::SyntheticDriver>(testConfig()))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DvTest, MissLaunchesDemandJobOverRestartInterval) {
  const auto client = dv_->clientConnect("ctx").value();
  const auto res = dv_->clientOpen(client, "out_0000000005.snc");
  EXPECT_TRUE(res.status.isOk());
  EXPECT_FALSE(res.available);
  ASSERT_EQ(launcher_.launches.size(), 1u);
  // Step 5 lives in interval [4, 8]: restart r1 to r2 (boundary included).
  EXPECT_EQ(launcher_.launches[0].spec.startStep, 4);
  EXPECT_EQ(launcher_.launches[0].spec.stopStep, 8);
  EXPECT_EQ(dv_->stats().misses, 1u);
  EXPECT_EQ(dv_->runningJobs("ctx"), 1);
}

TEST_F(DvTest, EstimatedWaitPositiveForMiss) {
  const auto client = dv_->clientConnect("ctx").value();
  const auto res = dv_->clientOpen(client, "out_0000000005.snc");
  // alpha=2s + (5-4+1)*1s = 4s estimated.
  EXPECT_EQ(res.estimatedWait, 4 * vtime::kSecond);
}

TEST_F(DvTest, FileWrittenNotifiesWaiterAndTakesReference) {
  const auto client = dv_->clientConnect("ctx").value();
  (void)dv_->clientOpen(client, "out_0000000005.snc");
  produceAll(launcher_.launches[0]);
  ASSERT_EQ(notifications_.size(), 1u);
  EXPECT_EQ(notifications_[0].client, client);
  EXPECT_EQ(notifications_[0].file, "out_0000000005.snc");
  EXPECT_TRUE(notifications_[0].status.isOk());
  EXPECT_TRUE(dv_->isAvailable("ctx", 5));
  EXPECT_EQ(dv_->runningJobs("ctx"), 0);
  // The file is referenced: release must succeed exactly once.
  EXPECT_TRUE(dv_->clientRelease(client, "out_0000000005.snc").isOk());
  EXPECT_EQ(dv_->clientRelease(client, "out_0000000005.snc").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DvTest, SecondOpenOfAvailableFileIsHit) {
  const auto client = dv_->clientConnect("ctx").value();
  (void)dv_->clientOpen(client, "out_0000000005.snc");
  produceAll(launcher_.launches[0]);
  const auto res = dv_->clientOpen(client, "out_0000000005.snc");
  EXPECT_TRUE(res.available);
  EXPECT_EQ(dv_->stats().hits, 1u);
  EXPECT_EQ(launcher_.launches.size(), 1u);  // no new job
}

TEST_F(DvTest, PendingOpenJoinsExistingJob) {
  const auto a = dv_->clientConnect("ctx").value();
  const auto b = dv_->clientConnect("ctx").value();
  (void)dv_->clientOpen(a, "out_0000000005.snc");
  (void)dv_->clientOpen(b, "out_0000000006.snc");  // same interval, pending
  EXPECT_EQ(launcher_.launches.size(), 1u);  // no second launch
  produceAll(launcher_.launches[0]);
  EXPECT_EQ(notifications_.size(), 2u);
}

TEST_F(DvTest, WholeIntervalBecomesAvailable) {
  const auto client = dv_->clientConnect("ctx").value();
  (void)dv_->clientOpen(client, "out_0000000005.snc");
  produceAll(launcher_.launches[0]);
  for (StepIndex s = 4; s <= 8; ++s) EXPECT_TRUE(dv_->isAvailable("ctx", s));
  EXPECT_FALSE(dv_->isAvailable("ctx", 3));
  EXPECT_EQ(dv_->stats().stepsProduced, 5u);
}

TEST_F(DvTest, RestartFilesAlwaysAvailable) {
  const auto client = dv_->clientConnect("ctx").value();
  const auto res = dv_->clientOpen(client, "restart_0000000002.rst");
  EXPECT_TRUE(res.status.isOk());
  EXPECT_TRUE(res.available);
  EXPECT_TRUE(launcher_.launches.empty());
}

TEST_F(DvTest, InvalidFileNameRejected) {
  const auto client = dv_->clientConnect("ctx").value();
  EXPECT_FALSE(dv_->clientOpen(client, "garbage.bin").status.isOk());
}

TEST_F(DvTest, OutOfTimelineStepRejected) {
  const auto client = dv_->clientConnect("ctx").value();
  const auto res = dv_->clientOpen(client, "out_0000009999.snc");
  EXPECT_EQ(res.status.code(), StatusCode::kOutOfRange);
}

TEST_F(DvTest, EvictionHappensBeyondQuotaAndSkipsReferenced) {
  const auto client = dv_->clientConnect("ctx").value();
  // Fill 12 steps through 3 demand jobs while holding a reference on step 5.
  (void)dv_->clientOpen(client, "out_0000000005.snc");
  produceAll(launcher_.launches[0]);  // steps 4..8
  (void)dv_->clientOpen(client, "out_0000000010.snc");
  produceAll(launcher_.launches[1]);  // steps 8..12 (8 already there)
  (void)dv_->clientOpen(client, "out_0000000015.snc");
  produceAll(launcher_.launches[2]);  // steps 12..16
  // Quota is 8 steps; we produced 13 distinct ones. Evictions must have
  // happened, but never of the referenced step 5.
  EXPECT_FALSE(evicted_.empty());
  EXPECT_TRUE(dv_->isAvailable("ctx", 5));
  for (const auto& f : evicted_) EXPECT_NE(f, "out_0000000005.snc");
  EXPECT_EQ(dv_->stats().evictions, evicted_.size());
}

TEST_F(DvTest, EvictedStepMissesAgain) {
  const auto client = dv_->clientConnect("ctx").value();
  (void)dv_->clientOpen(client, "out_0000000005.snc");
  produceAll(launcher_.launches[0]);
  (void)dv_->clientRelease(client, "out_0000000005.snc");
  // Thrash the cache far past quota.
  for (StepIndex s = 10; s <= 60; s += 5) {
    (void)dv_->clientOpen(client, testConfig().codec.outputFile(s));
    produceAll(launcher_.launches.back());
    (void)dv_->clientRelease(client, testConfig().codec.outputFile(s));
  }
  EXPECT_FALSE(dv_->isAvailable("ctx", 5));
  const auto res = dv_->clientOpen(client, "out_0000000005.snc");
  EXPECT_FALSE(res.available);  // miss again -> new job
}

TEST_F(DvTest, FailedJobPropagatesToWaiters) {
  const auto client = dv_->clientConnect("ctx").value();
  (void)dv_->clientOpen(client, "out_0000000005.snc");
  const auto job = launcher_.launches[0].id;
  dv_->simulationStarted(job);
  dv_->simulationFinished(job, errRestartFailed("node died"));
  ASSERT_EQ(notifications_.size(), 1u);
  EXPECT_EQ(notifications_[0].status.code(), StatusCode::kRestartFailed);
  EXPECT_FALSE(dv_->isAvailable("ctx", 5));
  EXPECT_EQ(dv_->runningJobs("ctx"), 0);
}

TEST_F(DvTest, DisconnectReleasesReferencesAndWaits) {
  const auto client = dv_->clientConnect("ctx").value();
  (void)dv_->clientOpen(client, "out_0000000005.snc");
  dv_->clientDisconnect(client);
  produceAll(launcher_.launches[0]);
  EXPECT_TRUE(notifications_.empty());  // no waiter left to notify
}

TEST_F(DvTest, SeedAvailableStepActsAsWarmCache) {
  ASSERT_TRUE(dv_->seedAvailableStep("ctx", 7).isOk());
  const auto client = dv_->clientConnect("ctx").value();
  const auto res = dv_->clientOpen(client, "out_0000000007.snc");
  EXPECT_TRUE(res.available);
  EXPECT_TRUE(launcher_.launches.empty());
}

TEST_F(DvTest, BitrepComparesRecordedChecksums) {
  simmodel::ChecksumMap map;
  map.record("out_0000000005.snc", 0xAA);
  ASSERT_TRUE(dv_->setChecksumMap("ctx", std::move(map)).isOk());
  const auto client = dv_->clientConnect("ctx").value();
  EXPECT_TRUE(dv_->clientBitrep(client, "out_0000000005.snc", 0xAA).value());
  EXPECT_FALSE(dv_->clientBitrep(client, "out_0000000005.snc", 0xBB).value());
  EXPECT_FALSE(dv_->clientBitrep(client, "unknown.snc", 0xAA).isOk());
}

TEST_F(DvTest, LateEventsFromFinishedJobsIgnored) {
  const auto client = dv_->clientConnect("ctx").value();
  (void)dv_->clientOpen(client, "out_0000000005.snc");
  const auto job = launcher_.launches[0];
  produceAll(job);
  const auto before = dv_->stats().stepsProduced;
  dv_->simulationFileWritten(job.id, "out_0000000006.snc");  // stale
  EXPECT_EQ(dv_->stats().stepsProduced, before);
}

// s_max bounds prefetching, not demand: a miss launches its demand job
// whatever is running (the analysis waits on it), and only prefetch
// launches are clamped. So running jobs may exceed s_max by the demand
// jobs in flight.
TEST_F(DvTest, DemandMissLaunchesBeyondSmaxWhilePrefetchIsClamped) {
  ContextConfig cfg = testConfig();
  cfg.name = "smax1";
  cfg.sMax = 1;
  cfg.prefetchEnabled = true;
  ASSERT_TRUE(dv_->registerContext(
                     std::make_unique<simmodel::SyntheticDriver>(cfg))
                  .isOk());
  const auto sweeper = dv_->clientConnect("smax1").value();
  const auto other = dv_->clientConnect("smax1").value();

  // The sweeper's first miss runs its demand job [0, 4] to completion,
  // then it walks forward until its agent plans past that coverage and
  // the free slot takes the prefetch job.
  (void)dv_->clientOpen(sweeper, cfg.codec.outputFile(1));
  ASSERT_EQ(launcher_.launches.size(), 1u);
  produceAll(launcher_.launches[0]);
  StepIndex step = 2;
  for (; step <= 4 && dv_->stats().prefetchJobs == 0; ++step) {
    (void)dv_->clientOpen(sweeper, cfg.codec.outputFile(step));
  }
  ASSERT_EQ(dv_->stats().prefetchJobs, 1u);
  ASSERT_EQ(dv_->runningJobs("smax1"), 1);
  const StepIndex prefetchStop = launcher_.launches.back().spec.stopStep;

  // Another client misses on another interval: its demand job launches
  // although the prefetch job already fills s_max.
  const auto res = dv_->clientOpen(other, cfg.codec.outputFile(40));
  EXPECT_TRUE(res.status.isOk());
  EXPECT_FALSE(res.available);
  EXPECT_EQ(dv_->stats().demandJobs, 2u);
  EXPECT_EQ(dv_->runningJobs("smax1"), 2);

  // The sweeper walks through the prefetch job's steps to its end, where
  // the agent plans the next block: s_max clamps it to nothing.
  for (; step <= prefetchStop; ++step) {
    (void)dv_->clientOpen(sweeper, cfg.codec.outputFile(step));
  }
  EXPECT_EQ(dv_->stats().prefetchJobs, 1u);
  EXPECT_EQ(dv_->runningJobs("smax1"), 2);
  EXPECT_EQ(launcher_.launches.size(), 3u);
}

TEST_F(DvTest, OpenUnknownClientFails) {
  const auto res = dv_->clientOpen(999, "out_0000000005.snc");
  EXPECT_EQ(res.status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace simfs::dv
