#include "simulator/threaded_fleet.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"

#include <chrono>

namespace simfs::simulator {

namespace {
/// Deterministic synthetic payload: derived from context and step only, so
/// a re-simulation reproduces it bitwise (the paper's reproducibility
/// assumption, Sec. II).
std::string syntheticPayload(const simmodel::JobSpec& spec, StepIndex step) {
  return str::format("context=%s step=%lld payload=%016llx\n",
                     spec.context.c_str(), static_cast<long long>(step),
                     static_cast<unsigned long long>(
                         0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(step + 1)));
}
}  // namespace

ThreadedSimulatorFleet::ThreadedSimulatorFleet(dv::Daemon& daemon,
                                               vfs::FileStore& store,
                                               double timeScale)
    : daemon_(daemon), store_(store), timeScale_(timeScale) {
  SIMFS_CHECK(timeScale_ > 0.0);
  produce_ = syntheticPayload;
}

ThreadedSimulatorFleet::~ThreadedSimulatorFleet() {
  // Detach from the daemon FIRST. Launcher calls only happen under shard
  // locks and setLauncher acquires every one of them, so once this
  // returns no daemon worker is inside (or will ever again enter) this
  // fleet — no launch() can slip in behind the join below, and the
  // daemon may keep processing queued requests after we are gone.
  daemon_.setLauncher(nullptr);
  // Kill outstanding jobs so shutdown does not wait out their full runtime.
  {
    std::lock_guard lock(mutex_);
    for (auto& [id, job] : jobs_) job->killed.store(true);
    killCv_.notify_all();
  }
  joinAll();
}

void ThreadedSimulatorFleet::registerContext(
    const simmodel::ContextConfig& config) {
  std::lock_guard lock(mutex_);
  contexts_.insert_or_assign(config.name, config);
}

void ThreadedSimulatorFleet::setProducer(ProduceFn produce) {
  std::lock_guard lock(mutex_);
  produce_ = std::move(produce);
}

bool ThreadedSimulatorFleet::sleepOrKilled(Job& job, VDuration d) {
  if (d <= 0) return !job.killed.load();
  const auto realNs =
      static_cast<std::int64_t>(static_cast<double>(d) * timeScale_);
  std::unique_lock lock(mutex_);
  killCv_.wait_for(lock, std::chrono::nanoseconds(realNs),
                   [&job] { return job.killed.load(); });
  return !job.killed.load();
}

void ThreadedSimulatorFleet::launch(SimJobId id, const simmodel::JobSpec& spec) {
  std::lock_guard lock(mutex_);
  // Reap finished jobs so threads do not pile up across a long run. A
  // done job's body has returned, so the join only waits out the
  // thread's exit — it never blocks this shard lock on a running job.
  std::erase_if(jobs_, [](const auto& entry) {
    Job& job = *entry.second;
    if (!job.done.load(std::memory_order_acquire)) return false;
    job.thread.join();
    return true;
  });
  auto job = std::make_unique<Job>();
  Job* raw = job.get();
  launched_.fetch_add(1);
  active_.fetch_add(1);
  // The thread body runs entirely outside the daemon's shard locks.
  raw->thread = std::thread([this, raw, id, spec] {
    runJob(*raw, id, spec);
    active_.fetch_sub(1);
    raw->done.store(true, std::memory_order_release);
  });
  jobs_.emplace(id, std::move(job));
}

std::size_t ThreadedSimulatorFleet::heldThreads() const {
  std::lock_guard lock(mutex_);
  return jobs_.size();
}

void ThreadedSimulatorFleet::runJob(Job& job, SimJobId id,
                                    simmodel::JobSpec spec) {
  simmodel::ContextConfig cfg;
  ProduceFn produce;
  VDuration queueDelay = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = contexts_.find(spec.context);
    if (it == contexts_.end()) {
      SIMFS_LOG_ERROR("fleet", "job %llu: unknown context '%s'",
                      static_cast<unsigned long long>(id),
                      spec.context.c_str());
      return;
    }
    cfg = it->second;
    produce = produce_;
    queueDelay = batch_.sample(rng_);
  }
  const auto& perf = cfg.perf.at(spec.parallelismLevel);

  if (!sleepOrKilled(job, queueDelay)) return;
  daemon_.simulationStarted(id);
  if (!sleepOrKilled(job, perf.alphaSim)) return;

  for (StepIndex s = spec.startStep; s <= spec.stopStep; ++s) {
    if (!sleepOrKilled(job, perf.tauSim)) return;
    const std::string file = cfg.codec.outputFile(s);
    const auto st = store_.put(file, produce(spec, s));
    if (!st.isOk()) {
      daemon_.simulationFinished(id, st);
      return;
    }
    daemon_.simulationFileWritten(id, file);
  }
  daemon_.simulationFinished(id, Status::ok());
}

void ThreadedSimulatorFleet::kill(SimJobId id) {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second->killed.store(true);
  killCv_.notify_all();
}

void ThreadedSimulatorFleet::joinAll() {
  std::map<SimJobId, std::unique_ptr<Job>> jobs;
  {
    std::lock_guard lock(mutex_);
    jobs.swap(jobs_);
  }
  for (auto& [id, job] : jobs) {
    if (job->thread.joinable()) job->thread.join();
  }
}

}  // namespace simfs::simulator
