// Shared pieces of the live end-to-end benchmark (simfs_livebench).
//
// The benchmark runs real dv::Daemons in this process behind Unix
// sockets, re-simulates into a vfs::DiskFileStore through a
// simulator::ThreadedSimulatorFleet, and drives analysis clients through
// the public dvlib / posix interfaces. Everything here is benchmark-side:
// decorators over public interfaces (FileStore, SimLauncher, Transport),
// a deterministic content producer that every read is verified against,
// and an in-memory span recorder for the traced run.
#pragma once

#include "common/types.hpp"
#include "dv/daemon.hpp"
#include "dv/launcher.hpp"
#include "msg/transport.hpp"
#include "simulator/threaded_fleet.hpp"
#include "vfs/file_store.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace lb {

using simfs::StepIndex;

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until the steady-clock instant `ns`.
void sleepUntilNs(std::int64_t ns);

// Sizes that are the same in every workload (echoed in each run's
// `sizes`). Paper timings (workloads.json, in seconds of the source
// paper's Sec. VI runs) are multiplied by kTimeScale: one paper second is
// 10 ms here. Steps are 1 KiB, far below the paper's GiB-sized steps
// (see README.md, "Traffic").
inline constexpr double kTimeScale = 0.01;
inline constexpr std::size_t kPayloadBytes = 1024;
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kWorkers = 2;
inline constexpr int kSMax = 8;

/// Workload parameters (`--param key=value`); a missing or malformed
/// key is fatal, so a run never silently falls back to a default.
class Params {
 public:
  void set(const std::string& key, const std::string& value);
  [[nodiscard]] std::int64_t i(const std::string& key) const;
  [[nodiscard]] double d(const std::string& key) const;
 private:
  [[nodiscard]] const std::string& raw(const std::string& key) const;
  std::map<std::string, std::string> kv_;
};

/// A sample set with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  /// p in [0, 100]; 0 when empty.
  [[nodiscard]] double pct(double p) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

std::uint64_t splitmix64(std::uint64_t& state);

/// Zipf(s) over ranks 0..n-1 (rank 0 hottest), sampled by CDF bisection.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t sample(std::uint64_t& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The benchmark's deterministic simulator output: the bytes of step
/// `step` of `context` depend only on (seed, context, step), so initial
/// seeding, every re-simulation and every verifying read agree.
class Producer {
 public:
  Producer(std::uint64_t seed, std::size_t bytes) : seed_(seed), bytes_(bytes) {}
  [[nodiscard]] std::string make(std::string_view context, StepIndex step) const;
  /// True when `content` is exactly make(context, step).
  [[nodiscard]] bool verify(std::string_view context, StepIndex step,
                            std::string_view content) const;
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  std::uint64_t seed_;
  std::size_t bytes_;
};

// ------------------------------------------------------------------ tracing

/// Span names: one per instrumented layer boundary. The layer is the
/// prefix before the first '.'.
enum class SpanName : std::uint8_t {
  kAnalysisRead,    ///< root: one read (or one vectored acquire) end to end
  kAnalysisList,    ///< root: one posix analysis' directory listing
  kDvlibAcquire,    ///< Session::acquireAsync call
  kDvlibWait,       ///< AcquireHandle::wait after the ack
  kDvlibRelease,    ///< Session::release call
  kMsgAck,          ///< kOpenBatchReq sent -> matching reply received
  kPosixReaddir,
  kPosixOpen,
  kPosixWait,
  kPosixClose,
  kVfsPut,
  kVfsRead,
  kVfsRemove,
  kBenchVerify,     ///< the benchmark's own content check
  kSimulatorJob,    ///< launch -> last step written (or kill)
  kCount
};
const char* spanNameText(SpanName n);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  SpanName name = SpanName::kCount;
};

/// In-memory span recorder. Spans go into per-thread buffers (no shared
/// lock on the recording path) and are merged once, after the run.
class Tracer {
 public:
  /// The process-wide tracer, or nullptr when tracing is off (the
  /// untraced run pays one relaxed load per instrumented call).
  static Tracer* active() { return active_.load(std::memory_order_relaxed); }
  static void install(Tracer* t) { active_.store(t, std::memory_order_relaxed); }

  std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }
  void record(const Span& s);
  /// Moves out every span recorded so far (call after all recording
  /// threads quiesced).
  [[nodiscard]] std::vector<Span> collect();

  /// Thread context: the request being served and the innermost open
  /// span, used as the parent of spans opened on this thread.
  struct Context {
    std::uint64_t request = 0;
    std::uint64_t current = 0;
  };
  static Context& context();

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  std::shared_ptr<Buffer> localBuffer();

  static std::atomic<Tracer*> active_;
  std::atomic<std::uint64_t> nextId_{0};
  std::mutex mu_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// RAII span around one call, parented to the thread's current span; a
/// no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
  Tracer::Context saved_{};
};

/// One request whose root span is recorded explicitly: windowed and
/// open-loop clients interleave many requests on one thread, so the root
/// cannot be a scope. id == 0 when tracing is off.
struct Request {
  std::uint64_t id = 0;
  std::int64_t start = 0;
};
Request beginRequest();
/// Records the root span [start, now] of `r`.
void endRequest(const Request& r, SpanName name);

/// Makes `r` the current request (and parent) on this thread for the
/// lifetime of the scope.
class EnterRequest {
 public:
  explicit EnterRequest(const Request& r);
  ~EnterRequest();
  EnterRequest(const EnterRequest&) = delete;
  EnterRequest& operator=(const EnterRequest&) = delete;

 private:
  bool active_ = false;
  Tracer::Context saved_{};
};

// ------------------------------------------------------- layer decorators

/// vfs::FileStore decorator: spans around put/read/remove, byte counts,
/// and the store's resident bytes/files with their peaks (the storage
/// bill). Puts made on a simulator job thread are parented to that job's
/// span and counted as produced steps; `useful` counts produced steps an
/// analysis read before they were removed.
class TimedStore final : public simfs::vfs::FileStore {
 public:
  explicit TimedStore(std::unique_ptr<simfs::vfs::FileStore> inner)
      : inner_(std::move(inner)) {}

  simfs::Status put(const std::string& name, std::string content) override;
  simfs::Result<std::string> read(const std::string& name) const override;
  bool exists(const std::string& name) const override {
    return inner_->exists(name);
  }
  simfs::Result<simfs::vfs::FileInfo> stat(const std::string& name) const override {
    return inner_->stat(name);
  }
  simfs::Status remove(const std::string& name) override;
  std::vector<std::string> list() const override { return inner_->list(); }
  simfs::Bytes totalBytes() const override;

  /// Books a file that is already in the inner store (initial output).
  void adopt(const std::string& name, std::uint64_t size);

  /// Starts the timed region: counts restart from zero and peaks from
  /// the current contents.
  void markTimedStart();

  /// Launchers whose job spans this store's job-thread puts close.
  void addLauncher(class TimedLauncher* l) {
    std::lock_guard lock(mu_);
    launchers_.push_back(l);
  }

  struct Counters {
    std::uint64_t bytesWritten = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t puts = 0;
    std::uint64_t reads = 0;
    std::uint64_t removes = 0;
    std::uint64_t peakBytes = 0;
    std::uint64_t peakFiles = 0;
    std::uint64_t produced = 0;  ///< steps written by simulator jobs (traced)
    std::uint64_t useful = 0;    ///< of those, read before removal (traced)
  };
  [[nodiscard]] Counters counters() const;

 private:
  std::unique_ptr<simfs::vfs::FileStore> inner_;
  mutable std::atomic<std::uint64_t> bytesRead_{0};
  mutable std::atomic<std::uint64_t> reads_{0};
  mutable std::mutex mu_;  ///< guards everything below
  std::vector<class TimedLauncher*> launchers_;
  std::map<std::string, std::uint64_t> sizes_;
  mutable std::set<std::string> producedUnread_;
  std::uint64_t bytes_ = 0;
  mutable Counters c_;  ///< write-side counts, peaks, produced/useful
};

/// dv::SimLauncher decorator around the fleet: counts launches, tracks
/// the fleet's peak concurrency, and (traced) opens one span per job that
/// the job's store puts hang off; a kill closes it.
class TimedLauncher final : public simfs::dv::SimLauncher {
 public:
  explicit TimedLauncher(simfs::simulator::ThreadedSimulatorFleet& fleet)
      : fleet_(fleet) {}

  void launch(simfs::SimJobId job, const simfs::simmodel::JobSpec& spec) override;
  void kill(simfs::SimJobId job) override;

  /// Producer hook (runs on the job thread before each put): marks the
  /// thread as working for the job that owns `spec`.
  void onProduce(const simfs::simmodel::JobSpec& spec);
  /// Store hook: a put finished at `end` on a job thread.
  void onJobPut(std::uint64_t jobSpan, std::int64_t end);

  void markTimedStart();
  /// Launch -> first put latencies (ms) of jobs launched in the timed
  /// region, and their spans (closed at their last put or kill).
  [[nodiscard]] Samples restartMs() const;
  void emitJobSpans(Tracer& tracer) const;

  [[nodiscard]] std::uint64_t jobs() const { return jobs_.load(); }
  [[nodiscard]] std::uint64_t maxActive() const { return maxActive_.load(); }

 private:
  struct JobRec {
    std::uint64_t span = 0;
    std::int64_t launched = 0;
    std::int64_t firstPut = 0;
    std::int64_t lastPut = 0;
    std::int64_t killed = 0;
  };
  simfs::simulator::ThreadedSimulatorFleet& fleet_;
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> maxActive_{0};
  mutable std::mutex mu_;
  std::map<simfs::SimJobId, JobRec> recs_;
  std::map<std::uint64_t, simfs::SimJobId> bySpan_;
  /// (context, start, stop) of live jobs -> job id, for onProduce.
  std::map<std::string, simfs::SimJobId> bySpec_;
};

/// The span id of the job the current thread is producing for (0 when
/// the thread is not a simulator job thread).
std::uint64_t& currentJobSpan();

/// Transport decorator (traced runs only): times every kOpenBatchReq
/// from send to the first reply carrying its request id (msg.ack).
std::unique_ptr<simfs::msg::Transport> timedTransport(
    std::unique_ptr<simfs::msg::Transport> inner);

// --------------------------------------------------------------- the stack

/// One DV node: daemon + fleet (+ launcher decorator) over a shared store.
/// Members are destroyed fleet first (it detaches from the daemon, then
/// kills and joins its jobs), then the launcher, then the daemon.
struct Node {
  std::unique_ptr<simfs::dv::Daemon> daemon;
  std::unique_ptr<TimedLauncher> launcher;
  std::unique_ptr<simfs::simulator::ThreadedSimulatorFleet> fleet;
  std::string socket;
};

/// One simulation context in real time: the fleet runs at time scale
/// 1.0, so the model's tau_sim / alpha are wall-clock durations (paper
/// seconds times kTimeScale).
struct ContextSpec {
  std::string name;
  std::int64_t steps = 0;       ///< output steps on the timeline
  std::int64_t deltaR = 1;      ///< output steps per restart interval
  std::int64_t quotaSteps = 0;  ///< cache quota in output steps
  double tauSimMs = 1;
  double alphaMs = 10;
  int sMax = kSMax;  ///< parallel re-simulations of the context
  /// Per-context file prefix, so several contexts share one flat store
  /// (as `simfs_daemon --name-by-context`).
  bool nameByContext = false;
};
simfs::simmodel::ContextConfig makeContext(const ContextSpec& spec);

/// Daemon options shared by every node (shards, workers).
simfs::dv::Daemon::Options daemonOptions();

/// Starts one daemon serving `socket`, with a fleet producing through
/// `producer` into `store` and eviction unlinking from it.
Node makeNode(const simfs::dv::Daemon::Options& options, TimedStore& store,
              const std::vector<simfs::simmodel::ContextConfig>& contexts,
              const Producer& producer, const std::string& socket);

/// Initial simulation output, written once before the set-up
/// repetitions: steps [first, last) of `cfg` go straight into the store
/// directory, as a simulation leaves them on disk before the DV starts.
void writeInitialOutput(const std::string& storeDir, const Producer& producer,
                        const simfs::simmodel::ContextConfig& cfg,
                        StepIndex first, StepIndex last);

/// Bring-up of one initial output step: stats its file through the store
/// (which books it) and marks it resident on `node`.
void seedStep(Node& node, TimedStore& store,
              const simfs::simmodel::ContextConfig& cfg, StepIndex step);

/// Dials a daemon socket (wrapped in the msg.ack timer when tracing).
simfs::Result<std::unique_ptr<simfs::msg::Transport>> dial(
    const std::string& socket);

/// Reads `file` through the store and checks every byte.
enum class ReadResult { kOk, kFailed, kMismatch };
ReadResult readVerify(const TimedStore& store, const Producer& producer,
                      std::string_view context, StepIndex step,
                      const std::string& file);

/// Logs a failed operation to stderr (the first few of a run).
void noteFailure(const char* what, const std::string& detail);

/// Per-client-thread tallies, merged after the threads join.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t verified = 0;    ///< inside the throughput window
  std::uint64_t readsTotal = 0;
  std::uint64_t stalls = 0;
  std::uint64_t probed = 0;
  Samples openUs;
  Samples analysisS;
  Samples genLagUs;
  /// Books one read outcome; `inWindow` reads count toward throughput.
  void read(ReadResult r, bool inWindow);
  void failRead() { ++attempted; ++failed; }
};
struct RunOutput;
void mergeTally(const Tally& t, RunOutput& out);

/// Daemon counters summed over nodes, sampled around the timed region.
struct DaemonSample {
  simfs::dv::DvStats stats;
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t maxBatch = 0;
  std::uint64_t shed = 0;
  std::uint64_t replicaHits = 0;
  std::uint64_t notLeased = 0;
  std::uint64_t redirects = 0;
  std::uint64_t leaseGrants = 0;
};
DaemonSample sampleDaemons(const std::vector<Node>& nodes);

/// What a workload measured; main.cpp turns it into metrics.
struct RunOutput {
  double setupS = 0;             ///< median over set-up repetitions
  std::vector<double> setupReps;
  double warmupS = 0;            ///< untimed warm-up of the kept stack
  double seconds = 0;            ///< throughput window
  std::uint64_t attempted = 0;   ///< reads attempted
  std::uint64_t failed = 0;      ///< failed / shed / timed out / mismatched
  std::uint64_t mismatches = 0;  ///< content mismatches (subset of failed)
  std::uint64_t verified = 0;    ///< reads completed and verified (throughput window)
  std::uint64_t readsTotal = 0;  ///< reads completed in all phases
  Samples openUs;                ///< open issued (or due) -> ready
  Samples analysisS;             ///< one analysis start -> finish
  Samples genLagUs;              ///< open-loop generator lateness
  std::uint64_t stalls = 0;      ///< reads not available at the ack
  std::uint64_t probed = 0;      ///< reads whose ack was probed
  DaemonSample before, after;
  TimedStore::Counters store;
  std::uint64_t jobs = 0, maxActive = 0;
  Samples restartMs;
  std::map<std::string, std::string> sizes;  ///< provenance: workload sizes
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  ///< scratch directory for stores and sockets
  Params params;
};

RunOutput runSweepResim(const RunConfig& cfg);
RunOutput runHotRead(const RunConfig& cfg);
RunOutput runRingFanin(const RunConfig& cfg);
RunOutput runPosixMixed(const RunConfig& cfg);

/// Creates (empty) `path` and its parents; fatal on failure.
void makeEmptyDir(const std::string& path);
/// Removes `path` recursively (best effort).
void removeTree(const std::string& path);

/// Runs `setup` `reps` times and keeps the last stack; each earlier one
/// is torn down (untimed) before the next starts. The repetitions share
/// one store directory holding the initial output (writeInitialOutput),
/// so the median tracks the stack's bring-up, not the host's file
/// writes. `warm` then runs once on the kept stack, outside the set-up
/// time.
template <typename Stack, typename SetupFn, typename WarmFn>
std::unique_ptr<Stack> repeatSetup(int reps, RunOutput& out, SetupFn&& setup,
                                   WarmFn&& warm) {
  std::unique_ptr<Stack> last;
  for (int r = 0; r < reps; ++r) {
    last.reset();
    const std::int64_t t0 = nowNs();
    last = setup();
    out.setupReps.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }
  std::vector<double> v = out.setupReps;
  std::sort(v.begin(), v.end());
  out.setupS = v[v.size() / 2];
  const std::int64_t t0 = nowNs();
  warm(*last);
  out.warmupS = static_cast<double>(nowNs() - t0) * 1e-9;
  return last;
}

[[noreturn]] void fatal(const std::string& what);

}  // namespace lb
