// DvShard — the Data Virtualizer state machine (SimFS's coordinating
// daemon, Sec. III) for one group of simulation contexts.
//
// A shard is the deterministic heart of the system: a single-threaded,
// clock-agnostic state machine. Every input is an explicit method call —
// client requests (open/close/acquire/release/bitrep) and simulator events
// (started/file written/finished) — and every side effect goes through an
// injected seam (SimLauncher, notification callback, eviction callback).
//
// Sharding model: a shard owns the complete state of its contexts (cache,
// storage area, pending steps, client sessions, prefetch agents, jobs) and
// nothing else, so two shards never share mutable state. Client and job
// ids are issued on an (offset, stride) lattice — shard i of S issues ids
// i+1, i+1+S, i+1+2S, ... — which makes id -> shard routing stateless:
// shard(id) == (id - 1) % S. The single-shard configuration (offset 1,
// stride 1) reproduces the exact id sequence of the original monolithic
// DataVirtualizer, which keeps the DES experiments bit-reproducible.
//
// Deployment:
//   * dv::DataVirtualizer wraps ONE shard for the discrete-event engine
//     (Figs. 16-19) and all single-threaded callers, and
//   * dv::ShardedVirtualizer owns N independently-lockable shards inside
//     dv::Daemon, where a worker pool drains per-shard request queues.
//
// Hot-path design: filenames exist only at the client boundary. clientOpen
// and simulationFileWritten parse the name exactly once (FilenameCodec via
// the driver's key()); everything below — cache, storage accounting,
// pending-file states, client references, job bookkeeping — is keyed by
// StepIndex, and filename strings are re-materialized lazily only for
// notification and eviction callbacks. The open-hit path performs no heap
// allocation.
//
// Responsibilities (Sec. III-A/C/D, IV):
//   - track per-context file states (missing / pending / available),
//   - start demand re-simulations on misses, from R(d_i) until at least
//     the next restart step,
//   - reference-count output steps opened by analyses; evict unreferenced
//     steps through the context's replacement policy when the storage
//     area exceeds its quota,
//   - notify blocked clients when files appear (or their job fails),
//   - run one prefetch agent per client, clamp its launch requests
//     against s_max, and kill prefetched simulations nobody waits for,
//   - reset all agents on cache-pollution signals.
#pragma once

#include "cache/cache.hpp"
#include "common/clock.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "dv/launcher.hpp"
#include "prefetch/agent.hpp"
#include "simmodel/context.hpp"
#include "simmodel/driver.hpp"
#include "vfs/storage_area.hpp"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace simfs::dv {

/// Lifecycle of a (re-)simulation job.
enum class JobPhase { kQueued, kRunning, kFinished, kFailed, kKilled };

/// Why a job exists (prefetched jobs are kill candidates, Sec. IV-C).
enum class JobPurpose { kDemand, kPrefetch };

/// Reply to an open/acquire of one file.
struct OpenResult {
  Status status;               ///< kOk, or why the request is unserviceable
  bool available = false;      ///< true: file on disk, go ahead
  VDuration estimatedWait = 0; ///< DV's estimate until availability
};

/// Aggregate DV statistics (benchmarks read these).
struct DvStats {
  std::uint64_t opens = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t jobsLaunched = 0;
  std::uint64_t demandJobs = 0;
  std::uint64_t prefetchJobs = 0;
  std::uint64_t jobsKilled = 0;
  std::uint64_t stepsProduced = 0;
  std::uint64_t evictions = 0;
  std::uint64_t notifications = 0;
  std::uint64_t agentResets = 0;   ///< pollution-triggered global resets
  std::uint64_t waitersExpired = 0;  ///< waiter entries reaped past deadline

  DvStats& operator+=(const DvStats& o) noexcept {
    opens += o.opens;
    hits += o.hits;
    misses += o.misses;
    jobsLaunched += o.jobsLaunched;
    demandJobs += o.demandJobs;
    prefetchJobs += o.prefetchJobs;
    jobsKilled += o.jobsKilled;
    stepsProduced += o.stepsProduced;
    evictions += o.evictions;
    notifications += o.notifications;
    agentResets += o.agentResets;
    waitersExpired += o.waitersExpired;
    return *this;
  }
};

/// A context's read-lease state as seen by introspection (simfsctl
/// `replicas`, kShardStatsAck). On an owner `steps` counts the steps
/// granted out; on a replica it counts the steps currently leased in.
struct LeaseView {
  std::uint64_t generation = 0;
  std::size_t steps = 0;
  bool replica = false;  ///< true: this node holds leases granted by an owner
};

/// Per-shard replica-lease counters (kShardStatsAck; NOT part of DvStats so
/// federated stats stay comparable to a single-node replay).
struct LeaseCounters {
  std::uint64_t grantsEmitted = 0;   ///< owner: grant batches handed to LeaseFn
  std::uint64_t revokesEmitted = 0;  ///< owner: revoke batches handed to LeaseFn
  std::uint64_t grantsApplied = 0;   ///< replica: kLeaseGrant applied
  std::uint64_t revokesApplied = 0;  ///< replica: kLeaseRevoke applied
  std::uint64_t replicaHits = 0;     ///< opens served locally off a lease
  std::uint64_t notLeased = 0;       ///< opens bounced back to the owner
};

/// One context's transferable serving state, exported by the old owner
/// during an elastic-membership handoff and streamed to the new owner as
/// kContextHandoff frames. Carries metadata only — step bytes live in the
/// (shared or re-simulable) store; what moves is the knowledge of what is
/// resident, what is still owed to whom, and the lease generation fence.
struct ContextSnapshot {
  std::string context;
  std::uint64_t leaseGen = 0;  ///< old owner's grant fence (PR 8 discipline)
  std::uint64_t refs = 0;      ///< open references held by analysis clients
  std::vector<StepIndex> available;  ///< resident steps, ascending
  /// Pending steps with registered waiters (step, waiter count): demand
  /// the new owner can warm-launch so rebound clients resolve quickly.
  std::vector<std::pair<StepIndex, std::uint32_t>> pendingWaiters;
};

/// One DV shard. Not thread-safe by design; see dv::DataVirtualizer for the
/// single-threaded facade and dv::Daemon for the locked, queue-fed
/// deployment.
class DvShard {
 public:
  /// `file` became available (status ok) or permanently failed.
  using NotifyFn =
      std::function<void(ClientId, const std::string& file, const Status&)>;
  /// `file` was evicted from `context`'s storage area (live mode unlinks).
  using EvictFn =
      std::function<void(const std::string& context, const std::string& file)>;
  /// Owner-side lease event: `steps` of `context` were granted (revoke ==
  /// false) or revoked (revoke == true) at `generation`. Invoked WITH the
  /// shard lock held, and — critically — revokes fire BEFORE the shard
  /// mutates the step (file-table erase / eviction unlink), so a FIFO
  /// peer link delivers the revoke before the step can change. The
  /// callback must not re-enter the shard; the daemon just queues the
  /// event for its maintenance thread.
  using LeaseFn = std::function<void(const std::string& context,
                                     std::uint64_t generation,
                                     const std::vector<StepIndex>& steps,
                                     bool revoke)>;

  /// The clock provides request timestamps (virtual in DES, steady in
  /// live). Client/job ids are issued as firstId, firstId + stride, ...;
  /// the (1, 1) default reproduces the monolithic DV's id sequence.
  explicit DvShard(const Clock& clock, ClientId firstClientId = 1,
                   SimJobId firstJobId = 1, std::uint64_t idStride = 1);
  ~DvShard();
  DvShard(const DvShard&) = delete;
  DvShard& operator=(const DvShard&) = delete;

  // --- wiring ---------------------------------------------------------------

  /// Must be called before any client/simulator activity.
  void setLauncher(SimLauncher* launcher) noexcept { launcher_ = launcher; }
  void setNotifyFn(NotifyFn fn) { notify_ = std::move(fn); }
  void setEvictFn(EvictFn fn) { evict_ = std::move(fn); }
  /// Installing a LeaseFn turns on owner-side lease emission (grants on
  /// seed/makeAvailable, revoke-before-mutate on eviction). Unset = the
  /// pre-replica behavior, bit for bit.
  void setLeaseFn(LeaseFn fn) { lease_ = std::move(fn); }

  /// Registers a simulation context (driver carries the full config).
  Status registerContext(std::unique_ptr<simmodel::SimulationDriver> driver);

  /// Marks an output step as already on disk (initial-simulation leftovers
  /// or warm-cache seeding in tests/benches).
  Status seedAvailableStep(const std::string& context, StepIndex step);

  /// Reference checksums for SIMFS_Bitrep (recorded by the "command line
  /// utility" after the initial run).
  Status setChecksumMap(const std::string& context, simmodel::ChecksumMap map);

  // --- client side (DVLib requests) ------------------------------------------

  /// Registers a client session on a context; returns its id. A replica
  /// client (replica == true) is served purely off the context's leased
  /// step set: opens of leased steps succeed without touching the cache
  /// or prefetch machinery, everything else returns kNotLeased so the
  /// client retries at the ring owner.
  [[nodiscard]] Result<ClientId> clientConnect(const std::string& context,
                                               bool replica = false);

  /// Releases every reference the client holds, resets its prefetch agent
  /// and kills its unneeded prefetched jobs.
  void clientDisconnect(ClientId client);

  /// Transparent-mode open (also the per-file primitive of Acquire):
  /// non-blocking; on a miss the demand re-simulation is started and the
  /// client is registered as a waiter (notified via NotifyFn).
  /// On success (immediate or later notification) the file is referenced.
  /// `deadline` (absolute clock time, 0 = none) bounds how long the client
  /// is willing to wait: reapExpiredWaiters drops the registration and
  /// notifies kTimedOut once the clock passes it.
  [[nodiscard]] OpenResult clientOpen(ClientId client, std::string_view file,
                                      VTime deadline = 0);

  /// Transparent-mode close / SIMFS_Release / cancellation of an
  /// abandoned acquire (kReleaseReq): drops the interest the client's open
  /// of `file` registered — ONE waiter entry if the step is still pending,
  /// otherwise one reference (the open, or the availability notification
  /// racing the release, already delivered it). A cancelled acquire
  /// therefore can never pin a cache slot. OK for restart files, whose
  /// open registers nothing. Fails soft (kFailedPrecondition) when no
  /// interest is held.
  Status clientRelease(ClientId client, std::string_view file);

  /// SIMFS_Bitrep: compares `digest` (computed client-side over the
  /// re-simulated file) with the recorded reference checksum.
  [[nodiscard]] Result<bool> clientBitrep(ClientId client,
                                          std::string_view file,
                                          std::uint64_t digest);

  // --- simulator side (driver/launcher events) -------------------------------

  /// The job left the batch queue and started executing.
  void simulationStarted(SimJobId job);

  /// The simulator closed an output file: it is ready on disk (Fig. 4
  /// step 4-5). Size accounting uses the context's configured step size.
  void simulationFileWritten(SimJobId job, std::string_view file);

  /// Job completed (ok) or failed (error status propagates to waiters).
  void simulationFinished(SimJobId job, const Status& status);

  // --- replica-side lease application (kLeaseGrant / kLeaseRevoke) ------------

  /// Unions `steps` into the context's leased set at `generation`. Grants
  /// older than the current generation are inert (stale in-flight grant
  /// racing a revoke). Idempotent.
  Status applyLeaseGrant(const std::string& context, std::uint64_t generation,
                         std::span<const std::int64_t> steps);

  /// Removes `steps` from the leased set (an EMPTY span revokes the whole
  /// context) and advances the generation fence. Revokes older than the
  /// current generation are inert.
  Status applyLeaseRevoke(const std::string& context, std::uint64_t generation,
                          std::span<const std::int64_t> steps);

  // --- deadline reaping --------------------------------------------------------

  /// Drops every waiter whose deadline passed (notified kTimedOut) and
  /// kills the re-simulations those expiries drove to zero owed waited
  /// steps — a job every interested client abandoned burns cycles for
  /// nobody. Returns the number of waiter entries reaped. Called
  /// periodically by the daemon's maintenance tick.
  std::size_t reapExpiredWaiters(VTime now);

  // --- inspection -------------------------------------------------------------

  [[nodiscard]] const DvStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool isAvailable(const std::string& context, StepIndex step) const;
  [[nodiscard]] int runningJobs(const std::string& context) const;
  [[nodiscard]] const cache::CacheStats* cacheStats(const std::string& context) const;
  [[nodiscard]] std::vector<std::string> contextNames() const;

  /// Full configuration of a registered context (nullptr: unknown). The
  /// pointer is borrowed from the driver and valid only while the caller
  /// holds this shard's lock.
  [[nodiscard]] const simmodel::ContextConfig* contextConfig(
      const std::string& context) const;

  /// Output steps currently resident across this shard's storage areas
  /// (per-shard introspection for simfsctl stats).
  [[nodiscard]] std::size_t residentSteps() const;

  /// Lease state of one context (nullopt: unknown context).
  [[nodiscard]] std::optional<LeaseView> leaseView(
      const std::string& context) const;

  /// Lease state of every context with lease activity (generation moved
  /// or steps leased), for kShardStatsAck / simfsctl.
  [[nodiscard]] std::vector<std::pair<std::string, LeaseView>> leaseViews()
      const;

  [[nodiscard]] const LeaseCounters& leaseCounters() const noexcept {
    return leaseCounters_;
  }

  /// Currently available (resident) steps of `context`, ascending — what
  /// an owner re-grants when a replica's peer link is re-established.
  [[nodiscard]] std::vector<StepIndex> availableSteps(
      const std::string& context) const;

  // --- elastic-membership handoff (old owner -> new owner) --------------------

  /// Snapshot of `context` for a live handoff (nullopt: unknown context).
  /// Pure read — the old owner keeps serving (and keeps every waiter)
  /// until the membership change commits, so an aborted handoff needs no
  /// undo on this side.
  [[nodiscard]] std::optional<ContextSnapshot> exportContextSnapshot(
      const std::string& context) const;

  /// Applies one handoff data frame: marks `steps` available exactly as a
  /// simulator write would (waiter wake, lease grant, cache insert,
  /// evictions) — a resent client op racing the import is woken instead of
  /// stranded. Invalid steps are skipped; idempotent on available ones.
  Status importContextSteps(const std::string& context,
                            std::span<const std::int64_t> steps);

  /// Applies the final handoff frame: advances the lease-generation fence
  /// past the old owner's (stale grants emitted over there become inert
  /// everywhere) and warm-launches demand re-simulations for the pending
  /// steps the old owner's clients were still owed, so they are already
  /// cooking when those clients rebind and resend.
  Status adoptContextOwnership(
      const std::string& context, std::uint64_t oldOwnerLeaseGen,
      std::span<const std::pair<StepIndex, std::uint32_t>> pendingWaiters);

 private:
  struct ContextState;

  struct Waiter {
    ClientId client = 0;
    VTime deadline = 0;  ///< absolute give-up time, 0 = wait forever
  };

  struct FileState {
    enum class Kind { kPending, kAvailable } kind = Kind::kPending;
    SimJobId producer = 0;                ///< job producing it (pending)
    std::vector<Waiter> waiters;          ///< clients blocked on it
  };

  struct JobInfo {
    SimJobId id = 0;
    ContextState* ctx = nullptr;
    StepIndex startStep = 0;
    StepIndex stopStep = 0;
    int level = 0;
    JobPhase phase = JobPhase::kQueued;
    JobPurpose purpose = JobPurpose::kDemand;
    ClientId owner = 0;       ///< client whose agent requested it
    VTime launchTime = 0;
    bool firstFileSeen = false;
    VTime lastFileTime = 0;
    /// Owed pending steps (producer == this job) with >= 1 waiter. Kept
    /// incrementally so the prefetch-kill decision is O(1) instead of a
    /// jobs x step-range scan.
    int waitedSteps = 0;
  };

  struct ClientInfo {
    ClientId id = 0;
    ContextState* ctx = nullptr;
    std::unique_ptr<prefetch::PrefetchAgent> agent;
    /// step -> open count. Zero-count entries are kept so that steady
    /// open/release cycles do not churn map nodes (allocation-free hits).
    std::unordered_map<StepIndex, int> refs;
    /// Steps this client is (or recently was) enqueued as a waiter for;
    /// one entry per enqueue, pruned on wake/notify.
    std::vector<StepIndex> waitingSteps;
    /// Live prefetch jobs owned by this client's agent, ascending id.
    std::vector<SimJobId> prefetchJobs;
    /// Replica-served session: refs are lease accounting only (the
    /// replica's cache holds nothing to pin/unpin).
    bool replica = false;
  };

  struct ContextState {
    std::unique_ptr<simmodel::SimulationDriver> driver;
    vfs::StorageArea area;
    std::unique_ptr<cache::Cache> cache;
    std::unordered_map<StepIndex, FileState> files;  ///< pending/available
    /// Connected clients in connect (= ascending id) order, so agent
    /// observation fan-out is O(context clients), not O(all clients).
    std::vector<ClientInfo*> clients;
    simmodel::ChecksumMap checksums;
    /// Jobs in kQueued/kRunning phase. s_max clamps only prefetch
    /// launches (and handoff re-launches) against it: a demand miss
    /// launches whatever runs, since an analysis is waiting on it. So
    /// `running` may exceed s_max by the demand jobs in flight.
    int running = 0;
    /// Read-lease state. Owner role: leaseGen fences emitted grants
    /// (bumped before each eviction revoke); `leased` stays empty. Replica
    /// role: `leased` is the step set this node may serve locally.
    std::unordered_set<StepIndex> leased;
    std::uint64_t leaseGen = 1;
    bool leaseIsReplica = false;  ///< a grant/revoke was applied here
    bool leaseIsOwner = false;    ///< a grant/revoke was emitted from here
    ContextState(std::unique_ptr<simmodel::SimulationDriver> d);
  };

  [[nodiscard]] ContextState* findContext(const std::string& name);
  [[nodiscard]] const ContextState* findContext(const std::string& name) const;
  [[nodiscard]] ClientInfo* findClient(ClientId id);

  /// Launches a job covering [start, stop] (clamped/aligned to restarts).
  SimJobId launchJob(ContextState& ctx, StepIndex start, StepIndex stop,
                     int level, JobPurpose purpose, ClientId owner);

  /// Runs one agent's actions: clamp + launch prefetches, handle pollution.
  void applyAgentActions(ContextState& ctx, ClientInfo& client,
                         const prefetch::AgentActions& actions);

  /// Marks a step available, inserts it into the cache, processes
  /// evictions and wakes waiters.
  void makeAvailable(ContextState& ctx, StepIndex step, SimJobId producer);

  /// Applies cache evictions to DV bookkeeping (revoking leases first).
  void processEvictions(ContextState& ctx, const std::vector<StepIndex>& evicted);

  /// Serves one open for a replica client entirely off the leased set —
  /// allocation-free on the leased hit path.
  [[nodiscard]] OpenResult replicaOpen(ClientInfo& info, std::string_view file);

  /// Owner-side single-step grant emission (seed / makeAvailable).
  void emitLeaseGrant(ContextState& ctx, StepIndex step);

  /// Enqueues `client` as a waiter on a pending step, maintaining the
  /// producing job's waited-step counter.
  void addWaiter(ContextState& ctx, StepIndex step, FileState& fs,
                 ClientInfo& client, VTime deadline);

  /// Kills a queued/running job and reverts the pending steps it still
  /// owes to missing (shared by prefetch kills and deadline reaping).
  void killJob(SimJobId id);

  /// Kills the client's prefetched jobs that nobody waits for.
  void killUnneededPrefetches(ClientId client);

  /// Drops a finished/killed job from its owner's prefetch-job list.
  void forgetOwnedJob(const JobInfo& job);

  /// Estimated wait until `step` is available, given its producing job.
  [[nodiscard]] VDuration estimateWait(const ContextState& ctx,
                                       const JobInfo& job, StepIndex step) const;

  const Clock& clock_;
  SimLauncher* launcher_ = nullptr;
  NotifyFn notify_;
  EvictFn evict_;
  LeaseFn lease_;
  LeaseCounters leaseCounters_;

  // Ordered maps for contexts/jobs keep cross-entity iteration
  // deterministic — the DES benches rely on bit-identical replays. The
  // client and per-context file tables are hash maps: they are only ever
  // probed by key or iterated without order-sensitive effects (client
  // fan-out goes through ContextState::clients, which is in connect
  // order).
  std::map<std::string, std::unique_ptr<ContextState>> contexts_;
  std::unordered_map<ClientId, ClientInfo> clients_;
  std::map<SimJobId, JobInfo> jobs_;
  ClientId nextClient_;
  SimJobId nextJob_;
  std::uint64_t idStride_;
  DvStats stats_;
};

}  // namespace simfs::dv
