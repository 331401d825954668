// Asynchronous, pipelined DVLib session core — the redesigned public
// surface of the client library.
//
// A Session is one context-bound connection into the DV federation. Its
// one primitive is the VECTORED ASYNCHRONOUS ACQUIRE:
//
//   auto handle = session->acquireAsync({f0, f1, ..., fN});
//
// encodes all N files into a single kOpenBatchReq and returns an
// AcquireHandle without blocking — not even for the ack. The daemon
// resolves the whole batch under one shard-lock acquisition and answers
// with per-file outcomes (available now / being re-simulated + estimated
// wait / failed); files still owed retire one by one through kFileReady
// notifications. Completion is driven entirely off the transport receive
// callback, so any number of acquires can be in flight and a 64-file
// acquire costs exactly one round trip instead of 64.
//
// The AcquireHandle is a completion token:
//   wait([status], [timeout])  — block, optionally with a deadline (the
//                                DV's estimated wait, via estimatedWait(),
//                                is the natural deadline seed)
//   test / waitSome / testSome — the paper's SIMFS_Test/Waitsome shapes
//   waitAck                    — block only for the batch ack (one RTT)
//   then(fn)                   — continuation fired once on completion,
//                                on the completing (reactor) thread, or
//                                inline if already complete
//   cancel()                   — first-class cancellation: completes the
//                                handle with kCancelled and sends ONE
//                                kReleaseReq freeing every waiter entry
//                                and output-step reference the batch
//                                registered, so an abandoned acquire can
//                                never pin cache slots
//   probe(i)                   — per-file ack outcome (availability,
//                                status, estimated wait)
//
// The wire carries exactly two DV ops: kOpenBatchReq registers interest
// and kReleaseReq drops it. A release always travels to the link the
// batch registered on (servedBy — a read replica when the spread sent it
// there), which is why the transparent close is the handle's cancel()
// rather than a by-name release.
//
// The handle's state is the ONLY record of a file's outcome: the session
// keeps no per-name table, so two acquires of the same file never share
// (or clobber) a completion.
//
// Everything else is an adapter over this core: Session::acquire (=
// acquireAsync + wait, unwinding partial registrations on failure),
// SimFSClient (the paper's SIMFS_* call shapes), the C API, the
// transparent I/O facades and the POSIX VFS (whose opens each pipeline
// through a batch-of-one handle, closed by its cancel()).
//
// Federation: sessions created from a NodeRouter keep the PR 3 redirect
// semantics for batched ops. A kRedirect answering an in-flight
// kOpenBatchReq is not an error: the session rebinds to the named owner
// (dial + hello, on a dedicated recovery thread so the reactor callback
// never blocks) and RESENDS the batch there; the handle completes as if
// nothing happened. Legacy single-transport sessions surface redirects
// as errors, exactly as before.
//
// Thread-safety: all public methods may be called from any thread;
// handles are freely copyable across threads.
#pragma once

#include "common/status.hpp"
#include "common/types.hpp"
#include "dvlib/router.hpp"
#include "msg/transport.hpp"

#include <condition_variable>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace simfs::dvlib {

/// The paper's SIMFS_Status: error state plus estimated waiting time.
struct SimfsStatus {
  Status error;
  VDuration estimatedWait = 0;
};

class Session;

namespace detail {
struct AcquireState;
}

/// Completion token of a vectored asynchronous acquire (the async
/// generalization of the paper's SIMFS_Req).
class AcquireHandle {
 public:
  /// No deadline: wait() blocks until completion.
  static constexpr VDuration kNoDeadline = -1;

  /// Per-file outcome as reported by the batch ack.
  struct FileProbe {
    Status status;                ///< per-file error state
    bool available = false;       ///< true: was on disk at batch time
    VDuration estimatedWait = 0;  ///< DV's estimate until availability
  };

  AcquireHandle();  ///< invalid (empty) handle
  ~AcquireHandle();
  AcquireHandle(const AcquireHandle&);
  AcquireHandle& operator=(const AcquireHandle&);
  AcquireHandle(AcquireHandle&&) noexcept;
  AcquireHandle& operator=(AcquireHandle&&) noexcept;

  [[nodiscard]] bool valid() const noexcept;
  [[nodiscard]] const std::vector<std::string>& files() const;

  /// Blocks until every file resolved (or the handle failed/cancelled).
  /// With a deadline, returns kTimedOut once it expires — the handle
  /// stays live and can be re-waited or cancel()ed.
  [[nodiscard]] Status wait(SimfsStatus* status = nullptr,
                            VDuration timeoutNs = kNoDeadline);

  /// Non-blocking completion check (SIMFS_Test shape).
  [[nodiscard]] Status test(bool* done, SimfsStatus* status = nullptr);

  /// Blocks until at least one file resolved; returns the indices
  /// resolved so far (SIMFS_Waitsome shape).
  [[nodiscard]] Status waitSome(std::vector<int>* readyIdx,
                                SimfsStatus* status = nullptr);

  /// Non-blocking subset check (SIMFS_Testsome shape).
  [[nodiscard]] Status testSome(std::vector<int>* readyIdx,
                                SimfsStatus* status = nullptr);

  /// Blocks only until the batch ack arrived (one round trip): per-file
  /// probes and the estimated wait are valid afterwards.
  [[nodiscard]] Status waitAck(SimfsStatus* status = nullptr);

  /// Registers a continuation fired exactly once when the handle
  /// completes, with the final status. Runs on the completing thread
  /// (usually the transport reactor) — or inline, right here, if the
  /// handle already completed. Continuations must not block.
  void then(std::function<void(const Status&)> fn);

  /// Cancels the acquire: the handle completes with kCancelled (waiters
  /// wake, continuations fire) and one fire-and-forget kReleaseReq frees
  /// every waiter entry / step reference the batch registered at the DV,
  /// on the link that registered it — no reply round trip blocks the
  /// caller. On a completed handle only the release happens: this is the
  /// transparent close. Idempotent; per-connection FIFO ordering
  /// guarantees the release lands after the batch it unwinds.
  [[nodiscard]] Status cancel();

  /// True once the handle reached a terminal state (non-blocking).
  [[nodiscard]] bool complete() const;

  /// Max estimated wait across still-pending files (valid after the ack;
  /// the natural seed for a wait() deadline).
  [[nodiscard]] VDuration estimatedWait() const;

  /// Per-file ack outcome; index follows files(). Valid after waitAck().
  [[nodiscard]] FileProbe probe(std::size_t index) const;

 private:
  friend class Session;
  AcquireHandle(std::shared_ptr<Session> session,
                std::shared_ptr<detail::AcquireState> state);

  std::shared_ptr<Session> session_;
  std::shared_ptr<detail::AcquireState> state_;
};

/// One context-bound client session against a DV daemon or federation.
class Session : public std::enable_shared_from_this<Session> {
 public:
  /// Connects over `transport` and opens a session on `context`
  /// (SIMFS_Init). Blocks for the handshake. Single-transport: a
  /// redirect answer is surfaced as an error.
  [[nodiscard]] static Result<std::shared_ptr<Session>> connect(
      std::unique_ptr<msg::Transport> transport, const std::string& context);

  /// Routing-aware SIMFS_Init against a federation: resolves `context`'s
  /// owner through the router's ring, dials (or reuses a pooled
  /// connection to) that node and follows redirects until a daemon
  /// accepts the session.
  [[nodiscard]] static Result<std::shared_ptr<Session>> connect(
      std::shared_ptr<NodeRouter> router, const std::string& context);

  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- the asynchronous vectored core ----------------------------------------

  /// Registers interest in all `files` with ONE kOpenBatchReq and
  /// returns immediately — completion (ack + kFileReady retirements) is
  /// driven off the receive callback. Never fails synchronously: send
  /// errors complete the returned handle.
  [[nodiscard]] AcquireHandle acquireAsync(std::vector<std::string> files);

  /// Zero-copy variant: copies `files` into a pooled acquire state
  /// (reusing its string storage) and serializes the batch request
  /// straight into the transport's send buffer — a warm steady-state
  /// acquire/cancel cycle performs no heap allocation.
  [[nodiscard]] AcquireHandle acquireAsync(std::span<const std::string> files);

  // --- blocking adapters over the core ---------------------------------------

  /// SIMFS_Acquire: one vectored round trip, then blocks until every
  /// file is available. On failure the partial registration is unwound
  /// (cancelled) so no reference survives a failed acquire.
  [[nodiscard]] Status acquire(const std::vector<std::string>& files,
                               SimfsStatus* status = nullptr);

  /// SIMFS_Release by name: one acked kReleaseReq.
  [[nodiscard]] Status release(const std::string& file);

  /// Batched SIMFS_Release: every file travels in ONE acked kReleaseReq
  /// and the daemon drops all references under a single shard-lock
  /// acquisition (mirrors the vectored acquire). Names with a
  /// replica-registered reference are released on that replica.
  [[nodiscard]] Status release(std::span<const std::string> files);

  /// SIMFS_Bitrep: compares the digest (computed over the locally read
  /// content) against the reference recorded at initial-simulation time.
  [[nodiscard]] Result<bool> bitrep(const std::string& file,
                                    std::uint64_t digest);

  /// SIMFS_Finalize: closes the session (idempotent).
  void finalize();

  [[nodiscard]] const std::string& context() const noexcept {
    return context_;
  }
  [[nodiscard]] ClientId clientId() const noexcept { return clientId_; }

  /// Protocol version the daemon picked from this session's advertised
  /// [kProtocolVersionMin, kProtocolVersionMax] range at hello time.
  /// Stays 1 against pre-negotiation daemons (they echo no choice).
  [[nodiscard]] std::int64_t protocolVersion() const noexcept {
    return protocolVersion_.load(std::memory_order_relaxed);
  }

  // --- failure-domain knobs ---------------------------------------------------

  /// Per-op deadline budget (ns, 0 = none; default SIMFS_OP_DEADLINE_MS)
  /// attached to every batch request: the daemon converts it into an
  /// absolute shard deadline and reaps the registration — killing
  /// re-simulations nobody waits for anymore — once it passes. The
  /// affected files then resolve with kTimedOut.
  void setOpDeadline(VDuration ns);

  /// Bounds transient-failure handling (defaults SIMFS_RETRY_BUDGET=3,
  /// SIMFS_RETRY_BASE_MS=10): a shed batch (kUnavailable) is resent
  /// after jittered exponential backoff up to `budget` times; a lost
  /// transport is re-dialed up to `budget` times. Exhaustion completes
  /// the affected ops with kUnreachable instead of hanging.
  void setRetryPolicy(int budget, VDuration baseBackoffNs);

  /// Number of live read-replica links this session holds (0 until the
  /// federation advertises replicas and the links come up). Observability
  /// hook for tests and tools.
  [[nodiscard]] std::size_t replicaEndpoints();

 private:
  friend class AcquireHandle;

  explicit Session(std::string context);

  /// An in-flight async request awaiting its ack, tagged with the
  /// transport it went out on. A redirect-triggered rebind rebuilds the
  /// wire message from the state's file list and resends it under the
  /// same requestId. Kept in a flat vector (in-flight counts are small):
  /// lookup is a scan, erase is cheap, and steady-state traffic reuses
  /// the vector's capacity instead of churning map nodes.
  struct AsyncOp {
    std::uint64_t id = 0;  ///< requestId of the kOpenBatchReq
    const msg::Transport* transport = nullptr;
    std::shared_ptr<detail::AcquireState> state;
    int redirects = 0;
    int attempts = 0;  ///< shed-retry resends consumed (<= retry budget)
  };

  /// Continuations to fire outside the session lock.
  using Fired = std::vector<std::pair<std::function<void(const Status&)>,
                                      Status>>;

  void attach(const std::shared_ptr<msg::Transport>& t);
  /// Receive-path dispatch over the transport's zero-copy view; owned
  /// copies are materialized only for the cold paths (sync replies,
  /// redirects, ring updates).
  void onMessage(const msg::MessageView& m);
  /// Close callback: fails whatever can no longer resolve. A dead
  /// retired link only takes the ops still tagged to it; the live link
  /// going down fails everything outstanding (router sessions keep their
  /// un-acked ops for the post-reconnect resend).
  void onTransportClosed(const msg::Transport* t);
  [[nodiscard]] std::shared_ptr<msg::Transport> transportRef();

  /// Sends a request on `t` and blocks for its matching reply.
  [[nodiscard]] Result<msg::Message> callOn(
      const std::shared_ptr<msg::Transport>& t, msg::Message m);

  /// Sends a request on the current transport and blocks for the reply;
  /// routing-aware sessions transparently follow kRedirect answers.
  [[nodiscard]] Result<msg::Message> call(msg::Message m);

  /// Dials + hellos `targetNode` (following further redirects), swaps it
  /// in as the session transport and RESENDS un-acked async ops on the
  /// new link. Router sessions only.
  Status rebind(std::string targetNode);

  /// Applies a kOpenBatchAck (or error reply) to its state, reading the
  /// per-file outcome pairs in place from the view. Lock held.
  void applyBatchAckLocked(detail::AcquireState& state,
                           const msg::MessageView& m);

  /// Pops a recyclable state off the pool (sole pool reference means no
  /// live handle can touch it) or makes a fresh one. Lock held.
  [[nodiscard]] std::shared_ptr<detail::AcquireState> takeStateLocked();

  /// The acquire core shared by both acquireAsync overloads: `fill`
  /// populates state->files (by move or by copy into reused storage).
  template <typename FillFn>
  [[nodiscard]] AcquireHandle startAcquire(FillFn&& fill);

  [[nodiscard]] std::vector<AsyncOp>::iterator findAsyncOp(std::uint64_t id);

  /// Marks a state terminal, wakes waiters, collects continuations.
  void completeLocked(const std::shared_ptr<detail::AcquireState>& state,
                      Fired& fired);

  /// Fails a state with `st` and completes it: unresolved files take the
  /// error (resolved files keep their outcome), pending files are
  /// dropped. No-op on already-terminal states. Lock held.
  void failStateLocked(const std::shared_ptr<detail::AcquireState>& state,
                       const Status& st, Fired& fired);

  /// Fails every un-acked async op (rebind failure, shutdown).
  void failAsyncOps(const Status& st);

  /// THE failure routine for a lost link (`lost`; nullptr = every link):
  /// fails what registered on it — acked acquires still owed files, and
  /// in-flight sync calls (each handed a synthetic kError reply instead
  /// of sitting out the call timeout) — with `down`. Un-acked async ops
  /// on it fail too, unless `resendable`: then they stay alive for the
  /// caller to resend. Lock held.
  void failLinkLocked(const msg::Transport* lost, const Status& down,
                      bool resendable, Fired& fired);

  /// Bounds the ack phase by the protocol call timeout, failing the op
  /// like a sync call would if the DV never answers. Returns false on
  /// timeout. Lock held (via `lock`).
  bool awaitAckLocked(std::unique_lock<std::mutex>& lock,
                      const std::shared_ptr<detail::AcquireState>& state,
                      Fired& fired);

  /// Queues an async-op redirect for the recovery thread. Lock held.
  void queueRedirectLocked(const std::string& target);
  void recoveryLoop();

  /// Lazily starts the recovery thread and wakes it. Lock held.
  void wakeRecoveryLocked();

  /// Schedules an idempotent resend of op `opId` (same requestId; the
  /// daemon's dedup window absorbs duplicate deliveries) after
  /// `delayNs`. Lock held.
  void queueRetryLocked(std::uint64_t opId, VDuration delayNs);

  /// Marks the live transport lost and hands re-dialing to the recovery
  /// thread (router sessions). Lock held.
  void queueReconnectLocked();

  /// Resends the batch request of a still-live async op on the current
  /// transport (recovery thread).
  void resendOp(std::uint64_t opId);

  /// Jittered exponential backoff for attempt N (1-based), seeded from
  /// `hint` (the DV's estimated wait when known, the base otherwise).
  [[nodiscard]] VDuration retryBackoffNs(int attempt, VDuration hint);

  [[nodiscard]] Status handleWait(
      const std::shared_ptr<detail::AcquireState>& state, SimfsStatus* status,
      VDuration timeoutNs);
  /// Cancels the whole acquire: ONE fire-and-forget kReleaseReq carries
  /// every file it registered. Idempotent.
  [[nodiscard]] Status handleCancel(
      const std::shared_ptr<detail::AcquireState>& state);

  // --- read-replica spread ----------------------------------------------------

  /// A read-only link to one of the context's lease replicas: helloed
  /// with kHelloCapReplica, so the daemon serves leased resident steps
  /// locally and answers kNotLeased for anything else. The spread sends
  /// it only batches this session has seen resident (seenResident_).
  struct ReplicaLink {
    std::string nodeId;
    std::string endpoint;
    std::shared_ptr<msg::Transport> transport;
    bool dead = false;
    [[nodiscard]] bool live() const {
      return !dead && transport && transport->isOpen();
    }
  };

  /// A replica answered kNotLeased (its lease no longer covers the
  /// batch): the recovery thread unwinds the partial registration on the
  /// replica and resends the op on the owner.
  struct ReplicaFallback {
    std::uint64_t opId = 0;
    std::shared_ptr<msg::Transport> replica;
  };

  /// Picks the transport for a new batch of `files`: the owner, unless
  /// replica links are live and this session has seen every file of the
  /// batch resident — then a uniform draw over the owner and the live
  /// replicas. A replica serves only leased resident steps, so a cold
  /// batch sent there would bounce back (kNotLeased) and the owner's
  /// prefetch agent would lose sight of the access; cold batches stay on
  /// the owner, and the kNotLeased fallback is left for stale hints
  /// (evicted or revoked steps). Lock held.
  [[nodiscard]] std::shared_ptr<msg::Transport> pickTransportLocked(
      const std::vector<std::string>& files);

  /// Records `file` as seen resident (no-op until the table exists).
  /// Lock held.
  void noteResidentLocked(std::string_view file);
  [[nodiscard]] bool seenResidentLocked(std::string_view file) const;

  /// Dials + replica-hellos every replica of context_ (recovery thread;
  /// no session lock across the blocking dial/hello).
  void setupReplicaLinks();

  /// Index into replicaLinks_ of the link owning `t`, -1 if none. Lock
  /// held.
  [[nodiscard]] int replicaIndexOfLocked(const msg::Transport* t) const;

  std::vector<ReplicaLink> replicaLinks_;   ///< guarded by mutex_
  bool replicaSetupPending_ = false;  ///< recovery thread owes a setup pass
  bool replicaSetupDone_ = false;     ///< links established (or attempted)
  /// FNV-1a hashes of the names this session has seen resident: a batch
  /// ack (from any endpoint) reported the file available, or an OK
  /// kFileReady retired it. A fixed 4-way set-associative table (a full
  /// set drops its oldest name), allocated once when the first replica
  /// link comes up: sessions without replicas never pay for it, and the
  /// acquire path never allocates. A stale entry costs one kNotLeased
  /// round trip, never a wrong answer.
  std::vector<std::uint64_t> seenResident_;
  std::deque<ReplicaFallback> fallbacks_;  ///< kNotLeased retargets
  /// Per-file step references registered at a REPLICA (one entry per
  /// successful replica-served acquire): release() must unwind them on
  /// the node that holds them — the owner never heard of the open.
  std::map<std::string, std::vector<std::shared_ptr<msg::Transport>>,
           std::less<>>
      replicaRefs_;

  std::shared_ptr<msg::Transport> transport_;  ///< swap guarded by mutex_
  /// Transports replaced by rebind(), already close()d; kept until the
  /// destructor so in-flight reactor callbacks never outlive their target.
  std::vector<std::shared_ptr<msg::Transport>> retired_;
  std::shared_ptr<NodeRouter> router_;  ///< null for single-transport sessions
  std::string context_;
  ClientId clientId_ = 0;
  /// Negotiated wire protocol version (updated on every successful hello,
  /// including rebinds — a mixed-version ring may answer differently per
  /// node). Atomic: read from any thread, written under rebind.
  std::atomic<std::int64_t> protocolVersion_{1};

  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, msg::Message> replies_;  ///< sync calls, by id
  /// Sync calls awaiting a reply, tagged with the transport they went out
  /// on, so rebind() can fail the ones whose connection it closes.
  std::map<std::uint64_t, const msg::Transport*> inflight_;
  std::vector<AsyncOp> asyncOps_;  ///< async ops awaiting ack
  /// Acquire states not yet terminal (kFileReady fan-out targets).
  std::vector<std::shared_ptr<detail::AcquireState>> active_;
  /// Recycled AcquireStates: an entry whose use_count() is 1 (pool-only)
  /// has no live handle/op and can be reused, vectors and string
  /// capacities intact — the steady-state acquire allocates nothing.
  std::vector<std::shared_ptr<detail::AcquireState>> statePool_;
  bool finalized_ = false;

  /// Redirect recovery for async ops: rebinds must dial + block for a
  /// hello, which the reactor callback may not do — they are handed to
  /// this lazily-started thread instead. The same thread runs shed-retry
  /// resends and transport-loss reconnects.
  std::thread recovery_;
  std::deque<std::string> redirectTargets_;
  bool recoveryStop_ = false;

  // Failure-domain state (guarded by mutex_).
  VDuration opDeadlineNs_ = 0;      ///< batch deadline budget (0 = none)
  int retryBudget_ = 3;             ///< transient-failure resend bound
  VDuration retryBaseNs_ = 10'000'000;  ///< first backoff interval
  VDuration callTimeoutNs_ = 0;     ///< sync-call / ack protocol timeout
  /// Deterministic draw stream: backoff jitter and the replica spread.
  std::uint64_t retrySalt_ = 0x9e3779b97f4a7c15ULL;
  struct PendingRetry {
    std::uint64_t opId = 0;
    VTime due = 0;  ///< steady-clock ns
  };
  std::deque<PendingRetry> retries_;
  bool reconnectPending_ = false;
  int reconnectAttempts_ = 0;
};

}  // namespace simfs::dvlib
