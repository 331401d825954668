// dv::Daemon — the live deployment wrapper around the DV core (the
// "daemon process" of Sec. III), restructured as a sharded, batched
// serving pipeline:
//
//   transports (epoll reactor / in-proc) ──► dispatch (thread of arrival)
//        │   zero-copy: inbound frames arrive as msg::MessageView over the
//        │   receive buffer; route by context / client id / job id — no
//        │   global lock
//        ▼
//   per-shard MPSC request queues  (client requests and simulator events
//        │   unified as DaemonRequest; client messages are bump-copied
//        │   into the shard's arena, which is reset after each batch
//        │   drain — steady-state queueing never touches the heap)
//        ▼
//   worker pool: each worker drains whole batches from its shards — one
//        │       shard-lock acquisition and one reply/notification flush
//        ▼       amortized over the batch
//   DvShard state machines (ShardedVirtualizer)
//        │
//        ▼
//   buffered replies + kFileReady notifications, sent after the shard
//   lock drops (the reactor coalesces them into writev batches)
//
// Contexts are pinned to shards, so traffic for different contexts never
// contends; per-context request order is preserved because exactly one
// worker drains any given shard's queue. Aggregate introspection
// (kStatusReq, stats()) and per-shard counters (kShardStatsReq) are
// answered on the dispatching thread without touching the queues.
// Federation (src/cluster): a daemon can be given a node identity and a
// consistent-hash Ring. The ring picks the owning node for a context, the
// shard lattice picks the shard within it — one placement function, two
// levels. A kHello for a context owned by a peer is answered with
// kRedirect (the routing-aware DVLib client re-dials the owner);
// context-tagged fire-and-forget simulator events are transparently
// forwarded over a lazily-dialed peer transport instead, because no
// reply needs to find its way back (single-hop: Message::hops bounds
// relaying even if ring tables disagree). A one-node ring never
// redirects nor forwards — the single-node deployment is byte-identical
// to the pre-federation daemon.
#pragma once

#include "cluster/ring.hpp"
#include "common/clock.hpp"
#include "dv/autotuner.hpp"
#include "dv/sharded_virtualizer.hpp"
#include "msg/transport.hpp"

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace simfs::dv {

/// Thread-safe, transport-facing DV daemon.
class Daemon {
 public:
  struct Options {
    /// Independently-lockable DV shards; contexts round-robin onto them.
    std::size_t shards = 8;
    /// Worker threads draining the shard queues (clamped to [1, shards]).
    std::size_t workers = 4;
    /// Per-shard queue bound: client requests arriving while a shard
    /// already holds this many are shed with kUnavailable instead of
    /// growing the queue without limit. 0 = take SIMFS_SHARD_QUEUE_CAP
    /// from the environment (default 4096; <= 0 there means unbounded).
    std::size_t queueCap = 0;
    /// Federation identity: this daemon's id in `ring`. Empty = not
    /// federated (every context is served locally, the pre-federation
    /// behavior).
    std::string nodeId;
    /// Cluster membership; consulted only when nodeId is non-empty.
    cluster::Ring ring;
    /// Read-replica count R: the owner of a context pushes resident-step
    /// leases to the next R distinct ring successors, which then serve
    /// leased kOpenBatchReq traffic locally. -1 = take SIMFS_REPLICAS
    /// from the environment (default 0 = replicas disabled). Clamped to
    /// ring size - 1; forced to 0 on non-federated daemons.
    int replicas = -1;
  };

  /// Per-shard serving counters (also exposed over the wire via
  /// msg::MsgType::kShardStatsReq and `simfsctl stats`).
  struct ShardCounters {
    std::size_t shard = 0;
    std::vector<std::string> contexts;
    std::uint64_t enqueued = 0;   ///< requests/events ever queued
    std::uint64_t served = 0;     ///< requests/events processed
    std::uint64_t batches = 0;    ///< queue drains (lock acquisitions)
    std::uint64_t maxBatch = 0;   ///< largest single drain
    std::uint64_t shed = 0;       ///< requests rejected by the queue cap
    std::size_t queued = 0;       ///< currently waiting in the queue
    std::size_t residentSteps = 0;
    /// TuneWindow feed for CacheAutotuner (cumulative; diff two samples
    /// for a window): DV opens, misses, and re-simulated output steps.
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t resimSteps = 0;
    /// Replica-lease serving counters (0 when replicas are disabled).
    std::uint64_t replicaHits = 0;  ///< opens served locally off a lease
    std::uint64_t notLeased = 0;    ///< opens bounced back to the owner
    std::size_t leasedSteps = 0;    ///< steps currently leased in
    /// Per-context lease detail (contexts with lease activity only).
    std::vector<std::pair<std::string, LeaseView>> leases;
  };

  /// Node-level federation counters.
  struct FederationCounters {
    std::uint64_t redirects = 0;     ///< kRedirect replies sent
    std::uint64_t forwarded = 0;     ///< fire-and-forget messages relayed
    std::uint64_t forwardDrops = 0;  ///< relays lost (peer unreachable)
    std::uint64_t pingsSent = 0;     ///< peer heartbeats sent
    std::uint64_t pongsReceived = 0; ///< peer heartbeats answered
    std::uint64_t peersSuspect = 0;  ///< peers currently missing pongs
    std::uint64_t peersDead = 0;     ///< peers currently declared dead
    std::uint64_t leaseGrantsSent = 0;    ///< kLeaseGrant messages pushed
    std::uint64_t leaseRevokesSent = 0;   ///< kLeaseRevoke messages pushed
    std::uint64_t leaseAcksReceived = 0;  ///< kLeaseAck consumed on peer links
    std::uint64_t contextsRevoking = 0;   ///< contexts with un-acked revokes
    /// Elastic-membership handoff progress (old-owner side).
    std::uint64_t handoffsInflight = 0;   ///< transfers queued / streaming
    std::uint64_t handoffsCommitted = 0;  ///< transfers acked by the new owner
    std::uint64_t handoffsAborted = 0;    ///< transfers timed out / faulted
  };

  Daemon() : Daemon(Options{}) {}
  explicit Daemon(const Options& options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // --- setup (before serving) -------------------------------------------------

  /// Registers a context on the core (round-robin shard assignment).
  Status registerContext(std::unique_ptr<simmodel::SimulationDriver> driver);

  /// Wires the launcher (e.g. ThreadedSimulatorFleet). launch()/kill() are
  /// invoked on worker threads with the owning shard's lock held.
  void setLauncher(SimLauncher* launcher);

  /// Optional eviction sink (unlink files from the real store). Invoked on
  /// worker threads with the owning shard's lock held; must be thread-safe.
  void setEvictFn(DvShard::EvictFn fn);

  /// Seeds an available step (initial simulation output).
  Status seedAvailableStep(const std::string& context, StepIndex step);

  /// Installs reference checksums for SIMFS_Bitrep.
  Status setChecksumMap(const std::string& context, simmodel::ChecksumMap map);

  // --- serving ------------------------------------------------------------------

  /// Attaches a client connection; the daemon handles its protocol until
  /// the transport closes.
  void serveTransport(std::unique_ptr<msg::Transport> transport);

  /// Convenience: creates an in-process pair, serves one end, returns the
  /// other for a DVLib client living in this process.
  [[nodiscard]] std::unique_ptr<msg::Transport> connectInProc();

  /// Binds a Unix-domain socket and serves every connection.
  Status listen(const std::string& socketPath);

  /// Stops the socket server and the worker pool (already-queued requests
  /// are drained first; in-proc setup calls keep working).
  void stop();

  /// Graceful shutdown (SIGTERM): stops accepting new connections, waits
  /// (bounded by SIMFS_DRAIN_MS, default 2000) for the shard queues to
  /// empty so in-flight replies flush, then stop()s. Safe to call from a
  /// signal-forwarding thread.
  void drain();

  // --- simulator events (called by launcher implementations) ---------------------

  void simulationStarted(SimJobId job);
  void simulationFileWritten(SimJobId job, const std::string& file);
  void simulationFinished(SimJobId job, const Status& status);

  // --- inspection -----------------------------------------------------------------

  [[nodiscard]] DvStats stats() const;
  [[nodiscard]] bool isAvailable(const std::string& context, StepIndex step) const;
  [[nodiscard]] std::size_t shardCount() const noexcept {
    return core_.numShards();
  }
  [[nodiscard]] std::vector<ShardCounters> shardCounters() const;
  [[nodiscard]] FederationCounters federationCounters() const;
  [[nodiscard]] const std::string& nodeId() const noexcept { return nodeId_; }
  /// Snapshot of the current (possibly elastically re-committed) ring.
  [[nodiscard]] cluster::Ring ring() const {
    std::lock_guard lock(ringMutex_);
    return *ring_;
  }
  [[nodiscard]] std::size_t queueCap() const noexcept { return queueCap_; }
  /// Effective read-replica count R (0 = replica serving disabled).
  /// Re-clamped on every committed membership change.
  [[nodiscard]] std::size_t replicas() const noexcept {
    return replicas_.load(std::memory_order_relaxed);
  }

  /// The autotuner observation window between two shard-counter samples
  /// (`prev` all-zero for the first window).
  [[nodiscard]] static TuneWindow tuneWindowOf(const ShardCounters& now,
                                               const ShardCounters& prev);

 private:
  struct Session;
  struct DaemonRequest;
  struct ShardServing;
  struct Worker;

  /// Routes one inbound message on the thread it arrived on: introspection
  /// is answered inline, everything else is arena-copied into its shard's
  /// queue. `m` is a zero-copy view over the transport's receive buffer —
  /// valid only for the duration of this call.
  void dispatch(const std::shared_ptr<Session>& session,
                const msg::MessageView& m);

  /// True when this daemon has a federation identity and `context` hashes
  /// to a different member of `ring` (returned via `owner`). The caller
  /// must keep the ring snapshot alive while it uses `*owner` — the
  /// pointer aims into it.
  [[nodiscard]] bool ownedElsewhere(const cluster::Ring& ring,
                                    std::string_view context,
                                    const cluster::NodeInfo** owner) const;

  /// The current ring, shared: dispatch/worker/maintenance threads read a
  /// stable snapshot while a kRingCommit swaps the holder underneath.
  [[nodiscard]] std::shared_ptr<const cluster::Ring> ringRef() const {
    std::lock_guard lock(ringMutex_);
    return ring_;
  }

  /// The replica count `ring` supports on this daemon (configured R
  /// clamped to ring size - 1; 0 when standalone or single-node).
  [[nodiscard]] std::size_t effectiveReplicas(const cluster::Ring& ring) const;

  /// Relays a fire-and-forget message to `owner` over the cached peer
  /// link. Never dials on this (dispatching / reactor) thread: with no
  /// open link the message is queued (bounded) and the maintenance thread
  /// dials under exponential backoff; messages for a dead peer inside its
  /// backoff window are dropped and counted instead of blocking.
  void forwardToPeer(const cluster::NodeInfo& owner, const msg::Message& m);

  /// Wakes the maintenance thread (pending peer dials, health checks).
  void wakeMaintenance();

  /// Background loop: peer dialing + heartbeats (federated only) and the
  /// per-shard deadline-reap tick.
  void maintenanceLoop();

  /// Dials every peer with queued forwards whose backoff window elapsed;
  /// flushes their pending messages on success.
  void dialPendingPeers();

  /// Sends one kPing per live peer link and demotes peers whose previous
  /// ping went unanswered (healthy -> suspect -> dead).
  void heartbeatPeers();

  /// Drains leaseOutbox_ on the maintenance thread: each queued grant /
  /// revoke is fanned out to the context's R ring successors over the
  /// cached peer links (forwardToPeer semantics — queued for dial when no
  /// link is open). Eviction revokes are recorded in pendingRevokes_
  /// until every replica acks.
  void flushLeaseOutbox();

  /// Peer link just (re)established: push a revoke-all + full resident
  /// grant for every locally-owned context whose replica set includes
  /// `endpoint`, so replicas that missed queued grants (drops, restarts)
  /// converge. Both messages are generation-fenced, hence idempotent.
  void resyncLeasesTo(const std::string& endpoint,
                      const std::shared_ptr<msg::Transport>& link);

  /// Peer declared dead: its un-acked revokes can never complete; stop
  /// flagging their contexts as "revoking" (the peer's leases die with it).
  void clearPendingRevokes(const std::string& endpoint);

  /// True when this node is one of the R ring successors for `context`.
  [[nodiscard]] bool isReplicaFor(std::string_view context) const;

  /// True when this node currently holds a non-empty replica lease for
  /// `context` (takes the owning shard's lock briefly).
  [[nodiscard]] bool hasActiveLease(const std::string& context) const;

  /// Applies an inbound kLeaseGrant / kLeaseRevoke under the owning
  /// shard's lock and acks with kLeaseAck (intArg echoes the generation,
  /// intArg2=1 marks a revoke ack). Runs inline on the dispatch thread —
  /// lease traffic is rare relative to serving traffic.
  void handleLeaseOp(const std::shared_ptr<Session>& session,
                     const msg::MessageView& m);

  // --- elastic membership (kRingPropose / kRingCommit / kContextHandoff) -----

  /// Stages a proposed membership change: validates the version bump,
  /// computes the handoff work list against the current ring, queues
  /// outbound transfers for the contexts this node loses, and (hops == 0)
  /// relays the proposal to every member of old-union-new. Inline on the
  /// dispatch thread — admin-frequency traffic.
  void handleRingPropose(const std::shared_ptr<Session>& session,
                         const msg::MessageView& m);

  /// Commits a membership change: swaps the ring holder, re-clamps the
  /// replica count, applies epoch-matching staged imports (ring first, so
  /// lease grants emitted by the imports already see this node as owner),
  /// settles outbound transfers, and relays (hops == 0).
  void handleRingCommit(const std::shared_ptr<Session>& session,
                        const msg::MessageView& m);

  /// Applies one inbound handoff frame under the epoch fence:
  /// epoch < committed ring version -> rejected (stale sender);
  /// epoch == current -> applied immediately (post-commit delta);
  /// epoch > current -> staged until the matching kRingCommit.
  void handleContextHandoff(const std::shared_ptr<Session>& session,
                            const msg::MessageView& m);

  /// Maintenance-thread handoff engine: exports and streams queued
  /// transfers (fault::Point::kHandoff gates each frame) and aborts
  /// transfers whose final ack missed SIMFS_HANDOFF_TIMEOUT_MS.
  void runHandoffs();

  /// Consumes a kContextHandoffAck arriving on a peer link: a final-frame
  /// ack commits the transfer, an error ack aborts it.
  void onHandoffAck(const msg::Message& reply);

  /// Transfers not yet settled (queued / streaming / awaiting ack).
  [[nodiscard]] std::size_t inflightHandoffs() const;

  [[nodiscard]] msg::Message buildRedirect(std::uint64_t requestId,
                                           std::string_view context,
                                           const cluster::NodeInfo& owner,
                                           const cluster::Ring& ring) const;
  /// Arena-backed redirect for the worker reply path (replies are buffered
  /// under the shard lock and flushed after it drops — a direct send here
  /// would reorder against the batch's other replies).
  [[nodiscard]] msg::MessageRef buildRedirectRef(
      msg::Arena& arena, std::uint64_t requestId, std::string_view context,
      const cluster::NodeInfo& owner, const cluster::Ring& ring) const;
  [[nodiscard]] msg::Message buildRingUpdate(std::uint64_t requestId) const;

  /// Queues a non-client request (sim event, disconnect) to its shard;
  /// these are never shed.
  void enqueue(std::size_t shard, DaemonRequest&& request);
  /// Arena-copies a client message into its shard's queue. Returns false
  /// when the request was shed instead (queue at queueCap_; the
  /// kUnavailable reply has already been sent).
  bool enqueueClient(std::size_t shard, const std::shared_ptr<Session>& s,
                     const msg::MessageView& m);
  /// Post-push bookkeeping shared by the enqueue paths: counters, the
  /// stop-race drain, and the worker wakeup.
  void finishEnqueue(std::size_t shard);
  void enqueueSimEvent(DaemonRequest&& request);
  void onSessionClosed(const std::shared_ptr<Session>& session);
  void workerLoop(std::size_t workerIndex);
  bool drainShard(std::size_t shard, std::vector<DaemonRequest>& batch);
  void processOnShard(std::size_t shardIndex, DvShard& shard,
                      DaemonRequest& request);
  void processClientMessage(std::size_t shardIndex, DvShard& shard,
                            const std::shared_ptr<Session>& session,
                            const msg::MessageRef& m);
  void onNotify(ClientId client, const std::string& file, const Status& st);
  [[nodiscard]] msg::Message buildStatusReply(std::uint64_t requestId) const;
  [[nodiscard]] msg::Message buildShardStatsReply(std::uint64_t requestId) const;
  /// kGeometryAck for one context ("" = enumerate registered contexts).
  [[nodiscard]] msg::Message buildGeometryReply(std::uint64_t requestId,
                                                const std::string& context) const;

  RealClock clock_;
  ShardedVirtualizer core_;
  std::string nodeId_;
  /// Committed membership. Swapped whole (shared_ptr) by kRingCommit so
  /// every reader holds an immutable snapshot across its whole decision —
  /// an owner looked up on ring v(N) never dangles when v(N+1) lands.
  std::shared_ptr<const cluster::Ring> ring_;
  mutable std::mutex ringMutex_;
  std::size_t queueCap_ = 0;  ///< 0 = unbounded
  std::size_t replicasConfigured_ = 0;  ///< requested R before ring clamping
  std::atomic<std::size_t> replicas_{0};  ///< effective R (0 = disabled)

  /// One owner-side lease command, queued by the LeaseFn (which fires
  /// with a shard lock held) and flushed by the maintenance thread so
  /// peer sends never happen under a shard lock.
  struct LeaseCmd {
    std::string context;
    std::uint64_t generation = 0;
    std::vector<StepIndex> steps;
    bool revoke = false;
  };

  /// Peer liveness, judged by heartbeat pongs and dial outcomes.
  enum class PeerHealth { kHealthy, kSuspect, kDead };

  /// One cached daemon->daemon link plus its health state. All fields
  /// are guarded by peersMutex_; sends happen on a copied transport ref
  /// outside the lock.
  struct PeerLink {
    std::shared_ptr<msg::Transport> transport;  ///< open link, or null
    std::vector<msg::Message> pending;  ///< forwards awaiting a dial
    PeerHealth health = PeerHealth::kHealthy;
    std::uint64_t pingSeq = 0;   ///< sequence of the last ping sent
    std::uint64_t pongSeq = 0;   ///< highest sequence echoed back
    int missedPongs = 0;         ///< consecutive unanswered pings
    int dialFails = 0;           ///< consecutive failed dials
    VTime nextDialAt = 0;        ///< re-dial gate (backoff window end)
    VDuration dialBackoff = 0;   ///< current backoff interval (ns)
  };

  /// Cumulative sessions accepted by serveTransport, by transport kind
  /// (kShardStatsAck's conn_socket / conn_other).
  std::atomic<std::uint64_t> connSocket_{0};
  std::atomic<std::uint64_t> connOther_{0};  ///< inproc and friends

  std::atomic<std::uint64_t> redirects_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> forwardDrops_{0};
  std::atomic<std::uint64_t> pingsSent_{0};
  std::atomic<std::uint64_t> pongsReceived_{0};
  std::atomic<std::uint64_t> leaseGrantsSent_{0};
  std::atomic<std::uint64_t> leaseRevokesSent_{0};
  std::atomic<std::uint64_t> leaseAcksReceived_{0};
  mutable std::mutex peersMutex_;
  std::map<std::string, PeerLink> peers_;  ///< by endpoint

  /// Lease plane state. Lock order: shard lock -> leaseMutex_; never
  /// held across a send or while holding peersMutex_.
  mutable std::mutex leaseMutex_;
  std::vector<LeaseCmd> leaseOutbox_;
  /// Contexts with eviction revokes not yet acked, by replica endpoint.
  std::map<std::string, std::set<std::string>> pendingRevokes_;

  // --- elastic-membership handoff state ---------------------------------------

  /// One outbound context transfer (this node is the old owner).
  enum class HandoffPhase { kQueued, kStreaming, kAwaitingAck, kCommitted,
                            kAborted };
  struct HandoffOp {
    std::string context;
    std::string targetId;        ///< new owner's node id
    std::string targetEndpoint;  ///< new owner's transport address
    std::uint64_t epoch = 0;     ///< proposed ring version (the fence)
    HandoffPhase phase = HandoffPhase::kQueued;
    VTime deadline = 0;          ///< abort gate once streaming started
  };

  /// An inbound transfer staged until its epoch's kRingCommit arrives
  /// (this node is the new owner). Keyed by context.
  struct StagedHandoff {
    std::uint64_t epoch = 0;
    std::string from;            ///< old owner's node id
    std::uint64_t leaseGen = 0;  ///< old owner's grant fence (final frame)
    std::vector<StepIndex> steps;
    std::vector<std::pair<StepIndex, std::uint32_t>> pendingWaiters;
    bool complete = false;       ///< final frame seen
  };

  /// Where a handed-off (or handing-off) context's new owner lives:
  /// production on this node after the snapshot export is forwarded there
  /// as epoch-tagged kContextHandoff delta frames.
  struct HandoffTarget {
    std::string id;
    std::string endpoint;
    std::uint64_t epoch = 0;
  };

  /// One queued delta frame (post-export step production).
  struct HandoffDelta {
    std::string context;
    std::string targetId;
    std::string targetEndpoint;
    std::uint64_t epoch = 0;
    std::vector<StepIndex> steps;
  };

  /// A staged membership change between kRingPropose and kRingCommit.
  struct PendingTransition {
    std::uint64_t version = 0;
    cluster::Ring ring;               ///< proposed successor table
    std::vector<std::string> moved;   ///< contexts changing owner
  };

  /// Guards everything below. Lock order: shard lock -> handoffMutex_
  /// (the LeaseFn fires under a shard lock); never hold handoffMutex_
  /// while taking a shard lock or across a send.
  mutable std::mutex handoffMutex_;
  std::vector<HandoffOp> handoffs_;
  std::map<std::string, StagedHandoff> stagedHandoffs_;
  std::map<std::string, HandoffTarget> handedOffTo_;
  std::vector<HandoffDelta> handoffDeltas_;
  std::unique_ptr<PendingTransition> pendingTransition_;
  std::atomic<std::uint64_t> handoffsCommitted_{0};
  std::atomic<std::uint64_t> handoffsAborted_{0};
  /// Sticky: a membership change has ever been proposed or committed
  /// here. Gates the per-op moved-context checks out of the pre-elastic
  /// hot path entirely.
  std::atomic<bool> membershipChanged_{false};
  VDuration handoffTimeoutNs_ = 0;  ///< SIMFS_HANDOFF_TIMEOUT_MS
  std::size_t handoffBatch_ = 0;    ///< SIMFS_HANDOFF_BATCH steps per frame

  std::vector<std::unique_ptr<ShardServing>> serving_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  bool workersJoined_ = false;
  std::mutex stopMutex_;

  std::mutex sessionsMutex_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::unique_ptr<msg::UnixSocketServer> server_;

  // Maintenance thread: deadline-reap ticks (always) plus peer dialing
  // and heartbeats (federated daemons).
  std::mutex maintMutex_;
  std::condition_variable maintCv_;
  bool maintWake_ = false;
  bool maintStop_ = false;
  std::thread maintenance_;
  VDuration pingIntervalNs_ = 0;
  VDuration reapIntervalNs_ = 0;
};

}  // namespace simfs::dv
