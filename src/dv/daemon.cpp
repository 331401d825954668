#include "dv/daemon.hpp"

#include "common/env.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>

namespace simfs::dv {

namespace {
constexpr const char* kTag = "daemon";

std::int32_t codeOf(const Status& st) noexcept {
  return static_cast<std::int32_t>(st.code());
}

void atomicMax(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < value &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Ack type matching a client request, for error replies produced outside
/// the main per-type handling in processClientMessage (which additionally
/// builds the success payloads). kError for non-request types.
msg::MsgType ackTypeFor(msg::MsgType request) noexcept {
  switch (request) {
    case msg::MsgType::kHello: return msg::MsgType::kHelloAck;
    case msg::MsgType::kOpenBatchReq: return msg::MsgType::kOpenBatchAck;
    case msg::MsgType::kReleaseReq: return msg::MsgType::kReleaseAck;
    case msg::MsgType::kBitrepReq: return msg::MsgType::kBitrepAck;
    case msg::MsgType::kStatusReq: return msg::MsgType::kStatusAck;
    case msg::MsgType::kShardStatsReq: return msg::MsgType::kShardStatsAck;
    case msg::MsgType::kRingReq: return msg::MsgType::kRingUpdate;
    case msg::MsgType::kGeometryReq: return msg::MsgType::kGeometryAck;
    case msg::MsgType::kLeaseGrant:
    case msg::MsgType::kLeaseRevoke: return msg::MsgType::kLeaseAck;
    // Handled inline at dispatch (never queued, so never shed); listed so
    // generic error replies still carry the matching ack type.
    case msg::MsgType::kRingPropose: return msg::MsgType::kRingProposeAck;
    case msg::MsgType::kRingCommit: return msg::MsgType::kRingCommitAck;
    case msg::MsgType::kContextHandoff:
      return msg::MsgType::kContextHandoffAck;
    default: return msg::MsgType::kError;
  }
}

/// The protocol version a kHello advertising kHelloCapVersion gets:
/// ints = [min, max] the client speaks (one element v means [v, v]; none
/// means a version-1-only client), answered with the top of the overlap
/// with this build's range. 0 when the ranges do not overlap. Simulator
/// and analysis hellos share it, so the same offer gets the same answer.
std::int64_t negotiateVersion(std::span<const std::int64_t> ints) noexcept {
  const std::int64_t theirMin = ints.empty() ? 1 : ints[0];
  const std::int64_t theirMax = ints.size() > 1 ? ints[1] : theirMin;
  const std::int64_t chosen =
      std::min<std::int64_t>(msg::kProtocolVersionMax, theirMax);
  return chosen < std::max<std::int64_t>(msg::kProtocolVersionMin, theirMin)
             ? 0
             : chosen;
}

/// Effective read-replica count R: Options wins when >= 0, otherwise the
/// SIMFS_REPLICAS environment knob (absent / <= 0 means disabled).
std::size_t resolveReplicas(int fromOptions) {
  const std::int64_t v = fromOptions >= 0
                             ? fromOptions
                             : env::getInt("SIMFS_REPLICAS").value_or(0);
  return v <= 0 ? 0 : static_cast<std::size_t>(v);
}

std::size_t resolveQueueCap(std::size_t fromOptions) {
  if (fromOptions != 0) return fromOptions;
  constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
  if (const auto v = env::getInt("SIMFS_SHARD_QUEUE_CAP")) {
    return *v <= 0 ? kUnbounded : static_cast<std::size_t>(*v);
  }
  return 4096;  // generous: backstop against runaway producers, not a tuning knob
}

/// Environment interval knob in milliseconds, converted to VTime ns.
VDuration intervalKnobNs(const char* name, std::int64_t defaultMs) {
  const auto ms = env::getInt(name).value_or(defaultMs);
  return ms <= 0 ? 0 : static_cast<VDuration>(ms) * 1'000'000;
}

/// Forwards for a peer with no open link queue up to this many messages
/// while the maintenance thread dials; overflow is dropped and counted.
constexpr std::size_t kPeerPendingCap = 64;

/// Peer dial backoff: first retry after 100ms, doubling to a 5s cap.
constexpr VDuration kDialBackoffInitial = 100'000'000;
constexpr VDuration kDialBackoffCap = 5'000'000'000;

/// Consecutive failed dials (or unanswered pings) before a peer is
/// declared dead and its queued forwards are dropped.
constexpr int kDialFailsToDead = 3;
constexpr int kMissedPongsToDead = 3;
}  // namespace

/// One connected DVLib endpoint (analysis or simulator).
struct Daemon::Session {
  std::unique_ptr<msg::Transport> transport;
  std::atomic<ClientId> client{0};   ///< 0 until kHello completes (analysis)
  std::atomic<int> shard{-1};        ///< bound by kHello (context's shard)
  std::atomic<bool> defunct{false};  ///< transport closed
  /// Context this session bound to, for the per-op moved-context check
  /// after an elastic ring change. Written and read only by the single
  /// worker draining the bound shard.
  std::string context;
  /// Serving a peer-owned context off a local read lease (set at dispatch
  /// before the hello is queued; read by the worker's kHello handler).
  std::atomic<bool> replica{false};

  /// Recently-answered kOpenBatchReq acks, by requestId: a client that
  /// resends a batch under the same id (per-op timeout retry, rebind
  /// resend racing the old delivery) gets the cached ack replayed
  /// instead of double-registering interest — the dedup window that
  /// makes idempotent resend safe. Touched only by the single worker
  /// draining this session's bound shard, so no lock is needed; slots
  /// are reused in a ring, so steady-state caching reuses capacity.
  struct CachedAck {
    std::uint64_t requestId = 0;
    msg::Message ack;
  };
  std::array<CachedAck, 4> recentAcks;
  std::size_t recentAckNext = 0;
};

/// Client requests and simulator events, unified: everything a shard
/// consumes flows through one queue in arrival order. Client messages are
/// MessageRefs whose storage lives in the shard's arena (the transport's
/// receive buffer dies with the dispatch callback), valid until the batch
/// that carries them has been processed and its arena reset.
struct Daemon::DaemonRequest {
  enum class Kind {
    kClientMessage,   ///< protocol message from a session
    kDisconnect,      ///< session's transport closed
    kSimStarted,      ///< launcher: job left the batch queue
    kSimFileWritten,  ///< launcher: output step on disk
    kSimFinished,     ///< launcher: job completed/failed
    kReapExpired,     ///< maintenance tick: drop deadline-expired waiters
  };
  Kind kind = Kind::kClientMessage;
  std::shared_ptr<Session> session;  ///< kClientMessage / kDisconnect
  msg::MessageRef msg;               ///< kClientMessage (arena-backed)
  SimJobId job = 0;                  ///< kSim*
  std::string file;                  ///< kSimFileWritten
  Status status;                     ///< kSimFinished
};

/// Per-shard serving state around the DvShard itself.
struct Daemon::ShardServing {
  mutable std::mutex qMutex;
  std::vector<DaemonRequest> queue;
  /// Request/reply storage, double-buffered: dispatchers bump-copy into
  /// arenas[activeArena] under qMutex while the worker's in-flight batch
  /// (and the replies built from it) still reference the other arena.
  /// drainShard flips the index when it steals the queue and resets the
  /// drained arena after the reply flush — so arena memory is stable for
  /// exactly as long as anything points into it, and a warm drain cycle
  /// performs zero heap allocations.
  msg::Arena arenas[2];
  int activeArena = 0;  ///< guarded by qMutex

  // Touched only by the one worker that drains this shard (plus readers
  // of the counters): no locks needed beyond the queue mutex above.
  msg::Arena* replyArena = nullptr;  ///< arena of the batch being processed
  std::map<ClientId, std::shared_ptr<Session>> byClient;
  std::vector<std::pair<std::shared_ptr<Session>, msg::MessageRef>> out;

  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> maxBatch{0};
  std::atomic<std::uint64_t> shed{0};
};

struct Daemon::Worker {
  std::mutex mutex;
  std::condition_variable cv;
  bool wake = false;
  std::thread thread;
};

Daemon::Daemon(const Options& options)
    : core_(clock_, std::max<std::size_t>(1, options.shards)),
      nodeId_(options.nodeId),
      ring_(std::make_shared<const cluster::Ring>(options.ring)),
      queueCap_(resolveQueueCap(options.queueCap)) {
  if (!nodeId_.empty() && ring_->find(nodeId_) == nullptr) {
    // Drop the ring too: keeping it would advertise (kRingReq, redirects)
    // a placement this daemon does not enforce — clients would route
    // contexts to "owners" while this node serves everything locally.
    SIMFS_LOG_WARN(kTag, "node id not in ring; serving standalone");
    nodeId_.clear();
    ring_ = std::make_shared<const cluster::Ring>();
  }
  replicasConfigured_ = resolveReplicas(options.replicas);
  replicas_.store(effectiveReplicas(*ring_), std::memory_order_relaxed);
  core_.setNotifyFn([this](ClientId c, const std::string& f, const Status& s) {
    onNotify(c, f, s);
  });
  if (!nodeId_.empty()) {
    // Owner-side lease emission, installed on EVERY federated daemon even
    // when R == 0 today: a committed membership change can raise the
    // effective R (a 1-node ring growing), and the same callback feeds
    // the handoff delta plane. The callback fires with a shard lock held
    // (revokes strictly BEFORE the eviction mutates the step), so it only
    // queues and wakes — the maintenance thread does the peer sends.
    core_.setLeaseFn([this](const std::string& ctx, std::uint64_t gen,
                            const std::vector<StepIndex>& steps, bool revoke) {
      if (membershipChanged_.load(std::memory_order_relaxed)) {
        // Production on a context whose snapshot already streamed out is
        // forwarded to its new owner as an epoch-tagged delta frame, so
        // steps landing between export and drain-out are never lost.
        std::lock_guard lock(handoffMutex_);
        const auto it = handedOffTo_.find(ctx);
        if (it != handedOffTo_.end()) {
          if (!revoke && !steps.empty()) {
            handoffDeltas_.push_back(HandoffDelta{
                ctx, it->second.id, it->second.endpoint, it->second.epoch,
                steps});
            wakeMaintenance();
          }
          return;  // handed off: no replica lease traffic for it anymore
        }
      }
      if (replicas_.load(std::memory_order_relaxed) == 0) return;
      const auto ring = ringRef();
      const cluster::NodeInfo* owner = nullptr;
      if (ownedElsewhere(*ring, ctx, &owner)) return;  // replica-side change
      {
        std::lock_guard lock(leaseMutex_);
        leaseOutbox_.push_back(LeaseCmd{ctx, gen, steps, revoke});
      }
      wakeMaintenance();
    });
  }
  serving_.reserve(core_.numShards());
  for (std::size_t i = 0; i < core_.numShards(); ++i) {
    serving_.push_back(std::make_unique<ShardServing>());
  }
  const std::size_t nWorkers =
      std::clamp<std::size_t>(options.workers, 1, core_.numShards());
  workers_.reserve(nWorkers);
  for (std::size_t w = 0; w < nWorkers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t w = 0; w < nWorkers; ++w) {
    workers_[w]->thread = std::thread([this, w] { workerLoop(w); });
  }
  pingIntervalNs_ = intervalKnobNs("SIMFS_PEER_PING_MS", 500);
  reapIntervalNs_ = intervalKnobNs("SIMFS_DV_REAP_MS", 1000);
  handoffTimeoutNs_ = intervalKnobNs("SIMFS_HANDOFF_TIMEOUT_MS", 5000);
  handoffBatch_ = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env::getInt("SIMFS_HANDOFF_BATCH").value_or(256)));
  maintenance_ = std::thread([this] { maintenanceLoop(); });
  if (fault::active()) {
    SIMFS_LOG_WARN(kTag, "fault injection active: %s",
                   fault::describe().c_str());
  }
}

Daemon::~Daemon() {
  stop();
  // Tear every transport down (reactor deregistration is synchronous)
  // before the members the handlers capture go away.
  std::lock_guard lock(sessionsMutex_);
  sessions_.clear();
}

Status Daemon::registerContext(
    std::unique_ptr<simmodel::SimulationDriver> driver) {
  return core_.registerContext(std::move(driver));
}

void Daemon::setLauncher(SimLauncher* launcher) { core_.setLauncher(launcher); }

void Daemon::setEvictFn(DvShard::EvictFn fn) { core_.setEvictFn(std::move(fn)); }

Status Daemon::seedAvailableStep(const std::string& context, StepIndex step) {
  return core_.seedAvailableStep(context, step);
}

Status Daemon::setChecksumMap(const std::string& context,
                              simmodel::ChecksumMap map) {
  return core_.setChecksumMap(context, std::move(map));
}

void Daemon::serveTransport(std::unique_ptr<msg::Transport> transport) {
  (transport->kindName() == "socket" ? connSocket_ : connOther_)
      .fetch_add(1, std::memory_order_relaxed);
  auto session = std::make_shared<Session>();
  session->transport = std::move(transport);
  {
    std::lock_guard lock(sessionsMutex_);
    // Reap sessions that disconnected and are referenced by nobody else
    // (no queued request, no in-flight batch).
    std::erase_if(sessions_, [](const std::shared_ptr<Session>& s) {
      return s->defunct.load() && !s->transport->isOpen() &&
             s.use_count() == 1;
    });
    sessions_.push_back(session);
  }
  std::weak_ptr<Session> weak = session;
  session->transport->setCloseHandler([this, weak] {
    if (auto s = weak.lock()) onSessionClosed(s);
  });
  // Installed last: frames that raced in before this are buffered by the
  // transport and replayed here. The view is only valid inside dispatch —
  // anything queued is arena-copied there.
  session->transport->setViewHandler([this, weak](const msg::MessageView& m) {
    if (auto s = weak.lock()) dispatch(s, m);
  });
}

std::unique_ptr<msg::Transport> Daemon::connectInProc() {
  auto [serverEnd, clientEnd] = msg::makeInProcPair();
  serveTransport(std::move(serverEnd));
  return std::move(clientEnd);
}

Status Daemon::listen(const std::string& socketPath) {
  server_ = std::make_unique<msg::UnixSocketServer>(socketPath);
  return server_->start([this](std::unique_ptr<msg::Transport> conn) {
    serveTransport(std::move(conn));
  });
}

void Daemon::stop() {
  if (server_) server_->stop();
  {
    // Stop the maintenance thread before the workers: a reap tick
    // enqueued mid-join would only bounce off the stopping_ re-check,
    // but joining here makes the shutdown order obvious.
    std::lock_guard lock(maintMutex_);
    maintStop_ = true;
    maintWake_ = true;
  }
  maintCv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  {
    // Close peer links next: forwards racing the shutdown fail soft
    // (counted as drops) instead of dialing a dying cluster.
    std::lock_guard lock(peersMutex_);
    for (auto& [endpoint, link] : peers_) {
      if (link.transport) link.transport->close();
      forwardDrops_.fetch_add(link.pending.size(), std::memory_order_relaxed);
      link.pending.clear();
    }
  }
  std::lock_guard stopLock(stopMutex_);
  if (workersJoined_) return;
  stopping_.store(true);
  for (auto& w : workers_) {
    {
      std::lock_guard lock(w->mutex);
      w->wake = true;
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Sweep requests that raced past the workers' final pass so no client
  // is left waiting for a reply that never comes; enqueue()'s post-push
  // stopping_ re-check (under stopMutex_) covers everything later.
  std::vector<DaemonRequest> batch;
  for (std::size_t s = 0; s < serving_.size(); ++s) (void)drainShard(s, batch);
  workersJoined_ = true;
}

void Daemon::drain() {
  if (server_) server_->stop();  // no new connections
  const VDuration budget = intervalKnobNs("SIMFS_DRAIN_MS", 2000);
  const VTime deadline = clock_.now() + budget;
  for (;;) {
    bool empty = true;
    for (const auto& sv : serving_) {
      std::lock_guard lock(sv->qMutex);
      if (!sv->queue.empty()) {
        empty = false;
        break;
      }
    }
    if (empty || clock_.now() >= deadline || stopping_.load()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop();
}

void Daemon::onSessionClosed(const std::shared_ptr<Session>& session) {
  // Dekker pairing with the worker's kHello handler: we store defunct
  // BEFORE loading client, the worker stores client BEFORE loading
  // defunct (both seq_cst). Whatever the interleaving, at least one side
  // observes the other, so the shard client is disconnected either by
  // the kDisconnect below or by the worker's own unwind; both running is
  // harmless (kDisconnect finds client == 0).
  session->defunct.store(true);
  if (session->client.load() != 0 && session->shard.load() >= 0) {
    DaemonRequest req;
    req.kind = DaemonRequest::Kind::kDisconnect;
    req.session = session;
    enqueue(static_cast<std::size_t>(session->shard.load()), std::move(req));
  }
}

// ----------------------------------------------------------------- dispatch

void Daemon::dispatch(const std::shared_ptr<Session>& session,
                      const msg::MessageView& m) {
  switch (m.type()) {
    case msg::MsgType::kHello: {
      if (static_cast<msg::ClientRole>(m.intArg()) ==
          msg::ClientRole::kSimulator) {
        // Simulator sessions need no per-session state: their events
        // (kSimFileClosed/kSimFinished) route by job id; acked inline.
        msg::Message reply;
        reply.requestId = m.requestId();
        reply.type = msg::MsgType::kHelloAck;
        reply.code = codeOf(Status::ok());
        if ((m.intArg2() & msg::kHelloCapVersion) != 0) {
          std::int64_t offer[2] = {};
          std::size_t n = 0;
          for (auto it = m.intsBegin(); it != m.intsEnd() && n < 2; ++it) {
            offer[n++] = *it;
          }
          const std::int64_t chosen =
              negotiateVersion(std::span<const std::int64_t>(offer, n));
          if (chosen == 0) {
            const Status st =
                errFailedPrecondition("dv: no protocol version overlap");
            reply.code = codeOf(st);
            reply.text = st.message();
          } else {
            reply.ints.push_back(chosen);
          }
        }
        (void)session->transport->send(reply);
        return;
      }
      // Federation: a context hashed onto a peer is normally not served
      // here — the client is told who owns it (plus the full ring so it
      // can resolve everything else without more round trips) and
      // re-dials. Exception: a replica-capable client may read a
      // peer-owned context HERE when this node is one of its R ring
      // successors and holds an active lease; the session is flagged so
      // the shard serves it in replica mode (lease lookups only, misses
      // answer kNotLeased instead of re-simulating).
      const auto ringSnap = ringRef();
      const cluster::NodeInfo* owner = nullptr;
      if (ownedElsewhere(*ringSnap, m.context(), &owner)) {
        const bool replicaRead =
            replicas_.load(std::memory_order_relaxed) > 0 &&
            (m.intArg2() & msg::kHelloCapReplica) != 0 &&
            isReplicaFor(m.context()) &&
            hasActiveLease(std::string(m.context()));
        if (!replicaRead) {
          redirects_.fetch_add(1, std::memory_order_relaxed);
          (void)session->transport->send(
              buildRedirect(m.requestId(), m.context(), *owner, *ringSnap));
          return;
        }
        session->replica.store(true);
      }
      const std::string context(m.context());
      const auto idx = core_.shardOfContext(context);
      if (!idx) {
        const Status st = errNotFound("dv: no context: " + context);
        msg::Message reply;
        reply.requestId = m.requestId();
        reply.type = msg::MsgType::kHelloAck;
        reply.code = codeOf(st);
        reply.text = st.message();
        (void)session->transport->send(reply);
        return;
      }
      // Bind the shard already at dispatch time so requests pipelined
      // behind the hello (sent without waiting for kHelloAck) route to
      // the same queue and are served, in order, after it. An already
      // bound session keeps its shard — the worker rejects the re-hello
      // in order with the session's other traffic.
      const int bound = session->shard.load();
      std::size_t target = *idx;
      if (bound < 0) {
        session->shard.store(static_cast<int>(*idx));
      } else {
        target = static_cast<std::size_t>(bound);
      }
      if (bound < 0 && replicas_.load(std::memory_order_relaxed) > 0) {
        // Advertise the replica count R up front: a requestId-0
        // kRingUpdate push rides the connection FIFO ahead of the
        // worker's kHelloAck, so the client learns R (intArg2) without
        // an extra round trip or ever being redirected. R = 0 daemons
        // push nothing — the legacy hello exchange stays byte-identical.
        (void)session->transport->send(buildRingUpdate(0));
      }
      if (!enqueueClient(target, session, m) && bound < 0) {
        // Shed hello: unbind again so a client retry can rebind cleanly.
        session->shard.store(-1);
      }
      return;
    }
    // Simulator events over the wire route by job id, not by session. A
    // context-tagged event for a peer-owned context is forwarded whole:
    // job ids are issued by the owning node, so the id only means
    // something over there — and being fire-and-forget, no reply has to
    // find its way back through this node. Only never-forwarded messages
    // (hops == 0) are relayed: if ring tables ever disagree, the second
    // node processes the event locally (an unknown job id fails soft)
    // instead of ping-ponging it back forever.
    case msg::MsgType::kSimFileClosed:
    case msg::MsgType::kSimFinished: {
      const auto ringSnap = ringRef();
      const cluster::NodeInfo* owner = nullptr;
      if (m.hops() == 0 && !m.context().empty() &&
          ownedElsewhere(*ringSnap, m.context(), &owner)) {
        forwardToPeer(*owner, m.toMessage());
        return;
      }
      (void)enqueueClient(
          core_.shardOfJob(static_cast<SimJobId>(m.intArg())), session, m);
      return;
    }
    // Aggregate introspection never touches the shard queues. Tradeoff:
    // it briefly takes each shard mutex on THIS (possibly reactor)
    // thread, so a poll can wait behind one in-flight batch per shard —
    // acceptable for an operator-frequency endpoint; latency-sensitive
    // monitoring should use a dedicated in-proc connection.
    case msg::MsgType::kStatusReq: {
      (void)session->transport->send(buildStatusReply(m.requestId()));
      return;
    }
    case msg::MsgType::kShardStatsReq: {
      (void)session->transport->send(buildShardStatsReply(m.requestId()));
      return;
    }
    case msg::MsgType::kRingReq: {
      (void)session->transport->send(buildRingUpdate(m.requestId()));
      return;
    }
    // Context geometry for the POSIX frontend (listings / stat synthesis).
    // Answered inline like the other introspection: geometry is static
    // registration-time config and every federation node registers every
    // context, so the local answer is authoritative — no redirect needed.
    case msg::MsgType::kGeometryReq: {
      (void)session->transport->send(
          buildGeometryReply(m.requestId(), std::string(m.context())));
      return;
    }
    // Liveness probe (peer heartbeat or `simfsctl ping`): answered on the
    // dispatching thread — a wedged worker pool must not make the daemon
    // look dead, the probe answers what the reactor can still answer.
    case msg::MsgType::kPing: {
      msg::Message pong;
      pong.requestId = m.requestId();
      pong.type = msg::MsgType::kPong;
      pong.code = codeOf(Status::ok());
      pong.intArg = m.intArg();
      // Additive protocol-version echo: a ping advertising the sender's
      // max (intArg2 > 0) is answered with the intersection, so peers and
      // `simfsctl ring` read the negotiated version without a session.
      // Legacy pings (intArg2 == 0) get the byte-identical legacy pong.
      pong.intArg2 = m.intArg2() > 0
                         ? std::min<std::int64_t>(msg::kProtocolVersionMax,
                                                  m.intArg2())
                         : 0;
      pong.text = nodeId_;
      (void)session->transport->send(pong);
      return;
    }
    case msg::MsgType::kPong:
      return;  // stray pong on a serving session: ignore
    // Lease plane, owner -> replica. Applied inline under the owning
    // shard's lock: lease traffic runs at owner-event frequency, not
    // request frequency, and inline application keeps the revoke -> ack
    // path independent of worker queue depth (revoke-before-mutate must
    // not wait behind a deep serving queue).
    case msg::MsgType::kLeaseGrant:
    case msg::MsgType::kLeaseRevoke: {
      handleLeaseOp(session, m);
      return;
    }
    case msg::MsgType::kLeaseAck:
      return;  // owners consume acks on their peer links; stray here
    // Elastic membership: admin path and the owner-to-owner transfer
    // plane, all inline on the dispatch thread — admin/peer-frequency
    // traffic whose ordering against serving batches does not matter
    // (the epoch fence, not arrival order, decides what applies).
    case msg::MsgType::kRingPropose: {
      handleRingPropose(session, m);
      return;
    }
    case msg::MsgType::kRingCommit: {
      handleRingCommit(session, m);
      return;
    }
    case msg::MsgType::kContextHandoff: {
      handleContextHandoff(session, m);
      return;
    }
    case msg::MsgType::kContextHandoffAck:
      return;  // old owners consume these on their peer links; stray here
    default:
      break;
  }
  // Everything else needs the session's bound shard.
  const int shard = session->shard.load();
  if (shard < 0) {
    if (m.type() == msg::MsgType::kReleaseReq && m.requestId() == 0) {
      // Fire-and-forget even when unbound. Not forwarded: a release only
      // means something for the client session holding the interest,
      // and that session lives on the owner already (hello redirects
      // before any registration can exist here).
      return;
    }
    const Status st = errFailedPrecondition("dv: unknown client");
    msg::Message reply;
    reply.requestId = m.requestId();
    reply.type = ackTypeFor(m.type());
    reply.code = codeOf(st);
    reply.text = st.message();
    (void)session->transport->send(reply);
    return;
  }
  (void)enqueueClient(static_cast<std::size_t>(shard), session, m);
}

// --------------------------------------------------------------- federation

bool Daemon::ownedElsewhere(const cluster::Ring& ring,
                            std::string_view context,
                            const cluster::NodeInfo** owner) const {
  if (nodeId_.empty() || ring.size() < 2) return false;  // standalone / 1-node
  const cluster::NodeInfo& o = ring.ownerOf(context);
  if (o.id == nodeId_) return false;
  *owner = &o;
  return true;
}

std::size_t Daemon::effectiveReplicas(const cluster::Ring& ring) const {
  if (nodeId_.empty() || ring.size() < 2) return 0;  // nobody to lease to
  return std::min(replicasConfigured_, ring.size() - 1);
}

void Daemon::forwardToPeer(const cluster::NodeInfo& owner,
                           const msg::Message& m) {
  msg::Message relay = m;
  relay.hops = static_cast<std::uint16_t>(m.hops + 1);
  std::shared_ptr<msg::Transport> link;
  bool queued = false;
  bool deadInBackoff = false;
  {
    std::lock_guard lock(peersMutex_);
    PeerLink& peer = peers_[owner.endpoint];
    if (peer.transport && peer.transport->isOpen()) {
      link = peer.transport;
    } else if (peer.health == PeerHealth::kDead &&
               clock_.now() < peer.nextDialAt) {
      // Dead peer inside its backoff window: drop instead of queueing —
      // the forward is fire-and-forget, and hoarding messages for a
      // peer that keeps failing dials only delays the inevitable drop.
      deadInBackoff = true;
    } else if (peer.pending.size() >= kPeerPendingCap) {
      deadInBackoff = true;  // queue overflow: same outcome, counted drop
    } else {
      // No open link: NEVER dial here — this is a dispatching (reactor)
      // thread and a stalled peer accept loop must not serialize frame
      // delivery behind connect(). The maintenance thread dials.
      peer.pending.push_back(std::move(relay));
      queued = true;
    }
  }
  if (link) {
    if (link->send(relay).isOk()) {
      forwarded_.fetch_add(1, std::memory_order_relaxed);
    } else {
      forwardDrops_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (queued) {
    wakeMaintenance();
    return;
  }
  (void)deadInBackoff;
  forwardDrops_.fetch_add(1, std::memory_order_relaxed);
  SIMFS_LOG_WARN(kTag, "dropping forward to unreachable peer");
}

void Daemon::wakeMaintenance() {
  {
    std::lock_guard lock(maintMutex_);
    maintWake_ = true;
  }
  maintCv_.notify_one();
}

void Daemon::maintenanceLoop() {
  VTime lastPing = clock_.now();
  VTime lastReap = clock_.now();
  const bool federated = !nodeId_.empty();
  for (;;) {
    VDuration tick = reapIntervalNs_ > 0 ? reapIntervalNs_ : 1'000'000'000;
    if (federated && pingIntervalNs_ > 0) {
      tick = std::min(tick, pingIntervalNs_);
    }
    if (federated && inflightHandoffs() > 0) {
      // Transfers awaiting their final ack need deadline checks at a
      // finer grain than the heartbeat cadence.
      tick = std::min<VDuration>(tick, 50'000'000);
    }
    {
      std::unique_lock lock(maintMutex_);
      maintCv_.wait_for(lock, std::chrono::nanoseconds(tick),
                        [&] { return maintWake_; });
      if (maintStop_) return;
      maintWake_ = false;
    }
    if (federated) {
      flushLeaseOutbox();
      runHandoffs();
      dialPendingPeers();
      const VTime now = clock_.now();
      if (pingIntervalNs_ > 0 && now - lastPing >= pingIntervalNs_) {
        lastPing = now;
        heartbeatPeers();
      }
    }
    const VTime now = clock_.now();
    if (reapIntervalNs_ > 0 && now - lastReap >= reapIntervalNs_ &&
        !stopping_.load()) {
      lastReap = now;
      for (std::size_t s = 0; s < serving_.size(); ++s) {
        DaemonRequest req;
        req.kind = DaemonRequest::Kind::kReapExpired;
        enqueue(s, std::move(req));
      }
    }
  }
}

void Daemon::dialPendingPeers() {
  // Snapshot the endpoints that want a dial, then dial OUTSIDE the peers
  // mutex (connect() can block on a stalled accept loop).
  std::vector<std::string> toDial;
  {
    std::lock_guard lock(peersMutex_);
    const VTime now = clock_.now();
    for (auto& [endpoint, peer] : peers_) {
      if (peer.pending.empty()) continue;
      if (peer.transport && peer.transport->isOpen()) continue;
      if (now < peer.nextDialAt) continue;
      toDial.push_back(endpoint);
    }
  }
  for (const auto& endpoint : toDial) {
    std::shared_ptr<msg::Transport> link;
    if (!(fault::active() && fault::shouldFail(fault::Point::kPeerDial))) {
      if (auto conn = msg::unixSocketConnect(endpoint)) {
        link = std::shared_ptr<msg::Transport>(std::move(*conn));
      }
    }
    std::vector<msg::Message> flush;
    std::size_t dropped = 0;
    bool declaredDead = false;
    if (link) {
      // The peer treats the link as any inbound session. The handler
      // feeds heartbeat pongs back into the health state and lease acks
      // into the revocation ledger; everything else (error replies to
      // fire-and-forget forwards) is dropped.
      link->setHandler([this, endpoint](msg::Message&& reply) {
        if (reply.type == msg::MsgType::kContextHandoffAck) {
          onHandoffAck(reply);
          return;
        }
        if (reply.type == msg::MsgType::kLeaseAck) {
          leaseAcksReceived_.fetch_add(1, std::memory_order_relaxed);
          if (reply.intArg2 == 1) {  // revoke ack: context converged there
            std::lock_guard lock(leaseMutex_);
            const auto it = pendingRevokes_.find(reply.context);
            if (it != pendingRevokes_.end()) {
              it->second.erase(endpoint);
              if (it->second.empty()) pendingRevokes_.erase(it);
            }
          }
          return;
        }
        if (reply.type != msg::MsgType::kPong) return;
        pongsReceived_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard lock(peersMutex_);
        const auto it = peers_.find(endpoint);
        if (it == peers_.end()) return;
        PeerLink& peer = it->second;
        peer.pongSeq = std::max<std::uint64_t>(
            peer.pongSeq, static_cast<std::uint64_t>(reply.intArg));
        peer.missedPongs = 0;
        peer.health = PeerHealth::kHealthy;
      });
      std::lock_guard lock(peersMutex_);
      PeerLink& peer = peers_[endpoint];
      if (peer.transport && peer.transport->isOpen()) {
        link->close();  // lost a dial race: reuse the established link
        link = peer.transport;
      } else {
        peer.transport = link;
      }
      peer.health = PeerHealth::kHealthy;
      peer.missedPongs = 0;
      peer.dialFails = 0;
      peer.dialBackoff = 0;
      peer.nextDialAt = 0;
      flush.swap(peer.pending);
    } else {
      std::lock_guard lock(peersMutex_);
      PeerLink& peer = peers_[endpoint];
      ++peer.dialFails;
      peer.dialBackoff = peer.dialBackoff == 0
                             ? kDialBackoffInitial
                             : std::min(peer.dialBackoff * 2, kDialBackoffCap);
      peer.nextDialAt = clock_.now() + peer.dialBackoff;
      if (peer.dialFails >= kDialFailsToDead) {
        peer.health = PeerHealth::kDead;
        declaredDead = true;
        dropped = peer.pending.size();
        peer.pending.clear();
      }
    }
    if (declaredDead) clearPendingRevokes(endpoint);
    if (dropped > 0) {
      forwardDrops_.fetch_add(dropped, std::memory_order_relaxed);
      SIMFS_LOG_WARN(kTag, "peer declared dead; dropped %zu queued forwards",
                     dropped);
    }
    for (auto& msg : flush) {
      if (link->send(msg).isOk()) {
        forwarded_.fetch_add(1, std::memory_order_relaxed);
      } else {
        forwardDrops_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Fresh link: (re)establish this peer's view of every lease we own
    // for it — queued grants may have been dropped while it was down.
    if (link && replicas_.load(std::memory_order_relaxed) > 0) {
      resyncLeasesTo(endpoint, link);
    }
  }
}

void Daemon::heartbeatPeers() {
  // Collect sends under the lock, send outside it.
  std::vector<std::pair<std::shared_ptr<msg::Transport>, std::uint64_t>> pings;
  std::vector<std::string> died;
  std::size_t dropped = 0;
  {
    std::lock_guard lock(peersMutex_);
    for (auto& [endpoint, peer] : peers_) {
      if (!peer.transport || !peer.transport->isOpen()) continue;
      if (peer.pongSeq < peer.pingSeq) {
        // The previous ping went unanswered within a full interval.
        ++peer.missedPongs;
        if (peer.missedPongs >= kMissedPongsToDead) {
          peer.health = PeerHealth::kDead;
          peer.transport->close();
          peer.transport.reset();
          peer.dialBackoff = kDialBackoffInitial;
          peer.nextDialAt = clock_.now() + peer.dialBackoff;
          dropped += peer.pending.size();
          peer.pending.clear();
          died.push_back(endpoint);
          SIMFS_LOG_WARN(kTag, "peer heartbeat lost; link closed");
          continue;
        }
        peer.health = PeerHealth::kSuspect;
      }
      ++peer.pingSeq;
      pings.emplace_back(peer.transport, peer.pingSeq);
    }
  }
  // A dead peer's leases die with it: its un-acked revokes can never
  // complete, so stop flagging their contexts as "revoking".
  for (const auto& endpoint : died) clearPendingRevokes(endpoint);
  if (dropped > 0) {
    forwardDrops_.fetch_add(dropped, std::memory_order_relaxed);
  }
  for (auto& [transport, seq] : pings) {
    msg::Message ping;
    ping.type = msg::MsgType::kPing;
    ping.intArg = static_cast<std::int64_t>(seq);
    ping.intArg2 = msg::kProtocolVersionMax;  // additive version handshake
    ping.text = nodeId_;
    if (transport->send(ping).isOk()) {
      pingsSent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

// -------------------------------------------------------------- lease plane

void Daemon::flushLeaseOutbox() {
  // Handoff delta frames first: a step produced on a handed-off context
  // reaches its new owner ahead of any unrelated lease chatter.
  std::vector<HandoffDelta> deltas;
  {
    std::lock_guard lock(handoffMutex_);
    deltas.swap(handoffDeltas_);
  }
  for (const auto& d : deltas) {
    msg::Message frame;
    frame.type = msg::MsgType::kContextHandoff;
    frame.context = d.context;
    frame.intArg = static_cast<std::int64_t>(d.epoch);
    frame.text = nodeId_;
    frame.ints.reserve(d.steps.size());
    for (const StepIndex s : d.steps) {
      frame.ints.push_back(static_cast<std::int64_t>(s));
    }
    forwardToPeer(cluster::NodeInfo{d.targetId, d.targetEndpoint}, frame);
  }
  std::vector<LeaseCmd> cmds;
  {
    std::lock_guard lock(leaseMutex_);
    cmds.swap(leaseOutbox_);
  }
  const auto ringSnap = ringRef();
  const std::size_t replicas = replicas_.load(std::memory_order_relaxed);
  for (const auto& cmd : cmds) {
    const auto replicaSet = ringSnap->replicasOf(cmd.context, replicas);
    if (replicaSet.empty()) continue;
    msg::Message m;
    m.type = cmd.revoke ? msg::MsgType::kLeaseRevoke
                        : msg::MsgType::kLeaseGrant;
    m.context = cmd.context;
    m.intArg = static_cast<std::int64_t>(cmd.generation);
    m.text = nodeId_;
    m.ints.reserve(cmd.steps.size());
    for (const StepIndex s : cmd.steps) {
      m.ints.push_back(static_cast<std::int64_t>(s));
    }
    if (cmd.revoke && !cmd.steps.empty()) {
      // Eviction revoke: flag the context as "revoking" until every
      // replica acks. Operator introspection only — correctness rests on
      // the generation fence, not on this ledger.
      std::lock_guard lock(leaseMutex_);
      auto& eps = pendingRevokes_[cmd.context];
      for (const auto& r : replicaSet) eps.insert(r.endpoint);
    }
    for (const auto& r : replicaSet) {
      forwardToPeer(r, m);
      (cmd.revoke ? leaseRevokesSent_ : leaseGrantsSent_)
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Daemon::resyncLeasesTo(const std::string& endpoint,
                            const std::shared_ptr<msg::Transport>& link) {
  const auto ringSnap = ringRef();
  const std::size_t replicas = replicas_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < core_.numShards(); ++i) {
    std::vector<std::string> names;
    {
      std::lock_guard lock(core_.mutexOf(i));
      names = core_.shard(i).contextNames();
    }
    for (const auto& name : names) {
      const cluster::NodeInfo* owner = nullptr;
      if (ownedElsewhere(*ringSnap, name, &owner)) continue;  // not ours
      const auto replicaSet = ringSnap->replicasOf(name, replicas);
      const bool covers = std::any_of(
          replicaSet.begin(), replicaSet.end(),
          [&](const cluster::NodeInfo& n) { return n.endpoint == endpoint; });
      if (!covers) continue;
      std::uint64_t gen = 0;
      std::vector<StepIndex> steps;
      {
        std::lock_guard lock(core_.mutexOf(i));
        const auto view = core_.shard(i).leaseView(name);
        if (!view) continue;  // context never emitted a lease
        gen = view->generation;
        steps = core_.shard(i).availableSteps(name);
      }
      // Revoke-all then full grant, both at the current generation: the
      // pair is idempotent under the fence, and the wipe clears grants
      // the replica kept across drops this owner never saw.
      msg::Message wipe;
      wipe.type = msg::MsgType::kLeaseRevoke;
      wipe.context = name;
      wipe.intArg = static_cast<std::int64_t>(gen);
      wipe.text = nodeId_;
      wipe.hops = 1;
      if (!link->send(wipe).isOk()) return;  // link died: next dial resyncs
      leaseRevokesSent_.fetch_add(1, std::memory_order_relaxed);
      if (steps.empty()) continue;
      msg::Message grant;
      grant.type = msg::MsgType::kLeaseGrant;
      grant.context = name;
      grant.intArg = static_cast<std::int64_t>(gen);
      grant.text = nodeId_;
      grant.hops = 1;
      grant.ints.reserve(steps.size());
      for (const StepIndex s : steps) {
        grant.ints.push_back(static_cast<std::int64_t>(s));
      }
      if (!link->send(grant).isOk()) return;
      leaseGrantsSent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Daemon::clearPendingRevokes(const std::string& endpoint) {
  std::lock_guard lock(leaseMutex_);
  for (auto it = pendingRevokes_.begin(); it != pendingRevokes_.end();) {
    it->second.erase(endpoint);
    it = it->second.empty() ? pendingRevokes_.erase(it) : std::next(it);
  }
}

bool Daemon::isReplicaFor(std::string_view context) const {
  const auto ringSnap = ringRef();
  const auto replicaSet = ringSnap->replicasOf(
      context, replicas_.load(std::memory_order_relaxed));
  return std::any_of(
      replicaSet.begin(), replicaSet.end(),
      [&](const cluster::NodeInfo& n) { return n.id == nodeId_; });
}

bool Daemon::hasActiveLease(const std::string& context) const {
  const auto idx = core_.shardOfContext(context);
  if (!idx) return false;
  std::lock_guard lock(core_.mutexOf(*idx));
  const auto view = core_.shard(*idx).leaseView(context);
  return view && view->replica && view->steps > 0;
}

void Daemon::handleLeaseOp(const std::shared_ptr<Session>& session,
                           const msg::MessageView& m) {
  const bool grant = m.type() == msg::MsgType::kLeaseGrant;
  msg::Message ack;
  ack.type = msg::MsgType::kLeaseAck;
  ack.requestId = m.requestId();
  ack.context.assign(m.context());
  ack.intArg = m.intArg();  // echo the generation
  ack.intArg2 = grant ? 0 : 1;
  ack.text = nodeId_;
  Status st = Status::ok();
  const std::string context(m.context());
  const auto idx = core_.shardOfContext(context);
  if (nodeId_.empty()) {
    st = errFailedPrecondition("dv: lease op on standalone daemon");
  } else if (!idx) {
    st = errNotFound("dv: no context: " + context);
  } else {
    std::vector<std::int64_t> steps;
    steps.reserve(m.intCount());
    for (auto it = m.intsBegin(); it != m.intsEnd(); ++it) {
      steps.push_back(*it);
    }
    const auto gen = static_cast<std::uint64_t>(m.intArg());
    std::lock_guard lock(core_.mutexOf(*idx));
    DvShard& shard = core_.shard(*idx);
    st = grant ? shard.applyLeaseGrant(context, gen, steps)
               : shard.applyLeaseRevoke(context, gen, steps);
  }
  ack.code = codeOf(st);
  if (!st.isOk()) ack.text = st.message();
  (void)session->transport->send(ack);
}

// ------------------------------------------------------- elastic membership

namespace {
/// Every member of `a` union `b` except `self`, deduped by node id — the
/// relay fan-out of a membership change (old members must learn they are
/// leaving; new members must learn they joined).
std::vector<cluster::NodeInfo> relayTargets(const cluster::Ring& a,
                                            const cluster::Ring& b,
                                            const std::string& self) {
  std::vector<cluster::NodeInfo> out;
  std::set<std::string> seen{self};
  for (const cluster::Ring* ring : {&a, &b}) {
    for (const auto& n : ring->nodes()) {
      if (seen.insert(n.id).second) out.push_back(n);
    }
  }
  return out;
}
}  // namespace

void Daemon::handleRingPropose(const std::shared_ptr<Session>& session,
                               const msg::MessageView& m) {
  const msg::Message full = m.toMessage();
  msg::Message ack;
  ack.type = msg::MsgType::kRingProposeAck;
  ack.requestId = full.requestId;
  ack.text = nodeId_;
  Status st = Status::ok();
  const auto version = static_cast<std::uint64_t>(full.intArg);
  const auto current = ringRef();
  cluster::Ring proposed;
  std::vector<std::string> moved;
  bool relay = false;
  if (nodeId_.empty()) {
    st = errFailedPrecondition("dv: membership change on standalone daemon");
  } else if (auto parsed = cluster::Ring::fromEntries(full.files, version);
             !parsed) {
    st = parsed.status();
  } else if (version <= current->version()) {
    st = errFailedPrecondition(str::format(
        "dv: proposed ring version %llu not newer than committed %llu",
        static_cast<unsigned long long>(version),
        static_cast<unsigned long long>(current->version())));
  } else {
    proposed = std::move(*parsed);
    // The work list is computed OUTSIDE handoffMutex_ (contextNames takes
    // shard locks; the LeaseFn locks handoffMutex_ under a shard lock).
    moved = cluster::Ring::movedContexts(*current, proposed,
                                         core_.contextNames());
    std::lock_guard lock(handoffMutex_);
    if (pendingTransition_ && pendingTransition_->version == version) {
      moved = pendingTransition_->moved;  // idempotent re-propose
    } else if (pendingTransition_) {
      st = errFailedPrecondition(str::format(
          "dv: membership change v%llu already in flight",
          static_cast<unsigned long long>(pendingTransition_->version)));
    } else {
      auto t = std::make_unique<PendingTransition>();
      t->version = version;
      t->ring = proposed;
      t->moved = moved;
      pendingTransition_ = std::move(t);
      // Queue an outbound transfer for every context THIS node loses.
      for (const auto& ctx : moved) {
        if (current->ownerOf(ctx).id != nodeId_) continue;
        const auto& newOwner = proposed.ownerOf(ctx);
        if (newOwner.id == nodeId_) continue;
        handoffs_.push_back(HandoffOp{ctx, newOwner.id, newOwner.endpoint,
                                      version, HandoffPhase::kQueued, 0});
      }
      membershipChanged_.store(true, std::memory_order_relaxed);
      relay = full.hops == 0;
    }
  }
  if (st.isOk()) {
    ack.intArg = static_cast<std::int64_t>(version);
    ack.intArg2 = static_cast<std::int64_t>(moved.size());
    ack.files.reserve(moved.size());
    for (const auto& ctx : moved) {
      ack.files.push_back(ctx + ":" + current->ownerOf(ctx).id + ">" +
                          proposed.ownerOf(ctx).id);
    }
  } else {
    ack.text = st.message();
  }
  ack.code = codeOf(st);
  (void)session->transport->send(ack);
  if (relay) {
    for (const auto& n : relayTargets(*current, proposed, nodeId_)) {
      forwardToPeer(n, full);
    }
  }
  if (st.isOk()) wakeMaintenance();  // start streaming without a tick wait
}

void Daemon::handleRingCommit(const std::shared_ptr<Session>& session,
                              const msg::MessageView& m) {
  const msg::Message full = m.toMessage();
  msg::Message ack;
  ack.type = msg::MsgType::kRingCommitAck;
  ack.requestId = full.requestId;
  ack.text = nodeId_;
  Status st = Status::ok();
  const auto version = static_cast<std::uint64_t>(full.intArg);
  const auto current = ringRef();
  if (nodeId_.empty()) {
    st = errFailedPrecondition("dv: membership change on standalone daemon");
  } else if (version == current->version()) {
    ack.intArg = static_cast<std::int64_t>(version);  // idempotent re-commit
  } else if (version < current->version()) {
    st = errFailedPrecondition(str::format(
        "dv: stale commit v%llu (committed v%llu)",
        static_cast<unsigned long long>(version),
        static_cast<unsigned long long>(current->version())));
  } else if (auto parsed = cluster::Ring::fromEntries(full.files, version);
             !parsed) {
    st = parsed.status();
  } else {
    const auto moved = cluster::Ring::movedContexts(*current, *parsed,
                                                    core_.contextNames());
    auto next = std::make_shared<const cluster::Ring>(std::move(*parsed));
    // Adopt the ring FIRST: lease grants emitted while the staged imports
    // apply below must already see this node as the owner.
    {
      std::lock_guard lock(ringMutex_);
      ring_ = next;
    }
    replicas_.store(effectiveReplicas(*next), std::memory_order_relaxed);
    membershipChanged_.store(true, std::memory_order_relaxed);
    std::map<std::string, StagedHandoff> staged;
    {
      std::lock_guard lock(handoffMutex_);
      pendingTransition_.reset();
      // Settle this epoch's outbound transfers: anything the commit
      // overtook is aborted — the new owner is authoritative (it serves
      // cold), and the un-transferred local state stays as serving
      // residue for this node's remaining waiters.
      for (auto& op : handoffs_) {
        if (op.epoch > version) continue;
        if (op.phase == HandoffPhase::kQueued ||
            op.phase == HandoffPhase::kStreaming ||
            op.phase == HandoffPhase::kAwaitingAck) {
          op.phase = HandoffPhase::kAborted;
          handoffsAborted_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::erase_if(handoffs_,
                    [&](const HandoffOp& op) { return op.epoch <= version; });
      // Delta routing: forward future production on every context this
      // node no longer owns; stop forwarding for contexts (re)owned here.
      for (auto it = handedOffTo_.begin(); it != handedOffTo_.end();) {
        it = next->ownerOf(it->first).id == nodeId_ ? handedOffTo_.erase(it)
                                                    : std::next(it);
      }
      for (const auto& ctx : moved) {
        if (current->ownerOf(ctx).id != nodeId_) continue;
        const auto& newOwner = next->ownerOf(ctx);
        if (newOwner.id == nodeId_) continue;
        handedOffTo_[ctx] =
            HandoffTarget{newOwner.id, newOwner.endpoint, version};
      }
      // Claim this epoch's staged imports; drop anything staler.
      for (auto it = stagedHandoffs_.begin(); it != stagedHandoffs_.end();) {
        if (it->second.epoch < version) {
          it = stagedHandoffs_.erase(it);
        } else if (it->second.epoch == version) {
          staged.emplace(it->first, std::move(it->second));
          it = stagedHandoffs_.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Apply the imports AFTER the swap, under the owning shard's lock
    // (never while holding handoffMutex_ — lock order is shard first).
    for (auto& [ctx, s] : staged) {
      if (next->ownerOf(ctx).id != nodeId_) continue;  // not ours after all
      const auto idx = core_.shardOfContext(ctx);
      if (!idx) continue;
      std::vector<std::int64_t> steps;
      steps.reserve(s.steps.size());
      for (const StepIndex step : s.steps) {
        steps.push_back(static_cast<std::int64_t>(step));
      }
      std::lock_guard lock(core_.mutexOf(*idx));
      DvShard& shard = core_.shard(*idx);
      (void)shard.importContextSteps(ctx, steps);
      if (s.complete) {
        (void)shard.adoptContextOwnership(ctx, s.leaseGen, s.pendingWaiters);
      }
    }
    ack.intArg = static_cast<std::int64_t>(version);
    if (full.hops == 0) {
      for (const auto& n : relayTargets(*current, *next, nodeId_)) {
        forwardToPeer(n, full);
      }
    }
    wakeMaintenance();
    SIMFS_LOG_INFO(kTag, "ring v%llu committed (%zu members, %zu moved)",
                   static_cast<unsigned long long>(version), next->size(),
                   moved.size());
  }
  ack.code = codeOf(st);
  if (!st.isOk()) ack.text = st.message();
  (void)session->transport->send(ack);
}

void Daemon::handleContextHandoff(const std::shared_ptr<Session>& session,
                                  const msg::MessageView& m) {
  const auto epoch = static_cast<std::uint64_t>(m.intArg());
  const bool isFinal = (m.intArg2() & 1) != 0;
  const std::string context(m.context());
  msg::Message ack;
  ack.type = msg::MsgType::kContextHandoffAck;
  ack.requestId = m.requestId();
  ack.context = context;
  ack.intArg = static_cast<std::int64_t>(epoch);
  ack.intArg2 = isFinal ? 1 : 0;
  ack.text = nodeId_;
  std::vector<std::int64_t> ints;
  ints.reserve(m.intCount());
  for (auto it = m.intsBegin(); it != m.intsEnd(); ++it) ints.push_back(*it);
  std::uint64_t leaseGen = 0;
  std::vector<std::pair<StepIndex, std::uint32_t>> pendingWaiters;
  Status st = Status::ok();
  if (isFinal) {
    // Final frame: ints = [leaseGen, totalRefs, (step, waiters)...].
    if (ints.size() < 2 || (ints.size() - 2) % 2 != 0) {
      st = errInvalidArgument("dv: malformed handoff final frame");
    } else {
      leaseGen = static_cast<std::uint64_t>(ints[0]);
      for (std::size_t i = 2; i + 1 < ints.size(); i += 2) {
        pendingWaiters.emplace_back(
            static_cast<StepIndex>(ints[i]),
            static_cast<std::uint32_t>(ints[i + 1]));
      }
    }
  }
  const auto current = ringRef();
  if (!st.isOk()) {
    // fall through to the ack
  } else if (nodeId_.empty()) {
    st = errFailedPrecondition("dv: handoff on standalone daemon");
  } else if (epoch < current->version()) {
    // The epoch fence: a frame from a sender still on an older ring is
    // rejected outright — its authority ended at the commit it missed.
    st = errFailedPrecondition(str::format(
        "dv: stale handoff epoch %llu (committed v%llu)",
        static_cast<unsigned long long>(epoch),
        static_cast<unsigned long long>(current->version())));
  } else if (epoch == current->version()) {
    // Committed epoch: a post-commit delta (or a frame racing the commit
    // relay). Applied immediately under the owning shard's lock.
    const cluster::NodeInfo* owner = nullptr;
    const auto idx = core_.shardOfContext(context);
    if (!idx) {
      st = errNotFound("dv: no context: " + context);
    } else if (ownedElsewhere(*current, context, &owner)) {
      st = errFailedPrecondition("dv: handoff for a context owned elsewhere");
    } else {
      std::lock_guard lock(core_.mutexOf(*idx));
      DvShard& shard = core_.shard(*idx);
      st = isFinal ? shard.adoptContextOwnership(context, leaseGen,
                                                 pendingWaiters)
                   : shard.importContextSteps(context, ints);
    }
  } else {
    // Future epoch: staged until the matching kRingCommit makes this node
    // authoritative. An uncommitted transfer is discarded wholesale at
    // the next commit (or expires with its epoch) — crash-of-the-sender
    // resolves to "old owner resumes" with no partial state applied.
    std::lock_guard lock(handoffMutex_);
    auto& s = stagedHandoffs_[context];
    if (s.epoch != epoch) {
      s = StagedHandoff{};
      s.epoch = epoch;
    }
    s.from = std::string(m.text());
    if (isFinal) {
      s.leaseGen = leaseGen;
      s.pendingWaiters = std::move(pendingWaiters);
      s.complete = true;
    } else {
      s.steps.reserve(s.steps.size() + ints.size());
      for (const std::int64_t v : ints) {
        s.steps.push_back(static_cast<StepIndex>(v));
      }
    }
    membershipChanged_.store(true, std::memory_order_relaxed);
  }
  ack.code = codeOf(st);
  if (!st.isOk()) ack.text = st.message();
  (void)session->transport->send(ack);
}

void Daemon::runHandoffs() {
  // Claim the queued transfers. The delta target registers BEFORE the
  // snapshot export: a step produced between the two is queued as a delta
  // frame (possibly duplicated in the snapshot — imports are idempotent),
  // never lost.
  std::vector<HandoffOp> toStream;
  {
    std::lock_guard lock(handoffMutex_);
    for (auto& op : handoffs_) {
      if (op.phase != HandoffPhase::kQueued) continue;
      op.phase = HandoffPhase::kStreaming;
      handedOffTo_[op.context] =
          HandoffTarget{op.targetId, op.targetEndpoint, op.epoch};
      toStream.push_back(op);
    }
  }
  const auto frameFaulted = [] {
    if (!fault::active()) return false;
    fault::maybeDelay(fault::Point::kHandoff);
    return fault::shouldFail(fault::Point::kHandoff);
  };
  for (const auto& op : toStream) {
    std::optional<ContextSnapshot> snap;
    if (const auto idx = core_.shardOfContext(op.context)) {
      std::lock_guard lock(core_.mutexOf(*idx));
      snap = core_.shard(*idx).exportContextSnapshot(op.context);
    }
    // Nothing transferable (a cold context, or a joiner's self-ring
    // mirage): settle as committed without a single frame — the new
    // owner serves from scratch, which IS the complete state.
    const bool trivial = snap && snap->available.empty() &&
                         snap->pendingWaiters.empty() && snap->refs == 0 &&
                         snap->leaseGen <= 1;
    bool failed = !snap;
    bool streamed = false;
    if (snap && !trivial) {
      const cluster::NodeInfo target{op.targetId, op.targetEndpoint};
      for (std::size_t at = 0; at < snap->available.size() && !failed;
           at += handoffBatch_) {
        if (frameFaulted()) {
          failed = true;
          break;
        }
        const std::size_t n =
            std::min(handoffBatch_, snap->available.size() - at);
        msg::Message frame;
        frame.type = msg::MsgType::kContextHandoff;
        frame.context = op.context;
        frame.intArg = static_cast<std::int64_t>(op.epoch);
        frame.text = nodeId_;
        frame.ints.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          frame.ints.push_back(
              static_cast<std::int64_t>(snap->available[at + i]));
        }
        forwardToPeer(target, frame);
      }
      if (!failed && frameFaulted()) failed = true;
      if (!failed) {
        msg::Message fin;
        fin.type = msg::MsgType::kContextHandoff;
        fin.context = op.context;
        fin.intArg = static_cast<std::int64_t>(op.epoch);
        fin.intArg2 = 1;
        fin.text = nodeId_;
        fin.ints.reserve(2 + 2 * snap->pendingWaiters.size());
        fin.ints.push_back(static_cast<std::int64_t>(snap->leaseGen));
        fin.ints.push_back(static_cast<std::int64_t>(snap->refs));
        for (const auto& [step, waiters] : snap->pendingWaiters) {
          fin.ints.push_back(static_cast<std::int64_t>(step));
          fin.ints.push_back(static_cast<std::int64_t>(waiters));
        }
        forwardToPeer(target, fin);
        streamed = true;
      }
    }
    const VTime deadline =
        clock_.now() + (handoffTimeoutNs_ > 0 ? handoffTimeoutNs_
                                              : 5'000'000'000);
    std::lock_guard lock(handoffMutex_);
    for (auto& h : handoffs_) {
      if (h.context != op.context || h.epoch != op.epoch) continue;
      if (h.phase != HandoffPhase::kStreaming) break;  // settled by an ack
      if (failed) {
        h.phase = HandoffPhase::kAborted;
        handoffsAborted_.fetch_add(1, std::memory_order_relaxed);
        handedOffTo_.erase(op.context);  // old owner resumes authoritative
      } else if (streamed) {
        h.phase = HandoffPhase::kAwaitingAck;
        h.deadline = deadline;
      } else {  // trivial
        h.phase = HandoffPhase::kCommitted;
        handoffsCommitted_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
  }
  // Deadline sweep: a transfer whose final ack never came (receiver
  // crashed mid-stream, frames dropped) aborts deterministically — the
  // old owner never stopped serving, so there is nothing to undo.
  const VTime now = clock_.now();
  std::size_t expired = 0;
  {
    std::lock_guard lock(handoffMutex_);
    for (auto& op : handoffs_) {
      if (op.phase != HandoffPhase::kAwaitingAck) continue;
      if (op.deadline != 0 && now >= op.deadline) {
        op.phase = HandoffPhase::kAborted;
        handoffsAborted_.fetch_add(1, std::memory_order_relaxed);
        handedOffTo_.erase(op.context);
        ++expired;
      }
    }
  }
  if (expired > 0) {
    SIMFS_LOG_WARN(kTag, "%zu context handoff(s) timed out; old owner resumes",
                   expired);
  }
}

void Daemon::onHandoffAck(const msg::Message& reply) {
  const auto epoch = static_cast<std::uint64_t>(reply.intArg);
  std::lock_guard lock(handoffMutex_);
  for (auto& op : handoffs_) {
    if (op.context != reply.context || op.epoch != epoch) continue;
    if (op.phase != HandoffPhase::kStreaming &&
        op.phase != HandoffPhase::kAwaitingAck) {
      return;  // already settled (timeout raced the ack)
    }
    if (reply.code != 0) {
      // The receiver refused a frame (stale epoch, unknown context):
      // abort — this node keeps serving.
      op.phase = HandoffPhase::kAborted;
      handoffsAborted_.fetch_add(1, std::memory_order_relaxed);
      handedOffTo_.erase(op.context);
    } else if (reply.intArg2 == 1) {
      // Final-frame ack: the transfer's commit point.
      op.phase = HandoffPhase::kCommitted;
      handoffsCommitted_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
}

std::size_t Daemon::inflightHandoffs() const {
  std::lock_guard lock(handoffMutex_);
  std::size_t n = 0;
  for (const auto& op : handoffs_) {
    if (op.phase == HandoffPhase::kQueued ||
        op.phase == HandoffPhase::kStreaming ||
        op.phase == HandoffPhase::kAwaitingAck) {
      ++n;
    }
  }
  return n;
}

msg::Message Daemon::buildRedirect(std::uint64_t requestId,
                                   std::string_view context,
                                   const cluster::NodeInfo& owner,
                                   const cluster::Ring& ring) const {
  msg::Message reply;
  reply.type = msg::MsgType::kRedirect;
  reply.requestId = requestId;
  reply.context.assign(context);
  reply.text = owner.id;
  reply.files = ring.encodeEntries();
  reply.intArg = static_cast<std::int64_t>(ring.version());
  // Read-replica count R, additive: 0 whenever replicas are disabled, so
  // those redirects stay byte-identical to pre-replica daemons.
  reply.intArg2 =
      static_cast<std::int64_t>(replicas_.load(std::memory_order_relaxed));
  reply.code = codeOf(Status::ok());
  return reply;
}

msg::MessageRef Daemon::buildRedirectRef(msg::Arena& arena,
                                         std::uint64_t requestId,
                                         std::string_view context,
                                         const cluster::NodeInfo& owner,
                                         const cluster::Ring& ring) const {
  msg::MessageRef reply;
  reply.type = msg::MsgType::kRedirect;
  reply.requestId = requestId;
  reply.context = arena.copyString(context);
  reply.text = arena.copyString(owner.id);
  const auto entries = ring.encodeEntries();
  auto files = arena.allocSpan<std::string_view>(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    files[i] = arena.copyString(entries[i]);
  }
  reply.files = files;
  reply.intArg = static_cast<std::int64_t>(ring.version());
  reply.intArg2 =
      static_cast<std::int64_t>(replicas_.load(std::memory_order_relaxed));
  reply.code = codeOf(Status::ok());
  return reply;
}

msg::Message Daemon::buildRingUpdate(std::uint64_t requestId) const {
  const auto ringSnap = ringRef();
  msg::Message reply;
  reply.type = msg::MsgType::kRingUpdate;
  reply.requestId = requestId;
  reply.text = nodeId_;
  reply.files = ringSnap->encodeEntries();
  reply.intArg = static_cast<std::int64_t>(ringSnap->version());
  reply.intArg2 =
      static_cast<std::int64_t>(replicas_.load(std::memory_order_relaxed));
  reply.code = codeOf(Status::ok());
  return reply;
}

Daemon::FederationCounters Daemon::federationCounters() const {
  FederationCounters c;
  c.redirects = redirects_.load(std::memory_order_relaxed);
  c.forwarded = forwarded_.load(std::memory_order_relaxed);
  c.forwardDrops = forwardDrops_.load(std::memory_order_relaxed);
  c.pingsSent = pingsSent_.load(std::memory_order_relaxed);
  c.pongsReceived = pongsReceived_.load(std::memory_order_relaxed);
  c.leaseGrantsSent = leaseGrantsSent_.load(std::memory_order_relaxed);
  c.leaseRevokesSent = leaseRevokesSent_.load(std::memory_order_relaxed);
  c.leaseAcksReceived = leaseAcksReceived_.load(std::memory_order_relaxed);
  c.handoffsInflight = inflightHandoffs();
  c.handoffsCommitted = handoffsCommitted_.load(std::memory_order_relaxed);
  c.handoffsAborted = handoffsAborted_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(leaseMutex_);
    c.contextsRevoking = pendingRevokes_.size();
  }
  std::lock_guard lock(peersMutex_);
  for (const auto& [endpoint, peer] : peers_) {
    if (peer.health == PeerHealth::kSuspect) ++c.peersSuspect;
    if (peer.health == PeerHealth::kDead) ++c.peersDead;
  }
  return c;
}

// ------------------------------------------------------------------ queueing

void Daemon::enqueue(std::size_t shard, DaemonRequest&& request) {
  auto& sv = *serving_[shard];
  {
    std::lock_guard lock(sv.qMutex);
    sv.queue.push_back(std::move(request));
  }
  finishEnqueue(shard);
}

bool Daemon::enqueueClient(std::size_t shard,
                           const std::shared_ptr<Session>& session,
                           const msg::MessageView& m) {
  auto& sv = *serving_[shard];
  // Backpressure: only request/reply client traffic is sheddable — the
  // client sees kUnavailable and can back off. Simulator events always
  // enqueue: dropping those would corrupt bookkeeping, and their volume
  // is bounded by the request traffic that produces them. Releases also
  // always enqueue, acked or not: they FREE resources (waiter entries,
  // pinned slots), so shedding one under overload would leak exactly
  // when the daemon can least afford it. The check shares the queue's one
  // lock acquisition, so concurrent dispatchers cannot overshoot the cap —
  // and the arena copy happens under the same lock, into the queue's
  // active arena.
  const bool sheddable = m.type() != msg::MsgType::kReleaseReq &&
                         ackTypeFor(m.type()) != msg::MsgType::kError;
  bool shed = false;
  {
    std::lock_guard lock(sv.qMutex);
    if (sheddable && sv.queue.size() >= queueCap_) {
      shed = true;
    } else {
      DaemonRequest req;
      req.kind = DaemonRequest::Kind::kClientMessage;
      req.session = session;
      req.msg = msg::copyToArena(m, sv.arenas[sv.activeArena]);
      sv.queue.push_back(std::move(req));
    }
  }
  if (shed) {
    sv.shed.fetch_add(1, std::memory_order_relaxed);
    const Status st = errUnavailable("dv: shard queue over capacity");
    msg::Message reply;
    reply.requestId = m.requestId();
    reply.type = ackTypeFor(m.type());
    reply.code = codeOf(st);
    reply.text = st.message();
    (void)session->transport->send(reply);
    return false;
  }
  finishEnqueue(shard);
  return true;
}

void Daemon::finishEnqueue(std::size_t shard) {
  serving_[shard]->enqueued.fetch_add(1, std::memory_order_relaxed);
  if (stopping_.load()) {
    // Shutdown race: the workers (or stop()'s sweep) may already be past
    // this queue. Once the join has completed we own the pipeline
    // exclusively under stopMutex_ and can serve the request here.
    std::lock_guard stopLock(stopMutex_);
    if (workersJoined_) {
      std::vector<DaemonRequest> batch;
      (void)drainShard(shard, batch);
    }
    return;
  }
  Worker& w = *workers_[shard % workers_.size()];
  {
    std::lock_guard lock(w.mutex);
    w.wake = true;
  }
  w.cv.notify_one();
}

void Daemon::enqueueSimEvent(DaemonRequest&& request) {
  enqueue(core_.shardOfJob(request.job), std::move(request));
}

void Daemon::simulationStarted(SimJobId job) {
  DaemonRequest req;
  req.kind = DaemonRequest::Kind::kSimStarted;
  req.job = job;
  enqueueSimEvent(std::move(req));
}

void Daemon::simulationFileWritten(SimJobId job, const std::string& file) {
  DaemonRequest req;
  req.kind = DaemonRequest::Kind::kSimFileWritten;
  req.job = job;
  req.file = file;
  enqueueSimEvent(std::move(req));
}

void Daemon::simulationFinished(SimJobId job, const Status& status) {
  DaemonRequest req;
  req.kind = DaemonRequest::Kind::kSimFinished;
  req.job = job;
  req.status = status;
  enqueueSimEvent(std::move(req));
}

// ------------------------------------------------------------------ workers

void Daemon::workerLoop(std::size_t workerIndex) {
  Worker& w = *workers_[workerIndex];
  std::vector<DaemonRequest> batch;
  const std::size_t stride = workers_.size();
  for (;;) {
    bool did = false;
    for (std::size_t s = workerIndex; s < serving_.size(); s += stride) {
      did = drainShard(s, batch) || did;
    }
    if (did) continue;
    std::unique_lock lock(w.mutex);
    if (w.wake) {
      w.wake = false;
      if (stopping_.load()) {
        // Final pass: drain what was enqueued before the stop flag.
        lock.unlock();
        for (std::size_t s = workerIndex; s < serving_.size(); s += stride) {
          (void)drainShard(s, batch);
        }
        return;
      }
      continue;
    }
    w.cv.wait(lock, [&] { return w.wake; });
  }
}

bool Daemon::drainShard(std::size_t shard, std::vector<DaemonRequest>& batch) {
  auto& sv = *serving_[shard];
  if (fault::active()) fault::maybeDelay(fault::Point::kDrain);
  batch.clear();
  int drainedArena = 0;
  {
    std::lock_guard lock(sv.qMutex);
    if (sv.queue.empty()) return false;
    batch.swap(sv.queue);
    // Flip the arenas: new requests copy into the other one while this
    // batch (whose MessageRefs point into arenas[drainedArena]) is
    // processed. Safe because exactly one worker drains a given shard,
    // so the previous batch from the other arena has fully retired.
    drainedArena = sv.activeArena;
    sv.activeArena ^= 1;
  }
  sv.out.clear();
  // Replies (and kFileReady notifications) are built in the same arena
  // as the batch: both stay valid until after the flush below.
  sv.replyArena = &sv.arenas[drainedArena];
  {
    // One lock acquisition for the whole batch.
    std::lock_guard lock(core_.mutexOf(shard));
    DvShard& dv = core_.shard(shard);
    for (auto& request : batch) processOnShard(shard, dv, request);
  }
  sv.batches.fetch_add(1, std::memory_order_relaxed);
  sv.served.fetch_add(batch.size(), std::memory_order_relaxed);
  atomicMax(sv.maxBatch, batch.size());
  // Flush replies and notifications outside the shard lock; the reactor
  // coalesces consecutive frames per connection into writev batches. The
  // transports serialize into their own pooled buffers, so the arena may
  // be reset the moment the loop finishes.
  for (auto& [session, message] : sv.out) {
    if (!session->transport->send(message).isOk()) {
      SIMFS_LOG_DEBUG(kTag, "dropping reply to closed session");
    }
  }
  sv.out.clear();
  batch.clear();  // release session references promptly
  sv.replyArena = nullptr;
  sv.arenas[drainedArena].reset();
  return true;
}

void Daemon::onNotify(ClientId client, const std::string& file,
                      const Status& st) {
  // Fires inside DvShard calls, i.e. on the worker currently holding this
  // client's shard lock mid-drain; buffered and sent after the lock
  // drops.
  const std::size_t shard = core_.shardOfClient(client);
  auto& sv = *serving_[shard];
  const auto it = sv.byClient.find(client);
  if (it == sv.byClient.end()) return;
  if (sv.replyArena == nullptr) {
    // Outside a drain no flush follows (setup-time seeding has no
    // connected clients; every serving-path DvShard call happens inside
    // one) — mirror the old pipeline, which cleared stale entries at the
    // next drain without sending them.
    SIMFS_LOG_DEBUG(kTag, "dropping out-of-drain notification");
    return;
  }
  msg::Arena& arena = *sv.replyArena;
  msg::MessageRef m;
  m.type = msg::MsgType::kFileReady;
  auto files = arena.allocSpan<std::string_view>(1);
  files[0] = arena.copyString(file);
  m.files = files;
  m.code = codeOf(st);
  if (!st.isOk()) m.text = arena.copyString(st.message());
  sv.out.emplace_back(it->second, m);
}

void Daemon::processOnShard(std::size_t shardIndex, DvShard& shard,
                            DaemonRequest& request) {
  switch (request.kind) {
    case DaemonRequest::Kind::kClientMessage:
      processClientMessage(shardIndex, shard, request.session, request.msg);
      return;
    case DaemonRequest::Kind::kDisconnect: {
      const ClientId client = request.session->client.load();
      if (client != 0) {
        shard.clientDisconnect(client);
        serving_[shardIndex]->byClient.erase(client);
        request.session->client.store(0);
      }
      request.session->defunct.store(true);
      return;
    }
    case DaemonRequest::Kind::kSimStarted:
      shard.simulationStarted(request.job);
      return;
    case DaemonRequest::Kind::kSimFileWritten:
      shard.simulationFileWritten(request.job, request.file);
      return;
    case DaemonRequest::Kind::kSimFinished:
      shard.simulationFinished(request.job, request.status);
      return;
    case DaemonRequest::Kind::kReapExpired:
      (void)shard.reapExpiredWaiters(clock_.now());
      return;
  }
}

void Daemon::processClientMessage(std::size_t shardIndex, DvShard& shard,
                                  const std::shared_ptr<Session>& session,
                                  const msg::MessageRef& m) {
  auto& sv = *serving_[shardIndex];
  msg::Arena& arena = *sv.replyArena;
  msg::MessageRef reply;
  reply.requestId = m.requestId;
  bool sendReply = true;
  const ClientId client = session->client.load();

  // Elastic-membership redirect: once a commit moved this session's
  // context to another node, the interest op (kOpenBatchReq) is answered
  // with kRedirect (carrying the new table) instead of being served here —
  // the client rebinds and resends under the same requestId. kReleaseReq
  // still runs locally so pinned residue drains, and replica-session
  // reads keep working by design. The sticky membershipChanged_ gate
  // keeps this off every pre-elastic path.
  if (membershipChanged_.load(std::memory_order_relaxed) && client != 0 &&
      !session->replica.load() && m.type == msg::MsgType::kOpenBatchReq) {
    const auto ringSnap = ringRef();
    const cluster::NodeInfo* owner = nullptr;
    if (ownedElsewhere(*ringSnap, session->context, &owner)) {
      redirects_.fetch_add(1, std::memory_order_relaxed);
      sv.out.emplace_back(session,
                          buildRedirectRef(arena, m.requestId,
                                           session->context, *owner, *ringSnap));
      return;
    }
  }

  switch (m.type) {
    case msg::MsgType::kHello: {
      reply.type = msg::MsgType::kHelloAck;
      // intArg2 stays 0 whatever caps the hello offered (kHelloCapShm is
      // reserved and ignored), so every ack is byte-identical to the
      // pre-negotiation protocol.
      if ((m.intArg2 & msg::kHelloCapVersion) != 0) {
        // Protocol-version handshake: the daemon answers the highest
        // version both sides speak. A client whose floor is above this
        // daemon's ceiling cannot proceed.
        const std::int64_t chosen = negotiateVersion(m.ints);
        if (chosen == 0) {
          const Status st =
              errFailedPrecondition("dv: no protocol version overlap");
          reply.code = codeOf(st);
          reply.text = arena.copyString(st.message());
          break;
        }
        auto negotiated = arena.allocSpan<std::int64_t>(1);
        negotiated[0] = chosen;
        reply.ints = negotiated;
      }
      if (client != 0) {
        // Re-hello on a bound session would orphan the existing client
        // registration (pinned steps, waiters) — reject it instead.
        const Status st = errFailedPrecondition("dv: session already bound");
        reply.code = codeOf(st);
        reply.text = arena.copyString(st.message());
        break;
      }
      auto id = shard.clientConnect(std::string(m.context),
                                    session->replica.load());
      if (id.isOk()) {
        session->shard.store(static_cast<int>(shardIndex));
        session->client.store(*id);
        session->context.assign(m.context);  // single-worker access
        sv.byClient[*id] = session;
        // The transport may already have died: its close handler then saw
        // client == 0 and could not enqueue a disconnect, so the session
        // is marked defunct and this registration must be unwound here or
        // the DvShard client would leak forever.
        if (session->defunct.load()) {
          shard.clientDisconnect(*id);
          sv.byClient.erase(*id);
          session->client.store(0);
          sendReply = false;
          break;
        }
        reply.code = codeOf(Status::ok());
        reply.intArg = static_cast<std::int64_t>(*id);
      } else {
        reply.code = codeOf(id.status());
        reply.text = arena.copyString(id.status().message());
      }
      break;
    }
    case msg::MsgType::kOpenBatchReq: {
      // The vectored open: the whole batch resolves inside this one
      // message, i.e. under the single shard-lock acquisition its queue
      // drain already holds — N files, one round trip, one lock. The ack
      // carries a per-file outcome pair so the client can tell the
      // immediately-available subset from the steps being re-simulated.
      reply.type = msg::MsgType::kOpenBatchAck;
      if (m.requestId != 0) {
        // Dedup window: a batch resent under the same requestId (per-op
        // timeout retry; a rebind resend whose original delivery raced
        // through after all) already registered its interest — replay
        // the cached ack instead of double-registering. The copy into
        // the arena keeps the ref valid even if later requests in this
        // same batch rotate the cache slot.
        bool replayed = false;
        for (const auto& e : session->recentAcks) {
          if (e.requestId != m.requestId) continue;
          msg::MessageRef cached;
          cached.type = e.ack.type;
          cached.requestId = e.ack.requestId;
          cached.code = e.ack.code;
          cached.intArg = e.ack.intArg;
          cached.intArg2 = e.ack.intArg2;
          auto cachedInts = arena.allocSpan<std::int64_t>(e.ack.ints.size());
          std::copy(e.ack.ints.begin(), e.ack.ints.end(), cachedInts.begin());
          cached.ints = cachedInts;
          if (!e.ack.text.empty()) cached.text = arena.copyString(e.ack.text);
          sv.out.emplace_back(session, cached);
          replayed = true;
          break;
        }
        if (replayed) return;
      }
      // Client-supplied deadline budget travels relative (ns) in intArg2
      // and becomes an absolute shard deadline here, at dispatch — the
      // one clock that matters is the daemon's own.
      const VTime deadline =
          m.intArg2 > 0 ? clock_.now() + m.intArg2 : 0;
      Status worst = Status::ok();
      VDuration maxWait = 0;
      std::int64_t availableNow = 0;
      // Outcome pairs only, positional by request order — echoing the
      // filenames back would double the ack payload for nothing.
      auto ints = arena.allocSpan<std::int64_t>(2 * m.files.size());
      std::size_t at = 0;
      for (const auto f : m.files) {
        const auto res = shard.clientOpen(client, f, deadline);
        if (!res.status.isOk()) worst = res.status;
        if (res.available) ++availableNow;
        maxWait = std::max(maxWait, res.estimatedWait);
        ints[at++] = static_cast<std::int64_t>(res.status.code()) * 2 +
                     (res.available ? 1 : 0);
        ints[at++] = res.estimatedWait;
      }
      reply.ints = ints;
      reply.code = codeOf(worst);
      if (!worst.isOk()) reply.text = arena.copyString(worst.message());
      reply.intArg = availableNow;
      reply.intArg2 = maxWait;
      if (m.requestId != 0) {
        auto& e = session->recentAcks[session->recentAckNext];
        session->recentAckNext =
            (session->recentAckNext + 1) % session->recentAcks.size();
        e.requestId = m.requestId;
        e.ack.type = msg::MsgType::kOpenBatchAck;
        e.ack.requestId = m.requestId;
        e.ack.code = reply.code;
        e.ack.intArg = reply.intArg;
        e.ack.intArg2 = reply.intArg2;
        e.ack.ints.assign(ints.begin(), ints.end());
        e.ack.text.assign(reply.text);
      }
      break;
    }
    case msg::MsgType::kReleaseReq: {
      // The one release op. Batched like kOpenBatchReq: one message frees
      // every file under the single shard-lock acquisition this drain
      // already holds — per file the client's waiter entry if the step is
      // still pending (an abandoned acquire), else one reference.
      reply.type = msg::MsgType::kReleaseAck;
      Status worst = m.files.empty() ? errInvalidArgument("release: no file")
                                     : Status::ok();
      std::int64_t freed = 0;
      for (const auto f : m.files) {
        const Status st = shard.clientRelease(client, f);
        if (st.isOk()) {
          ++freed;
        } else {
          worst = st;
        }
      }
      reply.code = codeOf(worst);
      if (!worst.isOk()) reply.text = arena.copyString(worst.message());
      reply.intArg = freed;
      // requestId 0 marks a fire-and-forget release (cancels and
      // transparent closes): no ack is wanted.
      sendReply = m.requestId != 0;
      break;
    }
    case msg::MsgType::kBitrepReq: {
      reply.type = msg::MsgType::kBitrepAck;
      if (m.files.empty()) {
        reply.code = codeOf(errInvalidArgument("bitrep: no file"));
        break;
      }
      const auto match = shard.clientBitrep(
          client, m.files[0], static_cast<std::uint64_t>(m.intArg));
      if (match.isOk()) {
        reply.code = codeOf(Status::ok());
        reply.intArg = *match ? 1 : 0;
      } else {
        reply.code = codeOf(match.status());
        reply.text = arena.copyString(match.status().message());
      }
      break;
    }
    case msg::MsgType::kSimFileClosed: {
      if (!m.files.empty()) {
        shard.simulationFileWritten(static_cast<SimJobId>(m.intArg),
                                    m.files[0]);
      }
      sendReply = false;
      break;
    }
    case msg::MsgType::kSimFinished: {
      Status st = m.code == 0 ? Status::ok()
                              : Status(static_cast<StatusCode>(m.code),
                                       std::string(m.text));
      shard.simulationFinished(static_cast<SimJobId>(m.intArg), st);
      sendReply = false;
      break;
    }
    default: {
      reply.type = msg::MsgType::kError;
      reply.code = codeOf(errInvalidArgument("unhandled message type"));
      break;
    }
  }
  if (sendReply) sv.out.emplace_back(session, reply);
}

// ------------------------------------------------------------- introspection

msg::Message Daemon::buildStatusReply(std::uint64_t requestId) const {
  msg::Message reply;
  reply.requestId = requestId;
  reply.type = msg::MsgType::kStatusAck;
  const auto s = core_.stats();
  reply.code = codeOf(Status::ok());
  reply.intArg = static_cast<std::int64_t>(s.stepsProduced);
  reply.text = str::format(
      "opens=%llu;hits=%llu;misses=%llu;jobs=%llu;demand=%llu;"
      "prefetch=%llu;killed=%llu;steps=%llu;evictions=%llu;"
      "notifications=%llu;agent_resets=%llu;waiters_expired=%llu",
      static_cast<unsigned long long>(s.opens),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses),
      static_cast<unsigned long long>(s.jobsLaunched),
      static_cast<unsigned long long>(s.demandJobs),
      static_cast<unsigned long long>(s.prefetchJobs),
      static_cast<unsigned long long>(s.jobsKilled),
      static_cast<unsigned long long>(s.stepsProduced),
      static_cast<unsigned long long>(s.evictions),
      static_cast<unsigned long long>(s.notifications),
      static_cast<unsigned long long>(s.agentResets),
      static_cast<unsigned long long>(s.waitersExpired));
  for (const auto& name : core_.contextNames()) {
    reply.files.push_back(name);
  }
  return reply;
}

msg::Message Daemon::buildGeometryReply(std::uint64_t requestId,
                                        const std::string& context) const {
  msg::Message reply;
  reply.requestId = requestId;
  reply.type = msg::MsgType::kGeometryAck;
  reply.text = nodeId_;
  if (context.empty()) {
    // Enumeration form: the registered namespace roots.
    reply.code = codeOf(Status::ok());
    reply.files = core_.contextNames();
    reply.intArg = static_cast<std::int64_t>(reply.files.size());
    return reply;
  }
  const auto cfg = core_.contextConfig(context);
  if (!cfg) {
    const Status st = errNotFound("dv: no context: " + context);
    reply.code = codeOf(st);
    reply.text = st.message();
    return reply;
  }
  reply.code = codeOf(Status::ok());
  reply.context = context;
  reply.ints = {cfg->geometry.deltaD(), cfg->geometry.deltaR(),
                cfg->geometry.numTimesteps(),
                static_cast<std::int64_t>(cfg->outputStepBytes),
                static_cast<std::int64_t>(cfg->codec.padWidth())};
  reply.files = {cfg->codec.outputPrefix(), cfg->codec.outputSuffix()};
  reply.intArg = cfg->geometry.numOutputSteps();
  return reply;
}

std::vector<Daemon::ShardCounters> Daemon::shardCounters() const {
  std::vector<ShardCounters> out;
  out.reserve(serving_.size());
  for (std::size_t i = 0; i < serving_.size(); ++i) {
    const auto& sv = *serving_[i];
    ShardCounters c;
    c.shard = i;
    c.enqueued = sv.enqueued.load(std::memory_order_relaxed);
    c.served = sv.served.load(std::memory_order_relaxed);
    c.batches = sv.batches.load(std::memory_order_relaxed);
    c.maxBatch = sv.maxBatch.load(std::memory_order_relaxed);
    c.shed = sv.shed.load(std::memory_order_relaxed);
    {
      std::lock_guard lock(sv.qMutex);
      c.queued = sv.queue.size();
    }
    {
      std::lock_guard lock(core_.mutexOf(i));
      c.contexts = core_.shard(i).contextNames();
      c.residentSteps = core_.shard(i).residentSteps();
      const DvStats& s = core_.shard(i).stats();
      c.accesses = s.opens;
      c.misses = s.misses;
      c.resimSteps = s.stepsProduced;
      const LeaseCounters& lc = core_.shard(i).leaseCounters();
      c.replicaHits = lc.replicaHits;
      c.notLeased = lc.notLeased;
      c.leases = core_.shard(i).leaseViews();
      for (const auto& [name, v] : c.leases) {
        if (v.replica) c.leasedSteps += v.steps;
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

TuneWindow Daemon::tuneWindowOf(const ShardCounters& now,
                                const ShardCounters& prev) {
  TuneWindow w;
  w.accesses = now.accesses - prev.accesses;
  w.misses = now.misses - prev.misses;
  w.resimulatedSteps = now.resimSteps - prev.resimSteps;
  return w;
}

msg::Message Daemon::buildShardStatsReply(std::uint64_t requestId) const {
  msg::Message reply;
  reply.requestId = requestId;
  reply.type = msg::MsgType::kShardStatsAck;
  reply.code = codeOf(Status::ok());
  const auto counters = shardCounters();
  const auto fed = federationCounters();
  reply.intArg = static_cast<std::int64_t>(counters.size());
  // Contexts with un-acked eviction revokes, for `simfsctl cluster-status`.
  std::string revoking;
  {
    std::lock_guard lock(leaseMutex_);
    for (const auto& [name, eps] : pendingRevokes_) {
      if (!revoking.empty()) revoking += ',';
      revoking += name;
    }
  }
  if (revoking.empty()) revoking = "-";
  reply.text = str::format(
      "shards=%zu;workers=%zu;node=%s;ring=%zu;redirects=%llu;"
      "forwarded=%llu;forward_drops=%llu;pings=%llu;pongs=%llu;"
      "peers_suspect=%llu;peers_dead=%llu;"
      "conn_socket=%llu;conn_other=%llu;reactor=%.*s;"
      "replicas=%zu;lease_grants=%llu;lease_revokes=%llu;lease_acks=%llu;"
      "revoking=%s;proto=%lld;handoffs_inflight=%zu;handoffs_committed=%llu;"
      "handoffs_aborted=%llu",
      serving_.size(), workers_.size(),
      nodeId_.empty() ? "-" : nodeId_.c_str(), ringRef()->size(),
      static_cast<unsigned long long>(fed.redirects),
      static_cast<unsigned long long>(fed.forwarded),
      static_cast<unsigned long long>(fed.forwardDrops),
      static_cast<unsigned long long>(fed.pingsSent),
      static_cast<unsigned long long>(fed.pongsReceived),
      static_cast<unsigned long long>(fed.peersSuspect),
      static_cast<unsigned long long>(fed.peersDead),
      static_cast<unsigned long long>(
          connSocket_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          connOther_.load(std::memory_order_relaxed)),
      static_cast<int>(msg::reactorBackendName().size()),
      msg::reactorBackendName().data(),
      replicas_.load(std::memory_order_relaxed),
      static_cast<unsigned long long>(fed.leaseGrantsSent),
      static_cast<unsigned long long>(fed.leaseRevokesSent),
      static_cast<unsigned long long>(fed.leaseAcksReceived),
      revoking.c_str(),
      static_cast<long long>(msg::kProtocolVersionMax), fed.handoffsInflight,
      static_cast<unsigned long long>(fed.handoffsCommitted),
      static_cast<unsigned long long>(fed.handoffsAborted));
  for (const auto& c : counters) {
    std::string contexts;
    for (const auto& name : c.contexts) {
      if (!contexts.empty()) contexts += ',';
      contexts += name;
    }
    std::string leases;
    for (const auto& [name, v] : c.leases) {
      if (!leases.empty()) leases += ',';
      leases += str::format("%s:%llu:%zu:%c", name.c_str(),
                            static_cast<unsigned long long>(v.generation),
                            v.steps, v.replica ? 'r' : 'o');
    }
    if (leases.empty()) leases = "-";
    reply.files.push_back(str::format(
        "shard=%zu;contexts=%s;queued=%zu;enqueued=%llu;served=%llu;"
        "batches=%llu;max_batch=%llu;shed=%llu;resident_steps=%zu;"
        "accesses=%llu;misses=%llu;resim_steps=%llu;"
        "replica_hits=%llu;not_leased=%llu;leased_steps=%zu;leases=%s",
        c.shard, contexts.c_str(), c.queued,
        static_cast<unsigned long long>(c.enqueued),
        static_cast<unsigned long long>(c.served),
        static_cast<unsigned long long>(c.batches),
        static_cast<unsigned long long>(c.maxBatch),
        static_cast<unsigned long long>(c.shed), c.residentSteps,
        static_cast<unsigned long long>(c.accesses),
        static_cast<unsigned long long>(c.misses),
        static_cast<unsigned long long>(c.resimSteps),
        static_cast<unsigned long long>(c.replicaHits),
        static_cast<unsigned long long>(c.notLeased), c.leasedSteps,
        leases.c_str()));
  }
  return reply;
}

DvStats Daemon::stats() const { return core_.stats(); }

bool Daemon::isAvailable(const std::string& context, StepIndex step) const {
  return core_.isAvailable(context, step);
}

}  // namespace simfs::dv
