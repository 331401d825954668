#include "dvlib/session.hpp"

#include "common/env.hpp"
#include "common/log.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <optional>

namespace simfs::dvlib {

namespace detail {

/// Shared state behind an AcquireHandle. All fields are guarded by the
/// owning Session's mutex. Instances are recycled through the session's
/// state pool, so vectors (and the strings inside them) keep their
/// capacity across acquires.
struct AcquireState {
  std::vector<std::string> files;
  std::vector<Status> fileStatus;      ///< per-file outcome (ack / retire)
  std::vector<bool> availableAtAck;    ///< on disk at batch time
  std::vector<VDuration> fileWait;     ///< per-file DV estimate
  /// Awaiting kFileReady; transparent comparator so retirements probe
  /// with the receive view's string_view.
  std::set<std::string, std::less<>> pending;
  Status worst;
  VDuration estimatedWait = 0;
  std::uint64_t wireId = 0;  ///< requestId of the kOpenBatchReq
  /// Endpoint the batch currently lives on (owner or a replica link):
  /// the cancel unwinding this batch must land where it registered.
  std::shared_ptr<msg::Transport> servedBy;
  bool ack = false;        ///< batch ack processed
  bool completed = false;  ///< terminal; continuations fired
  /// Registration unwound by cancel(): a late ack leaves the state alone.
  bool cancelled = false;
  std::vector<std::function<void(const Status&)>> continuations;
};

}  // namespace detail

namespace {

/// Steady-clock ns for retry due-times (never the DV's virtual clock:
/// backoff must keep flowing while the daemon is the thing that's down).
VTime steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Hop bound for redirect-following: a correct federation resolves in one
/// hop (two with a stale ring); more means the cluster disagrees with
/// itself and looping would never converge.
constexpr int kMaxRedirects = 4;

/// How many recyclable AcquireStates a session retains.
constexpr std::size_t kStatePoolCap = 64;

Status statusFrom(const msg::Message& m) {
  const auto code = static_cast<StatusCode>(m.code);
  if (code == StatusCode::kOk) return Status::ok();
  return Status(code, m.text);
}

Status statusFromView(const msg::MessageView& m) {
  const auto code = static_cast<StatusCode>(m.code());
  if (code == StatusCode::kOk) return Status::ok();
  return Status(code, std::string(m.text()));
}

msg::Message makeHello(const std::string& context) {
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.context = context;
  hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
  // Protocol-version handshake, additive: the cap bit plus an advertised
  // [min, max] range. Pre-negotiation daemons ignore unknown cap bits and
  // extra ints and answer a legacy ack (no choice echoed), which the
  // caller reads as version 1.
  hello.intArg2 |= msg::kHelloCapVersion;
  hello.ints.push_back(msg::kProtocolVersionMin);
  hello.ints.push_back(msg::kProtocolVersionMax);
  return hello;
}

/// The daemon's protocol pick out of a kHelloAck; 1 when the ack carries
/// none (legacy daemon, or a replica-mode ack).
std::int64_t negotiatedVersionOf(const msg::Message& reply) {
  return reply.ints.empty() ? 1 : reply.ints[0];
}

std::uint64_t nextCallId() {
  static std::atomic<std::uint64_t> callSeq{1};
  return callSeq.fetch_add(1);
}

/// Per-thread view array over an owned file list, for zero-copy sends.
/// Reused across calls; the returned span is only read until the send
/// returns, and the strings it references must outlive the call (the
/// acquire paths pin them through the state's shared_ptr).
std::span<const std::string_view> scratchViewsOf(
    const std::vector<std::string>& files) {
  thread_local std::vector<std::string_view> scratch;
  scratch.clear();
  for (const auto& f : files) scratch.push_back(f);
  return scratch;
}

}  // namespace

// ------------------------------------------------------------- AcquireHandle

AcquireHandle::AcquireHandle() = default;
AcquireHandle::~AcquireHandle() = default;
AcquireHandle::AcquireHandle(const AcquireHandle&) = default;
AcquireHandle& AcquireHandle::operator=(const AcquireHandle&) = default;
AcquireHandle::AcquireHandle(AcquireHandle&&) noexcept = default;
AcquireHandle& AcquireHandle::operator=(AcquireHandle&&) noexcept = default;

AcquireHandle::AcquireHandle(std::shared_ptr<Session> session,
                             std::shared_ptr<detail::AcquireState> state)
    : session_(std::move(session)), state_(std::move(state)) {}

bool AcquireHandle::valid() const noexcept {
  return session_ != nullptr && state_ != nullptr;
}

const std::vector<std::string>& AcquireHandle::files() const {
  static const std::vector<std::string> kEmpty;
  if (!valid()) return kEmpty;
  return state_->files;  // immutable after construction
}

Status AcquireHandle::wait(SimfsStatus* status, VDuration timeoutNs) {
  if (!valid()) return errFailedPrecondition("dvlib: empty handle");
  return session_->handleWait(state_, status, timeoutNs);
}

Status AcquireHandle::test(bool* done, SimfsStatus* status) {
  if (!valid()) return errFailedPrecondition("dvlib: empty handle");
  std::lock_guard lock(session_->mutex_);
  if (done != nullptr) *done = state_->completed;
  if (status != nullptr) {
    status->error = state_->worst;
    status->estimatedWait = state_->estimatedWait;
  }
  return state_->worst;
}

Status AcquireHandle::waitSome(std::vector<int>* readyIdx,
                               SimfsStatus* status) {
  if (!valid()) return errFailedPrecondition("dvlib: empty handle");
  Session::Fired fired;
  std::unique_lock lock(session_->mutex_);
  auto& st = *state_;
  const auto resolvedCount = [&] {
    return st.ack ? st.files.size() - st.pending.size() : 0;
  };
  if (session_->awaitAckLocked(lock, state_, fired)) {
    session_->cv_.wait(lock,
                       [&] { return st.completed || resolvedCount() > 0; });
  }
  if (readyIdx != nullptr) {
    readyIdx->clear();
    for (std::size_t i = 0; i < st.files.size(); ++i) {
      if (st.ack && st.pending.count(st.files[i]) == 0) {
        readyIdx->push_back(static_cast<int>(i));
      }
    }
  }
  if (status != nullptr) {
    status->error = st.worst;
    status->estimatedWait = st.estimatedWait;
  }
  const Status result = st.worst;
  lock.unlock();
  for (auto& [fn, s] : fired) fn(s);
  return result;
}

Status AcquireHandle::testSome(std::vector<int>* readyIdx,
                               SimfsStatus* status) {
  if (!valid()) return errFailedPrecondition("dvlib: empty handle");
  std::lock_guard lock(session_->mutex_);
  auto& st = *state_;
  if (readyIdx != nullptr) {
    readyIdx->clear();
    for (std::size_t i = 0; i < st.files.size(); ++i) {
      if (st.ack && st.pending.count(st.files[i]) == 0) {
        readyIdx->push_back(static_cast<int>(i));
      }
    }
  }
  if (status != nullptr) {
    status->error = st.worst;
    status->estimatedWait = st.estimatedWait;
  }
  return st.worst;
}

Status AcquireHandle::waitAck(SimfsStatus* status) {
  if (!valid()) return errFailedPrecondition("dvlib: empty handle");
  Session::Fired fired;
  std::unique_lock lock(session_->mutex_);
  (void)session_->awaitAckLocked(lock, state_, fired);
  if (status != nullptr) {
    status->error = state_->worst;
    status->estimatedWait = state_->estimatedWait;
  }
  const Status result = state_->worst;
  lock.unlock();
  for (auto& [fn, s] : fired) fn(s);
  return result;
}

void AcquireHandle::then(std::function<void(const Status&)> fn) {
  if (!valid() || !fn) return;
  Status final;
  {
    std::lock_guard lock(session_->mutex_);
    if (!state_->completed) {
      state_->continuations.push_back(std::move(fn));
      return;
    }
    final = state_->worst;
  }
  fn(final);  // already terminal: fire inline
}

Status AcquireHandle::cancel() {
  if (!valid()) return errFailedPrecondition("dvlib: empty handle");
  return session_->handleCancel(state_);
}

Status AcquireHandle::waitIndex(std::size_t index) {
  if (!valid()) return errFailedPrecondition("dvlib: empty handle");
  if (index >= state_->files.size()) {
    return errInvalidArgument("dvlib: wait index out of range");
  }
  Session::Fired fired;
  std::unique_lock lock(session_->mutex_);
  auto& st = *state_;
  if (session_->awaitAckLocked(lock, state_, fired)) {
    session_->cv_.wait(lock, [&] {
      return st.completed || st.pending.count(st.files[index]) == 0;
    });
  }
  // Resolution (ack, kFileReady, failure or cancel) always writes the
  // file's slot, so the slot is the answer.
  const Status result = st.fileStatus[index];
  lock.unlock();
  for (auto& [fn, s] : fired) fn(s);
  return result;
}

bool AcquireHandle::complete() const {
  if (!valid()) return false;
  std::lock_guard lock(session_->mutex_);
  return state_->completed;
}

VDuration AcquireHandle::estimatedWait() const {
  if (!valid()) return 0;
  std::lock_guard lock(session_->mutex_);
  return state_->estimatedWait;
}

AcquireHandle::FileProbe AcquireHandle::probe(std::size_t index) const {
  FileProbe p;
  if (!valid()) {
    p.status = errFailedPrecondition("dvlib: empty handle");
    return p;
  }
  std::lock_guard lock(session_->mutex_);
  if (index >= state_->files.size()) {
    p.status = errInvalidArgument("dvlib: probe index out of range");
    return p;
  }
  p.status = state_->fileStatus[index];
  p.available = state_->availableAtAck[index];
  p.estimatedWait = state_->fileWait[index];
  return p;
}

// ------------------------------------------------------------------ Session

Session::Session(std::string context) : context_(std::move(context)) {
  opDeadlineNs_ =
      std::max<std::int64_t>(
          0, env::getInt("SIMFS_OP_DEADLINE_MS").value_or(0)) *
      1'000'000;
  retryBudget_ = static_cast<int>(std::clamp<std::int64_t>(
      env::getInt("SIMFS_RETRY_BUDGET").value_or(3), 0, 1000));
  retryBaseNs_ = std::max<std::int64_t>(
                     1, env::getInt("SIMFS_RETRY_BASE_MS").value_or(10)) *
                 1'000'000;
  callTimeoutNs_ =
      std::max<std::int64_t>(
          1, env::getInt("SIMFS_CALL_TIMEOUT_MS").value_or(30'000)) *
      1'000'000;
}

void Session::setOpDeadline(VDuration ns) {
  std::lock_guard lock(mutex_);
  opDeadlineNs_ = ns > 0 ? ns : 0;
}

void Session::setRetryPolicy(int budget, VDuration baseBackoffNs) {
  std::lock_guard lock(mutex_);
  retryBudget_ = std::max(0, budget);
  if (baseBackoffNs > 0) retryBaseNs_ = baseBackoffNs;
}

Session::~Session() {
  finalize();
  // Teardown handshake: destroying the endpoints disarms their handlers
  // and blocks until in-flight callbacks have left, so the members those
  // callbacks capture (via `this`) are still alive while they run.
  // Pooled states may pin replica transports through servedBy — drop
  // those references here so every endpoint dies inside this body, not
  // during member destruction. The fields are emptied under the lock (a
  // close callback still in flight reads them) and the endpoints die
  // outside it (their destructors wait for that callback, which takes
  // the lock).
  std::vector<std::shared_ptr<msg::Transport>> endpoints;
  {
    std::lock_guard lock(mutex_);
    for (const auto& s : statePool_) {
      endpoints.push_back(std::move(s->servedBy));
    }
    endpoints.insert(endpoints.end(),
                     std::make_move_iterator(retired_.begin()),
                     std::make_move_iterator(retired_.end()));
    retired_.clear();
    endpoints.push_back(std::move(transport_));
  }
  endpoints.clear();
}

void Session::attach(const std::shared_ptr<msg::Transport>& t) {
  // Raw `this` is deliberate — and safe only because ~Session destroys
  // every attached endpoint FIRST: a transport destructor disarms its
  // handler slots and waits out invocations already inside them, so no
  // callback can touch session members mid-destruction. (A weak/shared
  // self-reference here would be worse, not better: a callback that
  // ends up owning the last reference would run ~Session inside the
  // very handler invocation the transport destructor waits on — a
  // self-deadlock.)
  t->setViewHandler([this](const msg::MessageView& m) { onMessage(m); });
  // Peer death must fail outstanding waits instead of stranding them.
  t->setCloseHandler([this, raw = t.get()] { onTransportClosed(raw); });
}

Result<std::shared_ptr<Session>> Session::connect(
    std::unique_ptr<msg::Transport> transport, const std::string& context) {
  auto session = std::shared_ptr<Session>(new Session(context));
  std::shared_ptr<msg::Transport> t = std::move(transport);
  session->attach(t);
  auto reply = session->callOn(t, makeHello(context));
  if (!reply) return reply.status();
  if (reply->type == msg::MsgType::kRedirect) {
    return errFailedPrecondition(
        "dvlib: context '" + context + "' is owned by node '" + reply->text +
        "'; connect through a NodeRouter to follow redirects");
  }
  const auto st = statusFrom(*reply);
  if (!st.isOk()) return st;
  session->clientId_ = static_cast<ClientId>(reply->intArg);
  session->protocolVersion_.store(negotiatedVersionOf(*reply),
                                  std::memory_order_relaxed);
  session->transport_ = std::move(t);
  return session;
}

Result<std::shared_ptr<Session>> Session::connect(
    std::shared_ptr<NodeRouter> router, const std::string& context) {
  if (!router) return errInvalidArgument("dvlib: null router");
  auto session = std::shared_ptr<Session>(new Session(context));
  session->router_ = std::move(router);
  auto owner = session->router_->ownerOf(context);
  if (!owner) return owner.status();
  SIMFS_RETURN_IF_ERROR(session->rebind(owner->id));
  return session;
}

std::shared_ptr<msg::Transport> Session::transportRef() {
  std::lock_guard lock(mutex_);
  return transport_;
}

// ------------------------------------------------------- read-replica spread

int Session::replicaIndexOfLocked(const msg::Transport* t) const {
  if (t == nullptr) return -1;
  for (std::size_t i = 0; i < replicaLinks_.size(); ++i) {
    if (replicaLinks_[i].transport.get() == t) return static_cast<int>(i);
  }
  return -1;
}

std::size_t Session::replicaEndpoints() {
  std::lock_guard lock(mutex_);
  std::size_t live = 0;
  for (const auto& link : replicaLinks_) {
    if (!link.dead && link.transport && link.transport->isOpen()) ++live;
  }
  return live;
}

std::shared_ptr<msg::Transport> Session::pickTransportLocked() {
  if (router_ != nullptr && transport_ != nullptr && !replicaSetupDone_ &&
      !replicaSetupPending_ && !finalized_ && router_->replicaCount() > 0) {
    // First acquire after the federation advertised replicas: hand the
    // (blocking) dial + replica hellos to the recovery thread. This
    // batch still goes to the owner; later ones spread.
    replicaSetupPending_ = true;
    wakeRecoveryLocked();
  }
  std::size_t live = 0;
  for (const auto& link : replicaLinks_) {
    if (!link.dead && link.transport && link.transport->isOpen()) ++live;
  }
  if (live == 0 || transport_ == nullptr) return transport_;
  // Power-of-two-choices on per-endpoint estimated wait: sample two
  // distinct candidates (0 = owner, 1.. = live replica links) and take
  // the one whose last batch ack promised the shorter wait — loaded
  // endpoints (deep re-simulation queues) shed traffic automatically,
  // idle replicas absorb it.
  const std::size_t n = 1 + live;
  const auto draw = [this](std::uint64_t bound) {
    retrySalt_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = retrySalt_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) % bound;
  };
  std::size_t a = draw(n);
  std::size_t b = draw(n - 1);
  if (b >= a) ++b;
  const auto candidate = [&](std::size_t idx)
      -> std::pair<std::shared_ptr<msg::Transport>, VDuration> {
    if (idx == 0) return {transport_, ownerWait_};
    std::size_t seen = 0;
    for (const auto& link : replicaLinks_) {
      if (link.dead || !link.transport || !link.transport->isOpen()) continue;
      if (++seen == idx) return {link.transport, link.lastWait};
    }
    return {transport_, ownerWait_};
  };
  auto [ta, wa] = candidate(a);
  auto [tb, wb] = candidate(b);
  return wa <= wb ? std::move(ta) : std::move(tb);
}

void Session::setupReplicaLinks() {
  if (router_ == nullptr) return;
  for (const auto& node : router_->replicasOf(context_)) {
    {
      std::lock_guard lock(mutex_);
      if (finalized_ || recoveryStop_) return;
      bool have = false;
      for (const auto& link : replicaLinks_) {
        if (link.nodeId == node.id && !link.dead && link.transport &&
            link.transport->isOpen()) {
          have = true;
          break;
        }
      }
      if (have) continue;
    }
    auto checked = router_->checkout(node.endpoint);
    if (!checked) continue;  // best effort: the owner still serves
    std::shared_ptr<msg::Transport> t = std::move(*checked);
    attach(t);
    msg::Message hello = makeHello(context_);
    // ONLY the replica cap travels on replica hellos (never on the main
    // session's, so a rebind can never accidentally bind to a replica):
    // the daemon binds this link in replica mode — leased resident steps
    // serve locally, everything else answers kNotLeased.
    hello.intArg2 |= msg::kHelloCapReplica;
    auto reply = callOn(t, hello);
    if (!reply) {
      t->close();
      continue;
    }
    if (reply->type == msg::MsgType::kRedirect) {
      // Not (or no longer) a lease holder: nothing bound server-side, so
      // the connection is reusable by sessions that node does own.
      if (auto ring = ringFromMessage(*reply)) router_->adoptRing(*ring);
      router_->noteReplicaCount(static_cast<std::size_t>(
          std::max<std::int64_t>(0, reply->intArg2)));
      router_->checkin(node.endpoint, std::move(t));
      continue;
    }
    if (!statusFrom(*reply).isOk()) {
      t->close();
      continue;
    }
    bool closeNow = false;
    {
      std::lock_guard lock(mutex_);
      if (finalized_) {
        closeNow = true;  // raced finalize(): nothing tracks it anymore
      } else {
        ReplicaLink link;
        link.nodeId = node.id;
        link.endpoint = node.endpoint;
        link.transport = std::move(t);
        replicaLinks_.push_back(std::move(link));
      }
    }
    if (closeNow) {
      t->close();
      return;
    }
  }
  std::lock_guard lock(mutex_);
  replicaSetupDone_ = true;
}

Result<msg::Message> Session::callOn(const std::shared_ptr<msg::Transport>& t,
                                     msg::Message m) {
  m.requestId = nextCallId();
  const auto id = m.requestId;
  {
    // Registered before the send so a rebind racing in between still
    // sees (and can fail) this call.
    std::lock_guard lock(mutex_);
    inflight_[id] = t.get();
  }
  const Status sent = t->send(m);
  std::unique_lock lock(mutex_);
  if (!sent.isOk()) {
    inflight_.erase(id);
    return sent;
  }
  const bool got = cv_.wait_for(lock, std::chrono::nanoseconds(callTimeoutNs_),
                                [&] { return replies_.count(id) > 0; });
  inflight_.erase(id);
  if (!got) return errTimedOut("dvlib: no reply from DV");
  auto reply = std::move(replies_.at(id));
  replies_.erase(id);
  return reply;
}

Result<msg::Message> Session::call(msg::Message m) {
  for (int hop = 0; hop <= kMaxRedirects; ++hop) {
    auto t = transportRef();
    if (!t) return errUnavailable("dvlib: session not connected");
    auto reply = callOn(t, m);  // m kept for a possible post-redirect resend
    if (!reply || reply->type != msg::MsgType::kRedirect) return reply;
    if (router_ == nullptr) {
      return errUnavailable("dvlib: redirected to node '" + reply->text +
                            "' but session has no router");
    }
    if (auto ring = ringFromMessage(*reply)) router_->adoptRing(*ring);
    router_->noteReplicaCount(static_cast<std::size_t>(
        std::max<std::int64_t>(0, reply->intArg2)));
    SIMFS_RETURN_IF_ERROR(rebind(reply->text));
  }
  return errUnavailable("dvlib: redirect loop (ring members disagree)");
}

// ----------------------------------------------------------- async delivery

std::vector<Session::AsyncOp>::iterator Session::findAsyncOp(
    std::uint64_t id) {
  return std::find_if(asyncOps_.begin(), asyncOps_.end(),
                      [id](const AsyncOp& op) { return op.id == id; });
}

void Session::completeLocked(
    const std::shared_ptr<detail::AcquireState>& state, Fired& fired) {
  if (state->completed) return;
  state->completed = true;
  for (auto& fn : state->continuations) {
    fired.emplace_back(std::move(fn), state->worst);
  }
  state->continuations.clear();
  std::erase(active_, state);
  cv_.notify_all();
}

void Session::failStateLocked(
    const std::shared_ptr<detail::AcquireState>& state, const Status& st,
    Fired& fired) {
  if (state->completed) return;
  if (state->worst.isOk()) state->worst = st;
  for (std::size_t i = 0; i < state->files.size(); ++i) {
    if (!state->ack || state->pending.count(state->files[i]) != 0) {
      state->fileStatus[i] = st;
    }
  }
  state->ack = true;
  state->pending.clear();
  completeLocked(state, fired);
}

void Session::applyBatchAckLocked(detail::AcquireState& state,
                                  const msg::MessageView& m) {
  state.ack = true;
  // Cancelled before its ack landed: every file already resolved as
  // cancelled and its release is on the wire behind the batch.
  if (state.cancelled) return;
  const std::size_t n = state.files.size();
  if (m.type() != msg::MsgType::kOpenBatchAck || m.intCount() != 2 * n) {
    // Error reply (or a malformed ack from a hostile peer): the whole
    // batch failed, nothing was registered server-side.
    Status overall = statusFromView(m);
    if (overall.isOk()) {
      overall = errInternal("dvlib: malformed open-batch ack");
    }
    state.worst = overall;
    state.fileStatus.assign(n, overall);
    return;
  }
  // Outcome pairs decode lazily, in place, straight from the receive
  // buffer — the whole hit path runs without touching the heap.
  auto it = m.intsBegin();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t packed = *it;
    ++it;
    const VDuration wait = *it;
    ++it;
    if (packed < 0) {
      state.fileStatus[i] = errInternal("dvlib: bad per-file outcome");
      state.worst = state.fileStatus[i];
      continue;
    }
    const auto code = static_cast<StatusCode>(packed >> 1);
    const bool avail = (packed & 1) != 0;
    state.availableAtAck[i] = avail;
    state.fileWait[i] = wait;
    if (code != StatusCode::kOk) {
      // Per-file failure: this file registered nothing server-side. The
      // worst-status message travels in the ack's text field.
      Status st(code, m.code() == static_cast<std::int32_t>(code)
                          ? std::string(m.text())
                          : std::string(statusCodeName(code)));
      state.fileStatus[i] = st;
      state.worst = st;
      continue;
    }
    state.fileStatus[i] = Status::ok();
    if (!avail) {
      state.estimatedWait = std::max(state.estimatedWait, wait);
      state.pending.insert(state.files[i]);
    }
  }
}

void Session::onMessage(const msg::MessageView& m) {
  // One owned copy serves both the ring adoption and (for kRingReq
  // replies) the sync-reply delivery below.
  std::optional<msg::Message> ringOwned;
  if (m.type() == msg::MsgType::kRingUpdate && router_ != nullptr) {
    // Membership push: re-resolve future routing. router_ is set once at
    // construction, so reading it here without the lock is safe.
    ringOwned = m.toMessage();
    if (auto ring = ringFromMessage(*ringOwned)) router_->adoptRing(*ring);
    router_->noteReplicaCount(static_cast<std::size_t>(
        std::max<std::int64_t>(0, ringOwned->intArg2)));
    if (m.requestId() == 0) return;  // pure push, not a reply
  }
  Fired fired;
  {
    std::lock_guard lock(mutex_);
    if (m.type() == msg::MsgType::kFileReady) {
      const std::string_view file = m.file0();
      const Status ready = statusFromView(m);
      // Retire the file from every live acquire awaiting it; a file no
      // acquire awaits (cancelled, say) leaves no trace.
      std::vector<std::shared_ptr<detail::AcquireState>> done;
      for (const auto& state : active_) {
        const auto pit = state->pending.find(file);
        if (pit == state->pending.end()) continue;
        state->pending.erase(pit);
        for (std::size_t i = 0; i < state->files.size(); ++i) {
          if (state->files[i] == file && !state->availableAtAck[i]) {
            state->fileStatus[i] = ready;
          }
        }
        if (!ready.isOk()) state->worst = ready;
        if (state->ack && state->pending.empty()) done.push_back(state);
      }
      for (const auto& state : done) completeLocked(state, fired);
      cv_.notify_all();
    } else if (const auto op = findAsyncOp(m.requestId());
               op != asyncOps_.end()) {
      if (m.type() == msg::MsgType::kRedirect) {
        ++op->redirects;
        if (router_ == nullptr || op->redirects > kMaxRedirects) {
          auto state = op->state;
          asyncOps_.erase(op);
          failStateLocked(
              state,
              router_ == nullptr
                  ? errUnavailable("dvlib: redirected to node '" +
                                   std::string(m.text()) +
                                   "' but session has no router")
                  : errUnavailable(
                        "dvlib: redirect loop (ring members disagree)"),
              fired);
        } else {
          // The rebind dials and blocks for a hello — not allowed on
          // this (reactor) thread. Hand it to the recovery thread, which
          // resends every surviving op once rebound.
          const msg::Message owned = m.toMessage();
          if (auto ring = ringFromMessage(owned)) router_->adoptRing(*ring);
          router_->noteReplicaCount(static_cast<std::size_t>(
              std::max<std::int64_t>(0, owned.intArg2)));
          queueRedirectLocked(owned.text);
        }
      } else {
        // A replica whose lease was revoked (or never covered the batch)
        // answers kNotLeased — whole-batch or per-file. Not a failure:
        // the recovery thread unwinds the partial registration on the
        // replica and resends the op, same requestId, on the owner.
        const int replicaIdx = replicaIndexOfLocked(op->transport);
        bool notLeased = false;
        if (replicaIdx >= 0 && !op->state->cancelled) {
          if (static_cast<StatusCode>(m.code()) == StatusCode::kNotLeased) {
            notLeased = true;
          } else if (m.type() == msg::MsgType::kOpenBatchAck) {
            for (auto ip = m.intsBegin(); ip != m.intsEnd(); ++ip) {
              const std::int64_t packed = *ip;  // (code << 1) | available
              if (packed >= 0 && static_cast<StatusCode>(packed >> 1) ==
                                     StatusCode::kNotLeased) {
                notLeased = true;
                break;
              }
              ++ip;  // skip this pair's estimated wait
              if (ip == m.intsEnd()) break;
            }
          }
        }
        if (notLeased) {
          fallbacks_.push_back(ReplicaFallback{
              op->id,
              replicaLinks_[static_cast<std::size_t>(replicaIdx)].transport});
          wakeRecoveryLocked();
          return;  // op stays in asyncOps_ awaiting the owner's ack
        }
        // A whole-batch kUnavailable with no outcome pairs is a load
        // shed: the shard dropped the request before registering
        // anything, so resending the SAME requestId is safe (and the
        // daemon's dedup window absorbs the case where it did answer
        // and the ack was lost).
        const bool shed =
            static_cast<StatusCode>(m.code()) == StatusCode::kUnavailable &&
            m.intCount() == 0 && !op->state->cancelled;
        if (shed && op->attempts < retryBudget_) {
          ++op->attempts;
          const VDuration hint =
              std::max(op->state->estimatedWait, retryBaseNs_);
          queueRetryLocked(op->id, retryBackoffNs(op->attempts, hint));
        } else if (shed) {
          auto state = op->state;
          asyncOps_.erase(op);
          failStateLocked(
              state,
              errUnreachable("dvlib: retry budget exhausted (DV shedding)"),
              fired);
        } else {
          auto state = op->state;
          const msg::Transport* src = op->transport;
          asyncOps_.erase(op);
          applyBatchAckLocked(*state, m);
          // Feed the p2c picker: the batch's worst estimated wait is the
          // endpoint's freshest load signal (0 = everything was resident).
          if (src == transport_.get()) {
            ownerWait_ = state->estimatedWait;
          } else if (const int ri = replicaIndexOfLocked(src); ri >= 0) {
            auto& link = replicaLinks_[static_cast<std::size_t>(ri)];
            link.lastWait = state->estimatedWait;
            // The step references now live at the REPLICA: remember the
            // serving link per file so release() unwinds them there.
            for (std::size_t i = 0; i < state->files.size(); ++i) {
              if (state->fileStatus[i].isOk()) {
                replicaRefs_[state->files[i]].push_back(link.transport);
              }
            }
          }
          if (!state->cancelled && state->pending.empty()) {
            completeLocked(state, fired);
          }
          cv_.notify_all();
        }
      }
    } else if (inflight_.count(m.requestId()) != 0) {
      replies_[m.requestId()] =
          ringOwned ? std::move(*ringOwned) : m.toMessage();
      cv_.notify_all();
    } else {
      // Unmatched reply — e.g. a batch ack landing after its op already
      // timed out. Dropping it is the only option that does not grow
      // replies_ without bound on a slow daemon.
      SIMFS_LOG_DEBUG("dvlib", "dropping unmatched reply");
    }
  }
  for (auto& [fn, st] : fired) fn(st);
}

void Session::wakeRecoveryLocked() {
  if (!recovery_.joinable()) {
    recovery_ = std::thread([this] { recoveryLoop(); });
  }
  cv_.notify_all();
}

void Session::queueRedirectLocked(const std::string& target) {
  if (std::find(redirectTargets_.begin(), redirectTargets_.end(), target) ==
      redirectTargets_.end()) {
    redirectTargets_.push_back(target);
  }
  wakeRecoveryLocked();
}

void Session::queueRetryLocked(std::uint64_t opId, VDuration delayNs) {
  retries_.push_back(PendingRetry{opId, steadyNowNs() + delayNs});
  wakeRecoveryLocked();
}

void Session::queueReconnectLocked() {
  if (reconnectPending_) return;  // one re-dial covers every closed-op wake
  reconnectPending_ = true;
  wakeRecoveryLocked();
}

VDuration Session::retryBackoffNs(int attempt, VDuration hint) {
  constexpr VDuration kBackoffCap = 2'000'000'000;  // 2s
  VDuration base = std::max(hint, retryBaseNs_);
  for (int i = 1; i < attempt && base < kBackoffCap; ++i) base *= 2;
  base = std::min(base, kBackoffCap);
  // Deterministic ±25% jitter (splitmix-style) so a fleet of shed clients
  // does not re-dogpile the shard in lockstep.
  retrySalt_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = retrySalt_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  const std::uint64_t r = (z ^ (z >> 31)) & 0x1ff;  // 0..511
  return static_cast<VDuration>(static_cast<double>(base) *
                                (0.75 + static_cast<double>(r) / 1024.0));
}

void Session::recoveryLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    const auto signalled = [&] {
      return recoveryStop_ || !redirectTargets_.empty() ||
             reconnectPending_ || !fallbacks_.empty() || replicaSetupPending_;
    };
    if (retries_.empty()) {
      cv_.wait(lock, [&] { return signalled() || !retries_.empty(); });
    } else {
      VTime due = retries_.front().due;
      for (const auto& r : retries_) due = std::min(due, r.due);
      const auto until =
          std::chrono::steady_clock::now() +
          std::chrono::nanoseconds(std::max<VTime>(0, due - steadyNowNs()));
      (void)cv_.wait_until(lock, until, signalled);
    }
    if (recoveryStop_) return;
    if (!redirectTargets_.empty()) {
      const std::string target = redirectTargets_.front();
      redirectTargets_.pop_front();
      lock.unlock();
      const Status st = rebind(target);
      if (!st.isOk()) failAsyncOps(st);
      lock.lock();
      continue;
    }
    if (replicaSetupPending_) {
      replicaSetupPending_ = false;
      lock.unlock();
      setupReplicaLinks();  // dials + replica hellos; best effort
      lock.lock();
      continue;
    }
    if (!fallbacks_.empty()) {
      ReplicaFallback fb = std::move(fallbacks_.front());
      fallbacks_.pop_front();
      std::vector<std::string> files;
      if (const auto it = findAsyncOp(fb.opId);
          it != asyncOps_.end() && !it->state->completed &&
          !it->state->cancelled) {
        files = it->state->files;
      }
      lock.unlock();
      if (!files.empty()) {
        // Unwind whatever the replica partially registered before its
        // not-leased answer (fire-and-forget; replica refs carry no
        // cache pins, so a lost cancel is benign), then resend the batch
        // on the owner under the same requestId.
        if (fb.replica && fb.replica->isOpen()) {
          msg::MessageRef unwind;
          unwind.type = msg::MsgType::kReleaseReq;
          unwind.context = context_;
          unwind.files = scratchViewsOf(files);
          (void)fb.replica->send(unwind);
        }
        resendOp(fb.opId);
      }
      lock.lock();
      continue;
    }
    if (reconnectPending_) {
      reconnectPending_ = false;
      const int attempt = ++reconnectAttempts_;
      const int budget = retryBudget_;
      lock.unlock();
      // Re-resolve the context owner — the ring may have healed around
      // the dead node — and rebind, which resends surviving un-acked
      // batches under their original requestIds.
      Status st = errUnavailable("dvlib: session has no router");
      if (router_ != nullptr) {
        if (auto owner = router_->ownerOf(context_)) {
          st = rebind(owner->id);
        } else {
          st = owner.status();
        }
      }
      if (st.isOk()) {
        lock.lock();
        reconnectAttempts_ = 0;
        continue;
      }
      if (attempt > budget) {
        // Out of budget: everything still outstanding completes with a
        // terminal kUnreachable instead of hanging on a dead endpoint.
        Fired fired;
        {
          std::lock_guard lk(mutex_);
          failLinkLocked(nullptr,
                         errUnreachable("dvlib: retry budget exhausted: " +
                                        std::string(st.message())),
                         /*resendable=*/false, fired);
        }
        for (auto& [fn, s] : fired) fn(s);
        lock.lock();
        reconnectAttempts_ = 0;
        continue;
      }
      lock.lock();
      (void)cv_.wait_for(lock,
                         std::chrono::nanoseconds(
                             retryBackoffNs(attempt, retryBaseNs_)),
                         [&] { return recoveryStop_; });
      if (recoveryStop_) return;
      reconnectPending_ = true;
      continue;
    }
    const VTime now = steadyNowNs();
    for (std::size_t i = 0; i < retries_.size();) {
      if (retries_[i].due > now) {
        ++i;
        continue;
      }
      const std::uint64_t opId = retries_[i].opId;
      retries_.erase(retries_.begin() + static_cast<std::ptrdiff_t>(i));
      lock.unlock();
      resendOp(opId);
      lock.lock();
      i = 0;  // the deque may have changed while unlocked
    }
  }
}

void Session::resendOp(std::uint64_t opId) {
  std::shared_ptr<msg::Transport> t;
  std::shared_ptr<detail::AcquireState> state;
  VDuration deadline = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = findAsyncOp(opId);
    if (it == asyncOps_.end() || it->state->completed ||
        it->state->cancelled) {
      return;  // resolved (or abandoned) while the backoff ran
    }
    t = transport_;
    if (!t) return;  // reconnect in flight; the rebind resends survivors
    it->transport = t.get();
    it->state->servedBy = t;  // retarget: resends always go to the owner
    state = it->state;
    deadline = opDeadlineNs_;
  }
  msg::MessageRef req;
  req.type = msg::MsgType::kOpenBatchReq;
  req.requestId = opId;
  req.intArg2 = deadline;
  req.files = scratchViewsOf(state->files);
  const Status sent = t->send(req);
  if (sent.isOk()) return;
  Fired fired;
  {
    std::lock_guard lock(mutex_);
    const auto it = findAsyncOp(opId);
    if (it != asyncOps_.end() && it->transport == t.get()) {
      auto failing = it->state;
      asyncOps_.erase(it);
      failStateLocked(failing, sent, fired);
    }
  }
  for (auto& [fn, s] : fired) fn(s);
}

void Session::failLinkLocked(const msg::Transport* lost, const Status& down,
                             bool resendable, Fired& fired) {
  const auto on = [lost](const msg::Transport* t) {
    return lost == nullptr || t == lost;
  };
  if (!resendable) {
    for (auto it = asyncOps_.begin(); it != asyncOps_.end();) {
      if (!on(it->transport)) {
        ++it;
        continue;
      }
      auto state = std::move(it->state);
      it = asyncOps_.erase(it);
      failStateLocked(state, down, fired);
    }
  }
  // Acked acquires still owed files cannot be resent: their batch already
  // registered, and the waiter registrations died with the link.
  std::vector<std::shared_ptr<detail::AcquireState>> owed;
  for (const auto& s : active_) {
    if (s->ack && !s->pending.empty() && on(s->servedBy.get())) {
      owed.push_back(s);
    }
  }
  for (const auto& s : owed) failStateLocked(s, down, fired);
  // Sync calls are request/reply: hand them a synthetic error instead of
  // letting them sit out the full call timeout.
  for (const auto& [id, tp] : inflight_) {
    if (!on(tp) || replies_.count(id) != 0) continue;
    msg::Message failed;
    failed.type = msg::MsgType::kError;
    failed.requestId = id;
    failed.code = static_cast<std::int32_t>(down.code());
    failed.text = down.message();
    replies_.emplace(id, std::move(failed));
  }
  cv_.notify_all();
}

void Session::onTransportClosed(const msg::Transport* t) {
  Fired fired;
  {
    std::lock_guard lock(mutex_);
    const Status down = errUnavailable("dvlib: connection to DV lost");
    if (transport_ != nullptr && transport_.get() == t) {
      if (router_ != nullptr && !finalized_) {
        // The live link died mid-session, but the router can re-resolve
        // the context owner: fail only what cannot survive the move and
        // hand re-dialing to the recovery thread. Un-acked async ops stay
        // alive — the rebind resends them under their original
        // requestIds, and the daemon's dedup window makes that safe even
        // if the original request was processed and only its ack lost.
        failLinkLocked(t, down, /*resendable=*/true, fired);
        queueReconnectLocked();
      } else {
        // No router to fail over with: nothing outstanding can resolve
        // anymore. Terminal, not transient — retrying a dead endpoint
        // the session cannot re-resolve would hang forever.
        failLinkLocked(nullptr, errUnreachable("dvlib: connection to DV lost"),
                       /*resendable=*/false, fired);
      }
    } else if (const int ri = replicaIndexOfLocked(t); ri >= 0) {
      // A replica link died: nothing is lost — ops tagged to it retarget
      // to the owner through the retry path (untagged first, so a racing
      // send failure cannot double-fail them). The transport object must
      // outlive this callback, so it parks on the retired list instead
      // of being destroyed here.
      ReplicaLink& link = replicaLinks_[static_cast<std::size_t>(ri)];
      link.dead = true;
      if (link.transport) retired_.push_back(std::move(link.transport));
      for (auto& op : asyncOps_) {
        if (op.transport != t || op.state->completed ||
            op.state->cancelled) {
          continue;
        }
        op.transport = nullptr;
        queueRetryLocked(op.id, 0);
      }
      // A sync call on the link (the replica hello, at most) fails soft.
      failLinkLocked(t, down, /*resendable=*/true, fired);
    } else {
      // A retired link died late: only ops still tagged to it are lost
      // (rebind retargets surviving ops before closing the old link).
      failLinkLocked(t, down, /*resendable=*/false, fired);
    }
  }
  for (auto& [fn, s] : fired) fn(s);
}

void Session::failAsyncOps(const Status& st) {
  Fired fired;
  {
    std::lock_guard lock(mutex_);
    for (auto& op : asyncOps_) failStateLocked(op.state, st, fired);
    asyncOps_.clear();
    cv_.notify_all();
  }
  for (auto& [fn, s] : fired) fn(s);
}

Status Session::rebind(std::string targetNode) {
  for (int hop = 0; hop <= kMaxRedirects; ++hop) {
    auto node = router_->node(targetNode);
    if (!node) return node.status();
    auto checked = router_->checkout(node->endpoint);
    if (!checked) return checked.status();
    std::shared_ptr<msg::Transport> t = std::move(*checked);
    attach(t);
    auto reply = callOn(t, makeHello(context_));
    if (!reply) {
      t->close();
      return reply.status();
    }
    if (reply->type == msg::MsgType::kRedirect) {
      // The daemon rejected the hello without binding anything, so the
      // connection is reusable by sessions this node does own.
      if (auto ring = ringFromMessage(*reply)) router_->adoptRing(*ring);
      router_->noteReplicaCount(static_cast<std::size_t>(
          std::max<std::int64_t>(0, reply->intArg2)));
      targetNode = reply->text;
      router_->checkin(node->endpoint, std::move(t));
      continue;
    }
    const Status st = statusFrom(*reply);
    if (!st.isOk()) {
      t->close();
      return st;
    }
    std::shared_ptr<msg::Transport> old;
    std::vector<std::uint64_t> resendIds;
    std::vector<msg::Message> resend;
    Fired fired;
    {
      std::lock_guard lock(mutex_);
      clientId_ = static_cast<ClientId>(reply->intArg);
      protocolVersion_.store(negotiatedVersionOf(*reply),
                             std::memory_order_relaxed);
      old = std::move(transport_);
      transport_ = t;
      if (old) {
        retired_.push_back(old);
        // Un-acked vectored ops SURVIVE the move: they are resent on the
        // new link below under the same requestId, so the eventual ack
        // still matches — this is the redirect-follow for batched opens.
        // Ops already cancelled client-side are dropped instead;
        // resending them would re-register interest nobody releases. The
        // wire message is rebuilt from the state's file list.
        for (auto it = asyncOps_.begin(); it != asyncOps_.end();) {
          if (it->state->completed) {
            it = asyncOps_.erase(it);
            continue;
          }
          it->transport = t.get();
          it->state->servedBy = t;
          msg::Message req;
          req.type = msg::MsgType::kOpenBatchReq;
          req.requestId = it->id;
          req.intArg2 = opDeadlineNs_;  // fresh budget on the new owner
          req.files = it->state->files;
          resendIds.push_back(it->id);
          resend.push_back(std::move(req));
          ++it;
        }
        // The old node held this session's waiter registrations; they
        // die with it. Acquires still owed files complete NOW with a
        // retryable error instead of waiting forever for a kFileReady the
        // new node will never send, and sync calls on the old link get
        // their synthetic error reply.
        failLinkLocked(
            old.get(),
            errUnavailable("dvlib: session moved nodes; reopen the file"),
            /*resendable=*/true, fired);
      }
    }
    for (auto& [fn, s] : fired) fn(s);
    // Closing the replaced link tears the stale session down on the node
    // that no longer owns the context.
    if (old) old->close();
    // Resend surviving vectored ops on the new link, outside the lock
    // (an in-proc send can deliver the ack inline).
    for (std::size_t i = 0; i < resend.size(); ++i) {
      const Status sent = t->send(resend[i]);
      if (sent.isOk()) continue;
      Fired f2;
      {
        std::lock_guard lock(mutex_);
        const auto it = findAsyncOp(resendIds[i]);
        if (it == asyncOps_.end()) continue;
        auto state = it->state;
        asyncOps_.erase(it);
        failStateLocked(state, sent, f2);
      }
      for (auto& [fn, s] : f2) fn(s);
    }
    return Status::ok();
  }
  return errUnavailable("dvlib: redirect loop (ring members disagree)");
}

// -------------------------------------------------------------- acquire core

std::shared_ptr<detail::AcquireState> Session::takeStateLocked() {
  for (auto& pooled : statePool_) {
    // Sole pool reference: no handle, active-list entry or async op can
    // reach this state anymore, so it is safe to recycle. Vectors (and
    // the strings inside files) keep their capacity.
    if (pooled.use_count() != 1) continue;
    auto state = pooled;
    state->pending.clear();
    state->continuations.clear();
    state->worst = Status::ok();
    state->estimatedWait = 0;
    state->wireId = 0;
    state->servedBy.reset();
    state->ack = false;
    state->completed = false;
    state->cancelled = false;
    return state;
  }
  auto state = std::make_shared<detail::AcquireState>();
  if (statePool_.size() < kStatePoolCap) statePool_.push_back(state);
  return state;
}

template <typename FillFn>
AcquireHandle Session::startAcquire(FillFn&& fill) {
  auto self = shared_from_this();
  std::shared_ptr<detail::AcquireState> state;
  std::shared_ptr<msg::Transport> t;
  std::uint64_t id = 0;
  VDuration deadline = 0;
  {
    std::lock_guard lock(mutex_);
    deadline = opDeadlineNs_;
    state = takeStateLocked();
    fill(*state);
    const std::size_t n = state->files.size();
    state->fileStatus.assign(n, Status::ok());
    state->availableAtAck.assign(n, false);
    state->fileWait.assign(n, static_cast<VDuration>(0));
    if (n == 0) {  // trivially complete; nothing to put on the wire
      state->ack = true;
      state->completed = true;
      return AcquireHandle(std::move(self), std::move(state));
    }
    t = pickTransportLocked();
    if (finalized_ || !t) {
      state->ack = true;
      state->completed = true;
      state->worst = errUnavailable("dvlib: session not connected");
      state->fileStatus.assign(n, state->worst);
      return AcquireHandle(std::move(self), std::move(state));
    }
    id = nextCallId();
    state->wireId = id;
    state->servedBy = t;
    active_.push_back(state);
    AsyncOp op;
    op.id = id;
    op.transport = t.get();
    op.state = state;
    asyncOps_.push_back(std::move(op));
  }
  // Serialize OUTSIDE the lock (an in-proc send delivers the ack inline
  // on this thread). The scratch views reference state->files, which is
  // immutable while the handle and the async op pin the state.
  msg::MessageRef req;
  req.type = msg::MsgType::kOpenBatchReq;
  req.requestId = id;
  req.intArg2 = deadline;  // relative ns budget; 0 = no deadline
  req.files = scratchViewsOf(state->files);
  const Status sent = t->send(req);
  if (!sent.isOk()) {
    Fired fired;
    {
      std::lock_guard lock(mutex_);
      // A rebind can have retargeted + resent this op on a fresh link
      // while our send raced the old one being closed — then the resend
      // owns the op and this failure is stale, not terminal.
      const auto it = findAsyncOp(id);
      if (it != asyncOps_.end() && it->transport == t.get()) {
        if (const int ri = replicaIndexOfLocked(t.get()); ri >= 0) {
          // A replica link failed under us: not terminal — the batch
          // retargets to the owner through the retry path.
          replicaLinks_[static_cast<std::size_t>(ri)].dead = true;
          queueRetryLocked(id, 0);
        } else {
          asyncOps_.erase(it);
          failStateLocked(state, sent, fired);
        }
      }
    }
    for (auto& [fn, s] : fired) fn(s);
  }
  return AcquireHandle(std::move(self), std::move(state));
}

AcquireHandle Session::acquireAsync(std::vector<std::string> files) {
  return startAcquire(
      [&files](detail::AcquireState& state) { state.files = std::move(files); });
}

AcquireHandle Session::acquireAsync(std::span<const std::string> files) {
  return startAcquire([files](detail::AcquireState& state) {
    // Element-wise assign into the pooled vector: both the vector buffer
    // and each string's capacity are reused on a warm state.
    state.files.resize(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      state.files[i].assign(files[i]);
    }
  });
}

bool Session::awaitAckLocked(
    std::unique_lock<std::mutex>& lock,
    const std::shared_ptr<detail::AcquireState>& state, Fired& fired) {
  const auto acked = [&] { return state->ack || state->completed; };
  if (cv_.wait_for(lock, std::chrono::nanoseconds(callTimeoutNs_), acked)) {
    return true;
  }
  // The DV never answered the batch within the protocol deadline: fail
  // the op exactly like a synchronous call would.
  if (const auto it = findAsyncOp(state->wireId); it != asyncOps_.end()) {
    asyncOps_.erase(it);
  }
  failStateLocked(state, errTimedOut("dvlib: no reply from DV"), fired);
  return false;
}

Status Session::handleWait(
    const std::shared_ptr<detail::AcquireState>& state, SimfsStatus* status,
    VDuration timeoutNs) {
  Fired fired;
  std::unique_lock lock(mutex_);
  const auto done = [&] { return state->completed; };
  if (timeoutNs < 0) {
    // No explicit deadline: the ack phase is still bounded (the old
    // per-file calls timed out after kCallTimeout), the completion
    // phase — a running re-simulation — is not.
    if (awaitAckLocked(lock, state, fired)) cv_.wait(lock, done);
    if (status != nullptr) {
      status->error = state->worst;
      status->estimatedWait = 0;
    }
    const Status result = state->worst;
    lock.unlock();
    for (auto& [fn, s] : fired) fn(s);
    return result;
  }
  if (!cv_.wait_for(lock, std::chrono::nanoseconds(timeoutNs), done)) {
    const Status st = errTimedOut("dvlib: acquire deadline exceeded");
    if (status != nullptr) {
      status->error = st;
      status->estimatedWait = state->estimatedWait;
    }
    return st;
  }
  if (status != nullptr) {
    status->error = state->worst;
    status->estimatedWait = 0;
  }
  return state->worst;
}

Status Session::handleCancel(
    const std::shared_ptr<detail::AcquireState>& state) {
  // Views over the state's own file storage — stable while the caller's
  // handle pins the state — so the cancel is as allocation-free as the
  // acquire it unwinds.
  thread_local std::vector<std::string_view> unwind;
  unwind.clear();
  Fired fired;
  std::shared_ptr<msg::Transport> t;
  {
    std::lock_guard lock(mutex_);
    auto& st = *state;
    if (st.cancelled) return Status::ok();  // idempotent
    st.cancelled = true;
    // Built only when a file or the handle still resolves: a warm
    // acquire/cancel cycle must not allocate the message.
    const auto cancelled = [] {
      return errCancelled("dvlib: acquire cancelled");
    };
    // The release must land on the endpoint the batch registered on —
    // a replica link when the spread sent it there.
    t = st.servedBy ? st.servedBy : transport_;
    for (std::size_t i = 0; i < st.files.size(); ++i) {
      unwind.push_back(st.files[i]);
      // Still unresolved: the file resolves as cancelled.
      if (!st.ack || st.pending.erase(st.files[i]) != 0) {
        st.fileStatus[i] = cancelled();
      }
      // The cancel frees the registration: drop the replica-ref entry it
      // recorded so a later release of the same name does not chase a
      // reference already freed.
      const auto it = replicaRefs_.find(st.files[i]);
      if (it == replicaRefs_.end()) continue;
      const auto pos = std::find(it->second.begin(), it->second.end(), t);
      if (pos != it->second.end()) it->second.erase(pos);
      if (it->second.empty()) replicaRefs_.erase(it);
    }
    if (!st.completed) {
      st.worst = cancelled();
      completeLocked(state, fired);
    }
  }
  // One wire op frees everything unwound here: waiter entries for steps
  // still pending, references for steps already delivered. Fire-and-
  // forget (requestId 0 tells the daemon no ack is wanted): an
  // intercepted close must not pay a round trip, and per-connection FIFO
  // guarantees the release lands after its batch.
  msg::MessageRef m;
  m.type = msg::MsgType::kReleaseReq;
  m.context = context_;
  m.files = unwind;
  Status sent = Status::ok();
  if (!unwind.empty()) {
    sent = t ? t->send(m) : errUnavailable("dvlib: session not connected");
  }
  // Continuations fire after the send: one may cancel another handle on
  // this thread, reusing `unwind`.
  for (auto& [fn, s] : fired) fn(s);
  return sent;
}

Status Session::acquire(const std::vector<std::string>& files,
                        SimfsStatus* status) {
  auto handle = acquireAsync(std::span<const std::string>(files));
  const Status st = handle.wait(status);
  if (!st.isOk()) {
    // Partial-acquire unwind: files that resolved before the failure
    // already registered DV interest (references or waiter entries) —
    // release them so a failed acquire leaves nothing pinned.
    (void)handle.cancel();
    if (status != nullptr) status->error = st;  // keep the original error
  }
  return st;
}

Status Session::release(const std::string& file) {
  return release(std::span<const std::string>(&file, 1));
}

Status Session::release(std::span<const std::string> files) {
  // Route each file to the node holding its registration: a reference
  // registered off a replica lease lives at THAT replica — the owner
  // would (rightly) answer "release without open" for it.
  std::vector<std::string> owned;
  std::vector<std::pair<std::shared_ptr<msg::Transport>,
                        std::vector<std::string>>>
      byReplica;
  {
    std::lock_guard lock(mutex_);
    for (const auto& f : files) {
      const auto it = replicaRefs_.find(f);
      if (it == replicaRefs_.end() || it->second.empty()) {
        owned.push_back(f);
        continue;
      }
      auto t = std::move(it->second.back());
      it->second.pop_back();
      if (it->second.empty()) replicaRefs_.erase(it);
      const auto group =
          std::find_if(byReplica.begin(), byReplica.end(),
                       [&](const auto& g) { return g.first == t; });
      if (group == byReplica.end()) {
        byReplica.emplace_back(std::move(t), std::vector<std::string>{f});
      } else {
        group->second.push_back(f);
      }
    }
  }
  Status worst = Status::ok();
  for (auto& [t, group] : byReplica) {
    // A dead link already freed its registrations server-side (the
    // daemon unwinds the client on disconnect): nothing left to release.
    if (!t || !t->isOpen()) continue;
    msg::Message m;
    m.type = msg::MsgType::kReleaseReq;
    m.files = std::move(group);
    auto reply = callOn(t, std::move(m));
    if (!reply) {
      if (reply.status().code() != StatusCode::kUnavailable) {
        worst = reply.status();
      }
      continue;
    }
    if (const Status st = statusFrom(*reply); !st.isOk()) worst = st;
  }
  if (!owned.empty()) {
    msg::Message m;
    m.type = msg::MsgType::kReleaseReq;
    m.files = std::move(owned);
    auto reply = call(std::move(m));
    if (!reply) return reply.status();
    if (const Status st = statusFrom(*reply); !st.isOk()) worst = st;
  }
  return worst;
}

Result<bool> Session::bitrep(const std::string& file, std::uint64_t digest) {
  msg::Message m;
  m.type = msg::MsgType::kBitrepReq;
  m.files = {file};
  m.intArg = static_cast<std::int64_t>(digest);
  auto reply = call(std::move(m));
  if (!reply) return reply.status();
  const auto st = statusFrom(*reply);
  if (!st.isOk()) return st;
  return reply->intArg == 1;
}

void Session::finalize() {
  std::shared_ptr<msg::Transport> t;
  std::vector<std::shared_ptr<msg::Transport>> retired;
  bool joinRecovery = false;
  Fired fired;
  {
    std::lock_guard lock(mutex_);
    if (finalized_) return;
    finalized_ = true;
    recoveryStop_ = true;
    joinRecovery = recovery_.joinable();
    // Wake every blocked waiter: nothing outstanding can resolve once
    // the session is gone.
    failLinkLocked(nullptr, errUnavailable("dvlib: session finalized"),
                   /*resendable=*/false, fired);
    for (auto& link : replicaLinks_) {
      if (link.transport) retired_.push_back(std::move(link.transport));
    }
    replicaLinks_.clear();
    for (auto& [file, refs] : replicaRefs_) {
      for (auto& t : refs) retired_.push_back(std::move(t));
    }
    replicaRefs_.clear();
    t = transport_;
    retired = retired_;  // close outside the lock; entries stay alive
  }
  cv_.notify_all();
  for (auto& [fn, s] : fired) fn(s);
  if (joinRecovery) recovery_.join();
  for (const auto& r : retired) r->close();
  if (t) t->close();
}

}  // namespace simfs::dvlib
