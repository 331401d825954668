#include "msg/transport.hpp"

#include "common/env.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace simfs::msg {
namespace {

constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Backpressure bound: a peer that stops draining its socket may hold at
/// most this many queued outbound bytes before the connection is torn
/// down (the old thread-per-connection transport blocked in write()
/// instead, which a shared event loop must never do).
constexpr std::size_t kMaxOutboxBytes = 128u << 20;

/// How long a close()d connection may keep flushing its tail to a slow
/// peer before the remainder is dropped and the socket shut down hard.
constexpr auto kCloseGrace = std::chrono::seconds(5);

// ------------------------------------------------------- handler slots

/// Per-thread stack of scratch WireBuffers for view deliveries that start
/// from an owned Message (in-proc sends, backlog replay, legacy-handler
/// adaptation). A STACK, not a single buffer: a handler that replies
/// inline over another in-proc transport nests a second delivery while
/// the outer view still references the outer scratch buffer.
std::vector<WireBuffer>& scratchStack() {
  thread_local std::vector<WireBuffer> stack;
  return stack;
}

WireBuffer acquireScratch() {
  auto& stack = scratchStack();
  if (stack.empty()) return WireBuffer();
  WireBuffer b = std::move(stack.back());
  stack.pop_back();
  return b;
}

void releaseScratch(WireBuffer&& b) {
  auto& stack = scratchStack();
  if (stack.size() >= 8) return;
  b.shrink(64 * 1024);
  stack.push_back(std::move(b));
}

/// Encodes `m` (Message or MessageRef) into a scratch buffer and hands
/// the parsed view to `handler` — the adapter between owned messages and
/// the zero-copy receive contract.
template <typename M>
void deliverAsView(const Transport::ViewHandler& handler, const M& m) {
  WireBuffer scratch = acquireScratch();
  encodeInto(m, scratch);
  auto view = MessageView::parse(scratch.payload());
  SIMFS_CHECK(view.isOk());  // our own encoder output always parses
  handler(*view);
  releaseScratch(std::move(scratch));
}

/// The receive-side handler state of both transports: at most one of the
/// two handler kinds installed (latest wins), plus the pre-handler
/// backlog. Handlers live behind shared_ptr so delivery copies a pointer
/// under the lock instead of a std::function (whose captures would
/// otherwise reallocate on every message).
struct HandlerSlot {
  std::shared_ptr<Transport::Handler> onMessage;
  std::shared_ptr<Transport::ViewHandler> onView;
  bool draining = false;  ///< a setHandler replay is in flight
  std::vector<Message> backlog;

  [[nodiscard]] bool any() const noexcept {
    return onMessage != nullptr || onView != nullptr;
  }
};

/// setHandler/setViewHandler body of both transports: installs the
/// handler (exactly one of `h`/`vh`) and replays the backlog in order on
/// the calling thread. `draining` makes concurrent sends append behind the
/// replay instead of overtaking.
void installAndReplay(std::mutex& mutex, HandlerSlot& slot,
                      Transport::Handler h, Transport::ViewHandler vh) {
  std::unique_lock lock(mutex);
  if (h) {
    slot.onMessage = std::make_shared<Transport::Handler>(std::move(h));
    slot.onView.reset();
  } else if (vh) {
    slot.onView = std::make_shared<Transport::ViewHandler>(std::move(vh));
    slot.onMessage.reset();
  } else {
    slot.onMessage.reset();
    slot.onView.reset();
    return;
  }
  if (slot.backlog.empty()) return;
  slot.draining = true;
  while (!slot.backlog.empty()) {
    std::vector<Message> batch(std::make_move_iterator(slot.backlog.begin()),
                               std::make_move_iterator(slot.backlog.end()));
    slot.backlog.clear();
    const auto msgHandler = slot.onMessage;
    const auto viewHandler = slot.onView;
    lock.unlock();
    for (auto& m : batch) {
      if (viewHandler) {
        deliverAsView(*viewHandler, m);
      } else {
        (*msgHandler)(std::move(m));
      }
    }
    lock.lock();
  }
  slot.draining = false;
}

// ------------------------------------------------------------------- InProc

/// Shared state of one in-process pair; endpoints index it as side 0/1.
struct InProcShared {
  std::mutex mutex[2];
  HandlerSlot slot[2];
  int inFlight[2] = {0, 0};  ///< deliveries currently inside a handler
  std::condition_variable idleCv[2];
  std::function<void()> closeHandler[2];
  bool closePending[2] = {false, false};  ///< peer died before handler set
  std::atomic<bool> open{true};
};

class InProcEndpoint final : public Transport {
 public:
  InProcEndpoint(std::shared_ptr<InProcShared> shared, int side)
      : shared_(std::move(shared)), side_(side) {}

  ~InProcEndpoint() override {
    close();
    // Teardown handshake (mirrors Reactor::remove): clear our handler and
    // wait out deliveries already inside it, so the objects the handler
    // captures may be destroyed the moment this destructor returns.
    std::unique_lock lock(shared_->mutex[side_]);
    shared_->slot[side_].onMessage.reset();
    shared_->slot[side_].onView.reset();
    shared_->closeHandler[side_] = nullptr;
    shared_->idleCv[side_].wait(lock,
                                [&] { return shared_->inFlight[side_] == 0; });
  }

  Status send(const Message& m) override { return deliver(m); }
  Status send(const MessageRef& m) override { return deliver(m); }

  void setHandler(Handler handler) override {
    installAndReplay(shared_->mutex[side_], shared_->slot[side_],
                     std::move(handler), nullptr);
  }

  void setViewHandler(ViewHandler handler) override {
    installAndReplay(shared_->mutex[side_], shared_->slot[side_], nullptr,
                     std::move(handler));
  }

  void setCloseHandler(std::function<void()> handler) override {
    std::function<void()> fire;
    {
      std::lock_guard lock(shared_->mutex[side_]);
      shared_->closeHandler[side_] = std::move(handler);
      if (shared_->closePending[side_]) {
        shared_->closePending[side_] = false;
        fire = shared_->closeHandler[side_];
      }
    }
    // The peer closed before this handler existed: deliver the buffered
    // close event now (same replay contract as setHandler).
    if (fire) fire();
  }

  void close() override {
    bool expected = true;
    if (!shared_->open.compare_exchange_strong(expected, false)) return;
    // Tell the peer its counterpart is gone. The invocation is counted
    // in inFlight so the peer's destructor handshake also waits out a
    // close callback already past the handler copy, not just message
    // deliveries.
    const int peer = 1 - side_;
    std::function<void()> peerClose;
    {
      std::lock_guard lock(shared_->mutex[peer]);
      peerClose = shared_->closeHandler[peer];
      if (!peerClose) {
        shared_->closePending[peer] = true;
      } else {
        ++shared_->inFlight[peer];
      }
    }
    if (peerClose) {
      peerClose();
      {
        std::lock_guard lock(shared_->mutex[peer]);
        --shared_->inFlight[peer];
      }
      shared_->idleCv[peer].notify_all();
    }
  }

  bool isOpen() const override { return shared_->open.load(); }

  std::string_view kindName() const override { return "inproc"; }

 private:
  static Message owned(const Message& m) { return m; }
  static Message owned(const MessageRef& m) { return materialize(m); }

  /// Synchronous delivery on the sender's thread; pre-handler messages
  /// are buffered and replayed by the peer's setHandler. The in-flight
  /// count lets the peer's destructor wait for this call to leave its
  /// handler. A view-handling peer receives the message in place over a
  /// scratch encode — no owned Message is ever built for it.
  template <typename M>
  Status deliver(const M& m) {
    if (!shared_->open.load()) return errUnavailable("inproc: closed");
    const int peer = 1 - side_;
    std::shared_ptr<Handler> h;
    std::shared_ptr<ViewHandler> vh;
    {
      std::lock_guard lock(shared_->mutex[peer]);
      auto& slot = shared_->slot[peer];
      if (!slot.any() || slot.draining) {
        slot.backlog.push_back(owned(m));
        return Status::ok();
      }
      vh = slot.onView;
      h = slot.onMessage;
      ++shared_->inFlight[peer];
    }
    if (vh) {
      deliverAsView(*vh, m);
    } else {
      Message copy = owned(m);
      (*h)(std::move(copy));
    }
    {
      std::lock_guard lock(shared_->mutex[peer]);
      --shared_->inFlight[peer];
    }
    shared_->idleCv[peer].notify_all();
    return Status::ok();
  }

  std::shared_ptr<InProcShared> shared_;
  int side_;
};

// ------------------------------------------------------------------ reactor

/// Per-connection state shared between the reactor loop that owns the fd
/// and the ReactorTransport facade user threads hold.
struct Conn {
  int fd = -1;
  std::size_t loop = 0;

  /// Send-buffer pool: senders acquire, the loop releases after writev.
  /// Thread-safe on its own; not guarded by `mutex`.
  BufferPool pool;

  std::mutex mutex;
  // --- guarded by mutex -----------------------------------------------------
  std::vector<WireBuffer> outbox;  ///< framed messages awaiting writev
  std::size_t outBytes = 0;        ///< queued + in-flight outbound bytes
  bool writeArmed = false;         ///< a flush is scheduled / EPOLLOUT armed
  bool closing = false;            ///< close() called: flush, then shutdown
  bool shutdownSent = false;
  HandlerSlot slot;
  std::function<void()> closeHandler;
  bool closeNotified = false;
  bool closePending = false;       ///< peer died before handler was set
  bool removed = false;            ///< fully deregistered from the reactor
  std::condition_variable removedCv;
  // --- loop-thread only -----------------------------------------------------
  /// Buffers stolen from the outbox, being written. The consumed prefix
  /// [0, inflightPos) is released to the pool when the batch drains.
  std::vector<WireBuffer> inflight;
  std::size_t inflightPos = 0;   ///< first unwritten buffer
  std::size_t inflightHead = 0;  ///< bytes of inflight[inflightPos] sent
  std::string readBuf;
  bool wantWrite = false;          ///< EPOLLOUT currently in the interest set
  bool registered = false;
  /// Deadline for draining a close()d connection's tail (zero = unset).
  std::chrono::steady_clock::time_point closeDeadline{};
  /// Frames delivered so far, counted only under fault injection for the
  /// conn:close_after rule.
  std::uint32_t faultFramesSeen = 0;
  // --- any thread -----------------------------------------------------------
  std::atomic<bool> open{true};
};

/// Epoll reactor: one (or SIMFS_REACTOR_THREADS) event-loop thread(s) own
/// every socket endpoint of the process. Inbound frames are decoded IN
/// PLACE over the receive buffer and dispatched as MessageViews on the
/// loop thread; outbound frames are pooled WireBuffers queued per
/// connection and flushed as one writev per loop pass (send batching).
/// All epoll_ctl and connection-table mutation happens on the owning loop
/// thread, driven by a command queue + eventfd wakeup. Commands are plain
/// structs (kind + connection), not std::functions, so posting one never
/// allocates.
class Reactor {
 public:
  explicit Reactor(std::size_t nLoops) {
    loops_.reserve(nLoops);
    for (std::size_t i = 0; i < nLoops; ++i) {
      auto loop = std::make_unique<Loop>();
      loop->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
      loop->wakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      SIMFS_CHECK(loop->epollFd >= 0 && loop->wakeFd >= 0);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = loop->wakeFd;
      SIMFS_CHECK(::epoll_ctl(loop->epollFd, EPOLL_CTL_ADD, loop->wakeFd,
                              &ev) == 0);
      loops_.push_back(std::move(loop));
    }
    for (auto& loop : loops_) {
      loop->thread = std::thread([this, raw = loop.get()] { run(*raw); });
    }
  }

  ~Reactor() {
    for (auto& loop : loops_) {
      loop->stop.store(true);
      wake(*loop);
    }
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    // Single-threaded from here: run stranded commands (e.g. a removal
    // handshake posted during shutdown), then drop whatever is left.
    for (auto& loop : loops_) {
      std::vector<Cmd> cmds;
      {
        std::lock_guard lock(loop->cmdMutex);
        cmds.swap(loop->commands);
      }
      for (auto& c : cmds) execute(*loop, c);
      for (auto& [fd, conn] : loop->conns) {
        ::close(fd);
        conn->registered = false;
        std::lock_guard lock(conn->mutex);
        conn->open.store(false);
        conn->removed = true;
        conn->removedCv.notify_all();
      }
      loop->conns.clear();
      ::close(loop->epollFd);
      ::close(loop->wakeFd);
    }
  }

  /// Process-wide reactor; sized by SIMFS_REACTOR_THREADS (default 1).
  static Reactor& shared() {
    static Reactor instance([] {
      const auto v = env::getInt("SIMFS_REACTOR_THREADS");
      if (!v) return std::size_t{1};
      return static_cast<std::size_t>(std::clamp<std::int64_t>(*v, 1, 16));
    }());
    return instance;
  }

  /// Takes ownership of a connected fd; registration completes
  /// asynchronously on the owning loop (commands are ordered, so sends
  /// issued immediately after adopt flush after registration).
  std::shared_ptr<Conn> adopt(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->loop = nextLoop_.fetch_add(1) % loops_.size();
    post({Cmd::Kind::kRegister, conn});
    return conn;
  }

  /// Asks the owning loop to flush `conn`'s outbox (and, once drained,
  /// perform the deferred shutdown of a closing connection).
  void scheduleFlush(const std::shared_ptr<Conn>& conn) {
    post({Cmd::Kind::kFlush, conn});
  }

  /// Runs the peer-disconnect teardown (epoll removal, fd close, close
  /// callback) on the owning loop — used when a slow consumer overflows
  /// its send queue and has to be dropped from a sender thread.
  void scheduleDisconnect(const std::shared_ptr<Conn>& conn) {
    post({Cmd::Kind::kDisconnect, conn});
  }

  /// Deregisters `conn` and blocks until no loop thread can touch it
  /// again (drop-safe handshake for ~ReactorTransport).
  void remove(const std::shared_ptr<Conn>& conn) {
    Loop& loop = *loops_[conn->loop];
    if (std::this_thread::get_id() == loop.threadId) {
      deregister(loop, conn);
      return;
    }
    // Honor the close contract before tearing the fd down: give the
    // reactor until the grace deadline to flush the queued tail (a
    // responsive peer drains in milliseconds; a dead one is bounded by
    // sweepClosing, which empties the outbox at the deadline).
    {
      std::unique_lock lock(conn->mutex);
      conn->removedCv.wait_for(lock, kCloseGrace, [&] {
        // outBytes (not outbox.empty()): flushWrites steals the outbox
        // into its in-flight batch, and only outBytes keeps counting
        // those frames. closeNotified/closePending: the peer is gone
        // (possibly before a close handler existed) — nothing will ever
        // drain the queue.
        return conn->outBytes == 0 || conn->removed || conn->shutdownSent ||
               conn->closeNotified || conn->closePending;
      });
    }
    post({Cmd::Kind::kDeregister, conn});
    std::unique_lock lock(conn->mutex);
    conn->removedCv.wait(lock, [&] { return conn->removed; });
  }

 private:
  /// Loop-thread work item. A plain struct (no type-erased callable):
  /// posting one is a vector push under the command mutex, nothing more.
  struct Cmd {
    enum class Kind { kRegister, kFlush, kDisconnect, kDeregister };
    Kind kind = Kind::kFlush;
    std::shared_ptr<Conn> conn;
  };

  struct Loop {
    int epollFd = -1;
    int wakeFd = -1;
    std::thread thread;
    std::thread::id threadId;
    std::mutex cmdMutex;
    std::vector<Cmd> commands;
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    /// Closed connections still draining their tail (grace-bounded).
    std::unordered_set<std::shared_ptr<Conn>> closingConns;
    std::atomic<bool> stop{false};
  };

  void post(Cmd cmd) {
    Loop& loop = *loops_[cmd.conn->loop];
    bool needWake = false;
    {
      std::lock_guard lock(loop.cmdMutex);
      needWake = loop.commands.empty();
      loop.commands.push_back(std::move(cmd));
    }
    if (needWake) wake(loop);
  }

  void wake(Loop& loop) {
    const std::uint64_t one = 1;
    (void)!::write(loop.wakeFd, &one, sizeof(one));
  }

  void execute(Loop& loop, Cmd& cmd) {
    switch (cmd.kind) {
      case Cmd::Kind::kRegister:
        doRegister(loop, cmd.conn);
        return;
      case Cmd::Kind::kFlush:
        if (cmd.conn->registered) flushWrites(loop, cmd.conn);
        return;
      case Cmd::Kind::kDisconnect:
        if (cmd.conn->registered) disconnect(loop, cmd.conn);
        return;
      case Cmd::Kind::kDeregister:
        deregister(loop, cmd.conn);
        return;
    }
  }

  void doRegister(Loop& loop, const std::shared_ptr<Conn>& conn) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(loop.epollFd, EPOLL_CTL_ADD, conn->fd, &ev) == 0) {
      loop.conns.emplace(conn->fd, conn);
      conn->registered = true;
      return;
    }
    SIMFS_LOG_ERROR("msg", "reactor: cannot register fd %d", conn->fd);
    ::close(conn->fd);
    // Same owner-notification duties as disconnect(): without them the
    // transport's close handler never fires and e.g. a daemon session
    // would never be reaped.
    std::function<void()> onClose;
    {
      std::lock_guard lock(conn->mutex);
      conn->open.store(false);
      if (conn->closeHandler) {
        conn->closeNotified = true;
        onClose = conn->closeHandler;
      } else {
        conn->closePending = true;
      }
      conn->removedCv.notify_all();
    }
    if (onClose) onClose();
  }

  void run(Loop& loop) {
    loop.threadId = std::this_thread::get_id();
    std::vector<epoll_event> events(64);
    std::vector<Cmd> cmds;
    for (;;) {
      cmds.clear();
      {
        std::lock_guard lock(loop.cmdMutex);
        cmds.swap(loop.commands);
      }
      for (auto& c : cmds) execute(loop, c);
      if (loop.stop.load()) return;
      // Block indefinitely unless a closed connection is still draining;
      // then wake periodically to enforce its grace deadline.
      const int timeoutMs = loop.closingConns.empty() ? -1 : 100;
      const int n = ::epoll_wait(loop.epollFd, events.data(),
                                 static_cast<int>(events.size()), timeoutMs);
      if (n < 0) {
        if (errno == EINTR) continue;
        SIMFS_LOG_ERROR("msg", "reactor: epoll_wait failed: %s",
                        std::strerror(errno));
        return;
      }
      if (!loop.closingConns.empty()) sweepClosing(loop);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == loop.wakeFd) {
          std::uint64_t drained = 0;
          (void)!::read(loop.wakeFd, &drained, sizeof(drained));
          continue;
        }
        const auto it = loop.conns.find(fd);
        if (it == loop.conns.end()) continue;
        // Copy: the handlers below may deregister the connection.
        const std::shared_ptr<Conn> conn = it->second;
        const auto flags = events[i].events;
        if ((flags & EPOLLERR) != 0) {
          disconnect(loop, conn);
          continue;
        }
        if ((flags & (EPOLLIN | EPOLLHUP)) != 0) handleReadable(loop, conn);
        if (conn->registered && (flags & EPOLLOUT) != 0) {
          flushWrites(loop, conn);
        }
      }
    }
  }

  /// Hands one decoded frame to the connection's handler: the view stays
  /// in place over the receive buffer for a view handler; a legacy
  /// handler (or the pre-handler backlog) gets an owned materialization.
  static void deliverFrame(const std::shared_ptr<Conn>& conn,
                           const MessageView& view) {
    std::shared_ptr<Transport::Handler> h;
    std::shared_ptr<Transport::ViewHandler> vh;
    {
      std::lock_guard lock(conn->mutex);
      auto& slot = conn->slot;
      if (!slot.any() || slot.draining) {
        slot.backlog.push_back(view.toMessage());
        return;
      }
      vh = slot.onView;
      h = slot.onMessage;
    }
    if (vh) {
      (*vh)(view);
    } else {
      (*h)(view.toMessage());
    }
  }

  /// Decodes every complete frame in `bytes` and delivers each IN PLACE
  /// (the views reference `bytes` and die with the handler call). Returns
  /// the consumed prefix length; sets `dead` on an oversized/undecodable
  /// frame or a fault-injected close.
  static std::size_t scanFrames(const std::shared_ptr<Conn>& conn,
                                std::string_view bytes, bool& dead) {
    std::size_t head = 0;
    while (bytes.size() - head >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, bytes.data() + head, sizeof(len));
      if (len > kMaxFrameBytes) {
        SIMFS_LOG_ERROR("msg", "socket: oversized frame (%u bytes)", len);
        dead = true;
        break;
      }
      if (bytes.size() - head < 4 + static_cast<std::size_t>(len)) break;
      auto view = MessageView::parse(bytes.substr(head + 4, len));
      head += 4 + static_cast<std::size_t>(len);
      if (!view) {
        SIMFS_LOG_ERROR("msg", "socket: undecodable frame: %s",
                        view.status().toString().c_str());
        dead = true;
        break;
      }
      if (fault::active()) {
        fault::maybeDelay(fault::Point::kRecv);
        const auto limit = fault::closeAfterLimit();
        if (limit > 0 && ++conn->faultFramesSeen > limit) {
          SIMFS_LOG_WARN("msg", "fault: closing fd %d after %u frames",
                         conn->fd, limit);
          dead = true;
          break;
        }
      }
      deliverFrame(conn, *view);
    }
    return head;
  }

  void handleReadable(Loop& loop, const std::shared_ptr<Conn>& conn) {
    char buf[64 * 1024];
    bool dead = false;
    // Read until EAGAIN (bounded per pass; level-triggered epoll re-fires
    // if the peer outruns us).
    for (int pass = 0; pass < 8; ++pass) {
      const ssize_t r = ::read(conn->fd, buf, sizeof(buf));
      if (r > 0) {
        conn->readBuf.append(buf, static_cast<std::size_t>(r));
        if (static_cast<std::size_t>(r) < sizeof(buf)) break;
        continue;
      }
      if (r == 0) {
        dead = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      dead = true;
      break;
    }
    const std::size_t head = scanFrames(conn, conn->readBuf, dead);
    if (head > 0) {
      // compact once per event, not once per frame
      conn->readBuf.erase(0, head);
    }
    if (dead) disconnect(loop, conn);
  }

  /// Releases the consumed in-flight prefix back to the pool and resets
  /// the cursors. Loop thread only.
  static void recycleInflight(Conn& conn) {
    for (auto& b : conn.inflight) conn.pool.release(std::move(b));
    conn.inflight.clear();
    conn.inflightPos = 0;
    conn.inflightHead = 0;
  }

  void flushWrites(Loop& loop, const std::shared_ptr<Conn>& conn) {
    constexpr int kMaxIov = 64;
    constexpr int kMaxPasses = 4;  // then yield to other connections
    bool fail = false;
    bool wantWrite = false;
    bool doShutdown = false;
    std::size_t poppedBytes = 0;
    for (int pass = 0; pass < kMaxPasses && !fail && !wantWrite; ++pass) {
      if (conn->inflightPos == conn->inflight.size()) {
        // Batch drained: recycle its buffers, then steal the outbox. The
        // swap hands the senders back an empty vector whose capacity they
        // reuse — steady-state queueing allocates nothing.
        recycleInflight(*conn);
        std::lock_guard lock(conn->mutex);
        if (conn->outbox.empty()) break;
        conn->inflight.swap(conn->outbox);
      }
      // writev() runs without the connection mutex — senders stay
      // non-blocking during kernel I/O (the in-flight batch is loop-owned).
      while (conn->inflightPos < conn->inflight.size()) {
        iovec iov[kMaxIov];
        int cnt = 0;
        std::size_t skip = conn->inflightHead;
        for (std::size_t i = conn->inflightPos;
             i < conn->inflight.size() && cnt < kMaxIov; ++i) {
          iov[cnt].iov_base =
              const_cast<char*>(conn->inflight[i].data() + skip);
          iov[cnt].iov_len = conn->inflight[i].size() - skip;
          skip = 0;
          ++cnt;
        }
        // sendmsg + MSG_NOSIGNAL, not writev: a peer that died without
        // unwinding (kill -9) must surface as EPIPE on this connection,
        // never as a process-killing SIGPIPE.
        msghdr mh{};
        mh.msg_iov = iov;
        mh.msg_iovlen = static_cast<std::size_t>(cnt);
        const ssize_t w = ::sendmsg(conn->fd, &mh, MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            wantWrite = true;  // socket full: wait for EPOLLOUT
            break;
          }
          fail = true;
          break;
        }
        std::size_t n = static_cast<std::size_t>(w);
        while (n > 0) {
          WireBuffer& front = conn->inflight[conn->inflightPos];
          const std::size_t remain = front.size() - conn->inflightHead;
          if (n >= remain) {
            n -= remain;
            poppedBytes += front.size();
            ++conn->inflightPos;
            conn->inflightHead = 0;
          } else {
            conn->inflightHead += n;
            n = 0;
          }
        }
      }
    }
    if (fail) {
      disconnect(loop, conn);
      return;
    }
    const bool inflightDrained = conn->inflightPos == conn->inflight.size();
    bool trackClosing = false;
    {
      std::lock_guard lock(conn->mutex);
      conn->outBytes -= std::min(conn->outBytes, poppedBytes);
      if (inflightDrained && conn->outbox.empty()) {
        conn->writeArmed = false;
        if (conn->closing && !conn->shutdownSent) {
          conn->shutdownSent = true;
          doShutdown = true;
        }
      } else {
        if (!wantWrite) {
          // Refilled faster than kMaxPasses could drain: the socket is
          // still writable, so level-triggered EPOLLOUT re-enters us on
          // the next loop pass without starving other connections.
          wantWrite = true;
        }
        // Closing with a tail still queued: keep flushing, but bounded —
        // sweepClosing() drops the remainder once the grace expires.
        if (conn->closing && !conn->shutdownSent) trackClosing = true;
      }
    }
    if (trackClosing) {
      if (conn->closeDeadline == std::chrono::steady_clock::time_point{}) {
        conn->closeDeadline = std::chrono::steady_clock::now() + kCloseGrace;
      }
      loop.closingConns.insert(conn);
    }
    // Wake a destructor waiting in remove() for the tail to flush.
    conn->removedCv.notify_all();
    updateInterest(loop, *conn, wantWrite);
    if (doShutdown) {
      loop.closingConns.erase(conn);
      // Queued sends are on the wire; now let the peer observe EOF. Our
      // own read side then hits EOF and runs the disconnect path.
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }

  /// Enforces the close grace: a close()d connection whose peer did not
  /// drain the tail in time is shut down hard (close() promises EOF, not
  /// unbounded patience with a peer that stopped reading).
  void sweepClosing(Loop& loop) {
    const auto now = std::chrono::steady_clock::now();
    for (auto it = loop.closingConns.begin(); it != loop.closingConns.end();) {
      const std::shared_ptr<Conn>& conn = *it;
      const bool inflightDrained =
          conn->inflightPos == conn->inflight.size();  // loop-owned state
      bool expired = false;
      {
        std::lock_guard lock(conn->mutex);
        if ((conn->outbox.empty() && inflightDrained) || conn->shutdownSent ||
            !conn->registered) {
          it = loop.closingConns.erase(it);
          continue;
        }
        if (now >= conn->closeDeadline) {
          conn->outbox.clear();
          conn->outBytes = 0;
          conn->writeArmed = false;
          conn->shutdownSent = true;
          expired = true;
        }
      }
      if (expired) {
        recycleInflight(*conn);
        conn->removedCv.notify_all();
        ::shutdown(conn->fd, SHUT_RDWR);
        it = loop.closingConns.erase(it);
      } else {
        ++it;
      }
    }
  }

  void updateInterest(Loop& loop, Conn& conn, bool wantWrite) {
    if (!conn.registered || conn.wantWrite == wantWrite) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (wantWrite ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    (void)::epoll_ctl(loop.epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.wantWrite = wantWrite;
  }

  /// Peer-initiated teardown (EOF, error, poisoned frame).
  void disconnect(Loop& loop, const std::shared_ptr<Conn>& conn) {
    std::function<void()> onClose;
    {
      std::lock_guard lock(conn->mutex);
      conn->open.store(false);
      if (!conn->closeNotified) {
        if (conn->closeHandler) {
          conn->closeNotified = true;
          onClose = conn->closeHandler;
        } else {
          // No handler yet: buffer the event, setCloseHandler replays it.
          conn->closePending = true;
        }
      }
    }
    if (conn->registered) {
      (void)::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
      loop.conns.erase(conn->fd);
      ::close(conn->fd);
      conn->registered = false;
    }
    recycleInflight(*conn);
    loop.closingConns.erase(conn);
    conn->removedCv.notify_all();
    if (onClose) onClose();
  }

  /// Transport-initiated teardown; after this returns on the loop thread,
  /// no handler or close callback can run again.
  void deregister(Loop& loop, const std::shared_ptr<Conn>& conn) {
    if (conn->registered) {
      (void)::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
      loop.conns.erase(conn->fd);
      ::close(conn->fd);
      conn->registered = false;
    }
    recycleInflight(*conn);
    loop.closingConns.erase(conn);
    std::lock_guard lock(conn->mutex);
    conn->open.store(false);
    conn->slot.onMessage.reset();
    conn->slot.onView.reset();
    conn->closeHandler = nullptr;
    conn->removed = true;
    conn->removedCv.notify_all();
  }

  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> nextLoop_{0};
};

class ReactorTransport final : public Transport {
 public:
  ReactorTransport(Reactor& reactor, std::shared_ptr<Conn> conn)
      : reactor_(reactor), conn_(std::move(conn)) {}

  ~ReactorTransport() override {
    close();
    reactor_.remove(conn_);
  }

  Status send(const Message& m) override { return sendEncoded(m); }
  Status send(const MessageRef& m) override { return sendEncoded(m); }

  void setHandler(Handler handler) override {
    installAndReplay(conn_->mutex, conn_->slot, std::move(handler), nullptr);
  }

  void setViewHandler(ViewHandler handler) override {
    installAndReplay(conn_->mutex, conn_->slot, nullptr, std::move(handler));
  }

  void setCloseHandler(std::function<void()> handler) override {
    std::function<void()> fire;
    {
      std::lock_guard lock(conn_->mutex);
      conn_->closeHandler = std::move(handler);
      if (conn_->closePending && !conn_->closeNotified) {
        conn_->closeNotified = true;
        conn_->closePending = false;
        fire = conn_->closeHandler;
      }
    }
    // The peer vanished before the handler existed (the reactor starts
    // reading at adopt(), not at setHandler()): replay the close event.
    if (fire) fire();
  }

  void close() override {
    bool schedule = false;
    {
      std::lock_guard lock(conn_->mutex);
      if (conn_->closing) return;
      conn_->closing = true;
      conn_->open.store(false);
      if (!conn_->writeArmed) {
        conn_->writeArmed = true;
        schedule = true;
      }
    }
    // The flush drains anything already queued, then shuts the socket
    // down so the peer observes EOF.
    if (schedule) reactor_.scheduleFlush(conn_);
  }

  bool isOpen() const override { return conn_->open.load(); }

  std::string_view kindName() const override { return "socket"; }

 private:
  /// The one send path: serialize into a pooled buffer (frame header
  /// reserved up front, back-patched — no re-copy), queue it, wake the
  /// loop. Steady-state cost is a pool pop, the serialization itself and
  /// a vector push into reused capacity.
  template <typename M>
  Status sendEncoded(const M& m) {
    // Cheap sticky-state pre-check before paying for serialization; the
    // locked check below remains authoritative.
    if (!conn_->open.load()) return errUnavailable("socket: closed");
    if (fault::active() && fault::shouldFail(fault::Point::kSend)) {
      // Injected abrupt connection loss: the same observable behaviour as
      // the peer dying mid-send (sticky close + close callback), so the
      // recovery machinery above us is exercised, not a fake error path.
      conn_->open.store(false);
      reactor_.scheduleDisconnect(conn_);
      return errUnavailable("socket: injected send fault");
    }
    WireBuffer buf = conn_->pool.acquire();
    encodeInto(m, buf);
    bool schedule = false;
    bool overflow = false;
    {
      std::lock_guard lock(conn_->mutex);
      if (!conn_->open.load() || conn_->closing) {
        return errUnavailable("socket: closed");
      }
      if (conn_->outBytes + buf.size() > kMaxOutboxBytes) {
        // Backpressure: the peer stopped draining. A shared event loop
        // must not block the sender, so the connection is dropped — the
        // close callback lets the owner reclaim the session.
        conn_->open.store(false);
        overflow = true;
      } else {
        conn_->outBytes += buf.size();
        conn_->outbox.push_back(std::move(buf));
        if (!conn_->writeArmed) {
          conn_->writeArmed = true;
          schedule = true;
        }
      }
    }
    if (overflow) {
      SIMFS_LOG_WARN("msg", "socket: send queue overflow, dropping peer");
      reactor_.scheduleDisconnect(conn_);
      return errUnavailable("socket: send queue overflow");
    }
    // One wakeup covers every send queued until the loop drains the
    // outbox (writev batching); only the first sender pays the post.
    if (schedule) reactor_.scheduleFlush(conn_);
    return Status::ok();
  }

  Reactor& reactor_;
  std::shared_ptr<Conn> conn_;
};

}  // namespace

std::string_view reactorBackendName() { return "epoll"; }

// The default adapts legacy-only transports (wrappers forwarding just
// setHandler) to the view contract: each owned Message is re-encoded into
// a per-thread scratch buffer and delivered in place.
void Transport::setViewHandler(ViewHandler handler) {
  if (!handler) {
    setHandler(nullptr);
    return;
  }
  setHandler([h = std::move(handler)](Message&& m) { deliverAsView(h, m); });
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcPair() {
  auto shared = std::make_shared<InProcShared>();
  return {std::make_unique<InProcEndpoint>(shared, 0),
          std::make_unique<InProcEndpoint>(shared, 1)};
}

// --------------------------------------------------------- UnixSocketServer

struct UnixSocketServer::Impl {
  int listenFd = -1;
  std::thread acceptThread;
  std::atomic<bool> running{false};
};

UnixSocketServer::UnixSocketServer(std::string path)
    : impl_(std::make_unique<Impl>()), path_(std::move(path)) {}

UnixSocketServer::~UnixSocketServer() { stop(); }

Status UnixSocketServer::start(ConnectionHandler onConnection) {
  ::unlink(path_.c_str());
  impl_->listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl_->listenFd < 0) return errIoError("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    return errInvalidArgument("socket path too long: " + path_);
  }
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(impl_->listenFd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return errIoError("bind() failed for " + path_);
  }
  if (::listen(impl_->listenFd, 64) != 0) {
    return errIoError("listen() failed for " + path_);
  }
  impl_->running.store(true);
  impl_->acceptThread = std::thread([this, onConnection = std::move(onConnection)] {
    // Poll with a timeout so stop() can terminate the loop: shutdown() on
    // a listening socket does not reliably wake a blocked accept().
    while (impl_->running.load()) {
      pollfd pfd{impl_->listenFd, POLLIN, 0};
      const int n = ::poll(&pfd, 1, /*timeout_ms=*/100);
      if (n < 0) break;
      if (n == 0 || (pfd.revents & POLLIN) == 0) continue;
      const int fd = ::accept(impl_->listenFd, nullptr, nullptr);
      if (fd < 0) break;
      auto& reactor = Reactor::shared();
      onConnection(
          std::make_unique<ReactorTransport>(reactor, reactor.adopt(fd)));
    }
  });
  return Status::ok();
}

void UnixSocketServer::stop() {
  if (!impl_) return;
  const bool wasRunning = impl_->running.exchange(false);
  if (impl_->acceptThread.joinable()) impl_->acceptThread.join();
  if (wasRunning) {
    ::close(impl_->listenFd);
    ::unlink(path_.c_str());
  }
}

Result<std::unique_ptr<Transport>> unixSocketConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return errIoError("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return errInvalidArgument("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return errUnavailable("connect() failed for " + path);
  }
  auto& reactor = Reactor::shared();
  return std::unique_ptr<Transport>(
      std::make_unique<ReactorTransport>(reactor, reactor.adopt(fd)));
}

}  // namespace simfs::msg
