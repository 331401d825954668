// Message transports between DVLib clients and the DV daemon.
//
// Two implementations behind one interface:
//   * InProc pair — zero-copy, synchronous delivery on the sender's
//     thread; used by tests and by single-process deployments where the
//     DV runs as a thread of the analysis driver.
//   * Unix-domain stream sockets — the daemon deployment (the paper uses
//     TCP/IP; a UNIX socket carries the identical framed protocol and
//     keeps the examples self-contained). All socket endpoints of the
//     process are owned by a shared epoll reactor: one (or
//     SIMFS_REACTOR_THREADS) event-loop thread(s) service every
//     connection, and outbound messages are batched into writev() calls
//     instead of one write per frame — connection count no longer implies
//     thread count.
//
// Delivery contract: the receive handler may be invoked from an arbitrary
// thread (the sender's for InProc, an event-loop thread for sockets) and
// must not synchronously send on the same transport it is handling, except
// to reply — replies are safe because handlers never hold transport locks.
// Messages that arrive before a handler is installed are buffered and
// replayed, in order, on the thread that calls setHandler().
#pragma once

#include "common/status.hpp"
#include "msg/message.hpp"

#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace simfs::msg {

/// Bidirectional message endpoint.
class Transport {
 public:
  using Handler = std::function<void(Message&&)>;
  /// Zero-copy receive handler: the view (and every string_view /
  /// iterator it hands out) references transport-owned buffer memory and
  /// is valid ONLY for the duration of the callback. Copy out (or arena-
  /// copy) anything that must survive it.
  using ViewHandler = std::function<void(const MessageView&)>;

  virtual ~Transport() = default;

  /// Sends a message to the peer. Returns kUnavailable once closed.
  /// Socket sends are asynchronous: the message is queued and flushed by
  /// the reactor (batched with neighbours into one writev). A peer that
  /// stops draining its socket is disconnected once its queue exceeds a
  /// fixed byte bound (send then also returns kUnavailable) — senders
  /// are never blocked on a slow consumer.
  [[nodiscard]] virtual Status send(const Message& m) = 0;

  /// Zero-copy send: the built-in transports serialize `m` straight into
  /// a pooled, framed send buffer (no Message, no intermediate string).
  /// The referenced storage only needs to outlive this call. The default
  /// materializes an owned Message and forwards to send(Message) so
  /// wrapper transports that only override the legacy entry point keep
  /// observing (and counting) every message.
  [[nodiscard]] virtual Status send(const MessageRef& m) {
    return send(materialize(m));
  }

  /// Installs the receive handler. Messages that arrived before the
  /// handler was installed are replayed to it, in arrival order, before
  /// this call returns.
  virtual void setHandler(Handler handler) = 0;

  /// Installs a zero-copy receive handler (mutually exclusive with
  /// setHandler — the most recent installation of either wins). The
  /// built-in transports feed it views straight over their receive
  /// buffers; the default adapts through setHandler by re-encoding into
  /// a scratch buffer, so wrappers forwarding only the legacy hook still
  /// deliver views to their consumers.
  virtual void setViewHandler(ViewHandler handler);

  /// Installs a disconnect callback, invoked once when the peer goes away
  /// (socket EOF / peer close). Optional.
  virtual void setCloseHandler(std::function<void()> handler) = 0;

  /// Closes the endpoint; new sends fail, already-queued sends are
  /// flushed (bounded by a grace period if the peer stops reading), then
  /// the peer observes EOF.
  virtual void close() = 0;

  /// True until close() (or peer disconnect for sockets).
  [[nodiscard]] virtual bool isOpen() const = 0;

  /// Which data plane this endpoint uses: "inproc" or "socket". Virtual
  /// so wrapper transports can report the plane they forward to.
  [[nodiscard]] virtual std::string_view kindName() const {
    return "unknown";
  }
};

/// Creates a connected in-process transport pair.
[[nodiscard]] std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcPair();

/// Listening Unix-domain socket. Accepted connections are registered with
/// the process-wide epoll reactor and handed to the callback as
/// Transports; no per-connection threads are created.
class UnixSocketServer {
 public:
  using ConnectionHandler = std::function<void(std::unique_ptr<Transport>)>;

  /// Binds and listens at `path` (unlinking a stale socket file first).
  explicit UnixSocketServer(std::string path);
  ~UnixSocketServer();
  UnixSocketServer(const UnixSocketServer&) = delete;
  UnixSocketServer& operator=(const UnixSocketServer&) = delete;

  /// Starts the accept loop on a background thread.
  [[nodiscard]] Status start(ConnectionHandler onConnection);

  /// Stops accepting and joins the accept thread.
  void stop();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string path_;
};

/// Connects to a UnixSocketServer; the endpoint joins the process-wide
/// epoll reactor like an accepted one.
[[nodiscard]] Result<std::unique_ptr<Transport>> unixSocketConnect(
    const std::string& path);

/// The reactor backend driving this process's socket endpoints: always
/// "epoll". Reported in `simfsctl stats` and benchmark provenance.
[[nodiscard]] std::string_view reactorBackendName();

}  // namespace simfs::msg
