// PosixVfs — the one VFS core both POSIX adapters (FUSE server, preload
// shim) are thin over.
//
// It glues three things together:
//   - namespace synthesis: directory listings and stat geometry rendered
//     from GeometryClient's TTL-cached context geometry (no daemon round
//     trip on a warm cache),
//   - the async Session data path: a directory listing fires ONE vectored
//     acquireAsync over the listed step window, and every open() inside
//     that window ATTACHES to the covering batch instead of issuing its
//     own request — a 64-file `ls` + read pipeline costs exactly one
//     kOpenBatchReq,
//   - facade-equivalent blocking semantics: open() registers interest
//     without blocking, waitReady() blocks on re-simulation exactly like
//     an intercepted read (the open's index of its batch, via
//     AcquireHandle::waitIndex), and close() releases the registration —
//     a batch index's once, when the last open attached to it closes.
//
// Bytes are NOT proxied through this class: once waitReady() returns OK
// the output step is resident in the context's store and the adapter
// reads it from the real backing directory itself (FUSE via a FileStore,
// the shim by dup2-ing a real fd over its placeholder).
//
// Thread-safety: all public methods may be called from any thread. The
// internal mutex guards only SimFS-path bookkeeping — the preload shim's
// non-SimFS fast path never enters this class.
#pragma once

#include "common/status.hpp"
#include "common/types.hpp"
#include "dvlib/session.hpp"
#include "msg/transport.hpp"
#include "posix/geometry.hpp"
#include "posix/path.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace simfs::posix {

class PosixVfs {
 public:
  struct Options {
    /// Geometry request/reply seam (socketGeometryCall for deployments,
    /// an in-process responder in tests).
    GeometryClient::CallFn geometryCall;
    /// Dials a data-plane connection for one context's session. Called
    /// once per context, lazily.
    std::function<Result<std::unique_ptr<msg::Transport>>(
        const std::string& context)>
        connect;
    GeometryClient::Options geometry = GeometryClient::defaultOptions();
    /// Upper bound on the step window one directory listing prefetches
    /// as a single vectored acquire (SIMFS_POSIX_BATCH env override).
    std::size_t readdirBatchMax = 64;
  };

  /// Options wired to a daemon Unix socket for both planes.
  [[nodiscard]] static Options socketOptions(const std::string& socketPath);

  struct Attr {
    bool dir = false;
    Bytes size = 0;           ///< file size (0 for directories)
    std::int64_t entries = 0; ///< directory entry count (0 for files)
  };

  struct DirPage {
    std::vector<std::string> names;
    bool more = false;  ///< entries remain past this page
  };

  /// An open file handle: id for the bookkeeping, plus what the adapter
  /// needs to synthesize fstat before the bytes exist.
  struct OpenedFile {
    std::int64_t id = 0;
    Bytes size = 0;
    std::string storeName;  ///< name in the context's flat backing store
  };

  explicit PosixVfs(Options options);
  ~PosixVfs();
  PosixVfs(const PosixVfs&) = delete;
  PosixVfs& operator=(const PosixVfs&) = delete;

  /// Registered contexts (cached; sorted namespace roots).
  [[nodiscard]] Result<std::vector<std::string>> listContexts();

  /// Stat synthesis for any namespace path.
  [[nodiscard]] Result<Attr> getattr(const ParsedPath& path);

  /// One page of a context's synthesized listing, names ascending by
  /// step. A page starting at offset 0 also fires the vectored prefetch
  /// batch over the first readdirBatchMax steps (one kOpenBatchReq);
  /// later pages never re-fire it.
  [[nodiscard]] Result<DirPage> readdir(const std::string& context,
                                        std::int64_t offset,
                                        std::size_t limit);

  /// Registers interest in one output step (facade open semantics: no
  /// blocking — on a miss the DV starts re-simulating). Attaches to the
  /// covering readdir batch when one exists, else issues a batch of one.
  [[nodiscard]] Result<OpenedFile> open(const std::string& context,
                                        const std::string& file);

  /// Blocks until the opened step is resident (facade read semantics:
  /// transparent re-simulation wait). Idempotent.
  [[nodiscard]] Status waitReady(std::int64_t openId);

  /// Releases the handle. An own batch of one is cancelled (waiter entry
  /// or reference, whichever it holds). An attached open only detaches:
  /// the batch index's single registration is released when the LAST
  /// open attached to it closes, so sibling waits are never orphaned.
  /// A later open of that file takes its own batch of one.
  void close(std::int64_t openId);

  [[nodiscard]] GeometryClient& geometry() noexcept { return geometry_; }

 private:
  /// One readdir-driven vectored prefetch over a step window.
  struct Batch {
    /// Per handle index: opens attached to it, and whether its
    /// registration was released (its last attached open closed).
    struct Slot {
      int users = 0;
      bool released = false;
    };
    dvlib::AcquireHandle handle;
    std::map<std::string, std::size_t> index;  ///< file -> handle index
    std::vector<Slot> slots;
    bool doomed = false;  ///< superseded; cancel once no open is attached
  };

  struct CtxState {
    std::shared_ptr<dvlib::Session> session;
    std::shared_ptr<Batch> batch;  ///< current listing coverage
  };

  struct Open {
    dvlib::AcquireHandle own;      ///< batch of one (when not covered)
    std::shared_ptr<Batch> batch;  ///< covering batch (when covered)
    std::size_t batchIndex = 0;
  };

  /// Session for `context`, dialed on first use. Caller holds mutex_.
  Result<std::shared_ptr<dvlib::Session>> sessionForLocked(
      const std::string& context);

  /// Cancels `batch` (every index not yet released) if doomed and no
  /// open is attached anymore. Caller holds mutex_.
  void maybeReapBatchLocked(const std::shared_ptr<Batch>& batch);

  Options options_;
  GeometryClient geometry_;
  std::mutex mutex_;
  std::map<std::string, CtxState> contexts_;
  std::map<std::int64_t, Open> opens_;
  std::int64_t nextOpenId_ = 1;
};

}  // namespace simfs::posix
