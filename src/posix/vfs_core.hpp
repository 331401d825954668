// PosixVfs — the one VFS core both POSIX adapters (FUSE server, preload
// shim) are thin over.
//
// It glues three things together:
//   - namespace synthesis: directory listings and stat geometry rendered
//     from GeometryClient's TTL-cached context geometry (no daemon round
//     trip on a warm cache). A listing is names only: it dials no session
//     and registers no interest, so an `ls` re-simulates nothing and
//     shows the DV's prefetch agent no access nobody made,
//   - the async Session data path: every open() is its own batch of one
//     (one kOpenBatchReq), so the DV sees exactly the opens the tool makes,
//   - facade-equivalent blocking semantics: open() registers interest
//     without blocking, waitReady() blocks on re-simulation exactly like
//     an intercepted read, and close() cancels the open's handle — one
//     release of its registration, read or not.
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
  /// step. Names only: no session, no DV registration.
  [[nodiscard]] Result<DirPage> readdir(const std::string& context,
                                        std::int64_t offset,
                                        std::size_t limit);

  /// Registers interest in one output step as a batch of one (facade
  /// open semantics: no blocking — on a miss the DV starts
  /// re-simulating).
  [[nodiscard]] Result<OpenedFile> open(const std::string& context,
                                        const std::string& file);

  /// Blocks until the opened step is resident (facade read semantics:
  /// transparent re-simulation wait). Idempotent.
  [[nodiscard]] Status waitReady(std::int64_t openId);

  /// Cancels the open's handle: one fire-and-forget release of whatever
  /// it registered (waiter entry or reference), read or not.
  void close(std::int64_t openId);

  [[nodiscard]] GeometryClient& geometry() noexcept { return geometry_; }

 private:
  /// Session for `context`, dialed on first use. Caller holds mutex_.
  Result<std::shared_ptr<dvlib::Session>> sessionForLocked(
      const std::string& context);

  Options options_;
  GeometryClient geometry_;
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<dvlib::Session>> sessions_;
  std::map<std::int64_t, dvlib::AcquireHandle> opens_;  ///< batch of one each
  std::int64_t nextOpenId_ = 1;
};

}  // namespace simfs::posix
