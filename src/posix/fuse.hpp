// simfs_fuse core — a read-only FUSE server speaking the raw /dev/fuse
// kernel protocol, no libfuse (one less dependency, full control of the
// wire).
//
// The kernel side of FUSE is a character device: mount(2) with
// "fd=<devfd>" splices a mounted superblock to the fd, after which the
// daemon read()s requests (fuse_in_header + opcode body) and write()s
// replies (fuse_out_header + body). This server implements the read-only
// subset — INIT, LOOKUP, GETATTR, OPENDIR, READDIR, OPEN, READ, FLUSH,
// RELEASE(/DIR), FORGET, ACCESS, STATFS — over a PosixVfs: lookups and
// listings come from synthesized geometry, OPEN registers interest via
// the async session core, and READ blocks on re-simulation exactly like
// a facade read before serving bytes from the context's backing store.
// Every mutating opcode answers EROFS (and the mount itself is MS_RDONLY,
// so the kernel rejects most writes before they reach us).
//
// Mounting needs CAP_SYS_ADMIN (or a fusermount helper, which we
// deliberately do not ship). probe() + mount() report failure as a
// Status so callers — the CI smoke in particular — can skip visibly
// instead of erroring.
#pragma once

#include "common/status.hpp"
#include "posix/vfs_core.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace simfs::posix {

class FuseServer {
 public:
  struct Options {
    std::string mountPoint;
    std::string storeRoot;  ///< directory holding the resident step files
    std::shared_ptr<PosixVfs> vfs;
  };

  explicit FuseServer(Options options);
  ~FuseServer();
  FuseServer(const FuseServer&) = delete;
  FuseServer& operator=(const FuseServer&) = delete;

  /// Cheap environment check: can /dev/fuse be opened at all? (mount()
  /// can still fail with EPERM afterwards — both are "skip the smoke".)
  [[nodiscard]] static Status probe();

  /// Opens /dev/fuse and mounts it read-only on mountPoint.
  [[nodiscard]] Status mount();

  /// Serves kernel requests until the filesystem is unmounted or stop()
  /// is called. Single-threaded: a READ blocking on re-simulation stalls
  /// the mount's other requests for its duration — acceptable for the
  /// analysis-tool workloads this serves; parallel readers belong on the
  /// preload shim.
  void run();

  /// Lazy-unmounts and wakes run() out of its device read.
  void stop();

 private:
  struct Node {
    enum class Kind { kRoot, kContext, kFile };
    Kind kind = Kind::kRoot;
    std::string context;
    std::string file;
  };

  struct OpenState {
    std::int64_t vfsOpenId = 0;
    int backingFd = -1;     ///< opened after the first READ's ready-wait
    std::string storeName;  ///< file name under Options::storeRoot
  };

  /// Request handlers append their reply through these.
  void replyError(std::uint64_t unique, int err);
  void replyData(std::uint64_t unique, const void* data, std::size_t len);

  void handleRequest(const char* buf, std::size_t len);
  void doInit(std::uint64_t unique, const char* body, std::size_t len);
  void doLookup(std::uint64_t unique, std::uint64_t parent, const char* name);
  void doGetattr(std::uint64_t unique, std::uint64_t nodeid);
  void doReaddir(std::uint64_t unique, std::uint64_t nodeid,
                 std::uint64_t offset, std::uint32_t size);
  void doOpen(std::uint64_t unique, std::uint64_t nodeid, std::uint32_t flags);
  void doRead(std::uint64_t unique, std::uint64_t fh, std::uint64_t offset,
              std::uint32_t size);
  void doRelease(std::uint64_t unique, std::uint64_t fh);

  /// nodeid of (parent, name), creating the node on first sight.
  [[nodiscard]] std::uint64_t internNode(Node node);
  [[nodiscard]] const Node* findNode(std::uint64_t nodeid) const;

  Options options_;
  int devFd_ = -1;
  bool mounted_ = false;
  std::atomic<bool> stopping_{false};

  std::vector<Node> nodes_;  ///< nodeid = index + 1; nodes_[0] is the root
  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> byName_;
  std::map<std::uint64_t, OpenState> openFiles_;  ///< by fh
  std::uint64_t nextFh_ = 1;
};

}  // namespace simfs::posix
