// libsimfs_preload — transparent POSIX access to a running DV daemon:
//
//   SIMFS_MOUNT_SOCKET=/run/simfs.sock SIMFS_POSIX_STORE=/data/store
//   LD_PRELOAD=$PWD/libsimfs_preload.so cat /simfs/ctx0/out_000041.dat
//
// Interposes the libc file API via dlsym(RTLD_NEXT). Paths under
// SIMFS_POSIX_PREFIX (default "/simfs") resolve against the daemon's
// synthesized namespace; everything else takes the passthrough fast path
// — exactly ONE prefix comparison for path calls, one bounds-checked
// atomic load for fd calls, then the real libc function (the <5% gate in
// bench/micro_posix.cpp pins this).
//
// SimFS open() is facade-faithful: it registers interest (a batch of one)
// and returns a placeholder fd immediately; the first read() blocks until
// the step is resident — transparently waiting out a re-simulation —
// then dup2()s the real store file over the placeholder so every later
// read/lseek/mmap-free consumer runs at native speed. close() cancels
// the registration, read or not, so nothing leaks.
//
// Known limits (documented in README): writes are EROFS, mmap of a
// not-yet-materialized fd is unsupported, fcntl(F_DUPFD) of a SimFS fd
// duplicates the placeholder without shim state, and fork()ed children
// share materialized fds but not pending ones.
#include "common/env.hpp"
#include "common/status.hpp"
#include "posix/path.hpp"
#include "posix/shim.hpp"
#include "posix/vfs_core.hpp"

#include <dirent.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace simfs;
using namespace simfs::posix;

namespace {

template <typename Fn>
Fn realSym(const char* name) {
  return reinterpret_cast<Fn>(::dlsym(RTLD_NEXT, name));
}

int fail(int err) {
  errno = err;
  return -1;
}

int statusErrno(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk: return 0;
    case StatusCode::kNotFound: return ENOENT;
    case StatusCode::kInvalidArgument: return EINVAL;
    case StatusCode::kOutOfRange: return ENOENT;
    case StatusCode::kTimedOut: return ETIMEDOUT;
    case StatusCode::kCancelled: return EINTR;
    default: return EIO;
  }
}

/// Process-wide shim state, built lazily on the first interposed call.
/// The classifier is immutable after construction, so the fast path
/// reads it without synchronization; only the vfs (which dials sockets)
/// is created under a lock, on the first SimFS-path operation.
struct Shim {
  PathClassifier classifier;
  std::string socketPath;
  std::string storeRoot;
  FdTable fds;
  std::mutex vfsMutex;
  std::shared_ptr<PosixVfs> vfs;

  Shim()
      : classifier(env::getOr("SIMFS_POSIX_PREFIX", "/simfs")),
        socketPath(env::getOr("SIMFS_MOUNT_SOCKET", "")),
        storeRoot(env::getOr("SIMFS_POSIX_STORE", "")) {}

  PosixVfs* getVfs() {
    std::lock_guard lock(vfsMutex);
    if (vfs == nullptr) {
      if (socketPath.empty()) return nullptr;
      vfs = std::make_shared<PosixVfs>(PosixVfs::socketOptions(socketPath));
    }
    return vfs.get();
  }
};

Shim& shim() {
  static Shim* s = new Shim();  // leaked: interposers may run during exit
  return *s;
}

/// True for a NULL path. glibc declares the path parameters `nonnull`,
/// so the compiler folds a plain `path == nullptr` inside an interposer
/// to false, and a NULL path would crash in the shim instead of reaching
/// libc. The empty asm hides the pointer's origin and keeps the check;
/// a NULL path always takes the passthrough to the real call.
bool nullPath(const char* path) {
  asm("" : "+r"(path));
  return path == nullptr;
}

/// The ONE prefix comparison every path-taking call pays.
bool classify(const char* path, ParsedPath* out) {
  if (nullPath(path)) return false;
  std::string_view rest;
  if (!shim().classifier.match(path, &rest)) return false;
  *out = parsePosixPath(rest);
  return true;
}

template <typename StatT>
void fillStat(StatT* st, bool dir, Bytes size) {
  std::memset(st, 0, sizeof(*st));
  st->st_mode = dir ? (S_IFDIR | 0555) : (S_IFREG | 0444);
  st->st_nlink = dir ? 2 : 1;
  st->st_uid = ::getuid();
  st->st_gid = ::getgid();
  st->st_size = static_cast<off_t>(size);
  st->st_blksize = 4096;
  st->st_blocks = static_cast<blkcnt_t>((size + 511) / 512);
}

void fillStatx(struct statx* stx, bool dir, Bytes size) {
  std::memset(stx, 0, sizeof(*stx));
  stx->stx_mask = STATX_BASIC_STATS;
  stx->stx_mode = dir ? (S_IFDIR | 0555) : (S_IFREG | 0444);
  stx->stx_nlink = dir ? 2 : 1;
  stx->stx_uid = ::getuid();
  stx->stx_gid = ::getgid();
  stx->stx_size = size;
  stx->stx_blksize = 4096;
  stx->stx_blocks = (size + 511) / 512;
}

int placeholderFd(int flags) {
  static const auto realOpen = realSym<int (*)(const char*, int, ...)>("open");
  return realOpen("/dev/null", O_RDONLY | (flags & O_CLOEXEC));
}

/// Opens a SimFS path: directories get a synthesized placeholder, files
/// register interest with the daemon (facade open: non-blocking, starts
/// re-simulation on a miss).
int simfsOpen(const ParsedPath& p, int flags) {
  if (p.kind == PathKind::kInvalid) return fail(ENOENT);
  if ((flags & O_ACCMODE) != O_RDONLY ||
      (flags & (O_CREAT | O_TRUNC | O_APPEND)) != 0) {
    return fail(EROFS);
  }
  PosixVfs* vfs = shim().getVfs();
  if (vfs == nullptr) return fail(ENOENT);
  if (p.kind != PathKind::kFile) {
    const auto attr = vfs->getattr(p);
    if (!attr) return fail(statusErrno(attr.status()));
    const int fd = placeholderFd(flags);
    if (fd < 0) return -1;
    FdEntry* e = shim().fds.acquireEntry();
    e->isDir = true;
    e->backingPath = std::string(p.context);  // "" for the root
    shim().fds.install(fd, e);
    return fd;
  }
  auto opened = vfs->open(std::string(p.context), std::string(p.file));
  if (!opened) return fail(statusErrno(opened.status()));
  const int fd = placeholderFd(flags);
  if (fd < 0) {
    vfs->close(opened->id);
    return -1;
  }
  FdEntry* e = shim().fds.acquireEntry();
  e->vfsOpenId = opened->id;
  e->size = opened->size;
  e->openFlags = flags;
  e->backingPath = shim().storeRoot.empty()
                       ? opened->storeName
                       : shim().storeRoot + "/" + opened->storeName;
  shim().fds.install(fd, e);
  return fd;
}

/// First-read path: wait out the (possible) re-simulation, then splice
/// the real store file over the placeholder fd. Returns 0 or an errno.
int materialize(int fd, FdEntry* e) {
  static const auto realOpen = realSym<int (*)(const char*, int, ...)>("open");
  static const auto realClose = realSym<int (*)(int)>("close");
  static const auto realLseek =
      realSym<off_t (*)(int, off_t, int)>("lseek");
  // NOT ::dup2 — that resolves to our own interposer, which would tear
  // down the very entry being materialized when it handles `fd`.
  static const auto realDup2 = realSym<int (*)(int, int)>("dup2");
  std::lock_guard lock(e->materialize);
  if (e->state.load(std::memory_order_acquire) == FdEntry::kReady) return 0;
  e->state.store(FdEntry::kMaterializing, std::memory_order_relaxed);
  PosixVfs* vfs = shim().getVfs();
  if (vfs == nullptr) {
    e->state.store(FdEntry::kPending, std::memory_order_relaxed);
    return EIO;
  }
  if (const Status st = vfs->waitReady(e->vfsOpenId); !st.isOk()) {
    e->state.store(FdEntry::kPending, std::memory_order_relaxed);
    return statusErrno(st);
  }
  const int backing = realOpen(e->backingPath.c_str(), O_RDONLY | O_CLOEXEC);
  if (backing < 0) {
    e->state.store(FdEntry::kPending, std::memory_order_relaxed);
    return EIO;
  }
  if (e->offset != 0) {
    (void)realLseek(backing, static_cast<off_t>(e->offset), SEEK_SET);
  }
  if (realDup2(backing, fd) < 0) {
    realClose(backing);
    e->state.store(FdEntry::kPending, std::memory_order_relaxed);
    return EIO;
  }
  realClose(backing);
  if ((e->openFlags & O_CLOEXEC) != 0) {
    (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  e->state.store(FdEntry::kReady, std::memory_order_release);
  return 0;
}

int simfsStatPath(const ParsedPath& p, struct stat* st) {
  if (p.kind == PathKind::kInvalid) return fail(ENOENT);
  PosixVfs* vfs = shim().getVfs();
  if (vfs == nullptr) return fail(ENOENT);
  const auto attr = vfs->getattr(p);
  if (!attr) return fail(statusErrno(attr.status()));
  fillStat(st, attr->dir, attr->size);
  return 0;
}

int simfsStatPath64(const ParsedPath& p, struct stat64* st) {
  if (p.kind == PathKind::kInvalid) return fail(ENOENT);
  PosixVfs* vfs = shim().getVfs();
  if (vfs == nullptr) return fail(ENOENT);
  const auto attr = vfs->getattr(p);
  if (!attr) return fail(statusErrno(attr.status()));
  fillStat(st, attr->dir, attr->size);
  return 0;
}

/// Resolves `name` relative to a SimFS directory placeholder fd (whose
/// entry stores its context name; "" for the root).
ParsedPath childOf(const FdEntry* e, const char* name, std::string* hold) {
  if (e->backingPath.empty()) {
    *hold = name;
  } else {
    *hold = e->backingPath + "/" + name;
  }
  return parsePosixPath(*hold);
}

// ---------------------------------------------------------------- opendir

constexpr std::uint64_t kShimDirMagic = 0x53696D4644495231ull;  // "SimFDIR1"

/// Fake DIR handle; `magic` MUST stay the first member — readdir() tells
/// ours from glibc's by reading the first 8 bytes.
struct ShimDir {
  std::uint64_t magic = kShimDirMagic;
  bool rootListing = false;  ///< entries are contexts (DT_DIR) not steps
  int placeholderFd = -1;    ///< backs dirfd()/fstatat()
  std::vector<std::string> names;
  std::size_t next = 0;
  struct dirent ent;
  struct dirent64 ent64;
};

bool isShimDir(DIR* dirp) {
  if (dirp == nullptr) return false;
  std::uint64_t magic;
  std::memcpy(&magic, dirp, sizeof(magic));
  return magic == kShimDirMagic;
}

DIR* simfsOpendir(const ParsedPath& p) {
  if (p.kind == PathKind::kFile) {
    errno = ENOTDIR;
    return nullptr;
  }
  if (p.kind == PathKind::kInvalid) {
    errno = ENOENT;
    return nullptr;
  }
  PosixVfs* vfs = shim().getVfs();
  if (vfs == nullptr) {
    errno = ENOENT;
    return nullptr;
  }
  auto dir = std::make_unique<ShimDir>();
  dir->names.push_back(".");
  dir->names.push_back("..");
  if (p.kind == PathKind::kRoot) {
    dir->rootListing = true;
    auto names = vfs->listContexts();
    if (!names) {
      errno = statusErrno(names.status());
      return nullptr;
    }
    for (auto& n : *names) dir->names.push_back(std::move(n));
  } else {
    // Page the synthesized listing (names only: nothing is registered).
    const std::string ctx(p.context);
    std::int64_t off = 0;
    for (;;) {
      auto page = vfs->readdir(ctx, off, 256);
      if (!page) {
        errno = statusErrno(page.status());
        return nullptr;
      }
      off += static_cast<std::int64_t>(page->names.size());
      for (auto& n : page->names) dir->names.push_back(std::move(n));
      if (!page->more) break;
    }
  }
  const int fd = placeholderFd(O_CLOEXEC);
  if (fd >= 0) {
    FdEntry* e = shim().fds.acquireEntry();
    e->isDir = true;
    e->backingPath = std::string(p.context);
    shim().fds.install(fd, e);
  }
  dir->placeholderFd = fd;
  return reinterpret_cast<DIR*>(dir.release());
}

template <typename DirentT>
DirentT* fillDirent(ShimDir* d, DirentT* ent) {
  if (d->next >= d->names.size()) return nullptr;
  const std::string& name = d->names[d->next++];
  std::memset(ent, 0, sizeof(*ent));
  ent->d_ino = d->next;  // 1-based; readers only require non-zero
  ent->d_off = static_cast<off_t>(d->next);
  ent->d_reclen = sizeof(*ent);
  const bool isDot = name[0] == '.';
  ent->d_type = (d->rootListing || isDot) ? DT_DIR : DT_REG;
  std::strncpy(ent->d_name, name.c_str(), sizeof(ent->d_name) - 1);
  return ent;
}

}  // namespace

// ------------------------------------------------------------ interposers

extern "C" {

int open(const char* path, int flags, ...) {
  static const auto realOpen = realSym<int (*)(const char*, int, ...)>("open");
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list ap;
    va_start(ap, flags);
    mode = va_arg(ap, mode_t);
    va_end(ap);
  }
  ParsedPath p;
  if (!classify(path, &p)) return realOpen(path, flags, mode);
  return simfsOpen(p, flags);
}

int open64(const char* path, int flags, ...) {
  static const auto realOpen64 =
      realSym<int (*)(const char*, int, ...)>("open64");
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list ap;
    va_start(ap, flags);
    mode = va_arg(ap, mode_t);
    va_end(ap);
  }
  ParsedPath p;
  if (!classify(path, &p)) return realOpen64(path, flags, mode);
  return simfsOpen(p, flags);
}

int openat(int dirfd, const char* path, int flags, ...) {
  static const auto realOpenat =
      realSym<int (*)(int, const char*, int, ...)>("openat");
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list ap;
    va_start(ap, flags);
    mode = va_arg(ap, mode_t);
    va_end(ap);
  }
  ParsedPath p;
  if (!nullPath(path) && path[0] == '/' && classify(path, &p)) {
    return simfsOpen(p, flags);
  }
  if (const FdEntry* e = shim().fds.get(dirfd);
      e != nullptr && e->isDir && !nullPath(path)) {
    std::string hold;
    return simfsOpen(childOf(e, path, &hold), flags);
  }
  return realOpenat(dirfd, path, flags, mode);
}

int openat64(int dirfd, const char* path, int flags, ...) {
  static const auto realOpenat64 =
      realSym<int (*)(int, const char*, int, ...)>("openat64");
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list ap;
    va_start(ap, flags);
    mode = va_arg(ap, mode_t);
    va_end(ap);
  }
  ParsedPath p;
  if (!nullPath(path) && path[0] == '/' && classify(path, &p)) {
    return simfsOpen(p, flags);
  }
  if (const FdEntry* e = shim().fds.get(dirfd);
      e != nullptr && e->isDir && !nullPath(path)) {
    std::string hold;
    return simfsOpen(childOf(e, path, &hold), flags);
  }
  return realOpenat64(dirfd, path, flags, mode);
}

ssize_t read(int fd, void* buf, size_t count) {
  static const auto realRead =
      realSym<ssize_t (*)(int, void*, size_t)>("read");
  FdEntry* e = shim().fds.get(fd);
  if (e == nullptr) return realRead(fd, buf, count);
  if (e->isDir) return fail(EISDIR);
  if (e->state.load(std::memory_order_acquire) != FdEntry::kReady) {
    if (const int err = materialize(fd, e); err != 0) return fail(err);
  }
  return realRead(fd, buf, count);
}

ssize_t pread(int fd, void* buf, size_t count, off_t offset) {
  static const auto realPread =
      realSym<ssize_t (*)(int, void*, size_t, off_t)>("pread");
  FdEntry* e = shim().fds.get(fd);
  if (e == nullptr) return realPread(fd, buf, count, offset);
  if (e->isDir) return fail(EISDIR);
  if (e->state.load(std::memory_order_acquire) != FdEntry::kReady) {
    if (const int err = materialize(fd, e); err != 0) return fail(err);
  }
  return realPread(fd, buf, count, offset);
}

ssize_t pread64(int fd, void* buf, size_t count, off64_t offset) {
  static const auto realPread64 =
      realSym<ssize_t (*)(int, void*, size_t, off64_t)>("pread64");
  FdEntry* e = shim().fds.get(fd);
  if (e == nullptr) return realPread64(fd, buf, count, offset);
  if (e->isDir) return fail(EISDIR);
  if (e->state.load(std::memory_order_acquire) != FdEntry::kReady) {
    if (const int err = materialize(fd, e); err != 0) return fail(err);
  }
  return realPread64(fd, buf, count, offset);
}

off_t lseek(int fd, off_t offset, int whence) {
  static const auto realLseek =
      realSym<off_t (*)(int, off_t, int)>("lseek");
  FdEntry* e = shim().fds.get(fd);
  if (e == nullptr || e->isDir ||
      e->state.load(std::memory_order_acquire) == FdEntry::kReady) {
    return realLseek(fd, offset, whence);
  }
  // Pending SimFS fd: the placeholder has no meaningful offset, so track
  // it here; materialization seeks the real file to it before splicing.
  std::lock_guard lock(e->materialize);
  if (e->state.load(std::memory_order_acquire) == FdEntry::kReady) {
    return realLseek(fd, offset, whence);
  }
  std::int64_t base = 0;
  switch (whence) {
    case SEEK_SET: base = 0; break;
    case SEEK_CUR: base = e->offset; break;
    case SEEK_END: base = static_cast<std::int64_t>(e->size); break;
    default: return fail(EINVAL);
  }
  const std::int64_t target = base + static_cast<std::int64_t>(offset);
  if (target < 0) return fail(EINVAL);
  e->offset = target;
  return static_cast<off_t>(target);
}

off64_t lseek64(int fd, off64_t offset, int whence) {
  return lseek(fd, static_cast<off_t>(offset), whence);
}

int close(int fd) {
  static const auto realClose = realSym<int (*)(int)>("close");
  FdEntry* e = shim().fds.take(fd);
  if (e != nullptr) {
    if (!e->isDir) {
      // Unread handles cancel their registration daemon-side; read ones
      // deref. Either way nothing stays pinned.
      if (PosixVfs* vfs = shim().getVfs()) vfs->close(e->vfsOpenId);
    }
    shim().fds.recycle(e);
  }
  return realClose(fd);
}

// Duplicating a pending SimFS fd materializes it first (waiting out any
// re-simulation), so the duplicate is a plain kernel fd sharing the real
// open file description — dd's open + dup2-onto-stdin + close(orig)
// pattern then works natively. The original fd keeps the table entry
// (and the vfs deref on its close); the duplicate needs none.
int dup(int oldfd) {
  static const auto realDup = realSym<int (*)(int)>("dup");
  FdEntry* e = shim().fds.get(oldfd);
  if (e != nullptr && !e->isDir &&
      e->state.load(std::memory_order_acquire) != FdEntry::kReady) {
    if (const int err = materialize(oldfd, e); err != 0) return fail(err);
  }
  return realDup(oldfd);
}

int dup2(int oldfd, int newfd) {
  static const auto realDup2 = realSym<int (*)(int, int)>("dup2");
  FdEntry* e = shim().fds.get(oldfd);
  if (e != nullptr && !e->isDir && oldfd != newfd &&
      e->state.load(std::memory_order_acquire) != FdEntry::kReady) {
    if (const int err = materialize(oldfd, e); err != 0) return fail(err);
  }
  if (oldfd != newfd) {
    // dup2 implicitly closes newfd: release any SimFS state it carried.
    FdEntry* clobbered = shim().fds.take(newfd);
    if (clobbered != nullptr) {
      if (!clobbered->isDir) {
        if (PosixVfs* vfs = shim().getVfs()) vfs->close(clobbered->vfsOpenId);
      }
      shim().fds.recycle(clobbered);
    }
  }
  return realDup2(oldfd, newfd);
}

int dup3(int oldfd, int newfd, int flags) {
  static const auto realDup3 = realSym<int (*)(int, int, int)>("dup3");
  FdEntry* e = shim().fds.get(oldfd);
  if (e != nullptr && !e->isDir &&
      e->state.load(std::memory_order_acquire) != FdEntry::kReady) {
    if (const int err = materialize(oldfd, e); err != 0) return fail(err);
  }
  if (oldfd != newfd) {
    FdEntry* clobbered = shim().fds.take(newfd);
    if (clobbered != nullptr) {
      if (!clobbered->isDir) {
        if (PosixVfs* vfs = shim().getVfs()) vfs->close(clobbered->vfsOpenId);
      }
      shim().fds.recycle(clobbered);
    }
  }
  return realDup3(oldfd, newfd, flags);
}

int fstat(int fd, struct stat* st) {
  static const auto realFstat = realSym<int (*)(int, struct stat*)>("fstat");
  FdEntry* e = shim().fds.get(fd);
  if (e == nullptr) return realFstat(fd, st);
  if (!e->isDir && e->state.load(std::memory_order_acquire) == FdEntry::kReady) {
    return realFstat(fd, st);
  }
  fillStat(st, e->isDir, e->size);
  return 0;
}

int fstat64(int fd, struct stat64* st) {
  static const auto realFstat64 =
      realSym<int (*)(int, struct stat64*)>("fstat64");
  FdEntry* e = shim().fds.get(fd);
  if (e == nullptr) return realFstat64(fd, st);
  if (!e->isDir && e->state.load(std::memory_order_acquire) == FdEntry::kReady) {
    return realFstat64(fd, st);
  }
  fillStat(st, e->isDir, e->size);
  return 0;
}

int stat(const char* path, struct stat* st) {
  static const auto realStat =
      realSym<int (*)(const char*, struct stat*)>("stat");
  ParsedPath p;
  if (!classify(path, &p)) return realStat(path, st);
  return simfsStatPath(p, st);
}

int stat64(const char* path, struct stat64* st) {
  static const auto realStat64 =
      realSym<int (*)(const char*, struct stat64*)>("stat64");
  ParsedPath p;
  if (!classify(path, &p)) return realStat64(path, st);
  return simfsStatPath64(p, st);
}

int lstat(const char* path, struct stat* st) {
  static const auto realLstat =
      realSym<int (*)(const char*, struct stat*)>("lstat");
  ParsedPath p;
  if (!classify(path, &p)) return realLstat(path, st);
  return simfsStatPath(p, st);  // no symlinks in the synthesized tree
}

int lstat64(const char* path, struct stat64* st) {
  static const auto realLstat64 =
      realSym<int (*)(const char*, struct stat64*)>("lstat64");
  ParsedPath p;
  if (!classify(path, &p)) return realLstat64(path, st);
  return simfsStatPath64(p, st);
}

int fstatat(int dirfd, const char* path, struct stat* st, int flags) {
  static const auto realFstatat =
      realSym<int (*)(int, const char*, struct stat*, int)>("fstatat");
  ParsedPath p;
  if (!nullPath(path) && path[0] == '/' && classify(path, &p)) {
    return simfsStatPath(p, st);
  }
  if (const FdEntry* e = shim().fds.get(dirfd);
      e != nullptr && e->isDir && !nullPath(path) && path[0] != '\0') {
    std::string hold;
    return simfsStatPath(childOf(e, path, &hold), st);
  }
  return realFstatat(dirfd, path, st, flags);
}

int fstatat64(int dirfd, const char* path, struct stat64* st, int flags) {
  static const auto realFstatat64 =
      realSym<int (*)(int, const char*, struct stat64*, int)>("fstatat64");
  ParsedPath p;
  if (!nullPath(path) && path[0] == '/' && classify(path, &p)) {
    return simfsStatPath64(p, st);
  }
  if (const FdEntry* e = shim().fds.get(dirfd);
      e != nullptr && e->isDir && !nullPath(path) && path[0] != '\0') {
    std::string hold;
    return simfsStatPath64(childOf(e, path, &hold), st);
  }
  return realFstatat64(dirfd, path, st, flags);
}

int statx(int dirfd, const char* path, int flags, unsigned int mask,
          struct statx* stx) {
  static const auto realStatx = realSym<int (*)(
      int, const char*, int, unsigned int, struct statx*)>("statx");
  ParsedPath p;
  bool ours = false;
  std::string hold;
  if (!nullPath(path) && path[0] == '/' && classify(path, &p)) {
    ours = true;
  } else if (const FdEntry* e = shim().fds.get(dirfd);
             e != nullptr && e->isDir && !nullPath(path) &&
             path[0] != '\0') {
    p = childOf(e, path, &hold);
    ours = true;
  }
  if (!ours) return realStatx(dirfd, path, flags, mask, stx);
  if (p.kind == PathKind::kInvalid) return fail(ENOENT);
  PosixVfs* vfs = shim().getVfs();
  if (vfs == nullptr) return fail(ENOENT);
  const auto attr = vfs->getattr(p);
  if (!attr) return fail(statusErrno(attr.status()));
  fillStatx(stx, attr->dir, attr->size);
  return 0;
}

int access(const char* path, int mode) {
  static const auto realAccess = realSym<int (*)(const char*, int)>("access");
  ParsedPath p;
  if (!classify(path, &p)) return realAccess(path, mode);
  if (p.kind == PathKind::kInvalid) return fail(ENOENT);
  if ((mode & W_OK) != 0) return fail(EROFS);
  PosixVfs* vfs = shim().getVfs();
  if (vfs == nullptr) return fail(ENOENT);
  const auto attr = vfs->getattr(p);
  if (!attr) return fail(statusErrno(attr.status()));
  return 0;
}

DIR* opendir(const char* path) {
  static const auto realOpendir = realSym<DIR* (*)(const char*)>("opendir");
  ParsedPath p;
  if (!classify(path, &p)) return realOpendir(path);
  return simfsOpendir(p);
}

struct dirent* readdir(DIR* dirp) {
  static const auto realReaddir = realSym<struct dirent* (*)(DIR*)>("readdir");
  if (!isShimDir(dirp)) return realReaddir(dirp);
  ShimDir* d = reinterpret_cast<ShimDir*>(dirp);
  return fillDirent(d, &d->ent);
}

struct dirent64* readdir64(DIR* dirp) {
  static const auto realReaddir64 =
      realSym<struct dirent64* (*)(DIR*)>("readdir64");
  if (!isShimDir(dirp)) return realReaddir64(dirp);
  ShimDir* d = reinterpret_cast<ShimDir*>(dirp);
  return fillDirent(d, &d->ent64);
}

void rewinddir(DIR* dirp) {
  static const auto realRewinddir = realSym<void (*)(DIR*)>("rewinddir");
  if (!isShimDir(dirp)) {
    realRewinddir(dirp);
    return;
  }
  reinterpret_cast<ShimDir*>(dirp)->next = 0;
}

int dirfd(DIR* dirp) {
  static const auto realDirfd = realSym<int (*)(DIR*)>("dirfd");
  if (!isShimDir(dirp)) return realDirfd(dirp);
  const int fd = reinterpret_cast<ShimDir*>(dirp)->placeholderFd;
  return fd >= 0 ? fd : fail(EINVAL);
}

int closedir(DIR* dirp) {
  static const auto realClosedir = realSym<int (*)(DIR*)>("closedir");
  if (!isShimDir(dirp)) return realClosedir(dirp);
  ShimDir* d = reinterpret_cast<ShimDir*>(dirp);
  if (d->placeholderFd >= 0) close(d->placeholderFd);  // our interposer
  delete d;
  return 0;
}

// Mutations on SimFS paths answer EROFS before any syscall is spent.

int unlink(const char* path) {
  static const auto realUnlink = realSym<int (*)(const char*)>("unlink");
  ParsedPath p;
  if (!classify(path, &p)) return realUnlink(path);
  return fail(EROFS);
}

int mkdir(const char* path, mode_t mode) {
  static const auto realMkdir =
      realSym<int (*)(const char*, mode_t)>("mkdir");
  ParsedPath p;
  if (!classify(path, &p)) return realMkdir(path, mode);
  return fail(EROFS);
}

int rmdir(const char* path) {
  static const auto realRmdir = realSym<int (*)(const char*)>("rmdir");
  ParsedPath p;
  if (!classify(path, &p)) return realRmdir(path);
  return fail(EROFS);
}

int rename(const char* from, const char* to) {
  static const auto realRename =
      realSym<int (*)(const char*, const char*)>("rename");
  ParsedPath p;
  if (!classify(from, &p) && !classify(to, &p)) return realRename(from, to);
  return fail(EROFS);
}

int truncate(const char* path, off_t length) {
  static const auto realTruncate =
      realSym<int (*)(const char*, off_t)>("truncate");
  ParsedPath p;
  if (!classify(path, &p)) return realTruncate(path, length);
  return fail(EROFS);
}

}  // extern "C"
