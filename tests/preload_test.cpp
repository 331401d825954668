// Tests of the LD_PRELOAD shim as a loaded library: the test dlopen()s
// the built libsimfs_preload.so with RTLD_LOCAL — this process's own
// libc calls stay uninterposed — and calls the shim's entry points
// through dlsym().
#include <dirent.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <functional>
#include <ostream>
#include <utility>

namespace {

/// How a call ended: the errno of a failed call, 0 on success, or the
/// signal that killed the process.
struct Outcome {
  int err = 0;
  int signal = 0;
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return o.signal != 0 ? os << "killed by signal " << o.signal
                       : os << "errno " << o.err;
}

/// Runs `call` (which returns true on success) in a forked child, so a
/// crash is an outcome rather than the end of the test binary.
Outcome inChild(const std::function<bool()>& call) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    errno = 0;
    const bool ok = call();
    ::_exit(ok ? 0 : (errno & 0x7f));
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) return Outcome{0, WTERMSIG(status)};
  return Outcome{WEXITSTATUS(status), 0};
}

class PreloadShimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    handle_ = ::dlopen(SIMFS_PRELOAD_SO, RTLD_NOW | RTLD_LOCAL);
    ASSERT_NE(handle_, nullptr) << ::dlerror();
  }
  void TearDown() override {
    if (handle_ != nullptr) ::dlclose(handle_);
  }

  /// `name` as the shim defines it, and as libc does.
  template <typename Fn>
  std::pair<Fn, Fn> both(const char* name) {
    auto shim = reinterpret_cast<Fn>(::dlsym(handle_, name));
    auto libc = reinterpret_cast<Fn>(::dlsym(RTLD_DEFAULT, name));
    EXPECT_NE(shim, nullptr) << name;
    EXPECT_NE(libc, nullptr) << name;
    EXPECT_NE(shim, libc) << name << " must resolve to the shim's copy";
    return {shim, libc};
  }

  void* handle_ = nullptr;
};

// A NULL path is libc's to answer: every path entry point must end the
// way the real call does (EFAULT for the system-call wrappers) and must
// not crash inside the shim.
TEST_F(PreloadShimTest, NullPathsGetLibcsAnswer) {
  using OpenFn = int (*)(const char*, int, ...);
  using OpenatFn = int (*)(int, const char*, int, ...);
  using StatFn = int (*)(const char*, struct stat*);
  using FstatatFn = int (*)(int, const char*, struct stat*, int);
  using OpendirFn = DIR* (*)(const char*);
  // Opaque to the optimizer, like a NULL arriving from a caller.
  const char* volatile nullPath = nullptr;
  struct stat st {};

  const auto [shimOpen, libcOpen] = both<OpenFn>("open");
  const auto [shimOpenat, libcOpenat] = both<OpenatFn>("openat");
  const auto [shimStat, libcStat] = both<StatFn>("stat");
  const auto [shimFstatat, libcFstatat] = both<FstatatFn>("fstatat");
  const auto [shimOpendir, libcOpendir] = both<OpendirFn>("opendir");
  ASSERT_FALSE(HasFailure());

  const auto openVia = [&](OpenFn fn) {
    return inChild([&] { return fn(nullPath, O_RDONLY) >= 0; });
  };
  const auto openatVia = [&](OpenatFn fn) {
    return inChild([&] { return fn(AT_FDCWD, nullPath, O_RDONLY) >= 0; });
  };
  const auto statVia = [&](StatFn fn) {
    return inChild([&] { return fn(nullPath, &st) == 0; });
  };
  const auto fstatatVia = [&](FstatatFn fn) {
    return inChild([&] { return fn(AT_FDCWD, nullPath, &st, 0) == 0; });
  };
  const auto opendirVia = [&](OpendirFn fn) {
    return inChild([&] { return fn(nullPath) != nullptr; });
  };

  EXPECT_EQ(openVia(libcOpen), (Outcome{EFAULT, 0}));
  EXPECT_EQ(openVia(shimOpen), openVia(libcOpen));
  EXPECT_EQ(openatVia(shimOpenat), openatVia(libcOpenat));
  EXPECT_EQ(statVia(libcStat), (Outcome{EFAULT, 0}));
  EXPECT_EQ(statVia(shimStat), statVia(libcStat));
  EXPECT_EQ(fstatatVia(shimFstatat), fstatatVia(libcFstatat));
  // glibc's own opendir reads name[0] before any system call, so its
  // answer to NULL may be a crash; the shim's must be the same one.
  EXPECT_EQ(opendirVia(shimOpendir), opendirVia(libcOpendir));
}

}  // namespace
