#include "posix/vfs_core.hpp"

#include <algorithm>
#include <utility>

namespace simfs::posix {

PosixVfs::Options PosixVfs::socketOptions(const std::string& socketPath) {
  Options o;
  o.geometryCall = socketGeometryCall(socketPath);
  o.connect = [socketPath](const std::string&)
      -> Result<std::unique_ptr<msg::Transport>> {
    return msg::unixSocketConnect(socketPath);
  };
  return o;
}

PosixVfs::PosixVfs(Options options)
    : options_(std::move(options)),
      geometry_(options_.geometryCall, options_.geometry) {}

PosixVfs::~PosixVfs() {
  std::lock_guard lock(mutex_);
  // Unwind in registration order: the opens' registrations first, then
  // the sessions themselves.
  for (auto& [id, handle] : opens_) (void)handle.cancel();
  for (auto& [name, session] : sessions_) session->finalize();
}

Result<std::vector<std::string>> PosixVfs::listContexts() {
  auto names = geometry_.contexts();
  if (!names) return names;
  std::sort(names->begin(), names->end());
  return names;
}

Result<PosixVfs::Attr> PosixVfs::getattr(const ParsedPath& path) {
  Attr attr;
  switch (path.kind) {
    case PathKind::kRoot: {
      auto names = geometry_.contexts();
      if (!names) return names.status();
      attr.dir = true;
      attr.entries = static_cast<std::int64_t>(names->size());
      return attr;
    }
    case PathKind::kContext: {
      auto g = geometry_.context(std::string(path.context));
      if (!g) return g.status();
      attr.dir = true;
      attr.entries = g->numOutputSteps;
      return attr;
    }
    case PathKind::kFile: {
      auto g = geometry_.context(std::string(path.context));
      if (!g) return g.status();
      StepIndex step = 0;
      if (!g->stepOf(path.file, &step) || step < 0 ||
          step >= g->numOutputSteps) {
        return errNotFound("posix: no such output step");
      }
      attr.size = g->outputStepBytes;
      return attr;
    }
    case PathKind::kInvalid:
      break;
  }
  return errNotFound("posix: no such path");
}

Result<PosixVfs::DirPage> PosixVfs::readdir(const std::string& context,
                                            std::int64_t offset,
                                            std::size_t limit) {
  auto g = geometry_.context(context);
  if (!g) return g.status();
  const std::int64_t total = g->numOutputSteps;
  if (offset < 0) return errInvalidArgument("posix: negative readdir offset");
  DirPage page;
  const std::int64_t end =
      std::min<std::int64_t>(total, offset + static_cast<std::int64_t>(limit));
  for (std::int64_t i = offset; i < end; ++i) {
    page.names.push_back(g->fileAt(i));
  }
  page.more = end < total;
  return page;
}

Result<PosixVfs::OpenedFile> PosixVfs::open(const std::string& context,
                                            const std::string& file) {
  auto g = geometry_.context(context);
  if (!g) return g.status();
  StepIndex step = 0;
  if (!g->stepOf(file, &step) || step < 0 || step >= g->numOutputSteps) {
    return errNotFound("posix: no such output step");
  }
  std::lock_guard lock(mutex_);
  auto session = sessionForLocked(context);
  if (!session) return session.status();
  const std::int64_t id = nextOpenId_++;
  OpenedFile out;
  out.id = id;
  out.size = g->outputStepBytes;
  out.storeName = file;
  opens_.emplace(
      id, (*session)->acquireAsync(std::span<const std::string>(&file, 1)));
  return out;
}

Status PosixVfs::waitReady(std::int64_t openId) {
  dvlib::AcquireHandle handle;
  {
    std::lock_guard lock(mutex_);
    const auto it = opens_.find(openId);
    if (it == opens_.end()) {
      return errFailedPrecondition("posix: unknown open handle");
    }
    handle = it->second;
  }
  return handle.wait();
}

void PosixVfs::close(std::int64_t openId) {
  dvlib::AcquireHandle handle;
  {
    std::lock_guard lock(mutex_);
    const auto it = opens_.find(openId);
    if (it == opens_.end()) return;
    handle = std::move(it->second);
    opens_.erase(it);
  }
  // One fire-and-forget kReleaseReq frees the waiter entry (still
  // pending) or the delivered reference, so an opened-never-read file
  // pins nothing either.
  (void)handle.cancel();
}

Result<std::shared_ptr<dvlib::Session>> PosixVfs::sessionForLocked(
    const std::string& context) {
  if (const auto it = sessions_.find(context); it != sessions_.end()) {
    return it->second;
  }
  auto transport = options_.connect(context);
  if (!transport) return transport.status();
  auto session = dvlib::Session::connect(std::move(*transport), context);
  if (!session) return session.status();
  sessions_.emplace(context, *session);
  return session;
}

}  // namespace simfs::posix
