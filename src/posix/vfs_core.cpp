#include "posix/vfs_core.hpp"

#include "common/env.hpp"

#include <algorithm>
#include <utility>

namespace simfs::posix {

namespace {

std::size_t resolveBatchMax(std::size_t fromOptions) {
  if (const auto v = env::getInt("SIMFS_POSIX_BATCH")) {
    if (*v > 0) return static_cast<std::size_t>(*v);
  }
  return fromOptions == 0 ? 64 : fromOptions;
}

}  // namespace

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
      geometry_(options_.geometryCall, options_.geometry) {
  options_.readdirBatchMax = resolveBatchMax(options_.readdirBatchMax);
}

PosixVfs::~PosixVfs() {
  std::lock_guard lock(mutex_);
  // Unwind in registration order: per-open registrations first, then the
  // listing batches, then the sessions themselves.
  for (auto& [id, open] : opens_) {
    if (open.own.valid()) (void)open.own.cancel();
  }
  for (auto& [name, ctx] : contexts_) {
    if (ctx.batch != nullptr && ctx.batch->handle.valid()) {
      (void)ctx.batch->handle.cancel();
    }
    if (ctx.session != nullptr) ctx.session->finalize();
  }
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
  if (offset != 0 || total == 0) return page;

  // Fresh listing: prefetch the window as ONE vectored acquire so the
  // `ls` + read-everything pipeline that follows costs a single
  // kOpenBatchReq. opens inside the window attach to this batch.
  const auto window = static_cast<std::size_t>(std::min<std::int64_t>(
      total, static_cast<std::int64_t>(options_.readdirBatchMax)));
  std::vector<std::string> files;
  files.reserve(window);
  for (std::size_t i = 0; i < window; ++i) {
    files.push_back(g->fileAt(static_cast<StepIndex>(i)));
  }
  std::lock_guard lock(mutex_);
  auto session = sessionForLocked(context);
  if (!session) return session.status();
  auto& ctx = contexts_[context];
  if (ctx.batch != nullptr && !ctx.batch->doomed &&
      ctx.batch->index.size() == files.size()) {
    return page;  // identical coverage already in flight / resident
  }
  if (ctx.batch != nullptr) {
    // Superseded listing: the old window's registrations die once its
    // attached opens drain (immediately when none are).
    ctx.batch->doomed = true;
    maybeReapBatchLocked(ctx.batch);
  }
  auto batch = std::make_shared<Batch>();
  for (std::size_t i = 0; i < files.size(); ++i) batch->index[files[i]] = i;
  batch->slots.resize(files.size());
  batch->handle = (*session)->acquireAsync(std::span<const std::string>(files));
  ctx.batch = std::move(batch);
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
  Open open;
  if (const auto& batch = contexts_[context].batch;
      batch != nullptr && !batch->doomed) {
    const auto covered = batch->index.find(file);
    if (covered != batch->index.end() &&
        !batch->slots[covered->second].released) {
      open.batch = batch;
      open.batchIndex = covered->second;
      ++batch->slots[covered->second].users;
    }
  }
  if (open.batch == nullptr) {
    // Not covered, or covered by an index whose registration the last
    // attached close already released: a batch of one of its own.
    open.own =
        (*session)->acquireAsync(std::span<const std::string>(&file, 1));
  }
  const std::int64_t id = nextOpenId_++;
  OpenedFile out;
  out.id = id;
  out.size = g->outputStepBytes;
  out.storeName = file;
  opens_.emplace(id, std::move(open));
  return out;
}

Status PosixVfs::waitReady(std::int64_t openId) {
  dvlib::AcquireHandle handle;
  std::size_t index = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = opens_.find(openId);
    if (it == opens_.end()) {
      return errFailedPrecondition("posix: unknown open handle");
    }
    if (it->second.batch != nullptr) {
      handle = it->second.batch->handle;
      index = it->second.batchIndex;
    } else {
      handle = it->second.own;
    }
  }
  return handle.waitIndex(index);
}

void PosixVfs::close(std::int64_t openId) {
  dvlib::AcquireHandle handle;
  std::size_t index = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = opens_.find(openId);
    if (it == opens_.end()) return;
    Open open = std::move(it->second);
    opens_.erase(it);
    if (open.batch != nullptr) {
      auto& slot = open.batch->slots[open.batchIndex];
      if (--slot.users == 0) {
        // Last attached open: the index's one registration goes now, so
        // a read-then-close sweep over a listing unpins as it goes.
        slot.released = true;
        handle = open.batch->handle;
        index = open.batchIndex;
      }
      maybeReapBatchLocked(open.batch);
    } else {
      // One fire-and-forget kReleaseReq releases the waiter entry (still
      // pending) or the delivered reference, so an opened-never-read
      // file pins nothing either.
      handle = std::move(open.own);
    }
  }
  if (handle.valid()) (void)handle.releaseIndex(index);
}

Result<std::shared_ptr<dvlib::Session>> PosixVfs::sessionForLocked(
    const std::string& context) {
  auto& ctx = contexts_[context];
  if (ctx.session != nullptr) return ctx.session;
  auto transport = options_.connect(context);
  if (!transport) return transport.status();
  auto session = dvlib::Session::connect(std::move(*transport), context);
  if (!session) return session.status();
  ctx.session = *session;
  return ctx.session;
}

void PosixVfs::maybeReapBatchLocked(const std::shared_ptr<Batch>& batch) {
  if (!batch->doomed ||
      std::any_of(batch->slots.begin(), batch->slots.end(),
                  [](const Batch::Slot& s) { return s.users != 0; })) {
    return;
  }
  if (batch->handle.valid()) (void)batch->handle.cancel();
}

}  // namespace simfs::posix
